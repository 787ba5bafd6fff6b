// Observability core: TraceSpan tree construction (including concurrent
// child creation), EXPLAIN ANALYZE rendering, the shared LogHistogram's
// percentile interpolation at its edge cases (empty, single-bucket,
// overflow-bucket), MetricsRegistry rendering in both formats, and the
// slow-hunt JSONL log. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace raptor::obs {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram percentile interpolation (the shared histogram semantics
// every subsystem inherits — locked here).

TEST(LogHistogramTest, EmptyHistogramSummarizesToZero) {
  LogHistogram h;
  LogHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p90, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(LogHistogramTest, SingleValueCollapsesAllQuantiles) {
  // 64 lands exactly on its bucket floor and is the observed max, so the
  // bucket span caps to zero width: every quantile is the value itself.
  LogHistogram h;
  h.Record(64);
  LogHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.p50, 64.0);
  EXPECT_EQ(s.p90, 64.0);
  EXPECT_EQ(s.p99, 64.0);
  EXPECT_EQ(s.mean, 64.0);
  EXPECT_EQ(s.max, 64.0);
}

TEST(LogHistogramTest, SingleBucketInterpolatesWithinBucket) {
  // All samples in bucket [64, 128); the bucket's effective ceiling is
  // the observed max (100), so interpolated quantiles stay within
  // [floor, max] and are monotone in q.
  LogHistogram h;
  h.Record(70);
  h.Record(80);
  h.Record(100);
  LogHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_GE(s.p50, 64.0);
  EXPECT_LE(s.p99, 100.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_EQ(s.max, 100.0);
  // Fractional rank: p50 of 3 samples sits at rank 1 of [0, 2], i.e. one
  // third into the bucket's population, not pinned to the floor.
  EXPECT_GT(h.Quantile(0.5), 64.0);
}

TEST(LogHistogramTest, OverflowBucketAbsorbsHugeValues) {
  // Values >= 2^39 all land in the last bucket; quantiles stay finite and
  // bounded by the bucket ceiling, max records the true maximum.
  const double kHuge = 1e12;  // > 2^39 ~= 5.5e11
  LogHistogram h;
  h.Record(kHuge);
  h.Record(2 * kHuge);
  h.Record(3 * kHuge);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.buckets[LogHistogram::kBuckets - 1], 3u);
  LogHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.max, 3 * kHuge);
  EXPECT_GE(s.p50, static_cast<double>(uint64_t{1} << 39));
  EXPECT_LE(s.p99, s.max);
  EXPECT_EQ(h.Quantile(1.0), h.Quantile(1.0));  // not NaN
}

TEST(LogHistogramTest, TwoSamplesSpanTheirBuckets) {
  // Ranks scale as q * (count - 1): with {1, 1000}, every q < 1 keeps
  // rank < 1 and interpolates inside the first sample's [0,2) bucket;
  // only q = 1 crosses into the large sample's [512,1024) bucket.
  LogHistogram h;
  h.Record(1);
  h.Record(1000);
  EXPECT_LT(h.Quantile(0.99), 2.0);
  EXPECT_GE(h.Quantile(1.0), 512.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
  EXPECT_LT(h.Quantile(0.0), 2.0);
}

// ---------------------------------------------------------------------------
// TraceSpan tree.

TEST(TraceSpanTest, TreeCountersNotesAndFinish) {
  auto root = TraceSpan::Root("hunt");
  root->Note("dialect", "tbql");
  TraceSpan* child = root->AddChild("execute");
  child->Add("rows", 3);
  child->Add("rows", 4);
  child->Set("shards", 2);
  child->Finish();
  root->Finish();
  root->Finish();  // idempotent

  EXPECT_TRUE(root->finished());
  EXPECT_EQ(root->children().size(), 1u);
  EXPECT_EQ(root->children()[0]->name(), "execute");
  EXPECT_EQ(child->counter("rows"), 7);
  EXPECT_EQ(child->counter("shards"), 2);
  EXPECT_EQ(child->counter("missing", -1), -1);
  auto notes = root->notes();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].first, "dialect");
  EXPECT_EQ(notes[0].second, "tbql");
  EXPECT_GE(root->duration_micros(), 0);
}

TEST(TraceSpanTest, SetWindowOverridesMeasuredDuration) {
  auto root = TraceSpan::Root("queue_wait");
  auto start = TraceSpan::Clock::now();
  root->SetWindow(start, start + std::chrono::milliseconds(10));
  EXPECT_TRUE(root->finished());
  EXPECT_EQ(root->duration_micros(), 10'000);
  EXPECT_NEAR(root->seconds(), 0.010, 1e-9);
}

TEST(TraceSpanTest, ConcurrentChildCreationIsSafe) {
  auto root = TraceSpan::Root("hunt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan* child =
            root->AddChild("w" + std::to_string(t) + "_" + std::to_string(i));
        child->Add("n", 1);
        root->Add("total", 1);
        child->Finish();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  root->Finish();
  EXPECT_EQ(root->children().size(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(root->counter("total"), kThreads * kPerThread);
}

TEST(TraceSpanTest, NullTolerantHelpersNoOp) {
  EXPECT_EQ(Child(nullptr, "x"), nullptr);
  Add(nullptr, "c", 1);
  Set(nullptr, "c", 1);
  Note(nullptr, "k", "v");
  Finish(nullptr);
  ScopedSpan scoped(nullptr, "y");
  EXPECT_EQ(scoped.get(), nullptr);

  auto root = TraceSpan::Root("r");
  {
    ScopedSpan live(root.get(), "child");
    ASSERT_NE(live.get(), nullptr);
    live.get()->Add("hit", 1);
  }
  ASSERT_EQ(root->children().size(), 1u);
  EXPECT_TRUE(root->children()[0]->finished());
}

// ---------------------------------------------------------------------------
// Profile rendering.

/// Brace balance ignoring string literals — a cheap structural JSON check
/// (the CI smoke does a full parse with python).
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::shared_ptr<TraceSpan> BuildSampleTree() {
  auto root = TraceSpan::Root("hunt");
  root->Note("dialect", "tbql");
  TraceSpan* exec = root->AddChild("execute");
  TraceSpan* p0 = exec->AddChild("pattern[0]");
  p0->Set("match_count", 42);
  p0->Note("backend", "relational");
  p0->Finish();
  exec->Finish();
  root->Finish();
  return root;
}

TEST(ProfileRenderTest, TextTreeShowsNamesCountersAndPercent) {
  auto root = BuildSampleTree();
  std::string text = RenderProfileText(*root);
  EXPECT_NE(text.find("hunt"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("pattern[0]"), std::string::npos);
  EXPECT_NE(text.find("match_count=42"), std::string::npos);
  EXPECT_NE(text.find("dialect=tbql"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(ProfileRenderTest, JsonIsStructurallySound) {
  auto root = BuildSampleTree();
  std::string json = RenderProfileJson(*root);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"name\":\"hunt\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"match_count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"duration_us\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

TEST(MetricsRegistryTest, PrometheusRendersTypedFamiliesAndLabels) {
  MetricsRegistry registry;
  registry.Counter("raptor_hunts_total", "Hunts", 5);
  registry.Gauge("raptor_queue_depth", "Queued", 2);
  registry.Counter("raptor_tenant_total", "By tenant", 3,
                   {{"tenant", "alpha"}});
  registry.Counter("raptor_tenant_total", "By tenant", 1,
                   {{"tenant", "be\"ta"}});
  std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE raptor_hunts_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE raptor_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("raptor_hunts_total 5\n"), std::string::npos);
  EXPECT_NE(prom.find("raptor_tenant_total{tenant=\"alpha\"} 3"),
            std::string::npos);
  // Label values escape embedded quotes.
  EXPECT_NE(prom.find("raptor_tenant_total{tenant=\"be\\\"ta\"} 1"),
            std::string::npos);
  // Both tenant series live under one family header.
  EXPECT_EQ(registry.family_count(), 3u);
}

TEST(MetricsRegistryTest, PrometheusHistogramIsCumulative) {
  LogHistogram h;
  h.Record(1);  // bucket 0: [0, 2)
  h.Record(3);  // bucket 1: [2, 4)
  MetricsRegistry registry;
  registry.Histogram("raptor_latency", "Latency", h);
  std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE raptor_latency histogram"), std::string::npos);
  EXPECT_NE(prom.find("raptor_latency_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("raptor_latency_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("raptor_latency_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("raptor_latency_sum 4"), std::string::npos);
  EXPECT_NE(prom.find("raptor_latency_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonRendersAllFamilies) {
  LogHistogram h;
  h.Record(10);
  MetricsRegistry registry;
  registry.Counter("a_total", "A", 1);
  registry.Histogram("b_micros", "B", h, {{"tenant", "t"}});
  std::string json = registry.ToJson();
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(registry.Render(MetricsFormat::kJson), json);
  EXPECT_EQ(registry.Render(MetricsFormat::kPrometheus),
            registry.ToPrometheus());
}

// ---------------------------------------------------------------------------
// Slow-hunt log.

TEST(SlowHuntLogTest, LogsOnlyPastThresholdWithProfile) {
  std::string path = testing::TempDir() + "/slow_hunts_test.jsonl";
  std::remove(path.c_str());
  {
    SlowHuntLog log(path, /*threshold_micros=*/1000);
    EXPECT_EQ(log.threshold_micros(), 1000);
    auto trace = BuildSampleTree();
    log.MaybeLog("alpha", "tbql", "proc p return p", "ok", 500,
                 trace.get());  // below threshold
    EXPECT_EQ(log.logged(), 0u);
    log.MaybeLog("alpha", "tbql", "proc p return p", "ok", 2000,
                 trace.get());
    log.MaybeLog("", "cypher", "MATCH (p) RETURN p", "timeout", 5000,
                 nullptr);  // null trace: profile omitted, still logged
    EXPECT_EQ(log.logged(), 2u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(JsonBalanced(lines[0]));
  EXPECT_TRUE(JsonBalanced(lines[1]));
  EXPECT_NE(lines[0].find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"profile\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"timeout\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"profile\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SlowHuntLogTest, UnopenablePathDisablesNotCrashes) {
  SlowHuntLog log("/nonexistent-dir-xyz/slow.jsonl", 0);
  log.MaybeLog("t", "tbql", "q", "ok", 100, nullptr);
  EXPECT_EQ(log.logged(), 0u);
}

}  // namespace
}  // namespace raptor::obs
