#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>

#include "audit/parser.h"
#include "engine/compiler.h"
#include "engine/executor.h"
#include "storage/store.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace raptor::engine {
namespace {

using audit::EventOp;

/// A hand-built store with a small known event chain plus decoys:
///   bash -start-> tar; tar -read-> /etc/passwd; tar -write-> /tmp/out.tar;
///   scp -send-> 9.9.9.9; decoy process reads an unrelated file.
class EngineTest : public ::testing::Test {
 protected:
  static audit::SyscallRecord Rec(audit::Timestamp ts, const char* syscall,
                                  const char* exe, long long pid) {
    audit::SyscallRecord r;
    r.ts = ts;
    r.duration = 10;
    r.syscall = syscall;
    r.exe = exe;
    r.pid = pid;
    return r;
  }

  void SetUp() override {
    std::vector<audit::SyscallRecord> recs;
    {
      auto r = Rec(1'000'000, "execve", "/bin/bash", 10);
      r.target_exe = "/bin/tar";
      r.target_pid = 11;
      recs.push_back(r);
    }
    {
      auto r = Rec(2'000'000, "read", "/bin/tar", 11);
      r.path = "/etc/passwd";
      r.ret = 1000;
      recs.push_back(r);
    }
    {
      auto r = Rec(4'000'000, "write", "/bin/tar", 11);
      r.path = "/tmp/out.tar";
      r.ret = 2000;
      recs.push_back(r);
    }
    {
      auto r = Rec(6'000'000, "sendto", "/usr/bin/scp", 12);
      r.src_ip = "10.0.0.5";
      r.src_port = 40000;
      r.dst_ip = "9.9.9.9";
      r.dst_port = 22;
      r.protocol = "tcp";
      r.ret = 4096;
      recs.push_back(r);
    }
    {
      auto r = Rec(3'000'000, "read", "/usr/bin/vim", 13);
      r.path = "/home/user/notes.txt";
      r.ret = 64;
      recs.push_back(r);
    }
    ASSERT_TRUE(parser_.Parse(recs, &log_).ok());
    ASSERT_TRUE(store_.Load(log_).ok());
  }

  /// Ingest `recs` as a follow-up batch (entities extend the loaded ones).
  void Append(const std::vector<audit::SyscallRecord>& recs) {
    log_.events.clear();
    ASSERT_TRUE(parser_.Parse(recs, &log_).ok());
    ASSERT_TRUE(store_.Append(log_).ok());
  }

  ExecReport Run(const char* query, ExecOptions opts = {}) {
    TbqlExecutor executor(&store_);
    auto report = executor.ExecuteText(query, opts);
    EXPECT_TRUE(report.ok()) << query << " -> " << report.status().ToString();
    return report.ok() ? std::move(report).value() : ExecReport{};
  }

  audit::AuditLogParser parser_;
  audit::ParsedLog log_;
  storage::AuditStore store_;
};

TEST_F(EngineTest, SingleEventPattern) {
  auto report = Run(
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] return p, f");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
  EXPECT_EQ(report.results.rows[0][1], "/etc/passwd");
}

TEST_F(EngineTest, TemporalChainHonored) {
  auto ok = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out.tar%\"] as e2 "
      "with e1 before e2 return p, g");
  EXPECT_EQ(ok.results.rows.size(), 1u);
  // Reversed order must not match.
  auto rev = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out.tar%\"] as e2 "
      "with e2 before e1 return p, g");
  EXPECT_TRUE(rev.results.rows.empty());
}

TEST_F(EngineTest, TemporalGapBounds) {
  // Gap between read(end 2.00001s) and write(start 4s) is ~2 seconds.
  auto inside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 before[0-5 sec] e2 return p");
  EXPECT_EQ(inside.results.rows.size(), 1u);
  auto outside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 before[0-1 sec] e2 return p");
  EXPECT_TRUE(outside.results.rows.empty());
}

TEST_F(EngineTest, WithinTemporalOperator) {
  // read starts at 2s, write at 4s: distance 2s, symmetric in order.
  auto inside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e2 within[0-3 sec] e1 return p");
  EXPECT_EQ(inside.results.rows.size(), 1u);
  auto outside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 within[0-1 sec] e2 return p");
  EXPECT_TRUE(outside.results.rows.empty());
}

TEST_F(EngineTest, AfterOperatorIsBeforeReversed) {
  auto fwd = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e2 after e1 return p");
  EXPECT_EQ(fwd.results.rows.size(), 1u);
  auto rev = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 after e2 return p");
  EXPECT_TRUE(rev.results.rows.empty());
}

TEST_F(EngineTest, EntityIdReuseJoinsAcrossPatterns) {
  // p must be the same process in both patterns: tar reads passwd AND
  // writes out.tar. A query binding the decoy process must not join.
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g as e2 return distinct p");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
}

TEST_F(EngineTest, ProcessStartPattern) {
  auto report = Run("proc p start proc q[\"%tar%\"] return p, q");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/bash");
}

TEST_F(EngineTest, NetworkPatternWithPortFilter) {
  auto report = Run(
      "proc p send ip i[dstport = 22] return p, i.dstip, i.dstport");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][1], "9.9.9.9");
}

TEST_F(EngineTest, GlobalWindowRestrictsMatches) {
  auto all = Run("proc p read || write file f return p, f");
  auto windowed = Run(
      "from 0 to 2500000 proc p read || write file f return p, f");
  EXPECT_GT(all.results.rows.size(), windowed.results.rows.size());
  ASSERT_EQ(windowed.results.rows.size(), 1u);
  EXPECT_EQ(windowed.results.rows[0][1], "/etc/passwd");
}

TEST_F(EngineTest, LastWindowUsesNewestEvent) {
  // Newest event ends at ~6s; "last 3 sec" covers [3s, 6s], which holds
  // the out.tar write but not the passwd read.
  auto ok = Run("last 3 sec proc p write file f return p, f");
  ASSERT_EQ(ok.results.rows.size(), 1u);
  EXPECT_EQ(ok.results.rows[0][1], "/tmp/out.tar");
  auto excluded = Run("last 3 sec proc p read file f[\"%passwd%\"] "
                      "return p, f");
  EXPECT_TRUE(excluded.results.rows.empty());
}

TEST_F(EngineTest, LastWindowFollowsAppendedEvents) {
  auto r = Rec(20'000'000, "write", "/bin/tar", 11);
  r.path = "/tmp/late.tar";
  r.ret = 10;
  Append({r});
  // The newest event now ends at ~20s, so "last 3 sec" covers only the
  // appended write; a query without a "last" window still sees both.
  auto last = Run("last 3 sec proc p write file f return p, f");
  ASSERT_EQ(last.results.rows.size(), 1u);
  EXPECT_EQ(last.results.rows[0][1], "/tmp/late.tar");
  auto pattern_last =
      Run("proc p write file f last 3 sec return p, f");
  ASSERT_EQ(pattern_last.results.rows.size(), 1u);
  EXPECT_EQ(pattern_last.results.rows[0][1], "/tmp/late.tar");
  EXPECT_EQ(Run("proc p write file f return p, f").results.rows.size(), 2u);
}

TEST_F(EngineTest, LastWindowReachingPastZeroStartsAtZero) {
  // The newest event ends at ~6s, so "last 1 days" reaches back before
  // time 0: the window starts at 0 and keeps every event.
  const char* windowless = "proc p read || write file f return p, f";
  auto all = Run(windowless);
  auto last = Run("last 1 days proc p read || write file f return p, f");
  ASSERT_FALSE(all.results.rows.empty());
  std::sort(all.results.rows.begin(), all.results.rows.end());
  std::sort(last.results.rows.begin(), last.results.rows.end());
  EXPECT_EQ(last.results.rows, all.results.rows);
}

TEST_F(EngineTest, LastWindowEstimateMatchesWindowless) {
  // EstimateCost compiles with now = 0, where every "last N" window
  // reaches back past 0; it must price the hunt, not fail to parse it.
  TbqlExecutor executor(&store_);
  double windowless =
      executor.EstimateCost("proc p read || write file f return p, f");
  EXPECT_GT(windowless, 0.0);
  EXPECT_EQ(executor.EstimateCost(
                "last 1 days proc p read || write file f return p, f"),
            windowless);
}

TEST_F(EngineTest, EventAttributeReturn) {
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 return e1, e1.amount");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][1], "1000");
}

TEST_F(EngineTest, Length1PathEquivalentToEventPattern) {
  auto event = Run("proc p read file f[\"%passwd%\"] return p, f");
  auto path = Run("proc p ->[read] file f[\"%passwd%\"] return p, f");
  EXPECT_EQ(event.results.rows, path.results.rows);
}

TEST_F(EngineTest, MultiHopPathThroughIntermediate) {
  // bash -> tar -> /etc/passwd is a 2-hop forward chain.
  auto report = Run(
      "proc p[\"%bash%\"] ~>(2~2) file f[\"%passwd%\"] return p, f");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/bash");
}

TEST_F(EngineTest, ZeroMatchPatternDoesNotEmptyResult) {
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc x[\"%nonexistent%\"] write file y[\"%nothing%\"] as e2 "
      "return p, f");
  EXPECT_EQ(report.unmatched_patterns.size(), 1u);
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
}

TEST_F(EngineTest, AllOptionsCombinationsAgree) {
  const char* queries[] = {
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out%\"] as e2 "
      "with e1 before e2 return distinct p, f, g",
      // A zero-match pattern propagates no domain; the dependent pattern
      // runs unfiltered.
      "proc p[\"%nonexistent%\"] read file f as e1 "
      "proc p write file g as e2 return p",
  };
  for (const char* query : queries) {
    auto baseline = Run(query);
    for (bool sched : {false, true}) {
      for (bool prop : {false, true}) {
        ExecOptions opts;
        opts.use_scheduler = sched;
        opts.propagate_constraints = prop;
        auto report = Run(query, opts);
        EXPECT_EQ(report.results.rows, baseline.results.rows)
            << query << " sched=" << sched << " prop=" << prop;
      }
    }
  }
}

TEST_F(EngineTest, PatternDependenciesChainSharedEntities) {
  // p links patterns 0 and 1; pattern 2 (distinct process q) reads
  // neither one's matched ids.
  auto q = tbql::ParseTbql(
      "proc p read file f as e1 "
      "proc p write file g as e2 "
      "proc q send ip i as e3 return p");
  ASSERT_TRUE(q.ok());
  auto aq = tbql::Analyze(q.value());
  ASSERT_TRUE(aq.ok());
  std::vector<size_t> order = {0, 1, 2};
  auto deps = PatternDependencies(aq.value(), order);
  ASSERT_EQ(deps.size(), 3u);
  EXPECT_TRUE(deps[0].empty());
  EXPECT_EQ(deps[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(deps[2].empty());
  // The executed report carries the same DAG.
  auto report = Run(
      "proc p read file f as e1 proc p write file g as e2 "
      "proc q send ip i as e3 return p");
  ASSERT_EQ(report.pattern_deps.size(), 3u);
  EXPECT_EQ(report.pattern_deps[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(report.pattern_deps[2].empty());
}

TEST_F(EngineTest, PresetCancelFlagYieldsCancelled) {
  std::atomic<bool> cancel{true};
  ExecOptions opts;
  opts.cancel = &cancel;
  TbqlExecutor executor(&store_);
  auto report =
      executor.ExecuteText("proc p read file f return p, f", opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineTest, ExpiredDeadlineYieldsTimeout) {
  ExecOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  TbqlExecutor executor(&store_);
  auto report =
      executor.ExecuteText("proc p read file f return p, f", opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kTimeout);
}

TEST_F(EngineTest, PruningScoreOrdersByConstraints) {
  auto q = tbql::ParseTbql(
      "proc p read file f as e1 "
      "proc p2[\"%tar%\"] write file f2[\"%out%\"] as e2 return p");
  ASSERT_TRUE(q.ok());
  auto aq = tbql::Analyze(q.value());
  ASSERT_TRUE(aq.ok());
  EXPECT_LT(PruningScore(aq.value(), 0), PruningScore(aq.value(), 1));
}

TEST_F(EngineTest, CompilerEmitsSqlForEventPattern) {
  auto q = tbql::ParseTbql(
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] as e1 return p");
  auto aq = tbql::Analyze(q.value());
  auto dq = CompilePattern(aq.value(), 0, {});
  ASSERT_TRUE(dq.ok());
  EXPECT_EQ(dq.value().backend, Backend::kRelational);
  EXPECT_NE(dq.value().text.find("LIKE '%tar%'"), std::string::npos);
  EXPECT_NE(dq.value().text.find("e.op = 'read'"), std::string::npos);
  // The emitted SQL must execute on the relational backend.
  EXPECT_TRUE(store_.relational().Query(dq.value().text).ok());
}

TEST_F(EngineTest, CompilerEmitsCypherForPathPattern) {
  auto q = tbql::ParseTbql(
      "proc p[\"%bash%\"] ~>(1~3)[read] file f return p, f");
  auto aq = tbql::Analyze(q.value());
  auto dq = CompilePattern(aq.value(), 0, {});
  ASSERT_TRUE(dq.ok());
  EXPECT_EQ(dq.value().backend, Backend::kGraph);
  EXPECT_NE(dq.value().text.find("MATCH"), std::string::npos);
  EXPECT_NE(dq.value().text.find("*0..2"), std::string::npos);
  EXPECT_TRUE(store_.graph().Query(dq.value().text).ok());
}

TEST_F(EngineTest, ConstraintInjection) {
  auto q = tbql::ParseTbql("proc p read file f as e1 return p");
  auto aq = tbql::Analyze(q.value());
  EntityConstraints constraints;
  constraints["p"] = {3, 5, 8};
  auto dq = CompilePattern(aq.value(), 0, constraints);
  ASSERT_TRUE(dq.ok());
  // The subject alias in per-pattern SQL is "s".
  EXPECT_NE(dq.value().text.find("s.id IN (3, 5, 8)"), std::string::npos)
      << dq.value().text;
  // The domain is rendered once: the SQL planner seeds the events access
  // from the constrained subjects' join keys, so running the query probes
  // only their events, not every read.
  EXPECT_EQ(dq.value().text.find("e.subject IN"), std::string::npos);
  long long vim = -1;
  size_t files = 0;
  for (const audit::SystemEntity& ent : store_.entities()) {
    if (ent.exename == "/usr/bin/vim") vim = static_cast<long long>(ent.id);
    if (ent.type == audit::EntityType::kFile) ++files;
  }
  ASSERT_GE(vim, 0);
  size_t vim_events = 0, reads = 0;
  for (const audit::SystemEvent& ev : store_.events()) {
    if (static_cast<long long>(ev.subject) == vim) ++vim_events;
    if (ev.op == EventOp::kRead) ++reads;
  }
  ASSERT_LT(vim_events, reads);
  constraints["p"] = {vim};
  auto vq = CompilePattern(aq.value(), 0, constraints);
  ASSERT_TRUE(vq.ok());
  sql::ExecStats stats;
  auto rs = store_.relational().Query(vq.value().text, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 1u);
  // One subject row (s.id probe), the file rows (o.type probe), and vim's
  // events (e seeded from s).
  EXPECT_EQ(stats.index_probe_rows, 1 + files + vim_events);
}

TEST_F(EngineTest, GiantQueriesAgreeWithScheduledExecution) {
  const char* query =
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out%\"] as e2 "
      "with e1 before e2 return distinct p, f, g";
  auto parsed = tbql::ParseTbql(query);
  auto aq = tbql::Analyze(parsed.value());
  auto scheduled = Run(query);

  auto sql = CompileGiantSql(aq.value());
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto sql_rs = store_.relational().Query(sql.value());
  ASSERT_TRUE(sql_rs.ok()) << sql.value() << " -> "
                           << sql_rs.status().ToString();
  ASSERT_EQ(sql_rs.value().rows.size(), scheduled.results.rows.size());
  EXPECT_EQ(sql_rs.value().rows[0][0].AsText(), "/bin/tar");

  auto cypher = CompileGiantCypher(aq.value());
  ASSERT_TRUE(cypher.ok()) << cypher.status().ToString();
  auto cy_rs = store_.graph().Query(cypher.value());
  ASSERT_TRUE(cy_rs.ok()) << cypher.value() << " -> "
                          << cy_rs.status().ToString();
  ASSERT_EQ(cy_rs.value().rows.size(), scheduled.results.rows.size());
  EXPECT_EQ(cy_rs.value().rows[0][0].AsText(), "/bin/tar");
}

TEST_F(EngineTest, GiantSqlRejectsMultiHopPaths) {
  auto q = tbql::ParseTbql("proc p ~>(1~3) file f return p, f");
  auto aq = tbql::Analyze(q.value());
  EXPECT_FALSE(CompileGiantSql(aq.value()).ok());
  EXPECT_TRUE(CompileGiantCypher(aq.value()).ok());
}

TEST_F(EngineTest, ToLength1PathQueryPreservesSemantics) {
  auto q = tbql::ParseTbql(
      "proc p read file f[\"%passwd%\"] as e1 return distinct p, f");
  tbql::TbqlQuery path_q = ToLength1PathQuery(q.value());
  EXPECT_TRUE(path_q.patterns[0].path.is_path);
  TbqlExecutor executor(&store_);
  auto a = executor.Execute(q.value());
  auto b = executor.Execute(path_q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().results.rows, b.value().results.rows);
}

}  // namespace
}  // namespace raptor::engine
