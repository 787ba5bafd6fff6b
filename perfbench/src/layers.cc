#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

using raptor::obs::TraceSpan;

const char* const kBuckets[] = {"extraction", "synthesis", "ingest",
                                "service",    "engine",    "storage",
                                "delivery",   "other",     "unexplained"};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string NoteOf(const TraceSpan& span, std::string_view key) {
  for (const auto& [k, v] : span.notes()) {
    if (k == key) return v;
  }
  return "";
}

struct Node {
  const TraceSpan* span = nullptr;
  int parent = -1;
  std::vector<int> children;
  double s = 0, e = 0;  // ms from the op start
  std::string bucket;
  std::string dialect;
  std::string backend;  // "relational" / "graph", from the pattern span
  bool worker = false;
};

std::string BucketOf(const std::string& name, const std::string& dialect) {
  if (name == "op") return "unexplained";
  if (name == "extraction" || name == "synthesis" || name == "ingest" ||
      name == "delivery") {
    return name;
  }
  if (name == "hunt" || name == "queue_wait" || name == "standing_refresh" ||
      name == "dedup_wait" || StartsWith(name, "incremental_pass[")) {
    return "service";
  }
  if (name == "execute") return dialect == "tbql" ? "engine" : "storage";
  if (StartsWith(name, "pattern[") || name == "refilter" || name == "join" ||
      name == "project") {
    return "engine";
  }
  if (StartsWith(name, "morsel_worker[") || StartsWith(name, "shard[")) {
    return "storage";
  }
  return "other";
}

/// Length of the union of [s, e) intervals, clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> iv, double lo,
                   double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = -1;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

}  // namespace

void LayerFold::AddOp(const OpTrace& op) {
  std::vector<Node> nodes;
  std::function<void(const std::shared_ptr<const TraceSpan>&, int)> flatten =
      [&](const std::shared_ptr<const TraceSpan>& span, int parent) {
        Node n;
        n.span = span.get();
        n.parent = parent;
        n.s = Ms(op.start, span->start());
        n.e = n.s + span->seconds() * 1e3;
        std::string dialect = NoteOf(*span, "dialect");
        n.dialect = !dialect.empty() ? dialect
                    : parent >= 0    ? nodes[parent].dialect
                                     : op.dialect;
        std::string backend = NoteOf(*span, "backend");
        n.backend = !backend.empty() ? backend
                    : parent >= 0    ? nodes[parent].backend
                                     : "";
        n.bucket = BucketOf(span->name(), n.dialect);
        n.worker = StartsWith(span->name(), "morsel_worker[") ||
                   StartsWith(span->name(), "shard[");
        int idx = static_cast<int>(nodes.size());
        nodes.push_back(std::move(n));
        if (parent >= 0) nodes[parent].children.push_back(idx);
        for (const auto& child : span->children()) flatten(child, idx);
      };
  for (const auto& root : op.roots) flatten(root, -1);

  double op_ms = Ms(op.start, op.end);
  sums_["op_ms"] += op_ms;
  ++ops_;

  // Self times and counters.
  int tbql_executes = 0;
  std::map<size_t, double> pattern_ms;  // of the op's one TBQL execute
  for (const Node& n : nodes) {
    std::vector<std::pair<double, double>> kids;
    double worker_busy = 0;
    int workers = 0;
    for (int c : n.children) {
      kids.push_back({nodes[c].s, nodes[c].e});
      if (nodes[c].worker) {
        worker_busy += nodes[c].e - nodes[c].s;
        ++workers;
      }
    }
    double dur = n.e - n.s;
    double self = dur - UnionLength(kids, n.s, n.e);
    const std::string& name = n.span->name();
    if (workers > 0) {
      sums_["worker_busy_ms"] += worker_busy;
      sums_["worker_capacity_ms"] += workers * dur;
    }
    sums_["subresult_hits"] += n.span->counter("subresult_cache_hits");
    sums_["subresult_misses"] += n.span->counter("subresult_cache_misses");
    if (name == "execute" && n.dialect == "tbql") {
      sums_["engine.execute_ms"] += dur;
      sums_["engine.execute_self_ms"] += self;
      ++tbql_executes;
    } else if (StartsWith(name, "pattern[")) {
      sums_["engine.pattern_self_ms"] += self;
      if (n.parent >= 0 && nodes[n.parent].span->name() == "execute") {
        pattern_ms[std::stoul(name.substr(8))] = dur;
      }
    } else if (name == "refilter" || name == "join" || name == "project") {
      sums_["engine." + name + "_ms"] += dur;
      sums_["engine.join_assignments"] += n.span->counter("assignments");
      sums_["engine.rows_out"] += n.span->counter("rows_emitted");
    } else if (n.worker) {
      bool sql = n.backend == "relational" ||
                 (n.backend.empty() && n.dialect == "sql");
      sums_[sql ? "storage.sql_ms" : "storage.cypher_ms"] += self;
      for (const char* c :
           {"base_rows_scanned", "index_probe_rows", "columnar_filter_rows",
            "seeds_visited", "edges_traversed", "rows_emitted",
            "morsels_executed", "morsels_stolen"}) {
        sums_[std::string("storage.") + c] += n.span->counter(c);
      }
    } else if (name == "standing_refresh") {
      sums_["service.refresh_ms"] += dur;
    }
  }

  // Longest dependency chain of pattern spans.
  if (tbql_executes == 1 && !pattern_ms.empty()) {
    std::map<size_t, double> memo;
    std::function<double(size_t)> chain = [&](size_t i) -> double {
      if (auto it = memo.find(i); it != memo.end()) return it->second;
      double best = 0;
      if (i < op.pattern_deps.size()) {
        for (size_t d : op.pattern_deps[i]) best = std::max(best, chain(d));
      }
      double own = pattern_ms.count(i) ? pattern_ms[i] : 0;
      return memo[i] = best + own;
    };
    double cp = 0;
    for (const auto& [i, ms] : pattern_ms) cp = std::max(cp, chain(i));
    sums_["engine.critical_path_ms"] += cp;
  }

  // Wall shares: split each elementary interval among the innermost
  // active spans.
  std::vector<double> cuts = {0, op_ms};
  for (const Node& n : nodes) {
    cuts.push_back(std::clamp(n.s, 0.0, op_ms));
    cuts.push_back(std::clamp(n.e, 0.0, op_ms));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<char> active(nodes.size());
  std::vector<int> innermost;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    double a = cuts[k], b = cuts[k + 1];
    for (size_t i = 0; i < nodes.size(); ++i) {
      active[i] = nodes[i].s <= a && nodes[i].e >= b;
    }
    innermost.clear();
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!active[i]) continue;
      bool child_active = false;
      for (int c : nodes[i].children) child_active |= active[c] != 0;
      if (!child_active) innermost.push_back(static_cast<int>(i));
    }
    if (innermost.empty()) {
      sums_["wall.unexplained"] += b - a;
      continue;
    }
    double share = (b - a) / static_cast<double>(innermost.size());
    for (int i : innermost) sums_["wall." + nodes[i].bucket] += share;
  }
}

double LayerFold::Total(const std::string& key) const {
  auto it = sums_.find(key);
  return it == sums_.end() ? 0.0 : it->second;
}

double LayerFold::PerOp(const std::string& key) const {
  return ops_ == 0 ? 0.0 : Total(key) / static_cast<double>(ops_);
}

double LayerFold::unexplained_share() const {
  double op = Total("op_ms");
  return op > 0 ? Total("wall.unexplained") / op : 0.0;
}

void LayerFold::Export(LayerMetrics* out) const {
  for (const char* key :
       {"engine.execute_ms", "engine.pattern_self_ms",
        "engine.critical_path_ms", "engine.refilter_ms", "engine.join_ms",
        "engine.project_ms", "storage.sql_ms", "storage.cypher_ms",
        "engine.join_assignments", "engine.rows_out",
        "storage.base_rows_scanned", "storage.index_probe_rows",
        "storage.columnar_filter_rows", "storage.seeds_visited",
        "storage.edges_traversed", "storage.rows_emitted",
        "storage.morsels_executed"}) {
    out->Set(key, PerOp(key));
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out->Set("engine.rows_per_assignment",
           ratio(Total("engine.rows_out"), Total("engine.join_assignments")));
  double examined = Total("storage.base_rows_scanned") +
                    Total("storage.index_probe_rows") +
                    Total("storage.seeds_visited") +
                    Total("storage.edges_traversed");
  out->Set("storage.examined_per_emitted",
           ratio(examined, Total("storage.rows_emitted")));
  out->Set("storage.morsel_steal_share",
           ratio(Total("storage.morsels_stolen"),
                 Total("storage.morsels_executed")));
  out->Set("storage.worker_busy_share",
           ratio(Total("worker_busy_ms"), Total("worker_capacity_ms")));
  out->Set("storage.subresult_hit_share",
           ratio(Total("subresult_hits"),
                 Total("subresult_hits") + Total("subresult_misses")));
  out->Set("obs.unexplained_ms", PerOp("wall.unexplained"));
  out->Set("obs.unexplained_share", unexplained_share());
}

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json's per_layer list and METRICS.md.
const CatalogEntry kLayerCatalog[] = {
    {"extraction.text_to_er_ms", "ms"},
    {"extraction.er_to_graph_ms", "ms"},
    {"synthesis.graph_to_tbql_ms", "ms"},
    {"tbql.parse_analyze_ms", "ms"},
    {"engine.execute_ms", "ms"},
    {"engine.pattern_self_ms", "ms"},
    {"engine.critical_path_ms", "ms"},
    {"engine.refilter_ms", "ms"},
    {"engine.join_ms", "ms"},
    {"engine.project_ms", "ms"},
    {"engine.join_assignments", "count"},
    {"engine.rows_out", "count"},
    {"engine.rows_per_assignment", "ratio"},
    {"storage.sql_ms", "ms"},
    {"storage.cypher_ms", "ms"},
    {"storage.base_rows_scanned", "count"},
    {"storage.index_probe_rows", "count"},
    {"storage.columnar_filter_rows", "count"},
    {"storage.seeds_visited", "count"},
    {"storage.edges_traversed", "count"},
    {"storage.rows_emitted", "count"},
    {"storage.examined_per_emitted", "ratio"},
    {"storage.morsels_executed", "count"},
    {"storage.morsel_steal_share", "ratio"},
    {"storage.worker_busy_share", "ratio"},
    {"storage.subresult_hit_share", "ratio"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p90_ms", "ms"},
    {"service.admission_rejected", "count"},
    {"service.gate_wait_total_ms", "ms"},
    {"service.gate_wait_max_ms", "ms"},
    {"service.refreshes_per_epoch", "count"},
    {"service.incremental_share", "ratio"},
    {"service.mqo_dedup_share", "ratio"},
    {"service.alerts_per_epoch", "count"},
    {"service.rows_delivered_per_epoch", "count"},
    {"service.refresh_ms", "ms"},
    {"audit.parse_us_per_record", "us"},
    {"reduction.kept_share", "ratio"},
    {"store.rss_bytes_per_event", "B"},
    {"persist.wal_bytes_per_event", "B"},
    {"persist.checkpoints", "count"},
    {"persist.snapshot_bytes", "B"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.recover_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.unexplained_ms", "ms"},
    {"obs.unexplained_share", "ratio"},
};

}  // namespace

bool LayerMetrics::Emit(Report* report) const {
  size_t known = 0;
  for (const CatalogEntry& e : kLayerCatalog) {
    auto it = values_.find(e.name);
    if (it != values_.end()) ++known;
    report->Metric(e.name, it == values_.end() ? 0.0 : it->second, e.unit);
  }
  if (known != values_.size()) {
    std::printf("per-layer metric set outside the catalog\n");
    return false;
  }
  return true;
}

void LayerFold::PrintBreakdown(const std::string& title) const {
  std::printf("%s: wall share of op latency over %zu traced ops (ms/op)\n",
              title.c_str(), ops_);
  double op = op_ms();
  for (const char* b : kBuckets) {
    double v = PerOp(std::string("wall.") + b);
    std::printf("  %-12s %9.3f  %5.1f%%\n", b, v, op > 0 ? 100 * v / op : 0);
  }
  std::printf("  %-12s %9.3f\n", "op latency", op);
}

void FinishQueryTrace(const OpLog& untraced, const OpLog& traced,
                      const LayerFold& fold, LayerMetrics* layers,
                      Report* report) {
  double overhead = traced.ops_per_s() > 0
                        ? untraced.ops_per_s() / traced.ops_per_s()
                        : 0.0;
  layers->Set("obs.trace_overhead", overhead);
  fold.Export(layers);
  fold.PrintBreakdown("traced run");
  double allowed = std::max(overhead - 1.0, 0.01);
  std::printf(
      "trace consistency: unexplained %.4f ms/op = %.3f%% of traced op "
      "latency (allowed %.3f%%, trace overhead %.4f)\n",
      fold.PerOp("wall.unexplained"), 100 * fold.unexplained_share(),
      100 * allowed, overhead);
  if (fold.unexplained_share() > allowed) {
    report->Fail("layers leave too much traced op latency unexplained");
  }
}

}  // namespace perfbench
