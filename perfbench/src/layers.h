// Per-layer accounting of a traced timed phase, folded from the span trees
// the program already exposes (ExecOptions::trace, HuntRequest::profile)
// plus the benchmark's own spans around public calls ("op", "extraction",
// "synthesis", "ingest") and the service-to-client hand-off ("delivery").
//
// Two views of one op:
//   * Self time, per span: its duration minus the part of it that its
//     children cover. Summed per layer; parallel spans (pattern DAG
//     branches, morsel workers) each count in full, so these sums can
//     exceed the op's wall time.
//   * Wall share: every instant of the op window is split evenly among the
//     innermost spans active at that instant, and each share is credited
//     to that span's layer. The shares sum to the op latency exactly; the
//     instants no span covers are the "unexplained" remainder. This is the
//     view the traced-run consistency check uses.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// One traced op: its window and the span trees recorded inside it.
struct OpTrace {
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::shared_ptr<const raptor::obs::TraceSpan>> roots;
  /// Query dialect ("tbql", "cypher", "sql") for trees without a dialect
  /// note (the direct-executor path).
  std::string dialect = "tbql";
  /// ExecReport::pattern_deps of the op's one TBQL execution, when there is
  /// exactly one (enables engine.critical_path_ms).
  std::vector<std::vector<size_t>> pattern_deps;
};

/// The per-layer metric set, in BENCHMARK.json order. Every traced run
/// reports all of them; a layer that a workload's timed ops never reach
/// reads 0 (METRICS.md lists which workload moves which metric).
class LayerMetrics {
 public:
  /// Set a metric; the name must be in the catalog (checked at Emit).
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Emit every catalog metric; false if a Set name is not in the catalog.
  bool Emit(Report* report) const;

 private:
  std::map<std::string, double> values_;
};

class LayerFold {
 public:
  void AddOp(const OpTrace& op);

  size_t ops() const { return ops_; }
  /// Mean op latency of the folded ops, ms.
  double op_ms() const { return PerOp("op_ms"); }
  /// Unexplained wall share ÷ op latency.
  double unexplained_share() const;

  /// Sum over all folded ops of a named quantity (see layers.cc).
  double Total(const std::string& key) const;
  double PerOp(const std::string& key) const;

  /// engine.* and storage.* per-layer metrics (per op), the subresult
  /// hit share, and the unexplained remainder.
  void Export(LayerMetrics* out) const;

  /// Print the wall-share breakdown per layer and the unexplained part.
  void PrintBreakdown(const std::string& title) const;

 private:
  std::map<std::string, double> sums_;
  size_t ops_ = 0;
};

/// Shared tail of a traced query workload: export the fold, set
/// obs.trace_overhead (untraced ÷ traced ops_per_s), print the breakdown,
/// and check that the layers account for the traced op latency: the
/// unexplained remainder may be at most the tracing overhead's share
/// (overhead - 1), or 1% when the measured overhead is smaller than that.
void FinishQueryTrace(const OpLog& untraced, const OpLog& traced,
                      const LayerFold& fold, LayerMetrics* layers,
                      Report* report);

}  // namespace perfbench
