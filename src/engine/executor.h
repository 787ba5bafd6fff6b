// TBQL query execution engine (Sec III-F): exact search mode.
//
// Each TBQL pattern compiles into a small data query (compiler.h). The
// scheduler orders their execution by estimated pruning power — the count
// of declared constraints, with shorter maximum path lengths scoring higher
// — and propagates the concrete entity ids matched by executed patterns
// into dependent patterns (patterns sharing an entity id) as IN-filters.
// Matched per-pattern events are then joined on shared entities, temporal
// and attribute relationships are applied, and the return clause projects
// entity/event attributes.
//
// Compared to the naive plan (one giant SQL/Cypher query), this avoids
// weaving many joins and non-equi temporal constraints together, which is
// what Table VIII measures.
//
// Patterns execute one at a time, in scheduler order, on the calling
// thread; the only intra-query parallelism is the storage morsel driver
// under each data query (storage/shard_parallel.h). Cooperative
// cancellation and deadlines (HuntService tickets) are polled at pattern
// boundaries and inside the storage executors' scan loops.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/compiler.h"
#include "storage/store.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::engine {

struct ExecOptions {
  /// Schedule patterns by pruning score (false: textual order).
  bool use_scheduler = true;
  /// Propagate matched entity ids into dependent data queries.
  bool propagate_constraints = true;
  /// Cooperative cancellation: polled at pattern boundaries, join levels,
  /// and inside the storage executors' scan loops. When set mid-query the
  /// hunt returns Status::Cancelled. Must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline; exceeded at any pattern/join boundary the hunt
  /// returns Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Incremental standing refreshes: entity-id domains seeded into the
  /// shared constraint map before any pattern executes, exactly as if a
  /// predecessor pattern had matched those ids. Restricting a shared
  /// entity variable to the epoch's dirty ids is how the service runs a
  /// dirty-only TBQL pass. Must outlive the call.
  const EntityConstraints* initial_constraints = nullptr;
  /// Require every pattern to match: when any pattern matches nothing,
  /// return an empty result instead of excluding it from the join (the
  /// paper's excessive-pattern tolerance). Dirty-restricted passes need
  /// this — under a restricted domain an empty pattern means "no new
  /// contribution", not "pattern is excessive".
  bool require_all_patterns = false;
  /// When >= 0, move this pattern index to the front of the execution
  /// order so its (restricted) matches drive constraint propagation into
  /// every dependent pattern. -1 = scheduler order.
  int force_first_pattern = -1;
  /// Multi-query optimization: shared-subresult caches handed through to
  /// the storage executors (SelectOptions/MatchOptions::result_cache), so
  /// identical compiled data queries — shared seed probes, duplicated
  /// templates — execute once per epoch. Must outlive the call.
  storage::QueryResultCache<sql::BlockResultSet>* sql_result_cache = nullptr;
  storage::QueryResultCache<graphdb::GraphBlockResult>* graph_result_cache =
      nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the executor hangs one timed
  /// child span per scheduled pattern under it (match counts, propagated
  /// constraint-domain sizes, the storage executor's shard/worker spans)
  /// plus refilter/join/project phase spans. Null (the default) costs one
  /// pointer test per pattern. Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

struct TbqlResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  std::string ToString(size_t max_rows = 20) const;
};

struct ExecReport {
  TbqlResultSet results;
  /// Data query texts in the order they were executed.
  std::vector<std::string> executed_queries;
  /// Per-pattern match counts, indexed by pattern position.
  std::vector<size_t> pattern_match_counts;
  /// Patterns that matched nothing (excluded from the join; the paper's
  /// synthesized queries may contain excessive patterns that retrieve no
  /// events, which must not empty the whole result).
  std::vector<size_t> unmatched_patterns;
  double seconds = 0;
  /// All events matched by event patterns (deduplicated, for evaluation).
  std::vector<long long> matched_event_ids;
  /// Constraint-propagation DAG of the executed order: pattern_deps[i]
  /// lists the earlier patterns whose matched ids narrowed pattern i's
  /// data query (empty lists throughout when constraint propagation is
  /// off). Patterns still run one at a time; the DAG only says which of
  /// them fed which (perfbench's critical path reads it).
  std::vector<std::vector<size_t>> pattern_deps;
};

/// Pruning score of pattern `idx` (exposed for tests and the ablation
/// bench): declared constraint count, plus a bonus shrinking with the
/// maximum path length.
double PruningScore(const tbql::AnalyzedQuery& aq, size_t idx);

/// Constraint-propagation DAG under execution order `order` (pattern
/// indices, most selective first): deps[i] lists every pattern ordered
/// before i that shares a joinable (non-network) entity id with i. Those
/// are exactly the pairs whose execution order affects the propagated
/// entity domains; a pattern with no edge reads none of its
/// predecessors' ids.
std::vector<std::vector<size_t>> PatternDependencies(
    const tbql::AnalyzedQuery& aq, const std::vector<size_t>& order);

class TbqlExecutor {
 public:
  explicit TbqlExecutor(const storage::AuditStore* store) : store_(store) {}

  /// Execute an analyzed-parse of `text`.
  Result<ExecReport> ExecuteText(std::string_view text,
                                 const ExecOptions& options = {}) const;

  /// Execute a parsed query.
  Result<ExecReport> Execute(const tbql::TbqlQuery& query,
                             const ExecOptions& options = {}) const;

  /// Plan-time cost estimate for `text` in "rows/nodes visited" units: each
  /// pattern compiles to its data query (no constraint propagation — the
  /// pre-propagation cost is the admission-relevant upper bound) and the
  /// backend estimators (sql::EstimateSelectCost / graphdb::
  /// EstimateCypherCost) price it from index statistics alone. Unparseable
  /// or uncompilable text estimates 0.0 — it will fail fast at run time.
  double EstimateCost(std::string_view text) const;

 private:
  const storage::AuditStore* store_;
};

/// Rewrite every basic event pattern of `query` into the equivalent
/// length-1 event path pattern ("->"), producing the Table VIII query
/// type (c) that executes on the graph backend.
tbql::TbqlQuery ToLength1PathQuery(const tbql::TbqlQuery& query);

}  // namespace raptor::engine
