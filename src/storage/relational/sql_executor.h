// Planner + executor for the SQL subset.
//
// The plan is intentionally PostgreSQL-like in miniature:
//  * WHERE/ON conjuncts are classified into single-table pushdown filters,
//    equi-join predicates, and residual (cross-pattern) predicates;
//  * base tables are filtered first, each fetched through its cheapest
//    access path ranked by index cardinalities: an equality / IN probe, a
//    LIKE matched over the column's dictionary and then probed, or — for
//    the driving FROM alias, planned last — a probe of its equi-join
//    column with the distinct keys of an alias already filtered;
//  * joins are left-deep in FROM order, hash joins on available equi-join
//    keys, nested-loop otherwise — executed as a streaming pipeline that
//    threads one tuple through the levels instead of materializing a tuple
//    vector per join level;
//  * residual predicates (e.g. temporal constraints between event aliases,
//    which are non-equi) are applied as soon as their aliases are bound;
//  * LIMIT pushes down: the pipeline — including the first table's base
//    scan — stops as soon as LIMIT rows have been emitted, and DISTINCT
//    short-circuits through an incremental seen-set, so the limit counts
//    post-dedup rows. ORDER BY forces full materialization, so it disables
//    the LIMIT pushdown but not the streaming dedup;
//  * hash-join build sides store per-key row ids as chunked candidate
//    blocks in one arena per level instead of one heap vector per key,
//    cutting allocation churn on large builds;
//  * when the base table is sharded and its scan is large enough
//    (storage::FanOut), the scan — and with it the whole downstream
//    join/probe pipeline — runs on the shared morsel driver
//    (storage::RunMorsels, storage/shard_parallel.h): each shard's scan
//    (or index seed list) is carved into SelectOptions::morsel_size
//    work-stealing morsels, each emitting into its own result set, merged
//    in morsel order. ORDER BY sorts after the merge, so rows comparing
//    equal on every key may order differently than a serial run;
//    key-unique sorts are unaffected;
//  * single-table filters of the shape `col op literal` / `col IN (...)`
//    / `col [NOT] LIKE literal` compile into storage::ColumnFilters over
//    the table's frozen columns (storage/column_filter.h, the kernel the
//    Cypher matcher shares): int comparisons read the SoA int vector
//    directly, string equality compares dictionary ids as uint32s, and
//    LIKE reads a per-query memo of verdicts by dictionary id, skipping
//    per-row Value variant dispatch (mixed-type columns and double or
//    NULL literals read the cell as a Value inside the same filter).
//    Every other expression is decided by the evaluator, which reads
//    cells through Table::Cell.
//
// This gives the honest behaviour Table VIII depends on: a giant SQL query
// with many joins and non-equi temporal constraints pays for large
// intermediate results, while TBQL's scheduler (engine/scheduler.*) avoids
// them with per-pattern queries + constraint propagation.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relational/sql_ast.h"
#include "storage/relational/table.h"
#include "storage/row_block.h"

namespace raptor::storage {
template <typename ResultT>
class QueryResultCache;
}  // namespace raptor::storage

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::sql {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Chunked result: rows live in per-morsel blocks after a parallel scan,
/// one block for a serial run. A non-DISTINCT parallel merge adopts each
/// morsel block wholesale (rows.pushed_rows() == 0 — the zero-copy merge);
/// consumers stream through storage::RowCursor.
/// ResultSet remains the materialized compatibility view (ExecuteSelect
/// flattens one of these).
struct BlockResultSet {
  std::vector<std::string> columns;
  storage::RowBlocks<Row> rows;

  storage::RowCursor<Row> cursor() const {
    return storage::RowCursor<Row>(&rows);
  }
};

/// Execution counters, exposed for the scheduler-ablation benchmark.
struct ExecStats {
  size_t base_rows_scanned = 0;     // rows touched by base-table filters
  size_t index_probe_rows = 0;      // rows fetched through index probes
  size_t join_output_tuples = 0;    // tuples produced across all joins
  size_t rows_emitted = 0;          // result rows produced
  size_t columnar_filter_rows = 0;  // predicate checks served by frozen columns
  size_t like_dict_evals = 0;       // dictionary entries matched by LIKE
  size_t morsels_executed = 0;      // scan morsels run by the parallel driver
  size_t morsels_stolen = 0;        // of those, taken from another worker

  /// Accumulate `other` (a morsel worker's counters) into this.
  void Add(const ExecStats& other);
  /// Set the scan counters on `span` (nullable): base_rows_scanned,
  /// index_probe_rows, rows_emitted, columnar_filter_rows,
  /// morsels_executed and morsels_stolen.
  void WriteSpan(obs::TraceSpan* span) const;
};

/// Runtime policy for one statement: parallel fan-out, cancellation,
/// deadline, result caching and tracing.
struct SelectOptions {
  /// Rows per morsel. Small enough that a skewed shard yields many
  /// stealable units, large enough to amortize per-morsel pipeline setup.
  int morsel_size = 2048;
  /// Maximum parallel workers for the base scan / probe pipeline; the
  /// effective worker count is min(parallel_shards, morsel count). 1 =
  /// always serial.
  int parallel_shards = 4;
  /// Stay serial when the base-table scan (or its index seed list) is
  /// smaller than this: tiny scans lose more to dispatch than they gain.
  int parallel_min_rows = 256;
  /// Cooperative cancellation: when non-null and set, the base scan stops
  /// (every worker polls it alongside the shared LIMIT budget) and the
  /// query returns Status::Cancelled. The flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline polled inside the scan loops next to the cancel
  /// flag (amortized clock reads — common/deadline.h), so a single giant
  /// scan stops within one poll stride of expiry and the query returns
  /// Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Multi-query optimization: when non-null, Database::QueryBlocks
  /// memoizes full-scan results (no LIMIT) keyed by query text so
  /// structurally-identical compiled sub-queries share one execution per
  /// epoch. The owner (service::HuntService) clears it on every store
  /// mutation. Must outlive the call.
  storage::QueryResultCache<BlockResultSet>* result_cache = nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the parallel driver hangs one
  /// timed child span per morsel worker under it (scan, probe, and steal
  /// counters included) and a serial statement one `morsel_worker[0]`
  /// span over its whole execution (storage::WorkerSpan), the executor adds the statement's
  /// index_probe_rows / base_rows_scanned / columnar_filter_rows /
  /// like_dict_evals counters and one `access.<alias>` note per alias
  /// (`index:<col>`, `like-dict:<col>`, `join-seed:<col>` or `scan`), and
  /// QueryBlocks records subresult cache hits. Null (the default) costs
  /// one pointer test per query. Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

class Catalog {
 public:
  virtual ~Catalog() = default;
  virtual const Table* FindTable(std::string_view name) const = 0;
};

/// Execute `stmt` against `catalog`. Thread-compatible (no shared state).
Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                                const SelectOptions& options = {},
                                ExecStats* stats = nullptr);

/// Execute `stmt`, returning the chunked block result (the zero-copy
/// parallel-merge path; ExecuteSelect is a flattening wrapper over this).
Result<BlockResultSet> ExecuteSelectBlocks(const SelectStmt& stmt,
                                           const Catalog& catalog,
                                           const SelectOptions& options = {},
                                           ExecStats* stats = nullptr);

/// Plan-time cost estimate in "rows visited" units, from the same exact
/// per-shard index cardinalities (Table::ProbeCount) the planner ranks
/// access paths with: each alias contributes its cheapest probe-able
/// candidate count (or its full row count without one), with the driving
/// alias additionally scaled by the join depth it pipelines through. No
/// rows are touched — the estimate costs a handful of hash probes, so
/// admission layers (service::HuntService) can price a query before
/// running it. Unknown tables / unresolvable columns degrade gracefully
/// (they contribute zero), never error.
double EstimateSelectCost(const SelectStmt& stmt, const Catalog& catalog);

}  // namespace raptor::sql
