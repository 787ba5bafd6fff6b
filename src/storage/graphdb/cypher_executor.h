// Pattern matcher + executor for the Cypher subset.
//
// Matching is a streaming backtracking subgraph search, Neo4j-like in
// miniature:
//  * each comma-separated pattern part is matched against the graph
//    depth-first, threading variable bindings through (shared variables
//    join parts); a completed binding streams straight into the row sink
//    instead of materializing a binding list per part;
//  * each chain is matched from one end, chosen once per query: an end
//    an earlier part binds, else the end with the smaller seed-count
//    estimate. A labeled start's access path is the cheapest of an index
//    probe (inline constraint or WHERE `=` / IN, ranked by exact
//    per-value cardinality), a dictionary seed (a WHERE string predicate
//    matched once against the property's dictionary, its hits probed
//    through the index) and a label scan; an unlabeled start scans every
//    node. The same estimate prices EstimateCypherCost;
//  * variable-length relationships expand by bounded DFS with relationship
//    uniqueness (Cypher's relationship-isomorphism semantics);
//  * single-variable WHERE conjuncts run as soon as their variable binds,
//    the rest on fully bound rows; the row sink applies DISTINCT
//    through an incremental seen-set and stops the whole search — including
//    seed iteration — once LIMIT rows have been emitted, so `LIMIT 1` over
//    a label scan visits only the seeds it needs.
//
// Binding state is one flat small-vector frame keyed on interned variable
// slots, threaded through the whole search (bind on descent, unbind on
// backtrack).
//
// Shard-parallel matching: when the graph is sharded and the top-level
// seed set is large enough (storage::FanOut), the shared morsel driver
// (storage::RunMorsels, storage/shard_parallel.h) carves each shard's seed
// list into MatchOptions::morsel_size morsels that workers claim from one
// counter; each morsel runs its own matcher and row sink, and results
// merge in morsel order.
// Queries that stay serial (parallel_shards = 1, tiny seed sets, small
// pushed limits) run one matcher over every shard in order.
//
// Columnar predicate scans: inline property constraints of labeled node
// and typed relationship patterns, and pushed-down
// WHERE conjuncts `[NOT] var.prop op literal` on a labeled node variable
// (comparisons, IN, CONTAINS, STARTS WITH, ENDS WITH), compile into
// storage::ColumnFilters (storage/column_filter.h, the kernel the SQL
// executor shares) over the graph's frozen per-(shard × label) column
// vectors — string literals resolve to a dictionary id once per query
// and compare as uint32s, and string operators are matched once per
// dictionary entry. Every other conjunct is evaluated by the
// CypherEvaluator, whose property references read cells through
// storage::ReadCell; an unlabeled pattern's inline constraints read the
// candidate's own bucket cell. The columns are the graph's only copy of
// its properties.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "storage/graphdb/cypher_ast.h"
#include "storage/graphdb/graph.h"
#include "storage/row_block.h"

namespace raptor::storage {
template <typename ResultT>
class QueryResultCache;
}  // namespace raptor::storage

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::graphdb {

struct GraphResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
};

/// Chunked result: rows live in per-morsel blocks after a parallel run,
/// one block for a serial run, instead of a flat vector. A non-DISTINCT
/// parallel merge adopts every morsel block without touching individual
/// rows (rows.pushed_rows() == 0); consumers stream
/// through storage::RowCursor. GraphResultSet remains the materialized
/// compatibility view (ExecuteCypher flattens one of these).
struct GraphBlockResult {
  std::vector<std::string> columns;
  storage::RowBlocks<std::vector<Value>> rows;

  storage::RowCursor<std::vector<Value>> cursor() const {
    return storage::RowCursor<std::vector<Value>>(&rows);
  }
};

/// Execution counters, exposed for the scheduler-ablation benchmark.
struct MatchStats {
  size_t seed_candidates = 0;   // start-node candidates visited
  size_t edges_traversed = 0;   // edge expansions
  size_t bindings_emitted = 0;  // complete query bindings before WHERE
  size_t rows_emitted = 0;      // result rows produced (after WHERE/DISTINCT)
  size_t morsels_executed = 0;  // seed morsels run by the parallel driver

  /// Accumulate `other` (a morsel worker's counters) into this.
  void Add(const MatchStats& other);
  /// Set the traversal counters on `span` (nullable): seeds_visited,
  /// edges_traversed, rows_emitted and morsels_executed.
  void WriteSpan(obs::TraceSpan* span) const;
};

struct MatchOptions {
  /// Expansion bound applied when a variable-length pattern has no upper
  /// bound (Neo4j discourages unbounded expansion for the same reason).
  int unbounded_varlen_cap = 8;
  /// Seeds per morsel. Small enough that a skewed shard yields many
  /// claimable units, large enough to amortize per-morsel sink setup.
  int morsel_size = 2048;
  /// Maximum parallel workers for whole-graph matching; the effective
  /// worker count is min(parallel_shards, morsel count). 1 = always
  /// serial.
  int parallel_shards = 4;
  /// Stay serial when the top-level seed set is smaller than this: tiny
  /// queries lose more to worker dispatch than they gain from parallelism.
  int parallel_min_seeds = 64;
  /// Cooperative cancellation: when non-null and set, seed iteration stops
  /// (every worker polls it alongside the shared LIMIT budget) and the
  /// query returns Status::Cancelled. The flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline polled inside the scan loops next to the cancel
  /// flag (amortized clock reads — common/deadline.h), so a single giant
  /// scan stops within one poll stride of expiry and the query returns
  /// Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Incremental standing hunts: restrict part-0 seed iteration to this
  /// node set (seeds outside it are skipped before matching). The caller
  /// owns completeness — the set must contain every part-0 node of any row
  /// the query is expected to produce. Must outlive the call.
  const std::unordered_set<NodeId>* top_seed_filter = nullptr;
  /// Multi-query optimization: when non-null, GraphDatabase::QueryBlocks
  /// memoizes full-scan results (no seed filter, no LIMIT) keyed by query
  /// text so structurally-identical hunts share one execution per epoch.
  /// The owner (service::HuntService) clears it on every store mutation.
  /// Must outlive the call.
  storage::QueryResultCache<GraphBlockResult>* result_cache = nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the parallel driver hangs one
  /// timed child span per morsel worker under it (seed, row, and morsel
  /// counters included), a serial query one `morsel_worker[0]` span over
  /// its planning and matching (storage::WorkerSpan), and QueryBlocks
  /// records subresult cache hits. Null (the default) costs one pointer test per query.
  /// Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

/// Execute `query` against `graph`.
Result<GraphResultSet> ExecuteCypher(const CypherQuery& query,
                                     const PropertyGraph& graph,
                                     const MatchOptions& options = {},
                                     MatchStats* stats = nullptr);

/// Execute `query`, returning the chunked block result (the zero-copy
/// parallel-merge path; ExecuteCypher is a flattening wrapper over this).
Result<GraphBlockResult> ExecuteCypherBlocks(const CypherQuery& query,
                                             const PropertyGraph& graph,
                                             const MatchOptions& options = {},
                                             MatchStats* stats = nullptr);

/// Plan-time cost estimate in "nodes visited" units: per pattern part, its
/// seed count scaled by the pattern radius (1 + summed relationship
/// lengths, varlen capped by options.unbounded_varlen_cap). A part whose
/// end an earlier part binds runs once per binding, so its seed count is
/// that earlier part's; any other part seeds from the cheaper of its
/// forward/reverse chain starts (the estimate the matcher chooses seeds
/// and directions by: index probes, dictionary seeds and label buckets).
/// Touches only index statistics and property dictionaries — no node or
/// edge visits — so admission layers can price a hunt before running it.
double EstimateCypherCost(const CypherQuery& query, const PropertyGraph& graph,
                          const MatchOptions& options = {});

/// Default storage shard count used by the database facades (the raw
/// PropertyGraph still defaults to one shard).
constexpr size_t kDefaultShardCount = 4;

/// Graph database facade: owns a graph, parses and executes Cypher text.
class GraphDatabase {
 public:
  explicit GraphDatabase(size_t shard_count = kDefaultShardCount)
      : graph_(shard_count) {}

  PropertyGraph& graph() { return graph_; }
  const PropertyGraph& graph() const { return graph_; }

  MatchOptions& options() { return options_; }
  const MatchOptions& options() const { return options_; }

  Result<GraphResultSet> Query(std::string_view cypher,
                               MatchStats* stats = nullptr) const;

  /// Streaming variant returning chunked block results under per-request
  /// settings (HuntService cancellation flags; pass options() for the
  /// facade defaults) without mutating shared state.
  Result<GraphBlockResult> QueryBlocks(std::string_view cypher,
                                       const MatchOptions& options,
                                       MatchStats* stats = nullptr) const;

  /// Plan-time node-visit estimate for a Cypher text (EstimateCypherCost on
  /// the parsed query); 0.0 when the text does not parse.
  double EstimateCost(std::string_view cypher) const;

 private:
  PropertyGraph graph_;
  MatchOptions options_;
};

}  // namespace raptor::graphdb
