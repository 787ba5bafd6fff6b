// Shared policy pieces of the shard-parallel query drivers (the Cypher
// matcher and the SQL pipeline): LIMIT row-budget selection and the
// deterministic worker-order merge. Both engines fan work-stealing seed
// morsels onto the common thread pool and stream each into its own result
// set; the subtle parts — how a
// pushed-down LIMIT is enforced across workers and how DISTINCT survives
// the merge — live here once so the two executors cannot drift apart.
//
// Budget policy: without DISTINCT every emitted row counts globally, so
// workers claim emission slots from one atomic counter (exactly `limit`
// claims succeed, and idle workers poll the counter to abandon their
// scans early). With DISTINCT a global count cannot know about
// cross-shard duplicates, so each worker dedups locally up to the limit
// and the merge dedups again. That guarantees the merged unique-row count
// is never BELOW min(limit, full distinct count) — every worker either
// filled the limit by itself or exhausted its shard — but it can exceed
// the limit (disjoint shards can each contribute up to `limit` rows), so
// the executors' trailing LIMIT resize is load-bearing for DISTINCT
// limits.
//
// DISTINCT merge: workers hash-partition their emissions by row hash into
// kDistinctPartitions buckets (WorkerRows::parts). Duplicate rows always
// land in the same partition, so the merge dedups one partition at a time
// (per-partition seen-set, worker order within a partition), compacts each
// worker's surviving rows in place, and adopts the compacted vectors as
// whole blocks — the same zero-copy merge non-DISTINCT always had
// (RowBlocks::pushed_rows() stays 0). Output order is partition-major,
// worker-minor: deterministic for a fixed storage layout and morsel carve,
// though not the serial emission order (the differential harness compares
// DISTINCT results order-normalized).
#pragma once

#include <atomic>
#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/relational/value.h"
#include "storage/row_block.h"

namespace raptor::storage {

/// Number of hash partitions the DISTINCT sinks spread rows
/// over. Power of two (partition index is hash & (kDistinctPartitions-1)).
constexpr size_t kDistinctPartitions = 8;

/// Partition index of a result row (sinks and the merge must agree).
inline size_t DistinctPartitionOf(const std::vector<sql::Value>& row) {
  return sql::ValueRowHash{}(row) & (kDistinctPartitions - 1);
}

/// Per-worker result container for the parallel drivers. Non-DISTINCT
/// emissions stream into `rows`; DISTINCT emissions are hash-partitioned
/// into `parts` (sized lazily by the sink).
struct WorkerRows {
  std::vector<std::vector<sql::Value>> rows;
  std::vector<std::vector<std::vector<sql::Value>>> parts;

  void EnableDistinctPartitions() { parts.resize(kDistinctPartitions); }
};

/// LIMIT enforcement for a fleet of shard workers. Wire `shared_claimed()`
/// / `shared_cap` and `local_cap` into each worker's row sink.
struct ShardRowBudget {
  std::atomic<size_t> claimed{0};
  size_t shared_cap = 0;
  size_t local_cap = static_cast<size_t>(-1);
  bool shared = false;

  /// `pushed_limit` is the LIMIT the workers enforce, or negative when the
  /// query pushes none down.
  ShardRowBudget(long long pushed_limit, bool distinct) {
    if (pushed_limit < 0) return;
    if (distinct) {
      local_cap = static_cast<size_t>(pushed_limit);
    } else {
      shared = true;
      shared_cap = static_cast<size_t>(pushed_limit);
    }
  }

  std::atomic<size_t>* shared_claimed() { return shared ? &claimed : nullptr; }
};

/// Merge per-worker results in worker order (deterministic for a fixed
/// storage layout and morsel carve): fail on the first worker error, let
/// `on_run` fold each worker's stats, and hand the rows to `out`. Without
/// DISTINCT every worker's row vector is adopted wholesale as one block.
/// With DISTINCT the merge dedups partition by partition (see the header
/// comment) and adopts each worker's compacted partition vector — also
/// block-wise. `Run` must expose a `Status error` and a WorkerRows at `rs`.
template <class Run, class OnRun>
Status MergeShardRuns(std::vector<Run>& runs, bool distinct,
                      RowBlocks<std::vector<sql::Value>>* out,
                      OnRun&& on_run) {
  for (Run& run : runs) {
    RAPTOR_RETURN_NOT_OK(run.error);
    on_run(run);
  }
  if (!distinct) {
    for (Run& run : runs) out->Adopt(std::move(run.rs.rows));
    return Status::OK();
  }
  std::unordered_set<std::vector<sql::Value>, sql::ValueRowHash,
                     sql::ValueRowEq>
      seen;
  for (size_t p = 0; p < kDistinctPartitions; ++p) {
    seen.clear();
    for (Run& run : runs) {
      if (run.rs.parts.size() <= p) continue;
      auto& part = run.rs.parts[p];
      size_t kept = 0;
      for (size_t i = 0; i < part.size(); ++i) {
        if (!seen.insert(part[i]).second) continue;
        if (kept != i) part[kept] = std::move(part[i]);
        ++kept;
      }
      part.resize(kept);
      out->Adopt(std::move(part));
    }
  }
  return Status::OK();
}

}  // namespace raptor::storage
