// Shared execution policy of the shard-parallel query drivers (the Cypher
// matcher and the SQL pipeline): when a query fans out, how its input is
// carved into work-stealing morsels and run on the common thread pool,
// LIMIT row-budget selection, and the deterministic morsel-order merge.
// Both executors hand RunMorsels their per-shard input counts and a
// callback that runs one morsel through their own pipeline; the subtle
// parts — how a pushed-down LIMIT is enforced across workers and how
// DISTINCT survives the merge — live here once so the two executors
// cannot drift apart.
//
// Morsels: each shard's input (seed list, scan range or candidate list)
// is carved into fixed-size positional chunks laid out shard-major and
// dealt onto per-worker work-stealing deques (common/thread_pool.h
// WorkStealingQueues). A worker pops its own deque front-first and steals
// from the back of a victim when it drains, so a skewed shard's input
// spreads over the whole fleet. Every morsel streams into its own
// WorkerRows and the merge walks morsels in carve order: the output is
// deterministic for a fixed storage layout and morsel size, independent of
// the steal schedule — but shard-major, so it need not equal a serial
// run's order.
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
// (per-partition seen-set, morsel order within a partition), compacts each
// morsel's surviving rows in place, and adopts the compacted vectors as
// whole blocks — the same zero-copy merge non-DISTINCT always had
// (RowBlocks::pushed_rows() stays 0). Output order is partition-major,
// morsel-minor (the differential harness compares DISTINCT results
// order-normalized).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
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

/// Pushed-down LIMITs below this stay serial in both executors: the
/// serial early-exit path finishes them in a handful of seed or row
/// visits, less than one worker dispatch costs.
constexpr long long kParallelMinLimit = 8;

/// The fan-out rule of both executors: go parallel only when it can pay
/// off — more than one worker allowed, a sharded store, no pushed LIMIT
/// below kParallelMinLimit (`limit` < 0: none), and an input of at least
/// `min_input` seeds / rows. `input_size` is called last, so an executor
/// can defer materializing its input until the cheap conditions hold.
template <class InputSize>
bool FanOut(int parallel_shards, size_t shard_count, long long limit,
            int min_input, InputSize&& input_size) {
  return parallel_shards > 1 && shard_count > 1 &&
         !(limit >= 0 && limit < kParallelMinLimit) &&
         input_size() >= static_cast<size_t>(std::max(0, min_input));
}

/// Positions [lo, hi) of shard `shard`'s input: one unit of stealable work.
struct Morsel {
  size_t shard;
  size_t lo;
  size_t hi;
};

/// One morsel's output: its rows, and the error that stopped it.
struct MorselRun {
  WorkerRows rs;
  Status error = Status::OK();
};

/// Merge morsel results in morsel order: fail on the first morsel error,
/// then hand the rows to `out`. Without DISTINCT every morsel's row vector
/// is adopted wholesale as one block. With DISTINCT the merge dedups
/// partition by partition (see the header comment) and adopts each
/// morsel's compacted partition vector — also block-wise.
inline Status MergeShardRuns(std::vector<MorselRun>& runs, bool distinct,
                             RowBlocks<std::vector<sql::Value>>* out) {
  for (const MorselRun& run : runs) RAPTOR_RETURN_NOT_OK(run.error);
  if (!distinct) {
    for (MorselRun& run : runs) out->Adopt(std::move(run.rs.rows));
    return Status::OK();
  }
  std::unordered_set<std::vector<sql::Value>, sql::ValueRowHash,
                     sql::ValueRowEq>
      seen;
  for (size_t p = 0; p < kDistinctPartitions; ++p) {
    seen.clear();
    for (MorselRun& run : runs) {
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

/// The storage span of one executor worker: with `trace` set, hang a
/// `morsel_worker[w]` span covering [start, now) on it, carrying `stats`
/// (Stats::WriteSpan). RunMorsels opens one per morsel worker, and both
/// executors open worker 0 around a query that stays serial, so a trace
/// credits storage work to storage whether or not the query fanned out.
template <class Stats>
void WorkerSpan(obs::TraceSpan* trace, size_t w,
                obs::TraceSpan::Clock::time_point start, const Stats& stats) {
  if (trace == nullptr) return;
  obs::TraceSpan* span =
      trace->AddChild("morsel_worker[" + std::to_string(w) + "]");
  span->SetWindow(start, obs::TraceSpan::Clock::now());
  stats.WriteSpan(span);
}

/// The morsel driver: carve each shard's `shard_counts[s]` input positions
/// into shard-major morsels of `morsel_size`, run them on
/// min(parallel_shards, morsels) workers of ThreadPool::Shared(), fold the
/// workers' stats into `stats` (nullable) and merge the rows into `out`
/// in morsel order. Each worker calls `make_worker()` once for a callable
/// `Status(const Morsel&, Stats*, WorkerRows*)` that runs one morsel
/// through the executor's own pipeline (owning any per-worker state, such
/// as an evaluator's caches) and returns the error that stopped it; a
/// failed morsel stops its worker and fails the merge. With `trace` set,
/// every worker hangs its WorkerSpan.
/// `Stats` provides morsels_executed / morsels_stolen, Add and WriteSpan.
template <class Stats, class MakeWorker>
Status RunMorsels(const std::vector<size_t>& shard_counts, int morsel_size,
                  int parallel_shards, bool distinct, obs::TraceSpan* trace,
                  Stats* stats, RowBlocks<std::vector<sql::Value>>* out,
                  MakeWorker&& make_worker) {
  size_t size = static_cast<size_t>(std::max(1, morsel_size));
  std::vector<Morsel> morsels;
  for (size_t s = 0; s < shard_counts.size(); ++s) {
    for (size_t lo = 0; lo < shard_counts[s]; lo += size) {
      morsels.push_back({s, lo, std::min(lo + size, shard_counts[s])});
    }
  }
  if (morsels.empty()) return Status::OK();
  std::vector<MorselRun> runs(morsels.size());
  size_t workers = std::min(
      static_cast<size_t>(std::max(1, parallel_shards)), morsels.size());
  WorkStealingQueues queues(morsels.size(), workers);
  std::vector<Stats> worker_stats(workers);
  ThreadPool::Shared().ParallelFor(workers, workers, [&](size_t w) {
    auto start = obs::TraceSpan::Clock::now();
    Stats* ws = &worker_stats[w];
    auto run_morsel = make_worker();
    bool stolen = false;
    for (size_t m = queues.Next(w, &stolen); m != WorkStealingQueues::kDone;
         m = queues.Next(w, &stolen)) {
      ++ws->morsels_executed;
      if (stolen) ++ws->morsels_stolen;
      runs[m].error = run_morsel(morsels[m], ws, &runs[m].rs);
      if (!runs[m].error.ok()) break;  // the merge surfaces it
    }
    WorkerSpan(trace, w, start, *ws);
  });
  if (stats != nullptr) {
    for (const Stats& ws : worker_stats) stats->Add(ws);
  }
  return MergeShardRuns(runs, distinct, out);
}

}  // namespace raptor::storage
