// Per-epoch shared-subresult cache for multi-query optimization.
//
// When hundreds of standing hunts refresh against the same store epoch,
// many of them compile to structurally-identical data queries (shared seed
// probes, shared first-hop scans, duplicated technique templates across
// tenants). Executing each one from scratch repeats the same scans.
// QueryResultCache memoizes whole block results keyed by the exact query
// text + execution-shape key: the store is immutable between epochs (reads
// happen under the service's writer-preference gate), so a cached result is
// valid until the owner clears the cache at the next epoch bump (or any
// exclusive store mutation, e.g. retention rebuilds).
//
// Deliberately NOT single-flight: two hunts missing concurrently both
// execute and the first Insert wins. Coupling a waiting hunt to another
// hunt's cancellation/deadline would leak one tenant's policy into
// another's results; redundant execution under a concurrent miss is the
// cheaper failure mode, and hit counters still demonstrate sharing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "obs/trace.h"

namespace raptor::storage {

template <typename ResultT>
class QueryResultCache {
 public:
  explicit QueryResultCache(size_t max_entries = 1024)
      : max_entries_(max_entries) {}

  /// The one memoized entry of both executors: the cached result for
  /// `key` (adding 1 to `subresult_cache_hits` on `trace`, nullable), else
  /// `run()` (adding 1 to `subresult_cache_misses`), inserting a
  /// successful result. Callers keep their own key and bypass rules.
  template <class Run>
  Result<ResultT> GetOrRun(const std::string& key, obs::TraceSpan* trace,
                           Run&& run) {
    if (auto cached = Lookup(key)) {
      obs::Add(trace, "subresult_cache_hits", 1);
      return *cached;
    }
    obs::Add(trace, "subresult_cache_misses", 1);
    Result<ResultT> result = run();
    if (result.ok()) {
      Insert(key, std::make_shared<const ResultT>(result.value()));
    }
    return result;
  }

  /// Returns the cached result for `key`, or nullptr on miss. Hit/miss
  /// counters are updated either way.
  std::shared_ptr<const ResultT> Lookup(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Stores `result` under `key`. First insert wins; a concurrent
  /// duplicate is dropped. Inserts past the entry cap are dropped too —
  /// the cache only lives one epoch, so hygiene beats eviction policy.
  void Insert(const std::string& key, std::shared_ptr<const ResultT> result) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= max_entries_) return;
    entries_.emplace(key, std::move(result));
  }

  /// Drops all entries. Counters survive so callers can report totals
  /// across epochs.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ResultT>> entries_;
  size_t max_entries_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace raptor::storage
