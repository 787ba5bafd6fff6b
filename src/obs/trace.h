// Lock-cheap tracing core for the hunt lifecycle.
//
// A TraceSpan is one timed node in a per-hunt tree: monotonic start/end
// timestamps, a small set of named integer counters, optional string
// notes, and children created concurrently by pool workers. The tree is
// built while the hunt runs and rendered afterwards (EXPLAIN ANALYZE,
// slow-hunt log), so the design optimizes for cheap *construction*:
//
//   - Tracing is off by default. Every instrumentation site takes a
//     `TraceSpan*` that is nullptr when profiling is disabled; the
//     helpers below no-op on nullptr, so the disabled cost is one
//     pointer test per *span* (not per row — per-row counting stays in
//     the executors' existing stat structs and is folded into a span
//     once, at merge time).
//   - Child creation and counter/note mutation take the span's own
//     mutex. Spans are created per shard/morsel-worker/pattern, i.e.
//     O(workers) per hunt, never per row, so contention is negligible
//     while TSan-visible ordering stays well-defined.
//   - Finish() is idempotent and the end timestamp is atomic, so a
//     renderer observing a still-running subtree (slow-hunt logging of
//     a timed-out hunt) sees a coherent duration.
//
// Ownership: the root is a shared_ptr (attached to HuntResponse /
// ExecReport); children are owned by their parent. Raw `TraceSpan*`
// handles passed down the execution stack stay valid for the lifetime
// of the root, which the issuing service keeps alive until rendering.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace raptor::obs {

class TraceSpan {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TraceSpan(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {}

  /// Heap-allocated root for attaching to responses/reports.
  static std::shared_ptr<TraceSpan> Root(std::string name) {
    return std::make_shared<TraceSpan>(std::move(name));
  }

  /// Create-and-start a child span. Thread-safe; returns a pointer that
  /// stays valid while this span (transitively, the root) is alive.
  TraceSpan* AddChild(std::string name);

  /// Accumulate `delta` into the named counter (created at zero).
  void Add(std::string_view counter, int64_t delta);
  /// Overwrite the named counter.
  void Set(std::string_view counter, int64_t value);
  /// Attach/overwrite a string attribute (dialect, tenant, status...).
  void Note(std::string_view key, std::string_view value);

  /// Stamp the end timestamp; idempotent (first call wins).
  void Finish();

  /// Override the measured window — for spans reconstructed after the
  /// fact from existing timestamps (e.g. queue wait: submit -> start).
  void SetWindow(Clock::time_point start, Clock::time_point end);

  const std::string& name() const { return name_; }
  Clock::time_point start() const { return start_; }
  bool finished() const {
    return end_ns_.load(std::memory_order_acquire) != 0;
  }
  /// Duration in seconds; a still-running span reads "so far".
  double seconds() const;
  int64_t duration_micros() const;

  /// Snapshots for rendering (copy under the lock; render paths are
  /// cold). Counter order is insertion order, stable across runs.
  std::vector<std::pair<std::string, int64_t>> counters() const;
  std::vector<std::pair<std::string, std::string>> notes() const;
  std::vector<std::shared_ptr<const TraceSpan>> children() const;

  /// Counter lookup; `def` when absent.
  int64_t counter(std::string_view name, int64_t def = 0) const;

 private:
  std::string name_;
  Clock::time_point start_;
  // End as nanoseconds-since-start; 0 = still running. Atomic so a
  // renderer racing Finish() (slow-log of timed-out hunts) is defined.
  std::atomic<int64_t> end_ns_{0};

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, int64_t>> counters_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::shared_ptr<TraceSpan>> children_;
};

/// Nullptr-tolerant helpers: every instrumentation site goes through
/// these so the profiling-off cost is a single branch.
inline TraceSpan* Child(TraceSpan* parent, std::string name) {
  return parent == nullptr ? nullptr : parent->AddChild(std::move(name));
}
inline void Add(TraceSpan* span, std::string_view counter, int64_t delta) {
  if (span != nullptr) span->Add(counter, delta);
}
inline void Set(TraceSpan* span, std::string_view counter, int64_t value) {
  if (span != nullptr) span->Set(counter, value);
}
inline void Note(TraceSpan* span, std::string_view key,
                 std::string_view value) {
  if (span != nullptr) span->Note(key, value);
}
inline void Finish(TraceSpan* span) {
  if (span != nullptr) span->Finish();
}

/// RAII child span: created on entry (nullptr parent -> no-op), finished
/// on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(TraceSpan* parent, std::string name)
      : span_(Child(parent, std::move(name))) {}
  ~ScopedSpan() { obs::Finish(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceSpan* get() const { return span_; }

 private:
  TraceSpan* span_;
};

}  // namespace raptor::obs
