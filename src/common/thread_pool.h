// Small fixed worker pool backing shard-parallel query execution.
//
// Its one client is the storage morsel driver (storage/shard_parallel.h),
// which starts its morsel workers with ParallelFor: the calling thread
// always participates (it claims indices from the same atomic counter as
// the helpers), so a pool kept busy by concurrent hunts, or an empty one,
// degrades to inline execution instead of deadlocking. Helper jobs hold
// the loop state through a shared_ptr, so stragglers that wake up after
// every index has been claimed exit without touching freed memory.
//
// The process-wide pool (ThreadPool::Shared()) is sized once from
// std::thread::hardware_concurrency(), clamped to [2, 8] so that machines
// reporting one core still exercise real cross-thread execution in tests;
// RAPTOR_POOL_THREADS overrides the size (0 forces inline execution, the
// serial baseline used by benchmarks).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace raptor {

class ThreadPool {
 public:
  explicit ThreadPool(size_t threads) {
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { Loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Run fn(0..n-1), distributing indices over at most `max_workers`
  /// threads (the caller plus up to max_workers-1 pool helpers). Blocks
  /// until every index has completed. fn must be safe to invoke
  /// concurrently from distinct threads with distinct indices.
  void ParallelFor(size_t n, size_t max_workers,
                   std::function<void(size_t)> fn) {
    if (n == 0) return;
    size_t helpers =
        std::min({max_workers > 0 ? max_workers - 1 : 0, workers_.size(),
                  n - 1});
    if (helpers == 0) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    auto state = std::make_shared<LoopState>();
    state->n = n;
    state->fn = std::move(fn);
    for (size_t h = 0; h < helpers; ++h) {
      Submit([state] { Drain(*state); });
    }
    Drain(*state);
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done.load() == state->n; });
  }

  /// Process-wide pool shared by all query executors.
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultThreadCount());
    return pool;
  }

 private:
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    std::function<void(size_t)> fn;
    std::mutex mu;
    std::condition_variable cv;
  };

  static void Drain(LoopState& state) {
    for (;;) {
      size_t i = state.next.fetch_add(1);
      if (i >= state.n) return;
      state.fn(i);
      if (state.done.fetch_add(1) + 1 == state.n) {
        // Empty critical section pairs with the waiter's condition check.
        { std::lock_guard<std::mutex> lock(state.mu); }
        state.cv.notify_all();
      }
    }
  }

  static size_t DefaultThreadCount() {
    if (const char* env = std::getenv("RAPTOR_POOL_THREADS")) {
      long v = std::atol(env);
      if (v >= 0) return std::min<long>(v, 64);
    }
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 2;
    return std::clamp<size_t>(hw, 2, 8);
  }

  void Submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  void Loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop_ set and queue drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
};

}  // namespace raptor
