#include "obs/trace.h"

#include <algorithm>

namespace raptor::obs {

TraceSpan* TraceSpan::AddChild(std::string name) {
  auto child = std::make_shared<TraceSpan>(std::move(name));
  TraceSpan* raw = child.get();
  std::lock_guard<std::mutex> lock(mu_);
  children_.push_back(std::move(child));
  return raw;
}

void TraceSpan::Add(std::string_view counter, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, value] : counters_) {
    if (name == counter) {
      value += delta;
      return;
    }
  }
  counters_.emplace_back(std::string(counter), delta);
}

void TraceSpan::Set(std::string_view counter, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, existing] : counters_) {
    if (name == counter) {
      existing = value;
      return;
    }
  }
  counters_.emplace_back(std::string(counter), value);
}

void TraceSpan::Note(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, existing] : notes_) {
    if (name == key) {
      existing.assign(value);
      return;
    }
  }
  notes_.emplace_back(std::string(key), std::string(value));
}

void TraceSpan::Finish() {
  int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - start_)
                   .count();
  if (ns <= 0) ns = 1;  // keep 0 meaning "running"
  int64_t expected = 0;
  end_ns_.compare_exchange_strong(expected, ns, std::memory_order_acq_rel);
}

void TraceSpan::SetWindow(Clock::time_point start, Clock::time_point end) {
  start_ = start;
  int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  end_ns_.store(std::max<int64_t>(ns, 1), std::memory_order_release);
}

double TraceSpan::seconds() const {
  int64_t ns = end_ns_.load(std::memory_order_acquire);
  if (ns == 0) {
    ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
             .count();
  }
  return static_cast<double>(ns) * 1e-9;
}

int64_t TraceSpan::duration_micros() const {
  int64_t ns = end_ns_.load(std::memory_order_acquire);
  if (ns == 0) {
    ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
             .count();
  }
  return ns / 1000;
}

std::vector<std::pair<std::string, int64_t>> TraceSpan::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<std::pair<std::string, std::string>> TraceSpan::notes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return notes_;
}

std::vector<std::shared_ptr<const TraceSpan>> TraceSpan::children() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::shared_ptr<const TraceSpan>>(children_.begin(),
                                                       children_.end());
}

int64_t TraceSpan::counter(std::string_view name, int64_t def) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, value] : counters_) {
    if (key == name) return value;
  }
  return def;
}

}  // namespace raptor::obs
