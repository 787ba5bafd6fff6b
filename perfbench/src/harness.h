// Shared plumbing of the repository benchmark: arguments, clocks and
// process counters, the timed-op log behind the end-to-end metrics, the
// result line, provenance, and data-directory helpers.
//
// Every workload follows one shape (see METRICS.md): three blocks, each a
// fresh set-up (the median set-up time is `setup_s`), an untimed warm-up
// and a third of a fixed number of timed ops derived from --seconds; then
// the outputs are checked. With --trace 1 traced copies of the timed ops
// run interleaved with the untraced ones and are folded into per-layer
// metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch root for data directories; removed when the run ends.
  std::string work_dir;
};

/// Seconds from `t0` to now.
double SecondsSince(Clock::time_point t0);
/// Milliseconds between two instants.
double Ms(Clock::time_point a, Clock::time_point b);

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
/// Peak resident set of the process (ru_maxrss), MB.
double PeakRssMb();
/// Current resident set of the process, bytes.
double CurrentRssBytes();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);

/// 64-bit mix of (seed, salt): independent sub-seeds from one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// Ops of one timed phase: per-op latency, failures, wall and CPU time.
struct OpLog {
  std::vector<double> latency_ms;  // successful ops only
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s : 0;
  }
  /// Pool another timed block into this log.
  void Append(const OpLog& block);
};

/// Wall and CPU stopwatch around a timed phase.
class PhaseTimer {
 public:
  PhaseTimer() : wall0_(Clock::now()), cpu0_(ProcessCpuSeconds()) {}
  void Stop(OpLog* log) const {
    log->wall_s = SecondsSince(wall0_);
    log->cpu_s = ProcessCpuSeconds() - cpu0_;
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// The result line: the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// The end-to-end metrics of an untraced timed phase. A failed op counts
  /// as missing every latency bound: it enters the percentiles as +inf.
  void EndToEnd(const OpLog& log, double setup_s, double disk_bytes_per_event);
  /// Count an output mismatch against the ops attempted.
  void Fail(const std::string& what);

  size_t attempted = 0;
  size_t failed = 0;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool mismatch_ = false;
};

/// Run facts printed once per run as `provenance: {...}`.
class Provenance {
 public:
  explicit Provenance(const Args& args);
  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, double value);
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // JSON values
};

/// Hand freed heap pages back to the system (malloc_trim) after a set-up
/// is torn down, so the next set-up's resident set, and the run's peak,
/// do not depend on what the allocator kept from the last one.
void ReleaseFreedMemory();

/// Fresh empty directory `<work_dir>/<name>` (removed first if present).
std::string FreshDir(const Args& args, const std::string& name);
/// Total bytes of the regular files under `dir`.
double DirBytes(const std::string& dir);
/// Filesystem type of `path` (statfs), e.g. "ext4", "overlayfs".
std::string FilesystemName(const std::string& path);
void RemoveTree(const std::string& path);

std::string JsonEscape(const std::string& s);

/// Number of timed ops for a run: `per_second` × seconds, at least `min`.
size_t OpCount(const Args& args, double per_second, size_t min = 100);

/// One diagnostic line per timed block: how far apart a run's blocks sit
/// shows how much of the run-to-run spread is host noise within a run.
void PrintBlock(int block, const OpLog& log);

/// Latency percentiles of one labelled op group (per case / technique),
/// printed as a diagnostic table so a percentile sitting in a gap between
/// groups shows.
void PrintGroupLatencies(
    const std::string& title,
    const std::map<std::string, std::vector<double>>& by_group);

// Workload entry points: fill `report`, print diagnostics, return false on
// a set-up error (no result line is printed then).
bool RunCtiHunt(const Args& args, Provenance* prov, Report* report);
bool RunAnalysts(const Args& args, Provenance* prov, Report* report);
bool RunLiveSoc(const Args& args, Provenance* prov, Report* report);
bool RunBulkIngest(const Args& args, Provenance* prov, Report* report);

}  // namespace perfbench
