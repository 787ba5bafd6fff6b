#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "common/thread_pool.h"

namespace perfbench {

namespace fs = std::filesystem;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  if (frac == 0 || xs[hi] == xs[lo]) return xs[lo];
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void OpLog::Append(const OpLog& block) {
  latency_ms.insert(latency_ms.end(), block.latency_ms.begin(),
                    block.latency_ms.end());
  attempted += block.attempted;
  failed += block.failed;
  wall_s += block.wall_s;
  cpu_s += block.cpu_s;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::EndToEnd(const OpLog& log, double setup_s,
                      double disk_bytes_per_event) {
  std::vector<double> lat = log.latency_ms;
  lat.insert(lat.end(), log.failed, std::numeric_limits<double>::max());
  size_t ops = std::max<size_t>(log.attempted, 1);
  Metric("setup_s", setup_s, "s");
  Metric("ops_per_s", log.ops_per_s(), "1/s");
  Metric("latency_p50_ms", Quantile(lat, 0.5), "ms");
  Metric("latency_p90_ms", Quantile(lat, 0.9), "ms");
  Metric("cpu_ms_per_op", log.cpu_s * 1e3 / static_cast<double>(ops), "ms");
  Metric("peak_rss_mb", PeakRssMb(), "MB");
  Metric("disk_bytes_per_event", disk_bytes_per_event, "B");
}

void Report::Fail(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  mismatch_ = true;
  failed = std::min(failed + 1, std::max<size_t>(attempted, 1));
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += (!mismatch_ && failed == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<size_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + JsonEscape(name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + JsonEscape(vu.second) + "\"}";
  }
  out += "}}";
  return out;
}

Provenance::Provenance(const Args& args) {
  Set("workload", args.workload);
  Set("seed", static_cast<double>(args.seed));
  Set("seconds", static_cast<double>(args.seconds));
  Set("trace", args.trace ? 1.0 : 0.0);
  Set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  Set("assertions", "off");
#else
  Set("assertions", "on");
#endif
  Set("pool_threads",
      static_cast<double>(raptor::ThreadPool::Shared().size()));
}

void Provenance::Set(const std::string& key, const std::string& value) {
  fields_.push_back({key, "\"" + JsonEscape(value) + "\""});
}

void Provenance::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  fields_.push_back({key, buf});
}

void Provenance::Print() const {
  std::string out = "provenance: {";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(fields_[i].first) +
           "\": " + fields_[i].second;
  }
  std::printf("%s}\n", out.c_str());
}

void ReleaseFreedMemory() { malloc_trim(0); }

std::string FreshDir(const Args& args, const std::string& name) {
  fs::path dir = fs::path(args.work_dir) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<double>(it->file_size(ec));
    }
  }
  return total;
}

std::string FilesystemName(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

size_t OpCount(const Args& args, double per_second, size_t min) {
  return std::max(min, static_cast<size_t>(per_second * args.seconds + 0.5));
}

void PrintBlock(int block, const OpLog& log) {
  std::printf("block %d: %zu ops in %.3f s, p50 %.3f ms, p90 %.3f ms, "
              "cpu %.3f ms/op\n",
              block, log.attempted, log.wall_s, Quantile(log.latency_ms, 0.5),
              Quantile(log.latency_ms, 0.9),
              log.attempted ? log.cpu_s * 1e3 / log.attempted : 0.0);
}

void PrintGroupLatencies(
    const std::string& title,
    const std::map<std::string, std::vector<double>>& by_group) {
  std::printf("%s (ms): group n p50 p90\n", title.c_str());
  for (const auto& [group, xs] : by_group) {
    std::printf("  %-28s %4zu %9.3f %9.3f\n", group.c_str(), xs.size(),
                Quantile(xs, 0.5), Quantile(xs, 0.9));
  }
}

}  // namespace perfbench
