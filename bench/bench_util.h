// Shared helpers for the benchmark harnesses. Each bench binary regenerates
// one of the paper's tables (see DESIGN.md experiment index) and emits a
// machine-readable BENCH_<name>.json via BenchReport.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cases/cases.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "threatraptor.h"

namespace raptor::bench {

/// Noise multiplier for query-execution benches: the paper's logs hold 55M
/// events; the default profiles are test-sized, so execution benches scale
/// the benign background up (override with BENCH_SCALE=<n>).
inline int NoiseScale(int def = 10) {
  const char* env = std::getenv("BENCH_SCALE");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return def;
}

/// Measurement rounds (paper: 20; override with BENCH_ROUNDS=<n>).
inline int Rounds(int def = 20) {
  const char* env = std::getenv("BENCH_ROUNDS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return def;
}

/// Positive long long from the environment, or `def`.
inline long long EnvLong(const char* name, long long def) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v > 0) return v;
  }
  return def;
}

/// Build a ThreatRaptor instance loaded with a case's log, with the benign
/// noise scaled by `scale`.
inline std::unique_ptr<ThreatRaptor> LoadCase(const cases::AttackCase& c,
                                              int scale = 1) {
  cases::AttackCase scaled = c;
  scaled.benign.num_processes *= scale;
  auto tr = std::make_unique<ThreatRaptor>();
  Status st = tr->IngestSyscalls(cases::BuildCaseLog(scaled));
  if (!st.ok()) {
    std::fprintf(stderr, "failed to load case %s: %s\n", c.id.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return tr;
}

inline std::string MeanStd(const std::vector<double>& xs) {
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= xs.empty() ? 1 : xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.empty() ? 1 : xs.size();
  return StrFormat("%.4f ± %.4f", mean, std::sqrt(var));
}

inline double Mean(const std::vector<double>& xs) {
  double m = 0;
  for (double x : xs) m += x;
  return xs.empty() ? 0 : m / xs.size();
}

/// Machine-readable benchmark output: collects workload parameters and
/// per-label metrics, then writes BENCH_<name>.json into the working
/// directory (override with BENCH_JSON_DIR).
class BenchReport {
 public:
  /// Bump when the JSON layout changes incompatibly.
  static constexpr int kSchemaVersion = 2;

  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Param(const std::string& key, const std::string& value) {
    params_.push_back("\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) +
                      "\"");
  }
  void Param(const std::string& key, long long value) {
    params_.push_back("\"" + JsonEscape(key) +
                      "\": " + std::to_string(value));
  }
  void Param(const std::string& key, int value) {
    Param(key, static_cast<long long>(value));
  }

  /// One measurement: e.g. Metric("data_leak", "tbql_seconds", 0.0123).
  void Metric(const std::string& label, const std::string& metric,
              double value) {
    metrics_.push_back(StrFormat(
        "{\"label\": \"%s\", \"metric\": \"%s\", \"value\": %.9g}",
        JsonEscape(label).c_str(), JsonEscape(metric).c_str(), value));
  }

  /// Writes BENCH_<name>.json; returns false (with a note on stderr) on
  /// I/O failure so benches can keep their table output regardless.
  bool Write() const {
    std::string dir = ".";
    if (const char* env = std::getenv("BENCH_JSON_DIR")) dir = env;
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::string out = "{\n  \"bench\": \"" + JsonEscape(name_) + "\",\n";
    // Run provenance, separate from workload params: two runs compare
    // only when their schema, build type and pool size agree (a
    // Debug-vs-Release or 1-vs-8-thread comparison is meaningless).
    out += "  \"meta\": {\"schema_version\": " +
           std::to_string(kSchemaVersion) + ", \"build_type\": \"";
#ifdef NDEBUG
    out += "Release";
#else
    out += "Debug";
#endif
    out += "\", \"pool_threads\": " +
           std::to_string(ThreadPool::Shared().size()) + "},\n";
    out += "  \"params\": {";
    for (size_t i = 0; i < params_.size(); ++i) {
      out += (i > 0 ? ", " : "") + params_[i];
    }
    out += "},\n  \"metrics\": [\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += "    " + metrics_[i] + (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out += "  ]\n}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string JsonEscape(const std::string& s) {
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
            out += StrFormat("\\u%04x", c);
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::string> params_;
  std::vector<std::string> metrics_;
};

}  // namespace raptor::bench
