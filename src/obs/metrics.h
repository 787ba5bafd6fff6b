// Process-facing telemetry registry.
//
// The service layers each keep their own cheap internal counters — the
// lock-cheap write side: HuntService's counters and histograms under its
// mutex, stream::StreamIngestor's, persist::Checkpointer's, and the
// storage::QueryResultCache hit/miss atomics. Each layer reads them out
// as one snapshot struct (HuntService::Metrics, stream::IngestorStats,
// persist::DurabilityStats). MetricsRegistry is the uniform *read* side:
// an export call registers every value of a snapshot by metric name (with
// optional labels), then the registry renders the whole set as Prometheus
// text exposition format or JSON. `ThreatRaptor::ExportMetrics()` is the one-call entry point;
// subsystems expose `CollectMetrics(MetricsRegistry*)` so callers owning
// extra components (e.g. the CLI's StreamIngestor) can merge them into
// the same export.
//
// LogHistogram is the shared histogram type: the log2-bucketed,
// constant-memory latency histogram that HuntService grew in PR 7,
// promoted here so every subsystem records distributions with identical
// bucket and quantile-interpolation semantics (locked by obs_test).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace raptor::obs {

/// Fixed log2-bucketed histogram over non-negative values (canonically
/// microseconds): constant memory, lock-cheap Record, quantiles by
/// rank-in-bucket linear interpolation. Bucket b covers [2^b, 2^(b+1));
/// bucket 0 is [0, 2); the last bucket absorbs everything >= 2^39.
struct LogHistogram {
  static constexpr size_t kBuckets = 40;
  std::array<size_t, kBuckets> buckets{};
  size_t count = 0;
  double sum = 0;
  double max = 0;

  void Record(double value);

  struct Summary {
    size_t count = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double mean = 0;
    double max = 0;
  };
  Summary Summarize() const;

  /// Quantile q in [0, 1] by rank-in-bucket interpolation. The fractional
  /// rank is q*(count-1); a truncated rank would pin high quantiles to the
  /// bucket floor at small counts (p99 of 2 samples must lean toward the
  /// larger one). The top populated bucket's span is capped at the
  /// observed max. 0 when empty.
  double Quantile(double q) const;
};

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricsFormat { kPrometheus, kJson };

/// Point-in-time metric snapshot, built by the CollectMetrics walkers and
/// rendered once. Families are registered by name with a type and help
/// string (first registration wins); each (name, labels) series holds one
/// value (or histogram state). Rendering is deterministic: families in
/// registration order, series in insertion order.
class MetricsRegistry {
 public:
  void Counter(const std::string& name, const std::string& help,
               double value, MetricLabels labels = {});
  void Gauge(const std::string& name, const std::string& help, double value,
             MetricLabels labels = {});
  void Histogram(const std::string& name, const std::string& help,
                 const LogHistogram& hist, MetricLabels labels = {});

  /// Prometheus text exposition format (# HELP/# TYPE + samples;
  /// histograms as cumulative _bucket{le=...}/_sum/_count series).
  std::string ToPrometheus() const;
  /// The same snapshot as a JSON document:
  /// {"metrics":[{"name","type","help","series":[{"labels","value"...}]}]}
  std::string ToJson() const;

  /// Render in `format`.
  std::string Render(MetricsFormat format) const;

  size_t family_count() const { return families_.size(); }

 private:
  struct Series {
    MetricLabels labels;
    double value = 0;
    LogHistogram hist;  // histogram families only
  };
  struct Family {
    std::string name;
    std::string help;
    char type = 'c';  // 'c'ounter | 'g'auge | 'h'istogram
    std::vector<Series> series;
  };

  Family& FamilyFor(const std::string& name, const std::string& help,
                    char type);

  std::vector<Family> families_;
  std::map<std::string, size_t> index_;  // name -> families_ slot
};

}  // namespace raptor::obs
