// The store shared by the query workloads (cti_hunt, analysts): all 18
// evaluation cases' logs (benign noise at scale 1 plus the planted attack)
// in one durable facade — ~424k raw records, ~212k stored events.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cases/cases.h"
#include "harness.h"
#include "layers.h"
#include "threatraptor.h"

namespace perfbench {

/// The 18 cases with their benign-noise and attack-jitter seeds drawn from
/// `seed`; reports, attack scripts and noise scale are unchanged.
std::vector<raptor::cases::AttackCase> SeededCases(uint64_t seed);

struct CaseStore {
  std::unique_ptr<raptor::ThreatRaptor> tr;
  std::string data_dir;
  size_t records = 0;
  size_t events = 0;
  double rss_delta_bytes = 0;  // resident growth across the load
  /// The generated case logs, kept only when asked (audit parse replay).
  std::vector<std::vector<raptor::audit::SyscallRecord>> logs;
};

/// Generate the case logs (up to 4 threads), open a durable facade on a
/// fresh data directory, ingest one batch per case, and checkpoint.
/// Exits the process on a set-up error.
CaseStore BuildCaseStore(const Args& args,
                         const std::vector<raptor::cases::AttackCase>& cases,
                         bool keep_logs);

/// Load and write-path per-layer metrics of the case store
/// (store.rss_bytes_per_event plus PersistLayers). Ends the store's use.
void CaseStoreLayers(CaseStore* store, LayerMetrics* layers, Report* report);

}  // namespace perfbench
