#include "durable.h"

#include <cstdio>
#include <cstdlib>

#include "audit/parser.h"

namespace perfbench {

using raptor::ThreatRaptor;

std::unique_ptr<ThreatRaptor> OpenDurable(
    raptor::persist::DurabilityOptions durability,
    raptor::ThreatRaptorOptions options) {
  auto opened = ThreatRaptor::Open(durability, std::move(options));
  if (!opened.ok()) {
    std::printf("open %s failed: %s\n", durability.data_dir.c_str(),
                opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened).value();
}

const char* FsyncName(raptor::persist::FsyncMode mode) {
  return mode == raptor::persist::FsyncMode::kAlways ? "always" : "none";
}

void PersistLayers(std::unique_ptr<ThreatRaptor>* tr,
                   raptor::persist::DurabilityOptions durability,
                   const std::vector<std::vector<raptor::audit::SyscallRecord>>&
                       batches,
                   size_t records, LayerMetrics* layers, Report* report) {
  // Parse replay: the same batches through a standalone parser.
  raptor::audit::AuditLogParser parser;
  raptor::audit::ParsedLog parsed;
  Clock::time_point t0 = Clock::now();
  for (const auto& batch : batches) {
    if (!parser.Parse(batch, &parsed).ok()) report->Fail("parse replay");
  }
  double parse_us = Ms(t0, Clock::now()) * 1e3;
  size_t events = (*tr)->store()->events().size();
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  layers->Set("audit.parse_us_per_record", per(parse_us, records));
  layers->Set("reduction.kept_share", per(events, records));

  raptor::persist::DurabilityStats stats = (*tr)->durability_stats();
  layers->Set("persist.wal_bytes_per_event", per(stats.wal_bytes, events));
  layers->Set("persist.checkpoints", static_cast<double>(stats.checkpoints));
  t0 = Clock::now();
  if (!(*tr)->Checkpoint().ok()) report->Fail("explicit checkpoint");
  layers->Set("persist.checkpoint_ms", Ms(t0, Clock::now()));
  layers->Set("persist.snapshot_bytes",
              static_cast<double>((*tr)->durability_stats().snapshot_bytes));

  if (!(*tr)->Close().ok()) report->Fail("close before recovery");
  tr->reset();
  t0 = Clock::now();
  *tr = OpenDurable(durability);
  layers->Set("persist.recover_s", SecondsSince(t0));
  size_t reopened = (*tr)->store() ? (*tr)->store()->events().size() : 0;
  if (reopened != events) {
    report->Fail("recovered " + std::to_string(reopened) + " events, had " +
                 std::to_string(events));
  }
}

}  // namespace perfbench
