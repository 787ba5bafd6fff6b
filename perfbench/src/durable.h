// Durable-facade helpers shared by every workload: open a facade on a
// data directory, and measure the write path's per-layer metrics (audit
// parse, reduction, WAL, snapshots, recovery) after a timed phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "threatraptor.h"

namespace perfbench {

/// ThreatRaptor::Open on `data_dir` (default fsync mode unless changed in
/// `durability`); exits the process on failure.
std::unique_ptr<raptor::ThreatRaptor> OpenDurable(
    raptor::persist::DurabilityOptions durability,
    raptor::ThreatRaptorOptions options = {});

/// Name of a fsync mode, for provenance.
const char* FsyncName(raptor::persist::FsyncMode mode);

/// Write-path per-layer metrics of `*tr`, whose store was loaded from
/// `batches` (`records` raw records in total):
///   audit.parse_us_per_record  standalone AuditLogParser::Parse replay
///   reduction.kept_share       stored events ÷ records
///   persist.wal_bytes_per_event, persist.checkpoints (so far),
///   persist.snapshot_bytes     from durability_stats()
///   persist.checkpoint_ms      one timed explicit Checkpoint()
///   persist.recover_s          Close(), then a timed Open of the same
///                              directory; the reopened store must hold
///                              the same event count (else a failed check)
/// Ends the facade's use: `*tr` is replaced by the reopened facade.
void PersistLayers(std::unique_ptr<raptor::ThreatRaptor>* tr,
                   raptor::persist::DurabilityOptions durability,
                   const std::vector<std::vector<raptor::audit::SyscallRecord>>&
                       batches,
                   size_t records, LayerMetrics* layers, Report* report);

}  // namespace perfbench
