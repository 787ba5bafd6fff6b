// bulk_ingest: the write path alone.
//
// A durable facade with no hunts attached; one writer ingests
// pre-generated SimulatorSource batches through IngestSyscalls: parser ->
// reduction -> WAL -> epoch gate -> store append (with columnar freeze).
// One op is one batch. snapshot_interval_epochs cuts a checkpoint every
// kSnapshotEvery batches, several per pass, so their background cost
// shows in ops_per_s and the tail; at 1 batch in kSnapshotEvery they stay
// below the p90 rank instead of sitting on it.
//
// The timed phase replays the same batch set into a fresh data directory
// several times (rounds), so the store's size, and with it each
// checkpoint's cost, repeats exactly from round to round. Only the ingest
// loops are timed; opening and closing between rounds is not. The rounds
// are spread over three blocks, each after its own set-up, so the timed
// samples span the whole run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "durable.h"
#include "layers.h"
#include "stream/event_stream.h"

namespace perfbench {

namespace service = raptor::service;
using raptor::obs::TraceSpan;

namespace {

constexpr int kBlocks = 3;
constexpr size_t kBatches = 160;  // per round
constexpr size_t kRecordsPerBatch = 600;
constexpr uint64_t kSnapshotEvery = 32;
constexpr double kOpsPerSecond = 260;
constexpr raptor::audit::Timestamp kWindowUs = 60'000'000;
// A fixed hunt whose rows must survive Close + Open unchanged.
const char* const kCheckHunt =
    "proc p[\"%/usr/bin/git%\"] read file f return distinct p, f";

using Batches = std::vector<std::vector<raptor::audit::SyscallRecord>>;

Batches GenerateBatches(uint64_t seed) {
  raptor::stream::SimulatorSourceOptions source;
  source.profile.seed = seed;
  source.profile.duration =
      static_cast<raptor::audit::Timestamp>(kBatches) * kWindowUs;
  source.profile.num_processes = static_cast<int>(
      kBatches * kRecordsPerBatch /
      static_cast<size_t>(source.profile.mean_records_per_process));
  source.batch_window_us = kWindowUs;
  raptor::stream::SimulatorSource stream(std::move(source));
  Batches out;
  for (;;) {
    auto polled = stream.Poll();
    if (!polled.ok()) std::exit(1);
    if (!polled.value().records.empty()) {
      out.push_back(std::move(polled.value().records));
    }
    if (polled.value().end_of_stream) break;
  }
  return out;
}

/// A durable facade on a fresh (emptied) data directory.
std::unique_ptr<raptor::ThreatRaptor> OpenFresh(
    const Args& args, raptor::persist::DurabilityOptions* durability) {
  durability->data_dir = FreshDir(args, "bulk_ingest");
  durability->snapshot_interval_epochs = kSnapshotEvery;
  return OpenDurable(*durability);
}

/// One pass over `batches` into `*tr`, which is reopened on a fresh data
/// directory first unless it is still empty.
OpLog RunRound(const Args& args, const Batches& batches, LayerFold* fold,
               raptor::persist::DurabilityOptions* durability,
               std::unique_ptr<raptor::ThreatRaptor>* tr) {
  if ((*tr)->store() != nullptr) {
    tr->reset();
    *tr = OpenFresh(args, durability);
  }
  OpLog log;
  PhaseTimer timer;
  for (const auto& batch : batches) {
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<TraceSpan> span;
    if (fold != nullptr) span = TraceSpan::Root("ingest");
    bool ok = (*tr)->IngestSyscalls(batch).ok();
    if (span) span->Finish();
    Clock::time_point t1 = Clock::now();
    ++log.attempted;
    if (!ok) {
      ++log.failed;
      continue;
    }
    log.latency_ms.push_back(Ms(t0, t1));
    if (fold != nullptr) fold->AddOp(OpTrace{t0, t1, {span}, "", {}});
  }
  timer.Stop(&log);
  return log;
}

std::vector<std::string> HuntRows(const raptor::ThreatRaptor& tr) {
  auto hunt = tr.Hunt(kCheckHunt);
  if (!hunt.ok()) return {"<error: " + hunt.status().ToString() + ">"};
  std::vector<std::string> rows;
  for (const auto& row : hunt.value().results.rows) {
    std::string joined;
    for (const std::string& cell : row) joined += cell + '\x1f';
    rows.push_back(std::move(joined));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

bool RunBulkIngest(const Args& args, Provenance* prov, Report* report) {
  size_t rounds = (OpCount(args, kOpsPerSecond) + kBatches - 1) / kBatches;
  size_t rounds_per_block = std::max<size_t>(1, (rounds + kBlocks - 1) / kBlocks);
  std::vector<double> setup_times;
  Batches batches;
  size_t records = 0;
  raptor::persist::DurabilityOptions durability;
  std::unique_ptr<raptor::ThreatRaptor> tr;
  OpLog untraced, traced;
  LayerFold fold;
  for (int b = 0; b < kBlocks; ++b) {
    tr.reset();  // tear the previous block's set-up down first
    ReleaseFreedMemory();
    batches.clear();
    Clock::time_point t0 = Clock::now();
    batches = GenerateBatches(SubSeed(args.seed, 1));
    tr = OpenFresh(args, &durability);
    setup_times.push_back(SecondsSince(t0));
    if (b == 0) {
      for (const auto& batch : batches) records += batch.size();
      prov->Set("standing_hunts", 0.0);
      prov->Set("batches_per_round", static_cast<double>(batches.size()));
      prov->Set("rounds", static_cast<double>(rounds_per_block * kBlocks));
      prov->Set("blocks", static_cast<double>(kBlocks));
      prov->Set("batch_records", static_cast<double>(records) /
                                     static_cast<double>(batches.size()));
      prov->Set("snapshot_interval_epochs",
                static_cast<double>(kSnapshotEvery));
      prov->Set("data_dir_fs", FilesystemName(durability.data_dir));
      prov->Set("fsync", FsyncName(durability.fsync));
      prov->Print();
    }
    OpLog block;
    for (size_t r = 0; r < rounds_per_block; ++r) {
      block.Append(RunRound(args, batches, nullptr, &durability, &tr));
      if (args.trace) {
        traced.Append(RunRound(args, batches, &fold, &durability, &tr));
      }
    }
    PrintBlock(b, block);
    untraced.Append(block);
  }
  report->attempted = untraced.attempted + traced.attempted;
  report->failed = untraced.failed + traced.failed;
  std::printf("set-up times (s):");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n");
  size_t events = tr->store()->events().size();
  double disk_bytes = DirBytes(durability.data_dir);
  std::printf("timed: %zu batches in %.3f s, p50 %.3f ms, p90 %.3f ms; %zu "
              "events per round, %llu checkpoints in the last round\n",
              untraced.attempted, untraced.wall_s,
              Quantile(untraced.latency_ms, 0.5),
              Quantile(untraced.latency_ms, 0.9), events,
              static_cast<unsigned long long>(
                  tr->durability_stats().checkpoints));

  // Output check: a fresh Open of the closed data directory holds the same
  // events and answers the fixed hunt with the same rows.
  std::vector<std::string> rows = HuntRows(*tr);
  std::printf("check hunt: %zu rows\n", rows.size());
  if (rows.empty()) report->Fail("the check hunt matched nothing");
  LayerMetrics layers;
  service::HuntService::Metrics gate = tr->service_metrics();
  layers.Set("service.gate_wait_total_ms", gate.gate_wait_seconds_total * 1e3);
  layers.Set("service.gate_wait_max_ms", gate.gate_wait_seconds_max * 1e3);
  if (args.trace) {
    PersistLayers(&tr, durability, batches, records, &layers, report);
  } else {
    if (!tr->Close().ok()) report->Fail("close");
    tr.reset();
    tr = OpenDurable(durability);
    if (tr->store() == nullptr || tr->store()->events().size() != events) {
      report->Fail("reopened store lost events");
    }
  }
  if (HuntRows(*tr) != rows) report->Fail("check hunt differs after reopen");

  if (!args.trace) {
    report->EndToEnd(untraced, Median(setup_times),
                     disk_bytes / static_cast<double>(std::max<size_t>(events, 1)));
    return true;
  }
  fold.Export(&layers);
  fold.PrintBreakdown("traced run");
  layers.Set("obs.trace_overhead",
             traced.ops_per_s() > 0 ? untraced.ops_per_s() / traced.ops_per_s()
                                    : 0.0);
  return layers.Emit(report);
}

}  // namespace perfbench
