// Fleet-scale standing hunts: the full technique catalog stamped onto many
// tenants (100+ standing hunts), refreshed per ingest epoch, with the
// multi-query optimizer on versus off. Tenants share the catalog's query
// texts, so structural dedupe collapses each technique's refresh into one
// execution fanned out to every tenant, and the shared-subresult cache
// reuses data queries across techniques that overlap on a pattern. The
// headline metric is epochs/sec over the drain loop (ingest a batch, wait
// for every hunt to deliver that epoch); dedupe and shared-hit counters
// report how much work the optimizer removed. Emits
// BENCH_standing_fleet.json with mqo/naive keys.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "huntlib/feed.h"
#include "service/hunt_service.h"
#include "storage/store.h"

using namespace raptor;

namespace {

/// One epoch's worth of fresh activity: `procs` new processes each reading
/// one fleet-shared file and writing one private file, plus a connect —
/// touches every technique's entity types without matching most filters.
audit::ParsedLog EpochBatch(int epoch, int procs) {
  audit::ParsedLog log;
  audit::Timestamp ts = 1'000'000LL * (epoch + 1);
  for (int i = 0; i < procs; ++i) {
    std::string tag = std::to_string(epoch) + "_" + std::to_string(i);
    audit::EntityId p =
        log.entities.InternProcess("/fleet/worker" + tag, 10'000 + i);
    audit::EntityId shared = log.entities.InternFile(
        "/fleet/data/shard" + std::to_string(i % 4) + ".db");
    audit::EntityId priv = log.entities.InternFile("/fleet/out/o" + tag);
    audit::EntityId net = log.entities.InternNetwork(
        "10.0.0.1", 40'000, "192.0.2." + std::to_string(i % 8), 443, "tcp");
    auto add = [&](audit::EntityId object, audit::EntityType type,
                   audit::EventOp op) {
      audit::SystemEvent ev;
      ev.id = log.events.size() + 1;
      ev.subject = p;
      ev.object = object;
      ev.object_type = type;
      ev.op = op;
      ev.start_time = ts;
      ev.end_time = ts + 10;
      ts += 100;
      log.events.push_back(ev);
    };
    add(shared, audit::EntityType::kFile, audit::EventOp::kRead);
    add(priv, audit::EntityType::kFile, audit::EventOp::kWrite);
    add(net, audit::EntityType::kNetwork, audit::EventOp::kConnect);
  }
  return log;
}

struct FleetResult {
  size_t hunts = 0;
  size_t epochs = 0;
  double wall_seconds = 0;
  service::HuntService::Stats stats;
};

FleetResult RunFleet(bool mqo, int tenants, int epochs, int procs_per_epoch) {
  storage::AuditStore store;
  if (!store.Load(audit::ParsedLog{}).ok()) std::exit(1);
  service::HuntServiceOptions opts;
  opts.mqo = mqo;
  service::HuntService service(&store, opts);

  // Full refreshes every epoch on both sides: the comparison isolates the
  // optimizer, not the incremental path.
  huntlib::HuntLibraryOptions lopts;
  lopts.standing.allow_incremental = false;
  huntlib::HuntLibrary library(lopts);
  FleetResult out;
  for (int t = 0; t < tenants; ++t) {
    out.hunts +=
        library.AttachCatalog(&service, "tenant-" + std::to_string(t));
  }

  auto ingest = [&](int epoch) {
    audit::ParsedLog batch = EpochBatch(epoch, procs_per_epoch);
    auto applied = service.Ingest([&](service::IngestReport* report) {
      storage::AppendStats stats;
      RAPTOR_RETURN_NOT_OK(store.Append(batch, &stats));
      report->touched_entities = std::move(stats.touched_entities);
      return Status::OK();
    });
    if (!applied.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   applied.status().ToString().c_str());
      std::exit(1);
    }
    for (const huntlib::HuntLibrary::Attachment& a : library.attachments()) {
      service::StandingHandle h = a.handle;
      if (!h.WaitEpoch(service.epoch(), 300'000'000)) {
        std::fprintf(stderr, "drain timed out: %s\n", a.spec.name.c_str());
        std::exit(1);
      }
    }
  };

  ingest(0);  // warmup: schemas hot, every hunt past its initial refresh
  auto start = std::chrono::steady_clock::now();
  for (int e = 1; e <= epochs; ++e) ingest(e);
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  out.epochs = static_cast<size_t>(epochs);
  out.stats = service.stats();
  library.DetachAll();
  return out;
}

void Report(bench::BenchReport& report, TablePrinter& table,
            const std::string& label, const FleetResult& r) {
  double eps = r.wall_seconds > 0 ? r.epochs / r.wall_seconds : 0;
  table.AddRow({label, std::to_string(r.hunts), std::to_string(r.epochs),
                StrFormat("%.3f", r.wall_seconds), StrFormat("%.2f", eps),
                std::to_string(r.stats.standing_refreshes),
                std::to_string(r.stats.standing_dedup_hits),
                std::to_string(r.stats.subresult_hits)});
  report.Metric(label, "epochs_per_sec", eps);
  report.Metric(label, "wall_seconds", r.wall_seconds);
  report.Metric(label, "hunts", static_cast<double>(r.hunts));
  report.Metric(label, "refreshes",
                static_cast<double>(r.stats.standing_refreshes));
  report.Metric(label, "dedup_hits",
                static_cast<double>(r.stats.standing_dedup_hits));
  report.Metric(label, "subresult_hits",
                static_cast<double>(r.stats.subresult_hits));
}

}  // namespace

int main() {
  int tenants = static_cast<int>(bench::EnvLong("BENCH_FLEET_TENANTS", 12));
  int epochs = static_cast<int>(bench::EnvLong("BENCH_FLEET_EPOCHS", 8));
  int procs = static_cast<int>(
      bench::EnvLong("BENCH_FLEET_PROCS_PER_EPOCH", 40));

  bench::BenchReport report("standing_fleet");
  report.Param("tenants", tenants);
  report.Param("techniques",
               static_cast<long long>(huntlib::AllTechniques().size()));
  report.Param("epochs", epochs);
  report.Param("procs_per_epoch", procs);

  TablePrinter table({"config", "hunts", "epochs", "wall_s", "epochs_per_s",
                      "refreshes", "dedup_hits", "subresult_hits"});
  FleetResult mqo = RunFleet(true, tenants, epochs, procs);
  FleetResult naive = RunFleet(false, tenants, epochs, procs);
  Report(report, table, "mqo", mqo);
  Report(report, table, "naive", naive);
  double speedup = naive.wall_seconds > 0 && mqo.wall_seconds > 0
                       ? naive.wall_seconds / mqo.wall_seconds
                       : 0;
  report.Metric("mqo", "speedup_vs_naive", speedup);
  table.Print();
  std::printf("mqo speedup vs naive: %.2fx\n", speedup);
  report.Write();
  return 0;
}
