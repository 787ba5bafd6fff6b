// live_soc: continuous hunting, writes beside reads.
//
// A durable facade (fresh data directory, default fsync mode) over one
// base case log (tc_theia_2, noise scale 1) carries two sets of standing
// hunts: the whole technique catalog for 4 tenants (what
// HuntLibrary::AttachCatalog stamps, attached spec by spec so the traced
// run can profile them; MQO collapses identical texts across tenants) and
// hunts synthesized from case reports (SynthesizeFromCti). One writer
// ingests SimulatorSource batches (benign background plus the planted
// attack scripts of the CTI cases) with IngestSyscalls, then waits on
// StandingHandle::WaitEpoch until every hunt has delivered that epoch.
// One op is one epoch, from ingest to the last delivery. Incremental
// standing refresh, MQO dedupe, the subresult cache, the epoch gate and
// delivery do most of the work; the one-shot paths are idle.
//
// The epochs are spread over three blocks, each a fresh set-up of the same
// inputs (base log, hunts, stream with its planted attacks), so the timed
// samples span the whole run and the store's growth repeats per block.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>

#include "cases/cases.h"
#include "durable.h"
#include "huntlib/catalog.h"
#include "huntlib/feed.h"
#include "layers.h"
#include "stream/event_stream.h"

namespace perfbench {

namespace cases = raptor::cases;
namespace huntlib = raptor::huntlib;
namespace service = raptor::service;
using raptor::obs::TraceSpan;

namespace {

constexpr int kBlocks = 3;
constexpr int kTenants = 4;
constexpr double kEpochsPerSecond = 20;
constexpr size_t kRecordsPerEpoch = 200;
constexpr raptor::audit::Timestamp kWindowUs = 60'000'000;
constexpr long long kWaitTimeoutUs = 60'000'000;
const char* const kBaseCase = "tc_theia_2";
// Planted into the stream; each has a CTI hunt that must alert. The CTI
// hunts of password_crack, tc_clearscope_1, tc_clearscope_2 and vpnfilter
// find their attack only together with the case's own background log
// (their synthesized queries keep patterns the bare script never matches),
// so they are not planted here; see METRICS.md.
const char* const kPlanted[] = {"tc_clearscope_3", "tc_fivedirections_2",
                                "tc_theia_1", "tc_trace_2"};

std::string JoinRow(const std::vector<raptor::sql::Value>& row) {
  std::string joined;
  for (const auto& cell : row) joined += cell.ToString() + '\x1f';
  return joined;
}

/// Everything the standing sinks deliver, by subscription id.
struct Delivered {
  std::mutex mu;
  /// Delivered rows by subscription, each with the epoch that delivered it.
  std::map<uint64_t, std::map<std::string, uint64_t>> rows;
  std::map<uint64_t, uint64_t> last_alert_epoch;
  std::map<uint64_t, std::vector<std::shared_ptr<const TraceSpan>>> profiles;
  std::map<uint64_t, double> refresh_s;  // by subscription
  size_t delta_rows = 0;
  size_t errors = 0;

  service::StandingSink Sink() {
    service::StandingSink sink;
    sink.on_update = [this](const service::StandingUpdate& u) {
      std::lock_guard<std::mutex> lock(mu);
      auto& seen = rows[u.subscription_id];
      auto cursor = u.cursor();
      while (const auto* row = cursor.Next()) {
        seen.emplace(JoinRow(*row), u.epoch);
      }
      delta_rows += u.delta.row_count();
      refresh_s[u.subscription_id] += u.seconds;
      if (!u.delta.empty()) last_alert_epoch[u.subscription_id] = u.epoch;
      if (u.profile != nullptr) profiles[u.epoch].push_back(u.profile);
    };
    sink.on_error = [this](const raptor::Status& st) {
      std::lock_guard<std::mutex> lock(mu);
      ++errors;
      std::printf("standing refresh failed: %s\n", st.ToString().c_str());
    };
    return sink;
  }
};

/// One set-up. Members are destroyed bottom-up: the facade (and with it
/// the service's workers) goes before the sinks' Delivered.
struct LiveSoc {
  raptor::persist::DurabilityOptions durability;
  std::vector<std::vector<raptor::audit::SyscallRecord>> batches;  // [0]=base
  size_t records = 0;
  uint64_t baseline_epoch = 0;
  std::map<std::string, uint64_t> cti_subscription;  // case id -> id
  Delivered delivered;
  huntlib::HuntLibrary library;
  std::unique_ptr<raptor::ThreatRaptor> tr;
};

const cases::AttackCase& CaseById(const std::vector<cases::AttackCase>& list,
                                  const std::string& id) {
  for (const cases::AttackCase& c : list) {
    if (c.id == id) return c;
  }
  std::printf("unknown case %s\n", id.c_str());
  std::exit(1);
}

/// Generate the inputs, open the facade, load the base log, attach every
/// hunt and wait for their baseline refresh.
std::unique_ptr<LiveSoc> SetUp(const Args& args, size_t epochs,
                               bool profile) {
  auto owned = std::make_unique<LiveSoc>();
  LiveSoc& soc = *owned;
  std::vector<cases::AttackCase> list = cases::AllCases();
  cases::AttackCase base = CaseById(list, kBaseCase);
  base.benign.seed = SubSeed(args.seed, 1);
  soc.batches.push_back(cases::BuildCaseLog(base));

  raptor::stream::SimulatorSourceOptions source;
  source.profile.seed = SubSeed(args.seed, 2);
  source.profile.start_time = 2 * base.benign.duration;
  source.profile.duration = static_cast<raptor::audit::Timestamp>(epochs) *
                            kWindowUs;
  source.profile.num_processes = static_cast<int>(
      epochs * kRecordsPerEpoch /
      static_cast<size_t>(source.profile.mean_records_per_process));
  source.batch_window_us = kWindowUs;
  std::mt19937_64 rng(SubSeed(args.seed, 3));
  for (const char* id : kPlanted) {
    raptor::stream::SimulatorSourceOptions::TimedAttack attack;
    attack.steps = CaseById(list, id).attack_steps;
    // Land somewhere in the middle 80% of the stream.
    attack.at = source.profile.duration / 10 +
                static_cast<raptor::audit::Timestamp>(
                    rng() % static_cast<uint64_t>(source.profile.duration * 8 / 10));
    attack.seed = rng();
    source.attacks.push_back(std::move(attack));
  }
  raptor::stream::SimulatorSource stream(std::move(source));
  for (;;) {
    auto polled = stream.Poll();
    if (!polled.ok()) std::exit(1);
    if (!polled.value().records.empty()) {
      soc.batches.push_back(std::move(polled.value().records));
    }
    if (polled.value().end_of_stream) break;
  }
  for (const auto& b : soc.batches) soc.records += b.size();

  soc.durability.data_dir = FreshDir(args, "live_soc");
  soc.tr = OpenDurable(soc.durability);
  if (!soc.tr->IngestSyscalls(soc.batches[0]).ok()) std::exit(1);
  service::HuntService* svc = soc.tr->hunt_service();

  for (int t = 0; t < kTenants; ++t) {
    for (const huntlib::Technique& tech : huntlib::AllTechniques()) {
      auto spec = soc.library.FromTechnique(tech.id, {},
                                             "tenant-" + std::to_string(t));
      if (!spec.ok()) std::exit(1);
      spec.value().request.profile = profile;
      soc.library.Attach(svc, std::move(spec).value(), soc.delivered.Sink());
    }
  }
  std::vector<std::string> cti_cases = {kBaseCase};
  cti_cases.insert(cti_cases.end(), std::begin(kPlanted), std::end(kPlanted));
  for (const std::string& id : cti_cases) {
    auto spec = soc.library.SynthesizeFromCti(CaseById(list, id).oscti_text,
                                               id, "cti");
    if (!spec.ok()) {
      std::printf("synthesis failed for %s\n", id.c_str());
      std::exit(1);
    }
    spec.value().request.profile = profile;
    service::StandingHandle h = soc.library.Attach(
        svc, std::move(spec).value(), soc.delivered.Sink());
    soc.cti_subscription[id] = h.id();
  }
  soc.baseline_epoch = svc->epoch();
  for (const auto& a : soc.library.attachments()) {
    a.handle.WaitEpoch(soc.baseline_epoch, kWaitTimeoutUs);
  }
  return owned;
}

/// Ingest every stream batch, one epoch per op; with `fold`, each epoch's
/// refresh profiles plus an "ingest" span are folded into layers.
OpLog RunEpochs(LiveSoc* soc, LayerFold* fold) {
  service::HuntService* svc = soc->tr->hunt_service();
  OpLog log;
  PhaseTimer timer;
  for (size_t b = 1; b < soc->batches.size(); ++b) {
    Clock::time_point t0 = Clock::now();
    auto ingest = TraceSpan::Root("ingest");
    bool ok = soc->tr->IngestSyscalls(soc->batches[b]).ok();
    ingest->Finish();
    uint64_t epoch = svc->epoch();
    for (const auto& a : soc->library.attachments()) {
      ok = ok && a.handle.WaitEpoch(epoch, kWaitTimeoutUs);
    }
    Clock::time_point t1 = Clock::now();
    ++log.attempted;
    if (!ok) {
      ++log.failed;
      continue;
    }
    log.latency_ms.push_back(Ms(t0, t1));
    if (fold != nullptr) {
      OpTrace op;
      op.start = t0;
      op.end = t1;
      op.roots.push_back(ingest);
      std::lock_guard<std::mutex> lock(soc->delivered.mu);
      for (auto& p : soc->delivered.profiles[epoch]) op.roots.push_back(p);
      soc->delivered.profiles.erase(epoch);
      fold->AddOp(op);
    }
  }
  timer.Stop(&log);
  return log;
}

/// Rows of a one-shot run of `request` on `tr`'s store.
bool OneShotRows(raptor::ThreatRaptor* tr, service::HuntRequest request,
                 std::set<std::string>* rows) {
  request.profile = false;
  auto once = tr->hunt_service()->Run(request);
  if (!once.ok()) return false;
  if (request.dialect == service::QueryDialect::kTbql) {
    for (const auto& row : once.value().report.results.rows) {
      std::vector<raptor::sql::Value> cells(row.begin(), row.end());
      rows->insert(JoinRow(cells));
    }
  } else {
    auto cursor = once.value().cursor();
    while (const auto* row = cursor.Next()) rows->insert(JoinRow(*row));
  }
  return true;
}

/// The store as it stood at `epoch`: a fresh facade fed the same batches.
std::unique_ptr<raptor::ThreatRaptor> Replay(const LiveSoc& soc,
                                             uint64_t epoch) {
  auto tr = std::make_unique<raptor::ThreatRaptor>();
  for (uint64_t e = 1; e <= epoch && e <= soc.batches.size(); ++e) {
    if (!tr->IngestSyscalls(soc.batches[e - 1]).ok()) return nullptr;
  }
  return tr;
}

/// Every standing hunt delivered exactly the rows a one-shot run returns on
/// the final store, and every planted attack's CTI hunt alerted after the
/// baseline. A delivered row the final store no longer yields is accepted
/// only if a one-shot run on a replay of the store at the epoch that
/// delivered it returns it: hunts with unmatched (excessive) patterns are
/// not monotone, so a row can be a true result at its epoch and not later.
/// With `print`, also list the costliest hunts and the CTI deliveries.
void Check(LiveSoc* soc, bool print, Report* report) {
  // The stream is drained, so no refresh is running: copy what the sinks
  // delivered and release their lock before the one-shot runs.
  Delivered& d = soc->delivered;
  std::map<uint64_t, std::map<std::string, uint64_t>> delivered;
  std::map<uint64_t, uint64_t> last_alert;
  std::map<uint64_t, double> refresh_s;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.errors > 0) report->Fail("standing refresh errors");
    delivered = d.rows;
    last_alert = d.last_alert_epoch;
    refresh_s = d.refresh_s;
  }
  size_t transient = 0;
  for (const auto& a : soc->library.attachments()) {
    std::string name = a.spec.name + " (" + a.spec.request.tenant + ")";
    std::set<std::string> final_rows;
    if (!OneShotRows(soc->tr.get(), a.spec.request, &final_rows)) {
      report->Fail("one-shot run failed: " + name);
      continue;
    }
    const auto& got = delivered[a.handle.id()];
    for (const std::string& row : final_rows) {
      if (!got.count(row)) report->Fail("standing hunt missed a row: " + name);
    }
    for (const auto& [row, epoch] : got) {
      if (final_rows.count(row)) continue;
      std::set<std::string> then;
      auto replay = Replay(*soc, epoch);
      if (replay == nullptr ||
          !OneShotRows(replay.get(), a.spec.request, &then) ||
          !then.count(row)) {
        report->Fail("standing hunt delivered a row no one-shot run returns: " +
                     name + " at epoch " + std::to_string(epoch));
      } else {
        std::printf("transient row: %s delivered at epoch %llu, gone from the "
                    "final store's result\n",
                    name.c_str(), static_cast<unsigned long long>(epoch));
        ++transient;
      }
    }
  }
  for (const char* id : kPlanted) {
    auto it = last_alert.find(soc->cti_subscription[id]);
    if (it == last_alert.end() || it->second <= soc->baseline_epoch) {
      report->Fail(std::string("planted attack did not alert: ") + id);
    }
  }
  std::printf("checked %zu standing hunts against one-shot runs (%zu "
              "transient rows confirmed by replay)\n",
              soc->library.attachments().size(), transient);
  if (!print) return;
  std::vector<std::pair<double, std::string>> costly;
  for (const auto& a : soc->library.attachments()) {
    costly.push_back({refresh_s[a.handle.id()],
                      a.spec.name + " (" + a.spec.request.tenant + ")"});
  }
  std::sort(costly.rbegin(), costly.rend());
  std::printf("costliest standing hunts (refresh seconds over the block):\n");
  for (size_t i = 0; i < std::min<size_t>(costly.size(), 12); ++i) {
    std::printf("  %8.3f  %s\n", costly[i].first, costly[i].second.c_str());
  }
  for (const auto& [id, sub] : soc->cti_subscription) {
    auto it = last_alert.find(sub);
    std::printf("cti hunt %-20s %4zu rows delivered, last alert at epoch "
                "%llu (baseline %llu)\n",
                id.c_str(), delivered[sub].size(),
                static_cast<unsigned long long>(
                    it == last_alert.end() ? 0 : it->second),
                static_cast<unsigned long long>(soc->baseline_epoch));
  }
}

/// Standing-hunt service counters summed over the traced blocks.
struct TracedTotals {
  double refreshes = 0, incremental = 0, dedup = 0, alerts = 0, rows = 0;
  double gate_wait_ms = 0, gate_wait_max_ms = 0;
};

/// One traced block: profiled set-up, the epochs folded into `fold`.
OpLog TracedBlock(const Args& args, size_t epochs, LayerFold* fold,
                  TracedTotals* totals, std::unique_ptr<LiveSoc>* owned,
                  Report* report) {
  owned->reset();
  ReleaseFreedMemory();
  *owned = SetUp(args, epochs, true);
  LiveSoc& soc = **owned;
  service::HuntService* svc = soc.tr->hunt_service();
  service::HuntService::Stats s0 = svc->stats();
  service::HuntService::Metrics m0 = svc->metrics();
  size_t rows0 = soc.delivered.delta_rows;
  OpLog log = RunEpochs(&soc, fold);
  service::HuntService::Stats s1 = svc->stats();
  service::HuntService::Metrics m1 = svc->metrics();
  Check(&soc, false, report);
  totals->refreshes += s1.standing_refreshes - s0.standing_refreshes;
  totals->incremental += s1.standing_incremental - s0.standing_incremental;
  totals->dedup += s1.standing_dedup_hits - s0.standing_dedup_hits;
  totals->alerts += s1.standing_alerts - s0.standing_alerts;
  totals->rows += soc.delivered.delta_rows - rows0;
  totals->gate_wait_ms +=
      (m1.gate_wait_seconds_total - m0.gate_wait_seconds_total) * 1e3;
  totals->gate_wait_max_ms =
      std::max(totals->gate_wait_max_ms, m1.gate_wait_seconds_max * 1e3);
  return log;
}

}  // namespace

bool RunLiveSoc(const Args& args, Provenance* prov, Report* report) {
  // A traced run pairs every block with a traced one, at half the epochs
  // each, so it stays as long as an untraced run.
  size_t per_block = (OpCount(args, kEpochsPerSecond) + kBlocks - 1) /
                     kBlocks / (args.trace ? 2 : 1);
  std::vector<double> setup_times;
  std::unique_ptr<LiveSoc> owned;
  OpLog untraced, traced;
  LayerFold fold;
  TracedTotals totals;
  size_t events = 0;
  double disk_bytes = 0;
  for (int b = 0; b < kBlocks; ++b) {
    owned.reset();  // tear the previous block's set-up down first
    ReleaseFreedMemory();
    Clock::time_point t0 = Clock::now();
    owned = SetUp(args, per_block, false);
    setup_times.push_back(SecondsSince(t0));
    LiveSoc& soc = *owned;
    size_t base_events = soc.tr->store()->events().size();
    if (b == 0) {
      prov->Set("base_case", kBaseCase);
      prov->Set("base_records", static_cast<double>(soc.batches[0].size()));
      prov->Set("base_events", static_cast<double>(base_events));
      prov->Set("standing_hunts",
                static_cast<double>(soc.library.attachments().size()));
      prov->Set("epochs", static_cast<double>(kBlocks * (soc.batches.size() - 1)));
      prov->Set("blocks", static_cast<double>(kBlocks));
      prov->Set("batch_records",
                static_cast<double>(soc.records - soc.batches[0].size()) /
                    static_cast<double>(soc.batches.size() - 1));
      prov->Set("data_dir_fs", FilesystemName(soc.durability.data_dir));
      prov->Set("fsync", FsyncName(soc.durability.fsync));
      prov->Print();
    }
    OpLog block = RunEpochs(&soc, nullptr);
    PrintBlock(b, block);
    untraced.Append(block);
    events = soc.tr->store()->events().size();
    disk_bytes = DirBytes(soc.durability.data_dir);
    std::printf("block %d store: %zu -> %zu events\n", b, base_events, events);
    Check(&soc, b == 0, report);
    if (args.trace) {
      traced.Append(
          TracedBlock(args, per_block, &fold, &totals, &owned, report));
    }
  }
  report->attempted = untraced.attempted + traced.attempted;
  report->failed += untraced.failed + traced.failed;
  std::printf("set-up times (s):");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\ntimed: %zu epochs in %.3f s, p50 %.3f ms, p90 %.3f ms\n",
              untraced.attempted, untraced.wall_s,
              Quantile(untraced.latency_ms, 0.5),
              Quantile(untraced.latency_ms, 0.9));
  if (!args.trace) {
    report->EndToEnd(untraced, Median(setup_times),
                     disk_bytes / static_cast<double>(std::max<size_t>(events, 1)));
    return true;
  }

  LayerMetrics layers;
  fold.Export(&layers);
  fold.PrintBreakdown("traced run");
  double epochs = static_cast<double>(std::max<size_t>(traced.attempted, 1));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  layers.Set("obs.trace_overhead",
             ratio(untraced.ops_per_s(), traced.ops_per_s()));
  layers.Set("service.refreshes_per_epoch", totals.refreshes / epochs);
  layers.Set("service.incremental_share",
             ratio(totals.incremental, totals.refreshes));
  layers.Set("service.mqo_dedup_share", ratio(totals.dedup, totals.refreshes));
  layers.Set("service.alerts_per_epoch", totals.alerts / epochs);
  layers.Set("service.rows_delivered_per_epoch", totals.rows / epochs);
  layers.Set("service.refresh_ms",
             ratio(fold.Total("service.refresh_ms"), totals.refreshes));
  layers.Set("service.gate_wait_total_ms", totals.gate_wait_ms);
  layers.Set("service.gate_wait_max_ms", totals.gate_wait_max_ms);
  LiveSoc& last = *owned;
  PersistLayers(&last.tr, last.durability, last.batches, last.records, &layers,
                report);
  return layers.Emit(report);
}

}  // namespace perfbench
