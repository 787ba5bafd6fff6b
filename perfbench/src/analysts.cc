// analysts: three concurrent analysts on the hunt-service path.
//
// Three client threads each Submit a request and Wait for its result
// (closed loop). Requests are hunt-library catalog techniques (TBQL and
// Cypher) with their IOC slots filled, seeded, from one evaluation case's
// attack steps; every request text in a run is distinct, so the service's
// per-epoch subresult cache only serves genuinely shared sub-queries. The
// store is cti_hunt's. Both storage backends run through admission under
// inter-query contention: intra-query morsel parallelism competes with the
// concurrent hunts for the 4 cores.
//
// Mix: requests come in rounds that hold every technique once, shuffled,
// so the technique mix is the same on every seed; only the IOC values
// vary. The timed requests are spread over three blocks, each on a fresh
// set-up of the store, so the timed samples span the whole run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "case_store.h"
#include "engine/executor.h"
#include "huntlib/catalog.h"
#include "layers.h"
#include "service/hunt_service.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace perfbench {

namespace cases = raptor::cases;
namespace huntlib = raptor::huntlib;
namespace service = raptor::service;

namespace {

constexpr int kBlocks = 3;
constexpr int kClients = 3;
constexpr double kOpsPerSecond = 45;
constexpr size_t kCheckEvery = 16;

struct Request {
  const huntlib::Technique* technique = nullptr;
  service::HuntRequest hunt;
};

/// IOC values of one case's attack steps, by catalog slot name.
std::map<std::string, std::vector<std::string>> CaseIocs(
    const cases::AttackCase& c) {
  std::map<std::string, std::vector<std::string>> pools;
  auto add = [&](const std::string& slot, const std::string& v) {
    if (v.empty()) return;
    auto& pool = pools[slot];
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) {
      pool.push_back(v);
    }
  };
  for (const raptor::audit::AttackStep& s : c.attack_steps) {
    add("proc", s.exe);
    add("archiver", s.exe);
    add("interpreter", s.object_exe.empty() ? s.exe : s.object_exe);
    add("file", s.object_path);
    add("ip", s.dst_ip);
  }
  return pools;
}

/// `{param}` names of a template.
std::vector<std::string> TemplateParams(const std::string& text) {
  std::vector<std::string> out;
  for (size_t i = text.find('{'); i != std::string::npos;
       i = text.find('{', i + 1)) {
    size_t j = text.find('}', i);
    if (j == std::string::npos) break;
    std::string name = text.substr(i + 1, j - i - 1);
    if (std::find(out.begin(), out.end(), name) == out.end()) {
      out.push_back(name);
    }
  }
  return out;
}

/// `n` distinct requests: rounds of every technique once (shuffled), each
/// filled from a seeded case that has a value for every slot.
std::vector<Request> MakeRequests(const std::vector<cases::AttackCase>& list,
                                  size_t n, uint64_t seed,
                                  std::set<std::string>* seen) {
  std::vector<std::map<std::string, std::vector<std::string>>> iocs;
  for (const cases::AttackCase& c : list) iocs.push_back(CaseIocs(c));
  std::mt19937_64 rng(seed);
  std::vector<const huntlib::Technique*> round;
  for (const huntlib::Technique& t : huntlib::AllTechniques()) {
    round.push_back(&t);
  }
  std::vector<Request> out;
  while (out.size() < n) {
    size_t before = out.size();
    std::shuffle(round.begin(), round.end(), rng);
    for (const huntlib::Technique* t : round) {
      std::vector<std::string> params = TemplateParams(t->query_template);
      for (int attempt = 0; attempt < 1000; ++attempt) {
        const auto& pools = iocs[rng() % iocs.size()];
        std::map<std::string, std::string> values;
        for (const std::string& p : params) {
          auto it = pools.find(p);
          if (it == pools.end()) break;
          values[p] = it->second[rng() % it->second.size()];
        }
        if (values.size() != params.size()) continue;
        Request r;
        r.technique = t;
        r.hunt.text = huntlib::Instantiate(*t, values);
        r.hunt.dialect = t->dialect;
        if (!seen->insert(r.hunt.text).second) continue;
        out.push_back(std::move(r));
        break;
      }
    }
    if (out.size() == before) {
      std::printf("no distinct request texts left after %zu\n", seen->size());
      std::exit(1);
    }
  }
  out.resize(n);
  return out;
}

/// Rows as a sorted multiset of joined cells.
std::vector<std::string> RowsOf(const service::HuntResponse& response) {
  std::vector<std::string> rows;
  if (response.dialect == service::QueryDialect::kTbql) {
    for (const auto& row : response.report.results.rows) {
      std::string joined;
      for (const std::string& cell : row) joined += cell + '\x1f';
      rows.push_back(std::move(joined));
    }
  } else {
    auto cursor = response.cursor();
    while (const auto* row = cursor.Next()) {
      std::string joined;
      for (const auto& cell : *row) joined += cell.ToString() + '\x1f';
      rows.push_back(std::move(joined));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The direct, uncached executor path for one request.
bool DirectRows(const raptor::storage::AuditStore* store, const Request& r,
                std::vector<std::string>* rows) {
  service::HuntResponse response;
  response.dialect = r.hunt.dialect;
  if (r.hunt.dialect == service::QueryDialect::kTbql) {
    raptor::engine::TbqlExecutor executor(store);
    auto report = executor.ExecuteText(r.hunt.text);
    if (!report.ok()) return false;
    response.report = std::move(report).value();
  } else {
    auto rs = store->graph().QueryBlocks(r.hunt.text, store->graph().options());
    if (!rs.ok()) return false;
    response.rows = std::move(rs.value().rows);
  }
  *rows = RowsOf(response);
  return true;
}

struct PhaseResult {
  OpLog log;
  std::map<std::string, std::vector<double>> by_technique;
  std::map<size_t, std::vector<std::string>> checked_rows;  // by request
  std::vector<OpTrace> traces;
  std::vector<double> queue_wait_ms;
  double parse_analyze_ms = 0;
};

/// Run `requests` from kClients closed-loop clients.
PhaseResult RunPhase(service::HuntService* svc,
                     const std::vector<Request>& requests, bool trace) {
  PhaseResult out;
  std::mutex mu;
  std::atomic<size_t> next{0};
  auto client = [&](int id) {
    for (size_t i = next.fetch_add(1); i < requests.size();
         i = next.fetch_add(1)) {
      service::HuntRequest hunt = requests[i].hunt;
      hunt.tenant = "analyst-" + std::to_string(id);
      hunt.profile = trace;
      Clock::time_point t0 = Clock::now();
      service::HuntTicket ticket = svc->Submit(std::move(hunt));
      bool ok = ticket.Wait().ok();
      Clock::time_point t1 = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      ++out.log.attempted;
      if (!ok) {
        ++out.log.failed;
        std::printf("request failed: %s: %s\n", requests[i].hunt.text.c_str(),
                    ticket.status().ToString().c_str());
        continue;
      }
      out.log.latency_ms.push_back(Ms(t0, t1));
      out.by_technique[requests[i].technique->id].push_back(Ms(t0, t1));
      const service::HuntResponse& response = ticket.response();
      if (i % kCheckEvery == 0) out.checked_rows[i] = RowsOf(response);
      if (trace && response.profile != nullptr) {
        OpTrace op;
        op.start = t0;
        op.end = t1;
        // The hand-off from the finished hunt span to the woken client
        // (ticket completion, notify, wake-up), measured from outside.
        auto hunt_end = response.profile->start() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                response.profile->seconds()));
        auto delivery = raptor::obs::TraceSpan::Root("delivery");
        delivery->SetWindow(hunt_end, t1);
        op.roots = {response.profile, delivery};
        op.pattern_deps = response.report.pattern_deps;
        for (const auto& child : response.profile->children()) {
          if (child->name() == "queue_wait") {
            out.queue_wait_ms.push_back(child->seconds() * 1e3);
          }
        }
        out.traces.push_back(std::move(op));
      }
    }
  };
  PhaseTimer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  timer.Stop(&out.log);
  if (trace) {
    // Off the op's path: the service parses TBQL texts inside "execute".
    Clock::time_point t0 = Clock::now();
    for (const Request& r : requests) {
      if (r.hunt.dialect != service::QueryDialect::kTbql) continue;
      auto parsed = raptor::tbql::ParseTbql(r.hunt.text);
      if (parsed.ok()) (void)raptor::tbql::Analyze(parsed.value());
    }
    out.parse_analyze_ms = Ms(t0, Clock::now());
  }
  return out;
}

/// Re-run every checked request on the direct uncached path.
void CheckRows(const raptor::storage::AuditStore* store,
               const std::vector<Request>& requests, const PhaseResult& phase,
               Report* report) {
  for (const auto& [i, rows] : phase.checked_rows) {
    std::vector<std::string> direct;
    if (!DirectRows(store, requests[i], &direct) || direct != rows) {
      report->Fail("service rows differ from the direct executor for: " +
                   requests[i].hunt.text);
    }
  }
  std::printf("checked %zu requests against the direct executor\n",
              phase.checked_rows.size());
}

}  // namespace

bool RunAnalysts(const Args& args, Provenance* prov, Report* report) {
  std::vector<cases::AttackCase> case_list = SeededCases(args.seed);
  // The traced run alternates untraced and traced slices on one set-up, a
  // third of the ops each, so the run needs no more distinct texts than an
  // untraced one. Slices hold whole technique rounds: every slice has the
  // same technique mix.
  int blocks = args.trace ? 1 : kBlocks;
  size_t slices = args.trace ? 4 : kBlocks;
  size_t round = huntlib::AllTechniques().size();
  size_t n = OpCount(args, kOpsPerSecond) / (args.trace ? 3 : 1);
  size_t per_slice = ((n + slices - 1) / slices + round - 1) / round * round;
  std::set<std::string> seen;  // every request text of the run is distinct
  std::vector<std::vector<Request>> untraced_slices, traced_slices;
  for (size_t i = 0; i < slices; ++i) {
    untraced_slices.push_back(MakeRequests(case_list, per_slice,
                                           SubSeed(args.seed, 10 + i), &seen));
    if (args.trace) {
      traced_slices.push_back(MakeRequests(
          case_list, per_slice, SubSeed(args.seed, 100 + i), &seen));
    }
  }

  std::vector<double> setup_times;
  OpLog untraced, traced;
  std::map<std::string, std::vector<double>> by_technique;
  std::vector<OpTrace> traces;
  std::vector<double> queue_wait_ms;
  double parse_analyze_ms = 0;
  size_t rejected = 0, subresult_hits = 0;
  CaseStore store;
  double rss_delta = 0;
  for (int b = 0; b < blocks; ++b) {
    store = CaseStore{};  // tear the previous block's set-up down first
    ReleaseFreedMemory();
    Clock::time_point t0 = Clock::now();
    store = BuildCaseStore(args, case_list, args.trace);
    setup_times.push_back(SecondsSince(t0));
    service::HuntService* svc = store.tr->hunt_service();
    if (b == 0) {
      rss_delta = store.rss_delta_bytes;  // only the first starts fresh
      prov->Set("store_records", static_cast<double>(store.records));
      prov->Set("store_events", static_cast<double>(store.events));
      prov->Set("standing_hunts", 0.0);
      prov->Set("clients", static_cast<double>(kClients));
      prov->Set("data_dir_fs", FilesystemName(store.data_dir));
      prov->Set("fsync", "none");
      prov->Set("timed_ops", static_cast<double>(per_slice * slices));
      prov->Set("blocks", static_cast<double>(blocks));
      prov->Print();
    }
    std::vector<Request> warmup = MakeRequests(
        case_list, huntlib::AllTechniques().size(),
        SubSeed(args.seed, 1000 + b), &seen);
    if (RunPhase(svc, warmup, false).log.failed > 0) return false;
    service::HuntService::Stats stats0 = svc->stats();
    OpLog block;
    for (size_t i = static_cast<size_t>(b); i < slices; i += blocks) {
      PhaseResult u = RunPhase(svc, untraced_slices[i], false);
      CheckRows(store.tr->store(), untraced_slices[i], u, report);
      block.Append(u.log);
      for (auto& [t, xs] : u.by_technique) {
        by_technique[t].insert(by_technique[t].end(), xs.begin(), xs.end());
      }
      if (!args.trace) continue;
      PhaseResult t = RunPhase(svc, traced_slices[i], true);
      CheckRows(store.tr->store(), traced_slices[i], t, report);
      traced.Append(t.log);
      traces.insert(traces.end(), t.traces.begin(), t.traces.end());
      queue_wait_ms.insert(queue_wait_ms.end(), t.queue_wait_ms.begin(),
                           t.queue_wait_ms.end());
      parse_analyze_ms += t.parse_analyze_ms;
    }
    PrintBlock(b, block);
    untraced.Append(block);
    service::HuntService::Stats stats1 = svc->stats();
    rejected += stats1.rejected - stats0.rejected;
    subresult_hits += stats1.subresult_hits - stats0.subresult_hits;
  }
  store.rss_delta_bytes = rss_delta;
  report->attempted = untraced.attempted + traced.attempted;
  report->failed += untraced.failed + traced.failed;
  std::printf("set-up times (s):");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n");
  PrintGroupLatencies("per-technique latency", by_technique);
  std::printf("timed: %zu ops in %.3f s, p50 %.3f ms, p90 %.3f ms; %zu "
              "subresult cache hits\n",
              untraced.attempted, untraced.wall_s,
              Quantile(untraced.latency_ms, 0.5),
              Quantile(untraced.latency_ms, 0.9), subresult_hits);
  if (!args.trace) {
    report->EndToEnd(untraced, Median(setup_times),
                     DirBytes(store.data_dir) /
                         static_cast<double>(std::max<size_t>(store.events, 1)));
    return true;
  }

  LayerFold fold;
  for (const OpTrace& op : traces) fold.AddOp(op);
  LayerMetrics layers;
  FinishQueryTrace(untraced, traced, fold, &layers, report);
  double ops = static_cast<double>(std::max<size_t>(fold.ops(), 1));
  layers.Set("tbql.parse_analyze_ms", parse_analyze_ms / ops);
  layers.Set("service.queue_wait_p50_ms", Quantile(queue_wait_ms, 0.5));
  layers.Set("service.queue_wait_p90_ms", Quantile(queue_wait_ms, 0.9));
  layers.Set("service.admission_rejected", static_cast<double>(rejected));
  CaseStoreLayers(&store, &layers, report);
  return layers.Emit(report);
}

}  // namespace perfbench
