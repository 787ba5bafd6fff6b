// Continuous hunting: stream sources, epoch-coordinated ingest, and
// standing hunts. The differential core: a standing hunt's accumulated
// deltas over N streamed batches must be row-identical (as distinct-row
// sets — standing deltas have set semantics) to a one-shot hunt over the
// fully-ingested store, crossed with parallel_shards {1, 4} and with the
// incremental (dirty-seeded) and full re-scan refresh paths. Runs under
// the TSan CI job (ingest worker + concurrent standing refreshes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "audit/jsonl.h"
#include "audit/parser.h"
#include "audit/simulator.h"
#include "service/hunt_service.h"
#include "storage/store.h"
#include "stream/event_stream.h"
#include "stream/ingestor.h"
#include "threatraptor.h"

namespace raptor {
namespace {

using service::HuntRequest;
using service::HuntService;
using service::IngestReport;
using service::QueryDialect;
using service::StandingOptions;
using service::StandingSink;
using service::StandingUpdate;

// ---- sources ---------------------------------------------------------------

TEST(JsonlTailSourceTest, FollowsGrowingFileWithPartialLines) {
  std::string path = ::testing::TempDir() + "/tail_test.jsonl";
  std::remove(path.c_str());

  stream::JsonlTailSource source(path);
  // Not created yet: no data, no error, no end.
  auto b0 = source.Poll();
  ASSERT_TRUE(b0.ok()) << b0.status().ToString();
  EXPECT_TRUE(b0.value().records.empty());
  EXPECT_FALSE(b0.value().end_of_stream);

  audit::SyscallRecord r1;
  r1.ts = 100;
  r1.syscall = "read";
  r1.pid = 1;
  r1.exe = "/bin/a";
  r1.path = "/data/x";
  r1.ret = 10;
  audit::SyscallRecord r2 = r1;
  r2.ts = 200;
  r2.path = "/data/y";
  std::string two_lines = audit::RecordsToJsonl({r1, r2});
  // Write line 1 plus HALF of line 2 (a writer mid-line).
  size_t first_nl = two_lines.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  size_t half = first_nl + 1 + (two_lines.size() - first_nl - 1) / 2;
  {
    std::ofstream out(path, std::ios::binary);
    out << two_lines.substr(0, half);
  }
  auto b1 = source.Poll();
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  ASSERT_EQ(b1.value().records.size(), 1u);  // only the complete line
  EXPECT_EQ(b1.value().records[0].path, "/data/x");

  // Finish line 2 and add line 3.
  audit::SyscallRecord r3 = r1;
  r3.ts = 300;
  r3.path = "/data/z";
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << two_lines.substr(half) << audit::RecordsToJsonl({r3});
  }
  auto b2 = source.Poll();
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();
  ASSERT_EQ(b2.value().records.size(), 2u);
  EXPECT_EQ(b2.value().records[0].path, "/data/y");
  EXPECT_EQ(b2.value().records[1].path, "/data/z");

  source.FinishFile();
  auto b3 = source.Poll();
  ASSERT_TRUE(b3.ok());
  EXPECT_TRUE(b3.value().records.empty());
  EXPECT_TRUE(b3.value().end_of_stream);
  std::remove(path.c_str());
}

TEST(JsonlTailSourceTest, RecoversFromTruncation) {
  std::string path = ::testing::TempDir() + "/tail_trunc.jsonl";
  audit::SyscallRecord r;
  r.ts = 100;
  r.syscall = "read";
  r.pid = 1;
  r.exe = "/bin/a";
  r.path = "/data/old";
  r.ret = 1;
  {
    std::ofstream out(path, std::ios::binary);
    out << audit::RecordsToJsonl({r, r});
  }
  stream::JsonlTailSource source(path);
  auto b1 = source.Poll();
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1.value().records.size(), 2u);

  // Rotation-in-place: the file shrinks, then new content arrives. The
  // tail must restart from the top instead of seeking past EOF forever.
  r.path = "/data/new";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << audit::RecordsToJsonl({r});
  }
  auto b2 = source.Poll();
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();
  ASSERT_EQ(b2.value().records.size(), 1u);
  EXPECT_EQ(b2.value().records[0].path, "/data/new");
  std::remove(path.c_str());
}

audit::AttackStep FileReadStep(const char* exe, long long pid,
                               const char* path, int syscalls,
                               audit::Timestamp at) {
  audit::AttackStep step;
  step.exe = exe;
  step.pid = pid;
  step.op = audit::EventOp::kRead;
  step.object_path = path;
  step.syscall_count = syscalls;
  step.bytes = 1 << 16;
  step.at = at;
  return step;
}

stream::SimulatorSourceOptions SmallSimulatedStream() {
  stream::SimulatorSourceOptions opts;
  opts.profile.num_users = 4;
  opts.profile.num_processes = 30;
  opts.profile.mean_records_per_process = 12;
  opts.profile.duration = 30LL * 60 * 1000 * 1000;  // 30 simulated minutes
  opts.profile.seed = 7;
  opts.batch_window_us = 5LL * 60 * 1000 * 1000;  // 5-minute batches
  // An exfil-shaped attack landing mid-stream: a staging process reads two
  // secret documents in bursts and ships them out.
  stream::SimulatorSourceOptions::TimedAttack attack;
  attack.at = 12LL * 60 * 1000 * 1000;
  attack.steps = {
      FileReadStep("/attack/exfil", 666, "/secret/doc0", 4, 0),
      FileReadStep("/attack/exfil", 666, "/secret/doc1", 4, 500'000)};
  audit::AttackStep connect;
  connect.exe = "/attack/exfil";
  connect.pid = 666;
  connect.op = audit::EventOp::kConnect;
  connect.dst_ip = "203.0.113.7";
  connect.dst_port = 443;
  connect.at = 1'000'000;
  attack.steps.push_back(connect);
  opts.attacks.push_back(std::move(attack));
  return opts;
}

TEST(SimulatorSourceTest, BatchesPartitionTheTimeline) {
  stream::SimulatorSource source(SmallSimulatedStream());
  size_t total = source.total_records();
  ASSERT_GT(total, 0u);
  size_t streamed = 0;
  size_t batches = 0;
  audit::Timestamp last_ts = -1;
  for (;;) {
    auto batch = source.Poll();
    ASSERT_TRUE(batch.ok());
    if (!batch.value().records.empty()) {
      ++batches;
      // Windows replay in timeline order.
      EXPECT_GE(batch.value().records.front().ts, last_ts);
      last_ts = batch.value().records.back().ts;
      streamed += batch.value().records.size();
    }
    if (batch.value().end_of_stream) break;
  }
  EXPECT_EQ(streamed, total);
  EXPECT_GT(batches, 2u) << "expected a multi-batch stream";
  // Drained source stays ended.
  auto again = source.Poll();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().end_of_stream);
}

// ---- ingest worker ---------------------------------------------------------

TEST(StreamIngestorTest, AppliesEveryBatchThenFinishes) {
  stream::SimulatorSource source(SmallSimulatedStream());
  size_t total = source.total_records();
  std::mutex mu;
  size_t applied = 0;
  bool finished = false;
  stream::IngestorOptions opts;
  opts.finish = [&] {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
    return Status::OK();
  };
  stream::StreamIngestor ingestor(
      &source,
      [&](const std::vector<audit::SyscallRecord>& records) {
        std::lock_guard<std::mutex> lock(mu);
        applied += records.size();
        return Status::OK();
      },
      opts);
  ingestor.Start();
  ASSERT_TRUE(ingestor.WaitEnd(30'000'000));
  stream::IngestorStats stats = ingestor.stats();
  EXPECT_TRUE(stats.error.ok()) << stats.error.ToString();
  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(stats.records, total);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(applied, total);
  EXPECT_TRUE(finished);
}

TEST(StreamIngestorTest, ApplyErrorIsTerminal) {
  stream::SimulatorSource source(SmallSimulatedStream());
  stream::StreamIngestor ingestor(
      &source, [&](const std::vector<audit::SyscallRecord>&) {
        return Status::Internal("backend down");
      });
  ingestor.Start();
  ASSERT_TRUE(ingestor.WaitEnd(30'000'000));
  EXPECT_EQ(ingestor.stats().error.code(), StatusCode::kInternal);
  EXPECT_FALSE(ingestor.stats().ended);
}

// ---- epoch-coordinated ingest ----------------------------------------------

/// A store big enough that hunts take real time (reduction off so every
/// event survives; same shape as service_test's wide store).
std::unique_ptr<ThreatRaptor> BuildWideStore(int procs, int files_per_proc) {
  ThreatRaptorOptions options;
  options.store.enable_reduction = false;
  auto tr = std::make_unique<ThreatRaptor>(options);
  audit::ParsedLog log;
  audit::Timestamp ts = 1'000'000;
  for (int i = 0; i < procs; ++i) {
    audit::EntityId p =
        log.entities.InternProcess("/bin/svc" + std::to_string(i), 100 + i);
    for (int j = 0; j < files_per_proc; ++j) {
      audit::EntityId f = log.entities.InternFile(
          "/data/d" + std::to_string(i) + "_" + std::to_string(j));
      audit::SystemEvent ev;
      ev.id = log.events.size() + 1;
      ev.subject = p;
      ev.object = f;
      ev.object_type = audit::EntityType::kFile;
      ev.op = audit::EventOp::kRead;
      ev.start_time = ts;
      ev.end_time = ts + 10;
      ts += 100;
      log.events.push_back(ev);
    }
  }
  EXPECT_TRUE(tr->IngestParsedLog(log).ok());
  return tr;
}

audit::ParsedLog OneEventBatch(const std::string& exe, long long pid,
                               const std::string& path) {
  audit::ParsedLog log;
  audit::EntityId p = log.entities.InternProcess(exe, pid);
  audit::EntityId f = log.entities.InternFile(path);
  audit::SystemEvent ev;
  ev.id = 1;
  ev.subject = p;
  ev.object = f;
  ev.object_type = audit::EntityType::kFile;
  ev.op = audit::EventOp::kRead;
  ev.start_time = 1;
  ev.end_time = 2;
  log.events.push_back(ev);
  return log;
}

TEST(EpochIngestTest, IngestProceedsWhileHuntsAreInFlight) {
  auto tr = BuildWideStore(100, 100);
  HuntService* service = tr->hunt_service();
  ASSERT_NE(service, nullptr);
  uint64_t epoch_before = service->epoch();

  HuntRequest slow;
  slow.text = "proc p read file f return p, f";
  service::HuntTicket ticket = service->Submit(std::move(slow));
  ticket.WaitStarted();
  // The streaming-path contract: mutation while a hunt runs is NOT
  // refused — the epoch gate drains the hunt, applies, and returns OK.
  EXPECT_TRUE(tr->IngestParsedLog(OneEventBatch("/bin/late", 9999,
                                                "/data/late"))
                  .ok());
  // The gate drained the hunt before mutating: its execution is complete
  // (the ticket finishes a beat later — the worker leaves the running set
  // before marking done — so Wait, don't poll).
  EXPECT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(service->epoch(), epoch_before + 1);
  EXPECT_GE(service->stats().ingests, 1u);

  // The appended event is queryable after the gate releases.
  HuntRequest check;
  check.text = "proc p[\"%late%\"] read file f return p, f";
  auto r = service->Run(std::move(check));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().report.results.rows.size(), 1u);
}

TEST(EpochIngestTest, HuntsSubmittedDuringIngestWaitAndSucceed) {
  auto tr = BuildWideStore(40, 40);
  HuntService* service = tr->hunt_service();
  ASSERT_NE(service, nullptr);
  // A mutation that dwells long enough for hunts to pile up behind the
  // gate, submitted from a second thread.
  std::atomic<bool> in_mutation{false};
  std::thread writer([&] {
    auto epoch = service->Ingest([&](IngestReport*) {
      in_mutation.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return Status::OK();
    });
    EXPECT_TRUE(epoch.ok());
  });
  while (!in_mutation.load()) std::this_thread::yield();
  HuntRequest req;
  req.text = "proc p[\"%svc1%\"] read file f return p, f";
  auto r = service->Run(std::move(req));  // admitted only after the gate
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  writer.join();
}

// ---- standing hunts --------------------------------------------------------

std::string RowKey(const std::vector<sql::Value>& row) {
  std::string key;
  for (const sql::Value& v : row) {
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

/// Thread-safe delta accumulator for a standing hunt's sink.
struct DeltaCollector {
  std::mutex mu;
  std::multiset<std::string> rows;  // multiset: double delivery must fail
  size_t updates = 0;
  size_t alerts = 0;
  size_t incremental = 0;
  std::vector<Status> errors;

  StandingSink MakeSink() {
    StandingSink sink;
    sink.on_update = [this](const StandingUpdate& update) {
      std::lock_guard<std::mutex> lock(mu);
      ++updates;
      if (update.incremental) ++incremental;
      auto cursor = update.delta.blocks();
      for (const auto& block : cursor) {
        for (const std::vector<sql::Value>& row : block) {
          rows.insert(RowKey(row));
        }
      }
    };
    sink.on_alert = [this](const StandingUpdate&) {
      std::lock_guard<std::mutex> lock(mu);
      ++alerts;
    };
    sink.on_error = [this](const Status& status) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(status);
    };
    return sink;
  }
};

/// Ingest one raw-record batch into (store, service) through the shared
/// parser/accumulator, the way ThreatRaptor::SyncStore does.
Status ApplyBatch(storage::AuditStore* store, HuntService* service,
                  audit::AuditLogParser* parser, audit::ParsedLog* accum,
                  const std::vector<audit::SyscallRecord>& records) {
  RAPTOR_RETURN_NOT_OK(parser->Parse(records, accum));
  auto epoch = service->Ingest([&](IngestReport* report) {
    storage::AppendStats stats;
    RAPTOR_RETURN_NOT_OK(store->Append(*accum, &stats));
    report->touched_entities = std::move(stats.touched_entities);
    accum->events.clear();
    return Status::OK();
  });
  return epoch.ok() ? Status::OK() : epoch.status();
}

/// The differential: stream the simulated timeline batch by batch with
/// standing hunts attached; their accumulated deltas must equal the
/// distinct rows of a one-shot hunt on the final store.
void RunStandingDifferential(int parallel_shards) {
  SCOPED_TRACE("parallel_shards=" + std::to_string(parallel_shards));
  storage::StoreOptions sopts;
  sopts.carry_over_window = true;
  storage::AuditStore store(sopts);
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());  // schemas up front
  store.graph().options().parallel_shards = parallel_shards;
  store.relational().options().parallel_shards = parallel_shards;

  HuntService service(&store);
  struct Case {
    const char* name;
    HuntRequest request;
    StandingOptions options;
  };
  std::vector<Case> cases;
  {
    HuntRequest cypher;
    cypher.dialect = QueryDialect::kCypher;
    cypher.text =
        "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name";
    StandingOptions incremental;
    incremental.max_dirty_fraction = 1.0;  // always take the dirty path
    cases.push_back({"cypher-incremental", cypher, incremental});
    StandingOptions full;
    full.allow_incremental = false;
    cases.push_back({"cypher-full", cypher, full});
    // Multi-part pattern: the dirty-seeded refresh must seed EVERY part
    // from the expanded dirty region (a new read lands in part 1, a new
    // write in part 2 — missing either loses rows).
    HuntRequest multipart;
    multipart.dialect = QueryDialect::kCypher;
    multipart.text =
        "MATCH (p:proc)-[e1:read]->(f:file), (p)-[e2:write]->(g:file) "
        "RETURN p.exename, f.name, g.name";
    cases.push_back({"cypher-multipart-incremental", multipart, incremental});
    HuntRequest tbql;
    tbql.dialect = QueryDialect::kTbql;
    tbql.text = "proc p read file f return p, f";
    cases.push_back({"tbql-full", tbql, full});
    // TBQL dirty seeding: once a full refresh has matched every pattern,
    // later refreshes constrain each pattern to the dirty entities.
    cases.push_back({"tbql-incremental", tbql, incremental});
  }
  std::vector<DeltaCollector> collectors(cases.size());
  std::vector<service::StandingHandle> handles;
  for (size_t i = 0; i < cases.size(); ++i) {
    handles.push_back(service.SubmitStanding(
        cases[i].request, collectors[i].MakeSink(), cases[i].options));
    ASSERT_TRUE(handles[i].valid());
  }

  // Stream the timeline. Draining every subscription to the new epoch
  // between batches forces one refresh per epoch (otherwise back-to-back
  // ingests coalesce into fewer refreshes — valid, but this test wants
  // the incremental path exercised on every delta).
  stream::SimulatorSource source(SmallSimulatedStream());
  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  size_t batches = 0;
  for (;;) {
    auto batch = source.Poll();
    ASSERT_TRUE(batch.ok());
    if (!batch.value().records.empty()) {
      ++batches;
      ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                             batch.value().records)
                      .ok());
      for (service::StandingHandle& h : handles) {
        ASSERT_TRUE(h.WaitEpoch(service.epoch(), 60'000'000));
      }
    }
    if (batch.value().end_of_stream) break;
  }
  ASSERT_GT(batches, 2u);
  // End of stream: store the carry-over window's tail, then drain every
  // subscription to the final epoch.
  {
    auto epoch = service.Ingest([&](IngestReport* report) {
      storage::AppendStats stats;
      RAPTOR_RETURN_NOT_OK(store.Flush(&stats));
      report->touched_entities = std::move(stats.touched_entities);
      return Status::OK();
    });
    ASSERT_TRUE(epoch.ok());
  }
  uint64_t final_epoch = service.epoch();
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].WaitEpoch(final_epoch, 60'000'000))
        << cases[i].name;
  }

  // One-shot ground truth per case, on the same final store.
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    auto one_shot = service.Run(cases[i].request);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
    std::set<std::string> expected;
    if (cases[i].request.dialect == QueryDialect::kTbql) {
      for (const std::vector<std::string>& row :
           one_shot.value().report.results.rows) {
        std::vector<sql::Value> vrow;
        for (const std::string& cell : row) vrow.emplace_back(cell);
        expected.insert(RowKey(vrow));
      }
    } else {
      auto cursor = one_shot.value().cursor();
      while (const std::vector<sql::Value>* row = cursor.Next()) {
        expected.insert(RowKey(*row));
      }
    }
    std::lock_guard<std::mutex> lock(collectors[i].mu);
    EXPECT_TRUE(collectors[i].errors.empty())
        << collectors[i].errors.front().ToString();
    // No row may be delivered twice...
    EXPECT_EQ(collectors[i].rows.size(),
              std::set<std::string>(collectors[i].rows.begin(),
                                    collectors[i].rows.end())
                  .size());
    // ... and the union of deltas is exactly the one-shot distinct rows.
    EXPECT_EQ(std::set<std::string>(collectors[i].rows.begin(),
                                    collectors[i].rows.end()),
              expected);
    EXPECT_GT(collectors[i].updates, 2u);
    EXPECT_GT(collectors[i].alerts, 0u);
  }
  // The dirty-seeded path genuinely ran for the incremental subscription.
  EXPECT_GT(service.stats().standing_incremental, 0u);
  EXPECT_GT(service.stats().standing_refreshes,
            service.stats().standing_incremental);
}

TEST(StandingHuntTest, DeltasMatchOneShotSerial) { RunStandingDifferential(1); }

TEST(StandingHuntTest, DeltasMatchOneShotSharded) {
  RunStandingDifferential(4);
}

TEST(StandingHuntTest, AlertsFireOnlyOnNewMatchingActivity) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  HuntService service(&store);

  HuntRequest req;
  req.dialect = QueryDialect::kCypher;
  req.text =
      "MATCH (p:proc)-[e:read]->(f:file) WHERE p.exename CONTAINS 'exfil' "
      "RETURN p.exename, f.name";
  DeltaCollector collector;
  service::StandingHandle handle =
      service.SubmitStanding(req, collector.MakeSink());

  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  audit::BenignWorkloadSimulator benign;
  audit::BenignProfile profile;
  profile.num_users = 2;
  profile.num_processes = 10;
  profile.mean_records_per_process = 8;
  ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                         benign.Generate(profile))
                  .ok());
  ASSERT_TRUE(handle.WaitEpoch(service.epoch(), 30'000'000));
  {
    std::lock_guard<std::mutex> lock(collector.mu);
    EXPECT_EQ(collector.alerts, 0u) << "benign batch must not alert";
  }

  std::vector<audit::AttackStep> steps = {
      FileReadStep("/attack/exfil", 42, "/secret/payroll", 3, 0)};
  ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                         audit::CompileAttackScript(steps, 50'000'000, 3))
                  .ok());
  ASSERT_TRUE(handle.WaitEpoch(service.epoch(), 30'000'000));
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_EQ(collector.alerts, 1u);
  ASSERT_EQ(collector.rows.size(), 1u);
  EXPECT_NE(collector.rows.begin()->find("/secret/payroll"),
            std::string::npos);
}

TEST(StandingHuntTest, CancelStopsFutureRefreshes) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  HuntService service(&store);
  HuntRequest req;
  req.dialect = QueryDialect::kCypher;
  req.text = "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name";
  DeltaCollector collector;
  service::StandingHandle handle =
      service.SubmitStanding(req, collector.MakeSink());
  EXPECT_EQ(service.metrics().standing, 1u);
  ASSERT_TRUE(handle.WaitEpoch(service.epoch(), 30'000'000));
  handle.Cancel();

  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  std::vector<audit::AttackStep> steps = {
      FileReadStep("/x/reader", 7, "/data/f", 1, 0)};
  ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                         audit::CompileAttackScript(steps, 1'000, 3))
                  .ok());
  EXPECT_EQ(service.metrics().standing, 0u);  // pruned at the epoch bump
  // WaitEpoch on a cancelled subscription returns instead of hanging.
  EXPECT_FALSE(handle.WaitEpoch(service.epoch(), 1'000'000));
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_EQ(collector.rows.size(), 0u);
}

TEST(StandingHuntTest, FailingRefreshReportsErrorAndReleasesWaiters) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  HuntService service(&store);
  HuntRequest bad;
  bad.dialect = QueryDialect::kCypher;
  bad.text = "MATCH (p:proc RETURN";  // parse error on every refresh
  DeltaCollector collector;
  service::StandingHandle handle =
      service.SubmitStanding(bad, collector.MakeSink());

  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  std::vector<audit::AttackStep> steps = {
      FileReadStep("/x/reader", 7, "/data/f", 1, 0)};
  ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                         audit::CompileAttackScript(steps, 1'000, 3))
                  .ok());
  // A failed attempt must still advance the processed epoch — otherwise
  // waiters hang forever once no further epochs arrive.
  EXPECT_TRUE(handle.WaitEpoch(service.epoch(), 30'000'000));
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_GE(collector.errors.size(), 1u);
  EXPECT_EQ(collector.errors.front().code(), StatusCode::kParseError);
  EXPECT_EQ(collector.rows.size(), 0u);
}

TEST(StandingHuntTest, ServiceDestructionReleasesWaiters) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  service::StandingHandle handle;
  {
    HuntService service(&store);
    HuntRequest req;
    req.dialect = QueryDialect::kCypher;
    req.text = "MATCH (p:proc) RETURN p.exename";
    handle = service.SubmitStanding(req, StandingSink{});
    ASSERT_TRUE(handle.valid());
  }
  // The epoch can never arrive; destruction must have released us.
  EXPECT_FALSE(handle.WaitEpoch(1'000'000, 5'000'000));
}

// Ingest worker + concurrent standing hunts + concurrent one-shot hunts:
// the TSan workload. Correctness asserts are light; the value is the
// interleaving under RAPTOR_POOL_THREADS=4.
TEST(StandingHuntTest, ConcurrentIngestStandingAndOneShotHunts) {
  ThreatRaptorOptions options;
  options.store.carry_over_window = true;
  ThreatRaptor tr(options);
  ASSERT_TRUE(tr.IngestSyscalls({}).ok());  // bootstrap store + service
  HuntService* service = tr.hunt_service();
  ASSERT_NE(service, nullptr);

  HuntRequest standing;
  standing.dialect = QueryDialect::kCypher;
  standing.text = "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name";
  DeltaCollector c1, c2;
  StandingOptions incremental;
  incremental.max_dirty_fraction = 1.0;
  auto h1 = service->SubmitStanding(standing, c1.MakeSink(), incremental);
  StandingOptions full;
  full.allow_incremental = false;
  auto h2 = service->SubmitStanding(standing, c2.MakeSink(), full);

  stream::SimulatorSource source(SmallSimulatedStream());
  stream::IngestorOptions iopts;
  iopts.finish = [&] { return tr.FlushIngest(); };
  stream::StreamIngestor ingestor(
      &source,
      [&](const std::vector<audit::SyscallRecord>& records) {
        return tr.IngestSyscalls(records);
      },
      iopts);
  ingestor.Start();

  // One-shot hunts race the whole stream.
  size_t hunts_ok = 0;
  for (int i = 0; i < 8; ++i) {
    HuntRequest req;
    req.text = "proc p read file f return p, f";
    auto r = service->Run(std::move(req));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++hunts_ok;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(ingestor.WaitEnd(60'000'000));
  ASSERT_TRUE(ingestor.stats().error.ok())
      << ingestor.stats().error.ToString();
  uint64_t final_epoch = service->epoch();
  ASSERT_TRUE(h1.WaitEpoch(final_epoch, 60'000'000));
  ASSERT_TRUE(h2.WaitEpoch(final_epoch, 60'000'000));
  EXPECT_EQ(hunts_ok, 8u);

  // Both refresh strategies converged on the same accumulated rows.
  std::lock_guard<std::mutex> l1(c1.mu);
  std::lock_guard<std::mutex> l2(c2.mu);
  EXPECT_TRUE(c1.errors.empty());
  EXPECT_TRUE(c2.errors.empty());
  EXPECT_EQ(std::set<std::string>(c1.rows.begin(), c1.rows.end()),
            std::set<std::string>(c2.rows.begin(), c2.rows.end()));
}

}  // namespace
}  // namespace raptor
