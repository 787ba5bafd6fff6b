// Hunt library: the ATT&CK technique catalog, CTI-synthesized standing
// hunts, and the multi-query optimizer. The MQO differential is the core:
// a fleet of structurally-overlapping standing hunts run against two
// identically-streamed stores — one service with dedupe + shared
// subresults, one without — and every hunt's per-epoch delta must be
// byte-identical across the two, crossed with parallel_shards {1, 4}.
// Runs under the TSan CI job (RAPTOR_POOL_THREADS=4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "audit/parser.h"
#include "audit/simulator.h"
#include "huntlib/catalog.h"
#include "huntlib/feed.h"
#include "huntlib/mqo.h"
#include "service/hunt_service.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/store.h"
#include "stream/event_stream.h"
#include "tbql/parser.h"

namespace raptor {
namespace {

using service::HuntRequest;
using service::HuntService;
using service::HuntServiceOptions;
using service::IngestReport;
using service::QueryDialect;
using service::StandingOptions;
using service::StandingSink;
using service::StandingUpdate;

// ---- catalog ---------------------------------------------------------------

TEST(HuntCatalogTest, EveryTemplateParsesUnderItsDialect) {
  const std::vector<huntlib::Technique>& all = huntlib::AllTechniques();
  ASSERT_GE(all.size(), 12u);
  for (const huntlib::Technique& t : all) {
    SCOPED_TRACE(t.id);
    // Unfilled slots substitute empty — every technique must still yield
    // a runnable query with no IOCs at all.
    std::string text = huntlib::Instantiate(t);
    EXPECT_EQ(text.find('{'), std::string::npos)
        << "unsubstituted placeholder in: " << text;
    if (t.dialect == QueryDialect::kTbql) {
      auto q = tbql::ParseTbql(text);
      EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    } else if (t.dialect == QueryDialect::kCypher) {
      auto q = graphdb::ParseCypher(text);
      EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    }
    EXPECT_FALSE(t.name.empty());
    EXPECT_FALSE(t.references.empty());
  }
  // Ordered by technique id, no duplicates.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].id, all[i].id);
  }
}

TEST(HuntCatalogTest, LookupAndTacticIndex) {
  const huntlib::Technique* t = huntlib::FindTechnique("T1041");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->tactic, huntlib::Tactic::kExfiltration);
  EXPECT_EQ(huntlib::FindTechnique("T9999"), nullptr);
  auto collection = huntlib::TechniquesForTactic(huntlib::Tactic::kCollection);
  ASSERT_FALSE(collection.empty());
  for (const huntlib::Technique* c : collection) {
    EXPECT_EQ(c->tactic, huntlib::Tactic::kCollection);
  }
}

TEST(HuntCatalogTest, InstantiateFillsSlots) {
  const huntlib::Technique* t = huntlib::FindTechnique("T1005");
  ASSERT_NE(t, nullptr);
  std::string filled = huntlib::Instantiate(*t, {{"file", "payroll"}});
  EXPECT_NE(filled.find("payroll"), std::string::npos);
  // Unknown keys are ignored, not injected.
  std::string ignored = huntlib::Instantiate(*t, {{"nope", "XYZ"}});
  EXPECT_EQ(ignored.find("XYZ"), std::string::npos);
}

TEST(HuntCatalogTest, InstantiateEscapesParameterValues) {
  // A value holding the dialect's quote, or ending in a backslash, must
  // neither break out of the template's literal nor leave it unterminated:
  // it parses back as exactly the value.
  const std::string value = "a'b\"c\\";
  const huntlib::Technique* cypher = huntlib::FindTechnique("T1005");
  ASSERT_NE(cypher, nullptr);
  auto cq = graphdb::ParseCypher(
      huntlib::Instantiate(*cypher, {{"file", value}}));
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq.value().where->rhs->literal.AsText(), value);

  const huntlib::Technique* tbql = huntlib::FindTechnique("T1204");
  ASSERT_NE(tbql, nullptr);
  auto tq = tbql::ParseTbql(
      huntlib::Instantiate(*tbql, {{"proc", value}, {"file", "x"}}));
  ASSERT_TRUE(tq.ok()) << tq.status().ToString();
  EXPECT_EQ(tq.value().patterns[0].subject.filter->value, "%" + value + "%");
  EXPECT_EQ(tq.value().patterns.size(), 1u);
}

// ---- canonical keys --------------------------------------------------------

TEST(CanonicalKeyTest, RenamedTbqlPatternIdsShareAKey) {
  // Pattern ids differ but neither appears in the projection: the two
  // hunts deliver byte-identical rows and headers, so they must dedupe.
  std::string a = huntlib::CanonicalTbqlKey(
      "proc p read file f as e1 proc p send ip i as e2 "
      "with e1 before e2 return p, f");
  std::string b = huntlib::CanonicalTbqlKey(
      "proc p read file f as x1 proc p send ip i as x2 "
      "with x1 before x2 return p, f");
  EXPECT_EQ(a, b);
}

TEST(CanonicalKeyTest, CypherEdgeVariableRenameSharesAKey) {
  std::string a = huntlib::CanonicalCypherKey(
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name");
  std::string b = huntlib::CanonicalCypherKey(
      "MATCH (p:proc)-[edge:read]->(f:file) RETURN p.exename, f.name");
  EXPECT_EQ(a, b);
}

TEST(CanonicalKeyTest, SubSecondSpansSplitKeys) {
  // Keys are printed queries: a 500 ms and a 900 ms gap or window used to
  // both print as 0 sec and dedupe into one hunt.
  EXPECT_NE(huntlib::CanonicalTbqlKey(
                "proc p read file f as e1 proc p write file g as e2 "
                "with e1 before[0-500 ms] e2 return p"),
            huntlib::CanonicalTbqlKey(
                "proc p read file f as e1 proc p write file g as e2 "
                "with e1 before[0-900 ms] e2 return p"));
  EXPECT_NE(
      huntlib::CanonicalTbqlKey("last 500 ms proc p read file f return p"),
      huntlib::CanonicalTbqlKey("last 900 ms proc p read file f return p"));
}

TEST(CanonicalKeyTest, ProjectionDifferencesSplitKeys) {
  // Same structure, different output columns: renaming the node variable
  // changes the delivered headers, so the keys must differ.
  std::string a = huntlib::CanonicalCypherKey(
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name");
  std::string b = huntlib::CanonicalCypherKey(
      "MATCH (q:proc)-[e:read]->(f:file) RETURN q.exename, f.name");
  EXPECT_NE(a, b);
  EXPECT_NE(huntlib::CanonicalTbqlKey("proc p read file f return p, f"),
            huntlib::CanonicalTbqlKey("proc p read file f return f, p"));
}

TEST(CanonicalKeyTest, UnparseableFallsBackToRawText) {
  std::string a = huntlib::CanonicalTbqlKey("not a query at all");
  EXPECT_EQ(a, huntlib::CanonicalTbqlKey("not a query at all"));
  EXPECT_NE(a, huntlib::CanonicalTbqlKey("also not a query"));
  // Dialect prefixes keep a TBQL hunt from colliding with a SQL hunt of
  // identical text.
  EXPECT_NE(huntlib::CanonicalTbqlKey("select 1"),
            huntlib::CanonicalSqlKey("select 1"));
}

// ---- synthesizer bridge ----------------------------------------------------

TEST(HuntLibraryTest, FromTechniqueProducesRunnableSpec) {
  huntlib::HuntLibrary library;
  auto spec = library.FromTechnique("T1021", {}, "tenant-a");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().technique_id, "T1021");
  EXPECT_EQ(spec.value().request.tenant, "tenant-a");
  EXPECT_FALSE(library.FromTechnique("T0000").ok());
}

TEST(HuntLibraryTest, FromIocFeedStampsSlottedTechniques) {
  huntlib::HuntLibrary library;
  std::vector<huntlib::HuntSpec> specs = library.FromIocFeed(
      "Indicators: the dropper /tmp/stage2.bin beacons to 198.51.100.23 "
      "over 443.");
  ASSERT_FALSE(specs.empty());
  bool some_param_landed = false;
  for (const huntlib::HuntSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    EXPECT_FALSE(spec.technique_id.empty());
    if (spec.request.dialect == QueryDialect::kTbql) {
      auto q = tbql::ParseTbql(spec.request.text);
      EXPECT_TRUE(q.ok()) << q.status().ToString();
    } else if (spec.request.dialect == QueryDialect::kCypher) {
      EXPECT_TRUE(graphdb::ParseCypher(spec.request.text).ok());
    }
    if (spec.request.text.find("stage2.bin") != std::string::npos ||
        spec.request.text.find("198.51.100.23") != std::string::npos) {
      some_param_landed = true;
    }
  }
  EXPECT_TRUE(some_param_landed)
      << "no recognized IOC substituted into any template";
}

// ---- shared fixtures -------------------------------------------------------

std::string RowKey(const std::vector<sql::Value>& row) {
  std::string key;
  for (const sql::Value& v : row) {
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

/// The simulated fleet workload: benign noise plus one exfil-shaped
/// attack (reads two secret documents, then ships them out) landing
/// mid-stream.
stream::SimulatorSourceOptions FleetStream() {
  stream::SimulatorSourceOptions opts;
  opts.profile.num_users = 4;
  opts.profile.num_processes = 30;
  opts.profile.mean_records_per_process = 12;
  opts.profile.duration = 30LL * 60 * 1000 * 1000;
  opts.profile.seed = 11;
  opts.batch_window_us = 5LL * 60 * 1000 * 1000;
  stream::SimulatorSourceOptions::TimedAttack attack;
  attack.at = 12LL * 60 * 1000 * 1000;
  audit::AttackStep read0;
  read0.exe = "/attack/exfil";
  read0.pid = 666;
  read0.op = audit::EventOp::kRead;
  read0.object_path = "/secret/doc0";
  read0.syscall_count = 4;
  read0.bytes = 1 << 16;
  read0.at = 0;
  audit::AttackStep read1 = read0;
  read1.object_path = "/secret/doc1";
  read1.at = 500'000;
  audit::AttackStep send;
  send.exe = "/attack/exfil";
  send.pid = 666;
  send.op = audit::EventOp::kConnect;
  send.dst_ip = "203.0.113.7";
  send.dst_port = 443;
  send.at = 1'000'000;
  attack.steps = {read0, read1, send};
  opts.attacks.push_back(std::move(attack));
  return opts;
}

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

// ---- end-to-end: CTI text -> standing hunt -> alert ------------------------

TEST(HuntLibraryTest, CtiReportToStandingHuntAlertsOnPlantedAttack) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  HuntService service(&store);

  // The CTI fixture describes the planted attack the simulated stream
  // carries, tagged with its ATT&CK technique id.
  huntlib::HuntLibrary library;
  auto spec = library.SynthesizeFromCti(
      "APT-K exfiltration campaign (ATT&CK T1041): the implant "
      "/attack/exfil read the secret document /secret/doc0. Then "
      "/attack/exfil connected to 203.0.113.7.",
      "apt-k-report", "tenant-soc");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().technique_id, "T1041");
  EXPECT_EQ(spec.value().request.dialect, QueryDialect::kTbql);
  ASSERT_TRUE(tbql::ParseTbql(spec.value().request.text).ok())
      << spec.value().request.text;

  std::mutex mu;
  size_t alerts = 0;
  std::vector<std::string> rows;
  std::vector<Status> errors;
  StandingSink sink;
  sink.on_alert = [&](const StandingUpdate& update) {
    std::lock_guard<std::mutex> lock(mu);
    ++alerts;
    auto cursor = update.cursor();
    while (const std::vector<sql::Value>* row = cursor.Next()) {
      rows.push_back(RowKey(*row));
    }
  };
  sink.on_error = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    errors.push_back(status);
  };
  service::StandingHandle handle =
      library.Attach(&service, std::move(spec).value(), std::move(sink));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(library.attachments().size(), 1u);

  stream::SimulatorSource source(FleetStream());
  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  for (;;) {
    auto batch = source.Poll();
    ASSERT_TRUE(batch.ok());
    if (!batch.value().records.empty()) {
      ASSERT_TRUE(ApplyBatch(&store, &service, &parser, &accum,
                             batch.value().records)
                      .ok());
      ASSERT_TRUE(handle.WaitEpoch(service.epoch(), 60'000'000));
    }
    if (batch.value().end_of_stream) break;
  }

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(errors.empty()) << errors.front().ToString();
  EXPECT_GT(alerts, 0u) << "synthesized hunt never fired on the attack";
  bool saw_secret = false;
  for (const std::string& row : rows) {
    if (row.find("/secret/doc0") != std::string::npos) saw_secret = true;
  }
  EXPECT_TRUE(saw_secret) << "alert rows missed the planted exfil read";
  library.DetachAll();
  EXPECT_EQ(service.metrics().standing, 0u);
}

// ---- the MQO differential --------------------------------------------------

/// Per-hunt recorder: one entry per delivered update, rows rendered and
/// sorted within the update (shard merge order is the only divergence the
/// executors permit; every row's bytes must still match exactly).
struct UpdateRecorder {
  std::mutex mu;
  std::vector<std::string> entries;
  std::vector<Status> errors;

  StandingSink MakeSink() {
    StandingSink sink;
    sink.on_update = [this](const StandingUpdate& update) {
      std::vector<std::string> rows;
      auto cursor = update.delta.blocks();
      for (const auto& block : cursor) {
        for (const std::vector<sql::Value>& row : block) {
          rows.push_back(RowKey(row));
        }
      }
      std::sort(rows.begin(), rows.end());
      std::string entry = "epoch=" + std::to_string(update.epoch);
      for (const std::string& col : update.columns) {
        entry += '|';
        entry += col;
      }
      for (const std::string& row : rows) {
        entry += '\n';
        entry += row;
      }
      std::lock_guard<std::mutex> lock(mu);
      entries.push_back(std::move(entry));
    };
    sink.on_error = [this](const Status& status) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(status);
    };
    return sink;
  }
};

/// One side of the differential: a store and a service with MQO either on
/// or off, carrying the same standing-hunt fleet.
struct FleetSide {
  std::unique_ptr<storage::AuditStore> store;
  std::unique_ptr<HuntService> service;
  std::vector<std::unique_ptr<UpdateRecorder>> recorders;
  std::vector<service::StandingHandle> handles;
  audit::AuditLogParser parser;
  audit::ParsedLog accum;
};

void RunMqoDifferential(int parallel_shards) {
  SCOPED_TRACE("parallel_shards=" + std::to_string(parallel_shards));
  // The fleet: the same TBQL hunt from three tenants (structural dedupe
  // across the fleet), the same Cypher hunt from two tenants, and a
  // projection variant whose single pattern compiles to the same data
  // query (shared-subresult reuse without whole-hunt dedupe).
  struct Hunt {
    const char* text;
    QueryDialect dialect;
    const char* tenant;
  };
  const std::vector<Hunt> fleet = {
      {"proc p read file f return p, f", QueryDialect::kTbql, "t0"},
      {"proc p read file f return p, f", QueryDialect::kTbql, "t1"},
      {"proc p read file f return p, f", QueryDialect::kTbql, "t2"},
      {"proc p read file f return p", QueryDialect::kTbql, "t0"},
      {"MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name",
       QueryDialect::kCypher, "t0"},
      {"MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name",
       QueryDialect::kCypher, "t1"},
  };

  auto build_side = [&](bool mqo) {
    auto side = std::make_unique<FleetSide>();
    side->store = std::make_unique<storage::AuditStore>();
    EXPECT_TRUE(side->store->Load(audit::ParsedLog{}).ok());
    side->store->graph().options().parallel_shards = parallel_shards;
    side->store->relational().options().parallel_shards = parallel_shards;
    HuntServiceOptions opts;
    opts.mqo = mqo;
    side->service = std::make_unique<HuntService>(side->store.get(), opts);
    for (const Hunt& hunt : fleet) {
      HuntRequest request;
      request.text = hunt.text;
      request.dialect = hunt.dialect;
      request.tenant = hunt.tenant;
      side->recorders.push_back(std::make_unique<UpdateRecorder>());
      // Full refreshes only: the per-epoch dedupe cache serves full
      // refreshes, and both sides must take the identical path.
      StandingOptions standing;
      standing.allow_incremental = false;
      side->handles.push_back(side->service->SubmitStanding(
          std::move(request), side->recorders.back()->MakeSink(), standing));
      EXPECT_TRUE(side->handles.back().valid());
    }
    return side;
  };
  std::unique_ptr<FleetSide> on = build_side(true);
  std::unique_ptr<FleetSide> off = build_side(false);

  // Stream the identical timeline into both sides, draining every hunt to
  // the new epoch between batches so each epoch produces one delta.
  stream::SimulatorSource source(FleetStream());
  size_t batches = 0;
  for (;;) {
    auto batch = source.Poll();
    ASSERT_TRUE(batch.ok());
    if (!batch.value().records.empty()) {
      ++batches;
      for (FleetSide* side : {on.get(), off.get()}) {
        ASSERT_TRUE(ApplyBatch(side->store.get(), side->service.get(),
                               &side->parser, &side->accum,
                               batch.value().records)
                        .ok());
        for (service::StandingHandle& h : side->handles) {
          ASSERT_TRUE(h.WaitEpoch(side->service->epoch(), 60'000'000));
        }
      }
    }
    if (batch.value().end_of_stream) break;
  }
  ASSERT_GT(batches, 2u);

  // Every hunt's delta stream must be byte-identical across the sides.
  // The empty pre-stream update at epoch 0 is dropped: whether the
  // submission-time refresh lands before the first ingest (and so targets
  // epoch 0 at all) is a startup race on both sides.
  auto streamed_entries = [](UpdateRecorder* rec) {
    std::vector<std::string> out;
    for (const std::string& entry : rec->entries) {
      if (entry.rfind("epoch=0|", 0) != 0) out.push_back(entry);
    }
    return out;
  };
  for (size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE("hunt " + std::to_string(i) + ": " + fleet[i].text);
    std::lock_guard<std::mutex> lock_on(on->recorders[i]->mu);
    std::lock_guard<std::mutex> lock_off(off->recorders[i]->mu);
    EXPECT_TRUE(on->recorders[i]->errors.empty());
    EXPECT_TRUE(off->recorders[i]->errors.empty());
    EXPECT_EQ(streamed_entries(on->recorders[i].get()),
              streamed_entries(off->recorders[i].get()));
    EXPECT_FALSE(on->recorders[i]->entries.empty());
  }

  // The optimizer genuinely fired: structural dedupe collapsed the
  // identical hunts and the projection variant reused a cached subresult.
  EXPECT_GT(on->service->stats().standing_dedup_hits, 0u);
  EXPECT_GT(on->service->stats().subresult_hits, 0u);
  EXPECT_EQ(off->service->stats().standing_dedup_hits, 0u);
  EXPECT_EQ(off->service->stats().subresult_hits, 0u);
}

TEST(MqoFleetTest, DifferentialSerial) { RunMqoDifferential(1); }

TEST(MqoFleetTest, DifferentialSharded) { RunMqoDifferential(4); }

// AttachCatalog stamps the full playbook onto a tenant; every handle
// refreshes to the current epoch and detaches in one call.
TEST(MqoFleetTest, AttachCatalogRunsTheWholePlaybook) {
  storage::AuditStore store;
  ASSERT_TRUE(store.Load(audit::ParsedLog{}).ok());
  HuntService service(&store);
  huntlib::HuntLibrary library;
  size_t attached = library.AttachCatalog(&service, "tenant-a");
  EXPECT_EQ(attached, huntlib::AllTechniques().size());
  EXPECT_EQ(service.metrics().standing, attached);

  stream::SimulatorSource source(FleetStream());
  audit::AuditLogParser parser;
  audit::ParsedLog accum;
  auto batch = source.Poll();
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(
      ApplyBatch(&store, &service, &parser, &accum, batch.value().records)
          .ok());
  for (const huntlib::HuntLibrary::Attachment& a : library.attachments()) {
    service::StandingHandle h = a.handle;
    ASSERT_TRUE(h.WaitEpoch(service.epoch(), 60'000'000)) << a.spec.name;
  }
  library.DetachAll();
  // Cancelled subscriptions prune at the next epoch bump.
  ASSERT_TRUE(
      ApplyBatch(&store, &service, &parser, &accum, batch.value().records)
          .ok());
  EXPECT_EQ(service.metrics().standing, 0u);
}

}  // namespace
}  // namespace raptor
