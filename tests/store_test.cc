// AuditStore invariants: faithful replication of the parsed log into BOTH
// backends (the paper replicates data across PostgreSQL and Neo4j), index
// coverage, and reduction wiring.
#include <gtest/gtest.h>

#include "audit/parser.h"
#include "audit/simulator.h"
#include "storage/store.h"

namespace raptor::storage {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    audit::BenignProfile profile;
    profile.num_processes = 40;
    profile.seed = 2024;
    audit::BenignWorkloadSimulator sim;
    audit::AuditLogParser parser;
    ASSERT_TRUE(parser.Parse(sim.Generate(profile), &log_).ok());
    ASSERT_TRUE(store_.Load(log_).ok());
  }

  audit::ParsedLog log_;
  AuditStore store_;
};

TEST_F(StoreTest, BackendsHoldSameCardinalities) {
  // Relational row counts match graph node/edge counts (replication).
  auto entities = store_.relational().Query("SELECT id FROM entities");
  auto events = store_.relational().Query("SELECT id FROM events");
  ASSERT_TRUE(entities.ok());
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(entities.value().rows.size(), store_.graph().graph().node_count());
  EXPECT_EQ(events.value().rows.size(), store_.graph().graph().edge_count());
  EXPECT_EQ(entities.value().rows.size(), store_.entity_count());
  EXPECT_EQ(events.value().rows.size(), store_.event_count());
}

TEST_F(StoreTest, EveryEventRowHasMatchingGraphEdge) {
  const graphdb::PropertyGraph& g = store_.graph().graph();
  for (const audit::SystemEvent& ev : store_.events()) {
    graphdb::NodeId src = store_.NodeForEntity(ev.subject);
    graphdb::NodeId dst = store_.NodeForEntity(ev.object);
    ASSERT_NE(src, graphdb::kInvalidNode);
    ASSERT_NE(dst, graphdb::kInvalidNode);
    bool found = false;
    for (graphdb::EdgeId eid : g.OutEdges(src)) {
      const graphdb::Edge& e = g.edge(eid);
      uint32_t id_prop = g.LookupPropName("id");
      graphdb::Value id = storage::ReadCell(
          g.EdgeColumn(g.ShardOf(eid), e.type_id, id_prop),
          g.PropDict(id_prop), e.type_pos);
      if (e.dst == dst && id.is_int() &&
          id.AsInt() == static_cast<int64_t>(ev.id)) {
        EXPECT_EQ(e.type_id, g.LookupEdgeType(audit::EventOpName(ev.op)));
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "event " << ev.id << " missing from graph";
  }
}

TEST_F(StoreTest, CrossBackendQueryAgreement) {
  // The same semantic question answered in SQL and Cypher must agree.
  auto sql = store_.relational().Query(
      "SELECT DISTINCT s.exename FROM events e "
      "JOIN entities s ON e.subject = s.id WHERE e.op = 'rename'");
  auto cypher = store_.graph().Query(
      "MATCH (s:proc)-[e:rename]->(o) RETURN DISTINCT s.exename");
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(cypher.ok());
  std::set<std::string> sql_names, cy_names;
  for (const auto& row : sql.value().rows) sql_names.insert(row[0].AsText());
  for (const auto& row : cypher.value().rows) {
    cy_names.insert(row[0].AsText());
  }
  EXPECT_EQ(sql_names, cy_names);
}

TEST_F(StoreTest, KeyAttributeIndexesExist) {
  const sql::Table* entities = store_.relational().FindTable("entities");
  ASSERT_NE(entities, nullptr);
  for (const char* col : {"id", "name", "exename", "dstip"}) {
    EXPECT_TRUE(entities->HasIndex(entities->schema().FindColumn(col)))
        << col;
  }
  const graphdb::PropertyGraph& g = store_.graph().graph();
  EXPECT_TRUE(g.HasNodeIndex("file", "name"));
  EXPECT_TRUE(g.HasNodeIndex("proc", "exename"));
  EXPECT_TRUE(g.HasNodeIndex("ip", "dstip"));
}

TEST_F(StoreTest, ReductionShrinksEventCount) {
  EXPECT_LT(store_.event_count(), log_.events.size());
  EXPECT_EQ(store_.reduction_stats().input_events, log_.events.size());

  StoreOptions no_reduction;
  no_reduction.enable_reduction = false;
  AuditStore raw(no_reduction);
  ASSERT_TRUE(raw.Load(log_).ok());
  EXPECT_EQ(raw.event_count(), log_.events.size());
}

TEST_F(StoreTest, DoubleLoadRejected) {
  EXPECT_FALSE(store_.Load(log_).ok());
}

TEST_F(StoreTest, GroupColumnIsEscapedName) {
  // "group" is stored as column "grp"; both must be queryable.
  auto rs = store_.relational().Query(
      "SELECT grp FROM entities WHERE type = 'proc' LIMIT 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_FALSE(rs.value().rows.empty());
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "staff");
}

}  // namespace
}  // namespace raptor::storage
