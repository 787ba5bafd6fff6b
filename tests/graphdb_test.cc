#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "storage/column_filter.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/graphdb/cypher_parser.h"
#include "tests/fixtures/synthetic_graph.h"

namespace raptor::graphdb {
namespace {

/// Node `id`'s `prop` cell, read from its bucket column (NULL when the
/// node lacks the property).
Value NodeProp(const PropertyGraph& g, NodeId id, std::string_view prop) {
  uint32_t prop_id = g.LookupPropName(prop);
  const Node& n = g.node(id);
  return storage::ReadCell(g.NodeColumn(g.ShardOf(id), n.label_id, prop_id),
                           g.PropDict(prop_id), n.label_pos);
}

class GraphDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyGraph& g = db_.graph();
    // Mirror of the Fig. 2 data-leak chain:
    // tar -read-> passwd, tar -write-> upload.tar, bzip2 -read-> upload.tar,
    // bzip2 -write-> upload.tar.bz2, curl -connect-> 192.168.29.128
    tar_ = g.AddNode("proc", {{"exename", Value("/bin/tar")},
                              {"pid", Value(int64_t{100})}});
    passwd_ = g.AddNode("file", {{"name", Value("/etc/passwd")}});
    upload_ = g.AddNode("file", {{"name", Value("/tmp/upload.tar")}});
    bzip2_ = g.AddNode("proc", {{"exename", Value("/bin/bzip2")},
                                {"pid", Value(int64_t{101})}});
    bz2_ = g.AddNode("file", {{"name", Value("/tmp/upload.tar.bz2")}});
    curl_ = g.AddNode("proc", {{"exename", Value("/usr/bin/curl")},
                               {"pid", Value(int64_t{102})}});
    c2_ = g.AddNode("ip", {{"dstip", Value("192.168.29.128")}});

    g.AddEdge(tar_, passwd_, "read", {{"start_time", Value(int64_t{10})},
                                      {"end_time", Value(int64_t{11})}});
    g.AddEdge(tar_, upload_, "write", {{"start_time", Value(int64_t{20})},
                                       {"end_time", Value(int64_t{21})}});
    g.AddEdge(bzip2_, upload_, "read", {{"start_time", Value(int64_t{30})},
                                        {"end_time", Value(int64_t{31})}});
    g.AddEdge(bzip2_, bz2_, "write", {{"start_time", Value(int64_t{40})},
                                      {"end_time", Value(int64_t{41})}});
    g.AddEdge(curl_, c2_, "connect", {{"start_time", Value(int64_t{50})},
                                      {"end_time", Value(int64_t{51})}});
    g.CreateNodeIndex("proc", "exename");
    g.CreateNodeIndex("file", "name");
    g.CreateNodeIndex("ip", "dstip");
  }

  GraphDatabase db_;
  NodeId tar_ = 0, passwd_ = 0, upload_ = 0, bzip2_ = 0, bz2_ = 0, curl_ = 0,
         c2_ = 0;
};

TEST_F(GraphDbTest, SingleEdgeMatch) {
  auto rs = db_.Query(
      "MATCH (p:proc)-[e:read]->(f:file) "
      "WHERE p.exename CONTAINS 'tar' RETURN p.exename, f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(rs.value().rows[0][1].AsText(), "/etc/passwd");
}

TEST_F(GraphDbTest, InlinePropSeedsViaIndex) {
  MatchStats stats;
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/bzip2'})-[e:write]->(f:file) "
      "RETURN f.name",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/tmp/upload.tar.bz2");
  EXPECT_EQ(stats.seed_candidates, 1u);  // index probe, not a label scan
}

TEST_F(GraphDbTest, SharedVariableAcrossParts) {
  auto rs = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file {name: '/etc/passwd'}), "
      "(p1)-[e2:write]->(f2:file) RETURN p1.exename, f2.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(rs.value().rows[0][1].AsText(), "/tmp/upload.tar");
}

TEST_F(GraphDbTest, VariableLengthPathFollowsEdgeDirection) {
  // Edges are oriented subject->object (TBQL path semantics: the final hop
  // is "an event where f is the object"). tar->upload.tar<-bzip2->bz2 mixes
  // directions, so no forward path connects tar to the .bz2 file.
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/tar'})-[*1..4]->(f:file "
      "{name: '/tmp/upload.tar.bz2'}) RETURN DISTINCT f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, VariableLengthPathThroughIntermediateProcess) {
  // bash -start-> tar -read-> passwd is a forward 2-hop path: the shape the
  // paper describes when OSCTI text omits intermediate processes.
  PropertyGraph& g = db_.graph();
  NodeId bash = g.AddNode("proc", {{"exename", Value("/bin/bash")},
                                   {"pid", Value(int64_t{99})}});
  g.AddEdge(bash, tar_, "start", {{"start_time", Value(int64_t{5})}});
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/bash'})-[*2..2]->(f:file "
      "{name: '/etc/passwd'}) RETURN DISTINCT f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/etc/passwd");
}

TEST_F(GraphDbTest, VariableLengthRespectsMinimum) {
  // Min length 2 excludes the direct tar->passwd edge.
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/tar'})-[*2..3]->(f:file "
      "{name: '/etc/passwd'}) RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, TemporalWhereAcrossEdges) {
  auto rs = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "WHERE e1.end_time <= e2.start_time RETURN p1.exename, f1.name, f2.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);  // tar and bzip2 chains
}

TEST_F(GraphDbTest, DistinctAndLimit) {
  auto rs = db_.Query(
      "MATCH (p:proc)-[e]->(o) RETURN DISTINCT p.exename LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);
}

TEST_F(GraphDbTest, LimitZeroReturnsNothing) {
  MatchStats stats;
  auto rs = db_.Query("MATCH (p:proc)-[e]->(o) RETURN p.exename LIMIT 0",
                      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
  // The pushed-down LIMIT 0 never starts matching at all.
  EXPECT_EQ(stats.seed_candidates, 0u);
}

TEST_F(GraphDbTest, LimitLargerThanResultSet) {
  auto rs = db_.Query("MATCH (p:proc)-[e:read]->(f:file) "
                      "RETURN p.exename LIMIT 100");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);  // tar and bzip2 reads only
}

TEST_F(GraphDbTest, DistinctLimitCountsPostDedupRows) {
  // tar has 2 out-edges, so non-distinct rows would reach the limit before
  // two distinct exenames exist. The limit must count deduped rows.
  auto rs = db_.Query(
      "MATCH (p:proc)-[e]->(o) RETURN DISTINCT p.exename LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);
  EXPECT_NE(rs.value().rows[0][0].AsText(), rs.value().rows[1][0].AsText());
}

TEST_F(GraphDbTest, LimitWithMultiPatternJoin) {
  // Both proc chains (tar, bzip2) satisfy the two-part join; LIMIT 1 must
  // return exactly one of them, fully bound.
  auto full = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "RETURN p1.exename, f2.name");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().rows.size(), 2u);
  auto limited = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "RETURN p1.exename, f2.name LIMIT 1");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 1u);
  bool found = false;
  for (const auto& row : full.value().rows) {
    if (row == limited.value().rows[0]) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(GraphDbTest, PushedLimitStopsSeedIteration) {
  MatchStats stats;
  auto rs = db_.Query("MATCH (p:proc)-[e]->(o) RETURN p.exename LIMIT 1",
                      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 1u);
  // Matching stops after the first complete match instead of visiting
  // all three proc seeds.
  EXPECT_EQ(stats.seed_candidates, 1u);
}

TEST_F(GraphDbTest, SelectiveSeedsPickSmallestIndexProbe) {
  // Several procs share an exename while pid stays unique; with both props
  // indexed, the pattern lists exename first, but the seed comes from the
  // single-pid bucket rather than the eight-node exename bucket.
  PropertyGraph& g = db_.graph();
  for (int i = 0; i < 8; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/dup")},
                       {"pid", Value(int64_t{500 + i})}});
  }
  g.CreateNodeIndex("proc", "pid");
  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/dup")), 8u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "pid", Value(int64_t{503})), 1u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "nope", Value("/bin/dup")), 0u);

  const char* q =
      "MATCH (p:proc {exename: '/bin/dup', pid: 503}) RETURN p.pid";
  MatchStats match_stats;
  auto rs = db_.Query(q, &match_stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 503);
  EXPECT_EQ(match_stats.seed_candidates, 1u);  // pid probe
}

TEST_F(GraphDbTest, StartsWithEndsWith) {
  auto rs = db_.Query(
      "MATCH (f:file) WHERE f.name STARTS WITH '/tmp' AND "
      "f.name ENDS WITH '.bz2' RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/tmp/upload.tar.bz2");
}

TEST_F(GraphDbTest, ParseErrors) {
  EXPECT_FALSE(db_.Query("MATCH (p:proc RETURN p.exename").ok());
  EXPECT_FALSE(db_.Query("MATCH (p:proc) WHERE RETURN p.x").ok());
  EXPECT_FALSE(db_.Query("(p:proc)-[]->(f) RETURN f.name").ok());
}

TEST(CypherParserTest, OutOfRangeNumbersAreParseErrors) {
  for (const char* text : {
           "MATCH (p:proc) RETURN p.exename LIMIT 99999999999999999999",
           "MATCH (p:proc)-[*1..99999999999999999999]->(f) RETURN f.name",
           "MATCH (p:proc)-[*1..3000000000]->(f) RETURN f.name",
           "MATCH (p:proc) WHERE p.pid = 99999999999999999999 RETURN p.pid",
       }) {
    SCOPED_TRACE(text);
    auto q = ParseCypher(text);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  }
  auto hops = ParseCypher("MATCH (p)-[*1..2147483647]->(f) RETURN f");
  ASSERT_TRUE(hops.ok()) << hops.status().ToString();
  EXPECT_EQ(hops.value().patterns[0].rels[0].max_len, 2147483647);
}

TEST(CypherParserTest, StringEscapesRoundTrip) {
  // \' and \\ are escapes, so a string can end in a backslash.
  auto q = ParseCypher(
      "MATCH (f:file) WHERE f.name = 'x\\\\' OR f.name = 'it\\'s' "
      "RETURN f.name");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().where->lhs->rhs->literal.AsText(), "x\\");
  EXPECT_EQ(q.value().where->rhs->rhs->literal.AsText(), "it's");
  std::string printed = q.value().ToString();
  auto again = ParseCypher(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << printed;
  EXPECT_EQ(again.value().ToString(), printed);
}

TEST_F(GraphDbTest, BoundStartPartPricedPerBinding) {
  // T1005's shape. Part 1 seeds from its one dictionary hit (/etc/passwd);
  // part 2 starts at `p`, which part 1 binds, so the matcher runs it once
  // per part-1 seed rather than from a scan of the 23-node file label.
  PropertyGraph& g = db_.graph();
  for (int i = 0; i < 20; ++i) {
    g.AddNode("file", {{"name", Value("/tmp/dup")}});
  }
  const char* text =
      "MATCH (p:proc)-[e1:read]->(f:file), (p)-[e2:write]->(g:file) "
      "WHERE f.name CONTAINS 'passwd' RETURN p.exename, f.name, g.name";
  auto q = ParseCypher(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Each part: 1 seed x (1 + one hop).
  EXPECT_DOUBLE_EQ(EstimateCypherCost(q.value(), g), 2.0 + 2.0);
  auto rs = db_.Query(text);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][2].AsText(), "/tmp/upload.tar");
}

TEST_F(GraphDbTest, UnboundVariableInReturnFails) {
  auto rs = db_.Query("MATCH (p:proc) RETURN q.exename");
  EXPECT_FALSE(rs.ok());
}

TEST_F(GraphDbTest, RelationshipUniqueness) {
  // A 2-hop cycle over the same edge must not match (edge uniqueness).
  PropertyGraph& g = db_.graph();
  NodeId a = g.AddNode("proc", {{"exename", Value("/bin/loop")}});
  NodeId b = g.AddNode("file", {{"name", Value("/tmp/loop")}});
  g.AddEdge(a, b, "read", {});
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/loop'})-[*2..2]->(f) RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, TypedAdjacencyExpandsOnlyTypedEdges) {
  MatchStats stats;
  auto rs = db_.Query(
      "MATCH (p:proc)-[e:write]->(f:file) RETURN p.exename, f.name", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);  // tar and bzip2
  // tar and bzip2 each have one write among two out-edges, and curl none
  // among one: the typed expansion touches the two writes only.
  EXPECT_EQ(stats.edges_traversed, 2u);
}

TEST_F(GraphDbTest, TypedExpansionOfAbsentTypeMatchesNothing) {
  auto rs = db_.Query("MATCH (p:proc)-[e:no_such_op]->(o) RETURN p.exename");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, InternedLabelsAndTypes) {
  const PropertyGraph& g = db_.graph();
  uint32_t proc = g.LookupLabel("proc");
  uint32_t file = g.LookupLabel("file");
  ASSERT_NE(proc, kNoSymbol);
  ASSERT_NE(file, kNoSymbol);
  EXPECT_NE(proc, file);
  EXPECT_EQ(g.LookupLabel("socket"), kNoSymbol);
  EXPECT_EQ(g.node(tar_).label_id, proc);
  uint32_t read = g.LookupEdgeType("read");
  ASSERT_NE(read, kNoSymbol);
  // Typed adjacency returns exactly the read-edges of tar.
  ASSERT_EQ(g.OutEdges(tar_, read).size(), 1u);
  EXPECT_EQ(g.edge(g.OutEdges(tar_, read)[0]).dst, passwd_);
  EXPECT_TRUE(g.OutEdges(tar_, kNoSymbol).empty());
}

TEST_F(GraphDbTest, InListUsesHashedProbe) {
  const char* q =
      "MATCH (f:file) WHERE f.name IN ['/etc/passwd', '/tmp/upload.tar'] "
      "RETURN f.name";
  auto rs = db_.Query(q);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);
  std::vector<std::string> names = {rs.value().rows[0][0].AsText(),
                                    rs.value().rows[1][0].AsText()};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"/etc/passwd",
                                             "/tmp/upload.tar"}));
}

TEST_F(GraphDbTest, PropertiesReadBackFromColumns) {
  // AddNode drops the property map: every read comes from the columns.
  const PropertyGraph& g = db_.graph();
  EXPECT_EQ(NodeProp(g, tar_, "exename").AsText(), "/bin/tar");
  EXPECT_TRUE(NodeProp(g, tar_, "no_such_prop").is_null());
  EXPECT_TRUE(NodeProp(g, passwd_, "exename").is_null());
}

TEST(ShardedGraphTest, AggregatedNodeIndexStatsStayExact) {
  // Selective seeding ranks access paths by per-value cardinality, so the
  // aggregates must stay exact when an index is split across shards: a
  // value occurring in several shards counts once in distinct_keys, and
  // entries/ProbeCountNodes sum every shard's bucket.
  PropertyGraph g(4);
  ASSERT_EQ(g.shard_count(), 4u);
  // 9 procs sharing one exename land in several shards; 3 unique ones.
  for (int i = 0; i < 9; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/dup")}});
  }
  for (int i = 0; i < 3; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/u" + std::to_string(i))}});
  }
  g.AddNode("proc", {});  // no indexed property: not an index entry
  g.CreateNodeIndex("proc", "exename");

  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/dup")), 9u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/u1")), 1u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "nope", Value("/bin/dup")), 0u);

  // Per-shard buckets partition the candidate set: disjoint, complete, and
  // each id owned by the shard it came from.
  size_t found = 0;
  for (size_t s = 0; s < g.shard_count(); ++s) {
    for (NodeId id : g.ProbeNodes("proc", "exename", Value("/bin/dup"), s)) {
      EXPECT_EQ(g.ShardOf(id), s);
      EXPECT_EQ(NodeProp(g, id, "exename").AsText(), "/bin/dup");
      ++found;
    }
  }
  EXPECT_EQ(found, 9u);
  // Label buckets partition the same way.
  size_t labeled = 0;
  for (size_t s = 0; s < g.shard_count(); ++s) {
    labeled += g.NodesWithLabel("proc", s).size();
  }
  EXPECT_EQ(labeled, 13u);
}

TEST(ShardedGraphTest, IndexCreatedBeforeAnyNodeCarriesTheProperty) {
  // The audit store creates every index on an empty graph: the index
  // interns its property name before any column exists, and AddNode keeps
  // it current from the ids it interns while freezing each node.
  GraphDatabase db(4);
  PropertyGraph& g = db.graph();
  g.CreateNodeIndex("proc", "exename");
  g.CreateNodeIndex("proc", "ghost");  // no node ever carries it
  for (int i = 0; i < 24; ++i) {
    PropertyMap props{{"pid", Value(int64_t{i})}};
    if (i % 3 != 0) props["exename"] = Value("/bin/e" + std::to_string(i % 4));
    g.AddNode("proc", props);
  }
  g.AddNode("file", {{"exename", Value("/bin/e1")}});  // another label

  // Reference: a label scan over every shard.
  std::map<std::string, std::vector<NodeId>> scanned;
  for (size_t s = 0; s < g.shard_count(); ++s) {
    for (NodeId id : g.NodesWithLabel("proc", s)) {
      Value v = NodeProp(g, id, "exename");
      if (!v.is_null()) scanned[v.AsText()].push_back(id);
    }
  }
  ASSERT_EQ(scanned.size(), 4u);
  std::set<size_t> shards_hit;
  for (auto& [text, ids] : scanned) {
    std::vector<NodeId> probed;
    for (size_t s = 0; s < g.shard_count(); ++s) {
      for (NodeId id : g.ProbeNodes("proc", "exename", Value(text), s)) {
        EXPECT_EQ(g.ShardOf(id), s);
        shards_hit.insert(s);
        probed.push_back(id);
      }
    }
    std::sort(ids.begin(), ids.end());
    std::sort(probed.begin(), probed.end());
    EXPECT_EQ(probed, ids) << text;
    EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value(text)), ids.size())
        << text;
  }
  EXPECT_EQ(shards_hit.size(), 4u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/none")), 0u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "ghost", Value("x")), 0u);

  // Filters on the indexed property no node carries match nothing, by
  // index probe and by column filter alike.
  for (const char* q : {"MATCH (p:proc {ghost: 'x'}) RETURN p.pid",
                        "MATCH (p:proc) WHERE p.ghost = 'x' RETURN p.pid",
                        "MATCH (p:proc) WHERE p.ghost CONTAINS 'x' "
                        "RETURN p.pid"}) {
    auto rs = db.Query(q);
    ASSERT_TRUE(rs.ok()) << q << ": " << rs.status().ToString();
    EXPECT_TRUE(rs.value().rows.empty()) << q;
  }
  auto e1 = db.Query("MATCH (p:proc {exename: '/bin/e1'}) RETURN p.pid");
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(e1.value().rows.size(), scanned["/bin/e1"].size());
}

TEST(ShardedGraphTest, SingleShardPreservesLegacyApi) {
  PropertyGraph g(1);
  NodeId a = g.AddNode("proc", {{"exename", Value("/bin/x")}});
  NodeId b = g.AddNode("file", {{"name", Value("/tmp/y")}});
  g.AddEdge(a, b, "write", {});
  g.CreateNodeIndex("proc", "exename");
  EXPECT_EQ(g.shard_count(), 1u);
  EXPECT_EQ(g.NodesWithLabel("proc", 0).size(), 1u);
  EXPECT_EQ(g.ProbeNodes("proc", "exename", Value("/bin/x"), 0).size(), 1u);
  EXPECT_EQ(g.OutEdges(a).size(), 1u);
}

TEST(ShardedGraphTest, ParallelMatchAgreesWithSerial) {
  // A few hundred nodes with planted attack subgraphs: every parallel
  // configuration must return the serial result set (order-normalized),
  // and pushed limits must behave structurally.
  GraphDatabase db(4);
  Rng rng(7);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 400;
  spec.edges = 1200;
  spec.edge_types = 4;
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  fixtures::AttackPlants plants =
      fixtures::PlantAttackSubgraphs(db.graph(), spec);
  db.graph().CreateNodeIndex("proc", "exename");
  db.graph().CreateNodeIndex("file", "name");

  auto rows_sorted = [](const GraphResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string r;
      for (const Value& v : row) r += v.ToString() + "\x1f";
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const char* queries[] = {
      "MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name",
      "MATCH (p:proc)-[r:exfil_read]->(d:file), (p)-[w:exfil_write]->(a:file)"
      " RETURN d.name, a.name",
      "MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename",
  };
  for (const char* q : queries) {
    db.options() = MatchOptions{};
    db.options().parallel_shards = 1;
    auto serial = db.Query(q);
    ASSERT_TRUE(serial.ok()) << q << ": " << serial.status().ToString();

    db.options() = MatchOptions{};
    db.options().parallel_shards = 4;
    db.options().parallel_min_seeds = 0;
    MatchStats stats;
    auto parallel = db.Query(q, &stats);
    ASSERT_TRUE(parallel.ok()) << q << ": " << parallel.status().ToString();
    EXPECT_EQ(rows_sorted(parallel.value()), rows_sorted(serial.value())) << q;
    // Parallel runs are deterministic for a fixed graph + shard count.
    auto again = db.Query(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().rows, parallel.value().rows) << q;
  }

  // Cooperative LIMIT budget: the workers collectively emit exactly the
  // limit, and every returned row comes from the full result.
  db.options() = MatchOptions{};
  db.options().parallel_shards = 1;
  auto full = db.Query("MATCH (p:proc)-[e]->(f:file) RETURN p.exename");
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().rows.size(), 50u);
  std::vector<std::string> full_rows = rows_sorted(full.value());
  db.options() = MatchOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_seeds = 0;
  auto limited =
      db.Query("MATCH (p:proc)-[e]->(f:file) RETURN p.exename LIMIT 50");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 50u);
  std::vector<std::string> got = rows_sorted(limited.value());
  EXPECT_TRUE(std::includes(full_rows.begin(), full_rows.end(), got.begin(),
                            got.end()));
  (void)sg;
  (void)plants;
}

TEST(ShardedGraphTest, SmallLimitStaysSerial) {
  // A pushed LIMIT below storage::kParallelMinLimit keeps the serial
  // early-exit matcher even over a seed set big enough to fan out.
  GraphDatabase db(4);
  Rng rng(19);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 1000;
  spec.edges = 3000;
  spec.edge_types = 4;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  const std::string q =
      "MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name";
  MatchStats limited_stats, full_stats;
  auto limited = db.Query(q + " LIMIT 1", &limited_stats);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited.value().rows.size(), 1u);
  EXPECT_EQ(limited_stats.morsels_executed, 0u);
  auto full = db.Query(q, &full_stats);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GT(full.value().rows.size(), 1u);
  EXPECT_GT(full_stats.morsels_executed, 0u);
}

TEST_F(GraphDbTest, StringPredicateSeedsFromDictionary) {
  // Four files share one name, so the name dictionary (4 entries) is
  // smaller than the file label (7 nodes): the CONTAINS on the chain's last
  // node is matched against the dictionary once, its one hit probed
  // through the index, and the chain runs from that file backwards.
  PropertyGraph& g = db_.graph();
  for (int i = 0; i < 4; ++i) {
    g.AddNode("file", {{"name", Value("/tmp/dup")}});
  }
  MatchStats stats;
  auto rs = db_.Query(
      "MATCH (p:proc)-[e:read]->(f:file) WHERE f.name CONTAINS 'passwd' "
      "RETURN p.exename, f.name",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(stats.seed_candidates, 1u);  // /etc/passwd, not 3 procs

  // 'UL' also matches an absent cell ("NULL"), so the dictionary does not
  // cover the predicate; the ip node lacks `name` but is not a file.
  MatchStats scan_stats;
  auto nulls = db_.Query(
      "MATCH (f:file) WHERE f.name CONTAINS 'UL' RETURN f.name", &scan_stats);
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  EXPECT_TRUE(nulls.value().rows.empty());
  EXPECT_EQ(scan_stats.seed_candidates, 7u);  // label scan
}

TEST_F(GraphDbTest, SerialQueryOpensWorkerSpan) {
  // A query that stays serial still hangs one storage worker span with its
  // counters, like each worker of a fanned-out one.
  auto root = obs::TraceSpan::Root("execute");
  MatchOptions opts;
  opts.parallel_shards = 1;
  opts.trace = root.get();
  MatchStats stats;
  auto rs = db_.QueryBlocks("MATCH (p:proc)-[e]->(o) RETURN p.exename", opts,
                            &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto children = root->children();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name(), "morsel_worker[0]");
  EXPECT_EQ(children[0]->counter("seeds_visited"), 3);
  EXPECT_EQ(children[0]->counter("rows_emitted"), 5);
  EXPECT_EQ(stats.seed_candidates, 3u);
}

// ColumnFilter's string operators over one shard: "/etc/passwd" at 0, an
// absent cell at 1, "/tmp/a_b" at 2, plus an int column and a shard with
// no column.
class ColumnFilterTest : public ::testing::Test {
 protected:
  using Op = storage::ColumnFilter::Op;

  void SetUp() override {
    text_.Append(0, Value("/etc/passwd"), &dict_);
    text_.Append(2, Value("/tmp/a_b"), &dict_);
    ints_.Append(0, Value(int64_t{13}), &dict_);
  }

  storage::ColumnFilter Make(Op op, Value lit,
                             std::vector<const storage::Column*> cols) {
    return storage::ColumnFilter(op, std::span<const Value>(&lit, 1), &dict_,
                                 cols);
  }

  StringInterner dict_;
  storage::Column text_, ints_;
};

TEST_F(ColumnFilterTest, ContainsStartsWithEndsWithMatchLiterally) {
  auto contains = Make(Op::kContains, Value("a_b"), {&text_});
  EXPECT_FALSE(contains.Matches(0, 0));
  EXPECT_FALSE(contains.Matches(0, 1));
  EXPECT_TRUE(contains.Matches(0, 2));
  // `_` and `%` are plain characters: no wildcard reading.
  EXPECT_FALSE(Make(Op::kContains, Value("a%"), {&text_}).Matches(0, 2));
  EXPECT_FALSE(Make(Op::kContains, Value("/e_c"), {&text_}).Matches(0, 0));
  auto starts = Make(Op::kStartsWith, Value("/etc/"), {&text_});
  EXPECT_TRUE(starts.Matches(0, 0));
  EXPECT_FALSE(starts.Matches(0, 2));
  auto ends = Make(Op::kEndsWith, Value("_b"), {&text_});
  EXPECT_FALSE(ends.Matches(0, 0));
  EXPECT_TRUE(ends.Matches(0, 2));
  // An int literal renders as its digits.
  storage::Column digits;
  digits.Append(0, Value("f1"), &dict_);
  EXPECT_TRUE(Make(Op::kContains, Value(int64_t{1}), {&digits}).Matches(0, 0));
  EXPECT_TRUE(storage::ColumnFilter::TextHolds(Op::kEndsWith, "abc", ""));
}

TEST_F(ColumnFilterTest, AbsentCellRendersAsNull) {
  for (Op op : {Op::kContains, Op::kStartsWith, Op::kEndsWith}) {
    Value lit(op == Op::kContains     ? "UL"
              : op == Op::kStartsWith ? "NU"
                                      : "LL");
    // The absent cell and a shard with no column both read "NULL".
    auto f = Make(op, lit, {&text_, nullptr});
    EXPECT_TRUE(f.Matches(0, 1));
    EXPECT_FALSE(f.Matches(0, 0));
    EXPECT_TRUE(f.Matches(1, 0));
    // ... so the dictionary alone cannot seed it.
    EXPECT_FALSE(f.dict_covers_column());
  }
  auto f = Make(Op::kContains, Value("passwd"), {&text_, nullptr});
  EXPECT_FALSE(f.Matches(1, 0));
  EXPECT_TRUE(f.dict_covers_column());
}

TEST_F(ColumnFilterTest, IntAndMixedColumnsMatchRenderedCells) {
  storage::Column mixed;
  mixed.Append(0, Value(1.5), &dict_);
  auto f = Make(Op::kContains, Value("1"), {&ints_, &mixed, &text_});
  EXPECT_TRUE(f.Matches(0, 0));   // 13
  EXPECT_FALSE(f.Matches(0, 1));  // absent: "NULL"
  EXPECT_TRUE(f.Matches(1, 0));   // 1.5
  EXPECT_FALSE(f.Matches(2, 0));  // "/etc/passwd"
  EXPECT_FALSE(f.dict_covers_column());
}

TEST_F(ColumnFilterTest, DictionaryVerdictsAreMemoizedAndSeedHits) {
  auto f = Make(Op::kStartsWith, Value("/tmp"), {&text_});
  ASSERT_TRUE(f.dict_covers_column());
  ASSERT_EQ(f.dict_memo_size(), 2u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(f.Matches(0, 2));
  EXPECT_FALSE(f.Matches(0, 0));
  EXPECT_EQ(f.dict_evals(), 2u);  // each entry matched once
  auto count_of = [](const Value& v) { return v.AsText().size(); };
  auto hits = f.CollectDictHits(100, count_of);
  ASSERT_TRUE(hits.has_value());
  ASSERT_EQ(hits->keys.size(), 1u);
  EXPECT_EQ(hits->keys[0].AsText(), "/tmp/a_b");
  EXPECT_EQ(hits->count, 8u);
  // No better than the bound: the dictionary is not smaller, or the hits'
  // count reaches it.
  EXPECT_FALSE(f.CollectDictHits(2, count_of).has_value());
  EXPECT_FALSE(f.CollectDictHits(8, count_of).has_value());
}

TEST_F(GraphDbTest, QueryRoundTrip) {
  const char* text =
      "MATCH (p:proc {exename: '/bin/tar'})-[e:read]->(f:file) "
      "WHERE f.name CONTAINS 'passwd' RETURN DISTINCT p.exename, f.name";
  auto q = ParseCypher(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto printed = q.value().ToString();
  auto rs1 = db_.Query(text);
  auto rs2 = db_.Query(printed);
  ASSERT_TRUE(rs1.ok());
  ASSERT_TRUE(rs2.ok()) << printed << " -> " << rs2.status().ToString();
  EXPECT_EQ(rs1.value().rows, rs2.value().rows);
}

TEST(BlockResultTest, ParallelNonDistinctAdoptsWorkerBlocksZeroCopy) {
  GraphDatabase db(4);
  Rng rng(11);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 400;
  spec.edges = 1200;
  spec.edge_types = 4;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  db.graph().CreateNodeIndex("proc", "exename");

  db.options().parallel_min_seeds = 0;
  const char* q = "MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name";
  auto blocks = db.QueryBlocks(q, db.options());
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_GT(blocks.value().rows.row_count(), 0u);
  // Non-DISTINCT parallel merge: every row arrives in an adopted worker
  // block — no per-row moves (the ROADMAP zero-copy merge item).
  EXPECT_EQ(blocks.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(blocks.value().rows.adopted_rows(),
            blocks.value().rows.row_count());
  EXPECT_LE(blocks.value().rows.block_count(), db.graph().shard_count());

  // The flattening wrapper sees the same rows in the same order.
  auto flat = db.Query(q);
  ASSERT_TRUE(flat.ok());
  size_t i = 0;
  auto cursor = blocks.value().cursor();
  while (const std::vector<Value>* row = cursor.Next()) {
    ASSERT_LT(i, flat.value().rows.size());
    EXPECT_EQ(*row, flat.value().rows[i]);
    ++i;
  }
  EXPECT_EQ(i, flat.value().rows.size());

  // Streaming DISTINCT re-dedups across shards partition by partition
  // (workers hash-partition their emissions), so the merge adopts whole
  // compacted partition blocks — no per-row pushes, same as non-DISTINCT.
  auto distinct = db.QueryBlocks(
      "MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename",
      db.options());
  ASSERT_TRUE(distinct.ok());
  ASSERT_GT(distinct.value().rows.row_count(), 0u);
  EXPECT_EQ(distinct.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(distinct.value().rows.adopted_rows(),
            distinct.value().rows.row_count());
}

TEST(BlockResultTest, PresetCancelFlagCancelsQuery) {
  GraphDatabase db(4);
  Rng rng(12);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 200;
  spec.edges = 400;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  std::atomic<bool> cancel{true};
  MatchOptions options = db.options();
  options.cancel = &cancel;
  auto rs = db.QueryBlocks(
      "MATCH (p:proc)-[e]->(f:file) RETURN p.exename", options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);
}

TEST(BlockResultTest, DeadlineBoundsSingleGiantScan) {
  // ROADMAP deadline-overshoot item: a deadline that expires mid-scan must
  // stop INSIDE the storage executor (one poll stride), not after the
  // whole 100k-node scan finishes. The fixture is the bench's 100k-node
  // population with enough edges that a full match takes well beyond the
  // deadline.
  GraphDatabase db(4);
  Rng rng(14);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 100'000;
  spec.edges = 150'000;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);

  MatchOptions options = db.options();
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  MatchStats stats;
  auto start = std::chrono::steady_clock::now();
  auto rs = db.QueryBlocks("MATCH (p:proc)-[e]->(f:file) RETURN p.exename",
                           options, &stats);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTimeout);
  // Overshoot is bounded by the poll stride, not the scan length: far less
  // than a full pass over 50k proc seeds (generous wall-clock margin for
  // loaded CI runners).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2'000);
  EXPECT_LT(stats.seed_candidates, 50'000u)
      << "scan should stop at a deadline poll, not drain every seed";

  // A comfortable deadline does not fire.
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  auto ok = db.QueryBlocks(
      "MATCH (p:proc)-[e]->(f:file) RETURN p.exename LIMIT 5", options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows.row_count(), 5u);
}

TEST(BlockResultTest, PreSplitOwnedSeedsMatchSkipScan) {
  // A multi-value IN probe materializes an owned seed union; the parallel
  // driver pre-splits it per shard at plan time. Results must equal the
  // serial run exactly (same rows, same shard-merge order).
  GraphDatabase db(4);
  Rng rng(13);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 600;
  spec.edges = 1800;
  spec.edge_types = 3;
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  db.graph().CreateNodeIndex("file", "name");
  std::string q =
      "MATCH (p:proc)-[e:op1]->(f:file) WHERE f.name IN [" +
      fixtures::RandomFileNameInList(spec, sg, rng, 96) +
      "] RETURN p.exename, f.name";

  db.options() = MatchOptions{};
  db.options().parallel_shards = 1;
  auto serial = db.Query(q);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  db.options() = MatchOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_seeds = 0;
  auto parallel = db.Query(q);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  auto normalize = [](const GraphResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string r;
      for (const Value& v : row) r += v.ToString() + "\x1f";
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(normalize(parallel.value()), normalize(serial.value()));
}

}  // namespace
}  // namespace raptor::graphdb
