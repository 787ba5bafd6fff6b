// Differential testing of the streaming query pipelines against
// independent brute-force oracles: Cypher results are checked against
// tests/oracle/cypher_oracle.h and SQL results against
// tests/oracle/sql_oracle.h. The oracles read the test's own copy of every
// row and property map it inserted (oracle::GraphCopy / oracle::SqlCopy),
// never the frozen columns the executors read. The checks run on
// randomized small graphs/tables under three
// execution schedules (serial, morsel work-stealing with tiny morsels, and
// the default morsel size; the fan-out thresholds are zeroed so even these
// tiny fixtures exercise the parallel drivers).
//
// Queries without LIMIT must return identical (order-normalized) result
// multisets. Queries with LIMIT may legitimately return different subsets
// (seed and expansion order differ from the oracle's, and parallel workers
// race for the row budget), so they are checked structurally instead: the
// row count must be min(limit, full_result_count) and every returned row
// must come from the full (un-limited) oracle result; DISTINCT additionally
// requires the returned rows to be unique.
//
// The graphs also carry planted attack subgraphs (a lateral-movement chain
// and an exfil fan-in, tests/fixtures/synthetic_graph.h) whose exact
// expected rows are asserted against the oracle results — catching an
// oracle (and so a matcher) that returns plausible counts but wrong
// entities.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/database.h"
#include "tests/fixtures/synthetic_graph.h"
#include "tests/oracle/cypher_oracle.h"
#include "tests/oracle/sql_oracle.h"

namespace raptor {
namespace {

/// Row rendering shared by both backends, preserving emission order (for
/// ordered-query comparisons).
std::vector<std::string> RenderRowsOrdered(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const sql::Value& v : row) cells.push_back(v.ToString());
    out.push_back(Join(cells, "\x1f"));
  }
  return out;
}

/// Order-normalized rendering for multiset comparisons.
std::vector<std::string> RenderRows(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> out = RenderRowsOrdered(rows);
  std::sort(out.begin(), out.end());
  return out;
}

/// Multiset containment: every row of `subset` occurs in `full` at least as
/// many times. Both inputs are sorted.
bool IsMultiSubset(const std::vector<std::string>& subset,
                   const std::vector<std::string>& full) {
  std::map<std::string, int> counts;
  for (const std::string& r : full) ++counts[r];
  for (const std::string& r : subset) {
    if (--counts[r] < 0) return false;
  }
  return true;
}

bool AllUnique(const std::vector<std::string>& sorted_rows) {
  return std::adjacent_find(sorted_rows.begin(), sorted_rows.end()) ==
         sorted_rows.end();
}

struct CatalogQuery {
  const char* text;      // base query, no LIMIT clause
  bool distinct;         // query declares DISTINCT
  bool ordered = false;  // results are deterministically ordered (SQL only)
};

// 16 crosses storage::kParallelMinLimit (8): the shared atomic row
// budget actually gates emission there, unlike 1000 which rarely binds.
const long long kLimits[] = {-1, 0, 3, 16, 1000};  // -1 = no LIMIT clause

std::string WithLimit(const CatalogQuery& q, long long limit) {
  if (limit < 0) return q.text;
  return std::string(q.text) + " LIMIT " + std::to_string(limit);
}

/// Expected rows of a plant-targeted query, rendered like RenderRows.
std::vector<std::string> ExpectedRows(
    std::vector<std::vector<std::string>> rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(Join(row, "\x1f"));
  std::sort(out.begin(), out.end());
  return out;
}

// Number of execution schedules each query runs under: 0 = serial,
// 1 = morsel work-stealing with morsels of 3 seeds/rows (so even these
// fixtures split into several stealable chunks), 2 = the default morsel
// size.
constexpr int kSchedules = 3;

// Seeds per half; each seed draws a different fixture and index set.
constexpr uint64_t kSeeds = 24;

// --------------------------------------------------------------- Cypher

// Expansion cap for unbounded `*` relationships, small enough that the
// lateral-movement chain (4 hops) is cut short.
constexpr int kVarlenCap = 3;

class CypherDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CypherDifferentialTest, EveryScheduleAgreesWithOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed);

  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 16 + 8 * static_cast<long long>(seed % 3);
  spec.edges = spec.nodes * 3;
  spec.edge_types = 4;
  // Odd seeds draw both edge endpoints uniformly, so variable-length
  // paths run through cycles and file -> file hops.
  spec.edges_proc_to_file = seed % 2 == 0;
  graphdb::GraphDatabase db;
  graphdb::PropertyGraph& g = db.graph();
  oracle::GraphCopy copy(g);
  fixtures::SyntheticGraph sg = fixtures::BuildSyntheticGraph(copy, spec, rng);
  fixtures::AttackPlantSpec plant_spec;
  fixtures::AttackPlants plants =
      fixtures::PlantAttackSubgraphs(copy, spec, plant_spec);
  ASSERT_EQ(plants.lateral_procs.size(), 5u);
  ASSERT_EQ(plants.exfil_docs.size(), 6u);
  // Eight procs with an int `pid` and a timed op1 edge each. Their ids are
  // consecutive, so they cover every shard twice; the double pid (i = 2)
  // and the text pid (i = 5) land on different shards and demote the pid
  // column there to kMixed: i = 5 after i = 1 froze an int on its shard,
  // which the demoted column must keep. They alone carry a `user` string
  // (three values, so its dictionary is far smaller than the proc label
  // and a string predicate on it seeds from the dictionary; every other
  // proc reads NULL there), and a `spawn` ring links them. Two carry a
  // `note`: an explicit NULL (i = 3), which `{note: NULL}` matches and an
  // absent note does not, and a string (i = 4).
  const char* kUsers[] = {"root", "daemon", "nobody"};
  std::vector<graphdb::NodeId> pid_procs;
  for (int i = 0; i < 8; ++i) {
    graphdb::Value pid = i == 2   ? graphdb::Value(3.0)
                         : i == 5 ? graphdb::Value("3")
                                  : graphdb::Value(int64_t{i % 4});
    std::string exe = "/usr/sbin/pid" + std::to_string(i);
    graphdb::PropertyMap props = {{"exename", graphdb::Value(exe)},
                                  {"pid", pid},
                                  {"user", graphdb::Value(kUsers[i % 3])}};
    if (i == 3) props.emplace("note", graphdb::Value::Null());
    if (i == 4) props.emplace("note", graphdb::Value("n"));
    graphdb::NodeId p = copy.AddNode("proc", std::move(props));
    copy.AddEdge(p, sg.files[i % sg.files.size()], "op1",
                 {{"start_time", graphdb::Value(int64_t{i})}});
    pid_procs.push_back(p);
  }
  for (size_t i = 0; i < pid_procs.size(); ++i) {
    copy.AddEdge(pid_procs[i], pid_procs[(i + 1) % pid_procs.size()],
                 "spawn", {});
  }
  // Files whose names hold LIKE's wildcard characters, each twice (so the
  // name dictionary is smaller than the file label), next to names that
  // a wildcard reading of `%` or `_` would also match.
  for (const char* name : {"/tmp/50%_off", "/tmp/50x_off", "/tmp/a_b",
                           "/tmp/axb"}) {
    for (int twice = 0; twice < 2; ++twice) {
      copy.AddNode("file", {{"name", graphdb::Value(name)}});
    }
  }
  // Randomize index availability so both probe and scan seeding run.
  if (seed % 2 == 0) g.CreateNodeIndex("proc", "exename");
  if (seed % 3 != 1) g.CreateNodeIndex("file", "name");
  if (seed % 4 < 2) g.CreateNodeIndex("proc", "pid");
  if (seed % 4 != 3) g.CreateNodeIndex("proc", "user");

  const CatalogQuery catalog[] = {
      {"MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name", false},
      {"MATCH (p:proc {exename: '/bin/p1'})-[e]->(f:file) RETURN f.name",
       false},
      {"MATCH (f:file) WHERE f.name IN ['/data/f0', '/data/f3', '/data/f7', "
       "'/data/none'] RETURN f.name",
       false},
      {"MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename", true},
      {"MATCH (p:proc)-[e]->(f:file) WHERE f.name CONTAINS '1' "
       "RETURN p.exename, f.name",
       false},
      {"MATCH (p:proc)-[*1..3]->(f:file) RETURN DISTINCT f.name", true},
      {"MATCH (p:proc)-[e1:op0]->(f:file), (p)-[e2:op1]->(g:file) "
       "RETURN p.exename, g.name",
       false},
      {"MATCH (p:proc) WHERE p.exename IN ['/bin/p0', '/bin/p2', '/bin/p4'] "
       "RETURN DISTINCT p.exename",
       true},
      // Relationship uniqueness across parts: e1 and e2 never bind the
      // same edge, in fixed hops and against a variable-length path.
      {"MATCH (p:proc)-[e1:op1]->(f:file), (p)-[e2:op1]->(g:file) "
       "RETURN p.exename, f.name, g.name",
       false},
      {"MATCH (p:proc)-[e:op0]->(f), (p)-[*1..2]->(g) RETURN p.exename, f, g",
       false},
      {"MATCH (a)-[e1]->(b)-[e2]->(a) RETURN a, b, e1, e2", false},
      // Variable-length bounds: zero length, exact length, unbounded (capped
      // at kVarlenCap); one row per distinct edge sequence.
      {"MATCH (p:proc)-[*0..2]->(x) RETURN p.exename, x", false},
      {"MATCH (p:proc)-[:op3*2]->(x) RETURN p, x", false},
      {"MATCH (x:file)-[*]->(y) RETURN x.name, y", false},
      // WHERE shapes.
      {"MATCH (f:file) WHERE f.name STARTS WITH '/data/f1' OR "
       "f.name ENDS WITH '3' RETURN f.name",
       false},
      {"MATCH (p:proc)-[e]->(f) WHERE NOT (p.exename IN ['/bin/p0', "
       "'/bin/p1']) AND f.name STARTS WITH '/data' RETURN p.exename, f.name",
       false},
      {"MATCH (p:proc)-[e]->(f:file) WHERE p.exename NOT IN ['/bin/p2'] AND "
       "NOT f.name CONTAINS '2' RETURN DISTINCT f.name",
       true},
      {"MATCH (a:proc)-[e1:lm_hop]->(b:proc), (b)-[e2:lm_hop]->(c:proc) "
       "WHERE e1.start_time + 10 = e2.start_time AND e1.end_time <= "
       "e2.start_time RETURN a.exename, b.exename, c.exename",
       false},
      // Int, double and text cells under inline constraints and WHERE; the
      // pid column is kMixed on two shards. Numeric order and rendered
      // text order disagree on `< 10`.
      {"MATCH (p:proc {pid: 3})-[e]->(f) RETURN p.exename, f.name", false},
      {"MATCH (p:proc {pid: '3'}) RETURN p.exename", false},
      {"MATCH (p:proc) WHERE p.pid >= 2 RETURN p.exename, p.pid", false},
      {"MATCH (p:proc) WHERE p.pid < 10 RETURN p.exename, p.pid", false},
      {"MATCH (p:proc) WHERE p.pid IN [1, '3', 2.0] RETURN p.exename",
       false},
      {"MATCH (p:proc) WHERE NOT p.pid IN [0, NULL] RETURN p.exename",
       false},
      // An explicit NULL cell against absent ones: inline constraints need
      // a present cell, WHERE reads an absent cell as NULL.
      {"MATCH (p:proc {note: NULL}) RETURN p.exename", false},
      {"MATCH (p {note: NULL})-[e:op1]->(f) RETURN p.exename, f.name", false},
      {"MATCH (p:proc) WHERE p.note = NULL RETURN p.exename", false},
      {"MATCH (p:proc) WHERE p.note > 'a' OR p.pid <= 1.5 "
       "RETURN p.exename, p.note",
       false},
      {"MATCH (x {pid: 1})-[e:op1 {start_time: 1}]->(f) RETURN x.exename, "
       "f.name",
       false},
      {"MATCH (a:proc)-[e:lm_hop {start_time: 20}]->(b:proc) "
       "RETURN a.exename, b.exename",
       false},
      // No file carries `pid` (no column on any shard), a string missing
      // from the exename dictionary, and a double literal (read as Values).
      {"MATCH (f:file {pid: 1}) RETURN f.name", false},
      {"MATCH (p:proc {exename: '/bin/none'}) RETURN p.exename", false},
      {"MATCH (p:proc {pid: 3.0}) RETURN p.exename", false},
      // String operators on a property most procs lack: an absent cell
      // renders as "NULL", so 'UL', 'NU' and 'LL' match it and the
      // dictionary alone cannot seed those; 'ot' and NOT 'o' can and
      // cannot respectively.
      {"MATCH (p:proc) WHERE p.user CONTAINS 'UL' RETURN p.exename", false},
      {"MATCH (p:proc)-[e]->(f:file) WHERE p.user STARTS WITH 'NU' "
       "RETURN p.exename, f.name",
       false},
      {"MATCH (p:proc) WHERE p.user ENDS WITH 'LL' RETURN p.exename, p.user",
       false},
      {"MATCH (p:proc) WHERE p.user ENDS WITH 'ot' RETURN p.exename, p.user",
       false},
      {"MATCH (p:proc) WHERE NOT p.user CONTAINS 'o' RETURN p.exename",
       false},
      // The same operators on the pid column: int, double and text cells,
      // kMixed on two shards, absent on most procs.
      {"MATCH (p:proc) WHERE p.pid CONTAINS '3' RETURN p.exename, p.pid",
       false},
      {"MATCH (p:proc) WHERE p.pid STARTS WITH 'N' RETURN p.exename", false},
      {"MATCH (p:proc) WHERE p.pid ENDS WITH '1' RETURN p.exename, p.pid",
       false},
      // `%` and `_` are literal characters outside LIKE.
      {"MATCH (f:file) WHERE f.name CONTAINS 'a_b' RETURN f.name", false},
      {"MATCH (f:file) WHERE f.name STARTS WITH '/tmp/50%' RETURN f.name",
       false},
      {"MATCH (f:file) WHERE f.name ENDS WITH '%_off' RETURN f.name", false},
      // An int literal against a string column: `=` matches no cell,
      // CONTAINS matches the literal's digits.
      {"MATCH (f:file) WHERE f.name = 3 RETURN f.name", false},
      {"MATCH (p:proc)-[e]->(f:file) WHERE f.name CONTAINS 1 "
       "RETURN p.exename, f.name",
       false},
      // The only selective predicate sits on the chain's last node, so the
      // chain is matched in reverse: a dictionary seed and an index probe.
      {"MATCH (a:proc)-[e1:spawn]->(b:proc)-[e2:spawn]->(c:proc) "
       "WHERE c.user ENDS WITH 't' RETURN a.exename, b.exename, c.exename",
       false},
      {"MATCH (p:proc)-[e:op1]->(f:file) WHERE f.name = '/data/f3' "
       "RETURN p.exename, f.name",
       false},
      // Unknown labels and types match nothing, except a zero-length path.
      {"MATCH (p:socket) RETURN p.exename", false},
      {"MATCH (p:proc)-[e:nope]->(f) RETURN p.exename", false},
      {"MATCH (p:proc {exename: '/attack/lm0'})-[:nope*0..2]->(x) "
       "RETURN x.exename",
       false},
      // Plant-targeted queries: expected rows asserted exactly below.
      {"MATCH (a:proc)-[e:lm_hop]->(b:proc) RETURN a.exename, b.exename",
       false},
      {"MATCH (a:proc {exename: '/attack/lm0'})-[e:lm_hop*1..4]->(b:proc) "
       "RETURN b.exename",
       false},
      {"MATCH (a:proc {exename: '/attack/lm0'})-[:lm_hop*]->(b:proc) "
       "RETURN b.exename",
       false},
      {"MATCH (p:proc)-[r:exfil_read]->(d:file), "
       "(p)-[w:exfil_write]->(a:file) RETURN p.exename, d.name, a.name",
       false},
  };
  const size_t kPlantQueries = 4;  // the catalog's last entries

  // Known-plant expectations: the oracle result of each plant-targeted
  // query is fully determined by the planted subgraphs, independent of the
  // random background graph.
  std::vector<std::vector<std::string>> lm_edges, lm_reach, lm_capped,
      exfil_rows;
  for (int i = 0; i < plant_spec.lateral_hops; ++i) {
    lm_edges.push_back({"/attack/lm" + std::to_string(i),
                        "/attack/lm" + std::to_string(i + 1)});
  }
  for (int i = 1; i <= plant_spec.lateral_hops; ++i) {
    lm_reach.push_back({"/attack/lm" + std::to_string(i)});
    if (i <= kVarlenCap) lm_capped.push_back(lm_reach.back());
  }
  for (int i = 0; i < plant_spec.exfil_docs; ++i) {
    exfil_rows.push_back({"/attack/exfil", "/secret/doc" + std::to_string(i),
                          "/attack/upload.tgz"});
  }
  const std::vector<std::string> planted[kPlantQueries] = {
      ExpectedRows(lm_edges), ExpectedRows(lm_reach), ExpectedRows(lm_capped),
      ExpectedRows(exfil_rows)};
  const size_t n_queries = std::size(catalog);

  for (size_t qi = 0; qi < n_queries; ++qi) {
    const CatalogQuery& q = catalog[qi];
    auto parsed = graphdb::ParseCypher(q.text);
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    auto oracle_rows =
        oracle::CypherOracle::Run(parsed.value(), copy, kVarlenCap);
    ASSERT_TRUE(oracle_rows.ok())
        << q.text << ": " << oracle_rows.status().ToString();
    std::vector<std::string> full = RenderRows(oracle_rows.value());
    if (qi >= n_queries - kPlantQueries) {
      EXPECT_EQ(full, planted[qi - (n_queries - kPlantQueries)]) << q.text;
    }

    for (long long limit : kLimits) {
      std::string text = WithLimit(q, limit);
      for (int sched = 0; sched < kSchedules; ++sched) {
        graphdb::MatchOptions opts;
        opts.unbounded_varlen_cap = kVarlenCap;
        opts.parallel_shards = sched == 0 ? 1 : 4;
        if (sched == 1) opts.morsel_size = 3;
        opts.parallel_min_seeds = 0;  // fan out even on these tiny graphs
        db.options() = opts;

        auto rs = db.Query(text);
        ASSERT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        std::vector<std::string> got = RenderRows(rs.value().rows);
        if (limit < 0) {
          EXPECT_EQ(got, full) << text << " sched=" << sched;
          continue;
        }
        size_t expect_n =
            std::min<size_t>(static_cast<size_t>(limit), full.size());
        EXPECT_EQ(got.size(), expect_n) << text << " sched=" << sched;
        EXPECT_TRUE(IsMultiSubset(got, full)) << text << " sched=" << sched;
        if (q.distinct) {
          EXPECT_TRUE(AllUnique(got)) << text << " sched=" << sched;
        }
      }
    }
  }
  db.options() = graphdb::MatchOptions{};
}

INSTANTIATE_TEST_SUITE_P(Seeds, CypherDifferentialTest,
                         ::testing::Range<uint64_t>(0, kSeeds));

// ------------------------------------------------------------------ SQL
//
// The SQL reference is tests/oracle/sql_oracle.h: brute-force nested loops
// over the test's own copy of the rows, with no indexes, columns or
// threads. Fixtures mirror the relational
// backend's shape (entities / events plus a tags table with duplicate
// keys) on 1 or 4 shards, with a text column demoted to kMixed on some
// shards, and a catalog that covers the planner's access paths: index
// probes, LIKE evaluated over a column dictionary, and join-seeded
// driving aliases.

class SqlDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlDifferentialTest, EveryScheduleAgreesWithOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed * 977 + 13);
  const size_t shards = seed % 2 == 0 ? 4 : 1;

  sql::Database db(shards);
  oracle::SqlCopy copy(db);
  ASSERT_TRUE(copy.CreateTable("entities",
                             sql::Schema({{"id", sql::ColumnType::kInt64},
                                          {"type", sql::ColumnType::kText},
                                          {"name", sql::ColumnType::kText},
                                          {"exename", sql::ColumnType::kText},
                                          {"misc", sql::ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(copy.CreateTable("events",
                             sql::Schema({{"id", sql::ColumnType::kInt64},
                                          {"subject", sql::ColumnType::kInt64},
                                          {"object", sql::ColumnType::kInt64},
                                          {"op", sql::ColumnType::kText},
                                          {"start_time",
                                           sql::ColumnType::kInt64}}))
                  .ok());
  ASSERT_TRUE(copy.CreateTable("tags",
                             sql::Schema({{"id", sql::ColumnType::kInt64},
                                          {"tid", sql::ColumnType::kInt64},
                                          {"label", sql::ColumnType::kText}}))
                  .ok());
  // Literal '%' and '_' in the data check that only the pattern's
  // wildcards are wildcards.
  static const char* kExes[] = {"/bin/tar", "/bin/cat", "/usr/bin/vim",
                                "/bin/bash", "/tmp/x_sh", "/tmp/x%sh"};
  static const char* kFiles[] = {"/etc/passwd", "/etc/shadow", "/tmp/out.tar",
                                 "/home/u/notes.txt", "/etc/pa_swd"};
  static const char* kOps[] = {"read", "write", "execute", "send"};
  static const char* kLabels[] = {"x", "y", "/bin/tar", "/bin/cat"};
  const int n_ent = 24 + static_cast<int>(seed % 3) * 8;
  auto entity = [&](int64_t id, const char* type, std::string name,
                    std::string exe, sql::Value misc) {
    ASSERT_TRUE(copy.Insert("entities",
                            {sql::Value(id), sql::Value(type),
                             sql::Value(std::move(name)),
                             sql::Value(std::move(exe)), std::move(misc)})
                    .ok());
  };
  for (int i = 0; i < n_ent; ++i) {
    // Rows 5 and 6 land on different shards of the 4-shard layout and
    // demote `misc` there (NULL, int) after rows 1 and 2 froze text cells
    // on them, which the demoted column must keep; the other shards stay
    // dictionary-encoded.
    sql::Value misc = i == 5   ? sql::Value::Null()
                      : i == 6 ? sql::Value(static_cast<int64_t>(7))
                               : sql::Value("m" + std::to_string(i % 4));
    if (i % 3 == 0) {
      std::string exe = kExes[rng.Uniform(6)];
      entity(i, "proc", exe, exe, std::move(misc));
    } else if (i % 3 == 1) {
      entity(i, "file", kFiles[rng.Uniform(5)], "", std::move(misc));
    } else {
      entity(i, "ip", "10.0.0." + std::to_string(i), "", std::move(misc));
    }
  }
  // Planted attack: the only proc under /opt/evil/ reads the only file
  // under /secret/ once (event 1000), and also writes a decoy.
  const int64_t evil = n_ent, secret = n_ent + 1, decoy = n_ent + 2;
  entity(evil, "proc", "/opt/evil/tar_x", "/opt/evil/tar_x", sql::Value("m0"));
  entity(secret, "file", "/secret/pass_wd.db", "", sql::Value("m1"));
  entity(decoy, "file", "/secret/decoy", "", sql::Value("m2"));

  auto event = [&](int64_t id, int64_t subj, int64_t obj, const char* op,
                   int64_t ts) {
    ASSERT_TRUE(copy.Insert("events", {sql::Value(id), sql::Value(subj),
                                       sql::Value(obj), sql::Value(op),
                                       sql::Value(ts)})
                    .ok());
  };
  const int n_ev = 60 + static_cast<int>(seed % 3) * 20;
  for (int i = 0; i < n_ev; ++i) {
    int64_t subj = 3 * static_cast<int64_t>(rng.Uniform((n_ent + 2) / 3));
    if (rng.Uniform(10) == 0) subj = 999;  // dangling: joins nothing
    event(i, subj, static_cast<int64_t>(rng.Uniform(n_ent)),
          kOps[rng.Uniform(4)], static_cast<int64_t>(rng.Uniform(200)));
  }
  event(1000, evil, secret, "read", 150);
  event(1001, evil, decoy, "write", 160);
  event(1002, evil, secret, "write", 170);

  // Empty on every third seed: joins against it have an empty side.
  const int n_tags = seed % 3 == 2 ? 0 : 20;
  for (int i = 0; i < n_tags; ++i) {
    ASSERT_TRUE(copy.Insert("tags", {sql::Value(static_cast<int64_t>(i)),
                                     sql::Value(static_cast<int64_t>(
                                         rng.Uniform(n_ent))),
                                     sql::Value(kLabels[rng.Uniform(4)])})
                    .ok());
  }

  ASSERT_TRUE(db.CreateIndex("entities", "id").ok());
  ASSERT_TRUE(db.CreateIndex("entities", "type").ok());
  if (seed % 3 != 1) {
    ASSERT_TRUE(db.CreateIndex("entities", "name").ok());
    ASSERT_TRUE(db.CreateIndex("entities", "exename").ok());
    ASSERT_TRUE(db.CreateIndex("entities", "misc").ok());
  }
  if (seed != 3) {
    ASSERT_TRUE(db.CreateIndex("events", "subject").ok());
    ASSERT_TRUE(db.CreateIndex("events", "object").ok());
  }
  if (seed % 3 != 2) {
    ASSERT_TRUE(db.CreateIndex("events", "op").ok());
  }
  if (seed % 2 == 1) {
    ASSERT_TRUE(db.CreateIndex("tags", "tid").ok());
    ASSERT_TRUE(db.CreateIndex("tags", "label").ok());
  }

#define RAPTOR_EVENT_PATTERN                                              \
  "SELECT e.id, e.subject, e.object, e.start_time FROM events e "         \
  "JOIN entities s ON e.subject = s.id JOIN entities o ON e.object = o.id " \
  "WHERE s.type = 'proc' AND "
  const char* kPlanted =
      "SELECT e.id, s.exename, o.name FROM events e "
      "JOIN entities s ON e.subject = s.id JOIN entities o ON e.object = o.id "
      "WHERE s.type = 'proc' AND s.exename LIKE '%/evil/%' "
      "AND o.type = 'file' AND o.name LIKE '/secret/pass_wd%' "
      "AND e.op = 'read'";
  const CatalogQuery catalog[] = {
      {"SELECT id FROM events WHERE start_time > 40", false},
      {"SELECT DISTINCT name FROM entities", true},
      {"SELECT id FROM entities WHERE name IN ('/etc/passwd', '/tmp/out.tar', "
       "'/none')",
       false},
      {"SELECT id FROM events ORDER BY id DESC", false, /*ordered=*/true},
      // LIKE shapes: leading, trailing and interior '%', '_', match-all.
      {RAPTOR_EVENT_PATTERN "s.exename LIKE '%tar%' AND o.type = 'file' "
                            "AND o.name LIKE '/etc/%' AND e.op = 'read'",
       false},
      {RAPTOR_EVENT_PATTERN "s.exename LIKE '/bin/%a%' AND o.name LIKE "
                            "'/etc/pa_swd'",
       false},
      {RAPTOR_EVENT_PATTERN "s.exename LIKE '%%' AND o.name LIKE '%%' AND "
                            "e.op = 'write'",
       false},
      {RAPTOR_EVENT_PATTERN "s.exename LIKE '/tmp/x_sh' AND e.start_time < 150",
       false},
      {RAPTOR_EVENT_PATTERN "s.exename NOT LIKE '%bin%'", false},
      // An empty join side.
      {RAPTOR_EVENT_PATTERN "s.exename LIKE 'zzz%'", false},
      // Propagated-domain shape: IN on the entity alias only.
      {RAPTOR_EVENT_PATTERN "s.id IN (0, 3, 9, 12, 999) AND o.type = 'file' "
                            "AND e.op IN ('read', 'write')",
       false},
      {"SELECT DISTINCT s.exename FROM events e JOIN entities s ON "
       "e.subject = s.id WHERE e.op = 'read' AND s.exename LIKE '/bin/%'",
       true},
      // `misc` is kMixed on some shards (a NULL and an int cell). Numeric
      // order and rendered text order disagree on `< 10`.
      {"SELECT id, misc FROM entities WHERE misc LIKE 'm%'", false},
      {"SELECT id, misc FROM entities WHERE misc < 10", false},
      {"SELECT id FROM entities WHERE misc >= 'm2' OR misc = 7", false},
      {"SELECT id FROM entities WHERE misc IN ('m1', 7, NULL)", false},
      {"SELECT id FROM entities WHERE misc = 'm1'", false},
      {"SELECT * FROM entities WHERE misc <> 'm3' AND id < 9", false},
      {"SELECT id FROM events WHERE start_time <= 99.5", false},
      {"SELECT id, misc FROM entities WHERE misc NOT LIKE 'm_'", false},
      {"SELECT id FROM entities WHERE misc LIKE '7'", false},
      {"SELECT id FROM entities WHERE misc LIKE 'N%'", false},
      // LIKE on int columns.
      {"SELECT id FROM events WHERE start_time LIKE '1%'", false},
      {"SELECT id, name FROM entities WHERE id LIKE '%3' OR name LIKE '%x%'",
       false},
      {"SELECT id FROM entities WHERE NOT (type = 'proc') AND name LIKE '%e%'",
       false},
      // Duplicate join keys on either side; the tags table may be empty.
      {"SELECT g.id, s.id FROM tags g JOIN entities s ON g.label = s.exename",
       false},
      {"SELECT e.id, g.label FROM events e JOIN tags g ON e.subject = g.tid "
       "WHERE g.label IN ('x', '/bin/tar')",
       false},
      {"SELECT g.label, e.id FROM tags g, events e WHERE g.tid = e.subject "
       "AND e.op = 'write'",
       false},
      {kPlanted, false},
  };
#undef RAPTOR_EVENT_PATTERN

  // Access paths the serial runs chose, from their trace notes.
  std::set<std::string> access_kinds;
  for (const CatalogQuery& q : catalog) {
    auto stmt = sql::ParseSelect(q.text);
    ASSERT_TRUE(stmt.ok()) << q.text << ": " << stmt.status().ToString();
    auto oracle_rows = oracle::SqlOracle::Run(stmt.value(), copy);
    ASSERT_TRUE(oracle_rows.ok())
        << q.text << ": " << oracle_rows.status().ToString();
    std::vector<std::string> full_ordered =
        RenderRowsOrdered(oracle_rows.value());
    std::vector<std::string> full = full_ordered;
    std::sort(full.begin(), full.end());
    if (std::string(q.text) == kPlanted) {
      EXPECT_EQ(full, ExpectedRows({{"1000", "/opt/evil/tar_x",
                                     "/secret/pass_wd.db"}}));
    }

    for (long long limit : kLimits) {
      std::string text = WithLimit(q, limit);
      for (int sched = 0; sched < kSchedules; ++sched) {
        sql::SelectOptions opts;
        opts.parallel_shards = sched == 0 ? 1 : 4;
        if (sched == 1) opts.morsel_size = 3;
        opts.parallel_min_rows = 0;  // fan out even on these tiny tables
        obs::TraceSpan span("sql");
        if (sched == 0) opts.trace = &span;
        db.options() = opts;

        auto rs = db.Query(text);
        ASSERT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        for (const auto& [key, value] : span.notes()) {
          access_kinds.insert(value.substr(0, value.find(':')));
        }
        if (q.ordered) {
          // Deterministic order: the LIMIT prefix must match exactly.
          std::vector<std::string> got = RenderRowsOrdered(rs.value().rows);
          std::vector<std::string> expect = full_ordered;
          if (limit >= 0 && expect.size() > static_cast<size_t>(limit)) {
            expect.resize(static_cast<size_t>(limit));
          }
          EXPECT_EQ(got, expect) << text << " sched=" << sched;
          continue;
        }
        std::vector<std::string> got = RenderRows(rs.value().rows);
        if (limit < 0) {
          EXPECT_EQ(got, full) << text << " sched=" << sched;
          continue;
        }
        size_t expect_n =
            std::min<size_t>(static_cast<size_t>(limit), full.size());
        EXPECT_EQ(got.size(), expect_n) << text << " sched=" << sched;
        EXPECT_TRUE(IsMultiSubset(got, full)) << text << " sched=" << sched;
        if (q.distinct) {
          EXPECT_TRUE(AllUnique(got)) << text << " sched=" << sched;
        }
      }
    }
  }
  db.options() = sql::SelectOptions{};
  // The catalog reaches every access path its indexes allow.
  EXPECT_TRUE(access_kinds.count("index"));
  EXPECT_TRUE(access_kinds.count("scan"));
  EXPECT_EQ(access_kinds.count("like-dict"), seed % 3 != 1 ? 1u : 0u);
  EXPECT_TRUE(access_kinds.count("join-seed"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest,
                         ::testing::Range<uint64_t>(0, kSeeds));

}  // namespace
}  // namespace raptor
