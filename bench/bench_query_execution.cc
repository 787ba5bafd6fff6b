// Table VIII (RQ4): execution time of the four semantically equivalent
// query types per case —
//   (a) TBQL (event patterns, scheduled, relational backend)
//   (b) one giant SQL query (all joins/constraints woven together)
//   (c) TBQL in length-1 event path syntax (scheduled, graph backend)
//   (d) one giant Cypher query
// Each query runs BENCH_ROUNDS rounds (default 20) on a log scaled by
// BENCH_SCALE (default 10x the test profile).
//
// A second section runs the morsel work-stealing scheduler on a
// deliberately skewed synthetic provenance graph (BENCH_LARGE_NODES nodes
// / BENCH_LARGE_EDGES edges, default 100k/500k) where one storage shard
// holds ~half the expansion work, against the forced-serial matcher; the
// two schedules must agree on every row.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "tests/fixtures/synthetic_graph.h"

using namespace raptor;

namespace {

/// Morsel work-stealing vs the serial matcher on a deliberately skewed
/// graph: half the edge draws pin their source to the hot subset (ids ≡ 0
/// mod shard count, i.e. one storage shard); the morsel scheduler splits
/// that shard's seed list into stealable chunks so the straggler shard's
/// work spreads over every worker. On a 1-core machine it reports ~1x —
/// the speedup (and a non-zero stolen count) shows on multicore runners.
void RunSkewedMorselWorkload(bench::BenchReport* report) {
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = std::max(2LL, bench::EnvLong("BENCH_LARGE_NODES", 100'000));
  spec.edges = bench::EnvLong("BENCH_LARGE_EDGES", 500'000);
  graphdb::GraphDatabase db;
  spec.skew_hot_fraction = 0.5;
  spec.skew_modulus = static_cast<int>(db.graph().shard_count());
  Rng rng(4242);
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  std::printf(
      "\nSkewed-shard morsel stealing: %lld nodes, %lld edges, %.0f%% of "
      "edge sources pinned to 1 of %zu shards (pool %zu):\n",
      spec.nodes, spec.edges, spec.skew_hot_fraction * 100,
      db.graph().shard_count(), ThreadPool::Shared().size());

  const std::string query =
      "MATCH (p:proc)-[e:op7]->(f:file) WHERE f.name CONTAINS '9' "
      "RETURN p.exename, f.name";
  int rounds = bench::Rounds(5);
  auto measure = [&](int shards, graphdb::GraphResultSet* out,
                     graphdb::MatchStats* stats_out) {
    db.options() = graphdb::MatchOptions{};
    db.options().parallel_shards = shards;
    std::vector<double> times;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      graphdb::MatchStats stats;
      timer.Restart();
      auto rs = db.Query(query, &stats);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      *out = std::move(rs.value());
      *stats_out = stats;
    }
    return bench::Mean(times);
  };

  graphdb::GraphResultSet rs_serial, rs_morsel;
  graphdb::MatchStats st_serial, st_morsel;
  double serial = measure(1, &rs_serial, &st_serial);
  double morsel = measure(4, &rs_morsel, &st_morsel);
  if (rs_morsel.rows != rs_serial.rows) {
    std::fprintf(stderr, "skewed workload: schedules disagree on rows\n");
    std::exit(1);
  }
  double vs_serial = morsel > 0 ? serial / morsel : 0;
  std::printf(
      "  skewed_match: serial %.6f s, morsel %.6f s (%zu rows; %zu morsels, "
      "%zu stolen), %.2fx vs serial\n",
      serial, morsel, rs_morsel.rows.size(), st_morsel.morsels_executed,
      st_morsel.morsels_stolen, vs_serial);
  report->Param("skew_hot_percent",
                static_cast<long long>(spec.skew_hot_fraction * 100));
  report->Metric("skewed", "match_serial_seconds", serial);
  report->Metric("skewed", "match_morsel_seconds", morsel);
  report->Metric("skewed", "morsel_vs_serial_speedup", vs_serial);
  report->Metric("skewed", "morsels_executed",
                 static_cast<double>(st_morsel.morsels_executed));
  report->Metric("skewed", "morsels_stolen",
                 static_cast<double>(st_morsel.morsels_stolen));
}

}  // namespace

int main() {
  int scale = bench::NoiseScale();
  int rounds = bench::Rounds();
  bench::BenchReport report("query_execution");
  report.Param("scale", scale);
  report.Param("rounds", rounds);
  std::printf(
      "Table VIII: query execution time (seconds, %d-round mean ± std, "
      "noise scale %dx)\n\n",
      rounds, scale);
  TablePrinter table({"Case", "TBQL", "SQL", "TBQL (length-1 path)",
                      "Cypher"});
  double totals[4] = {0, 0, 0, 0};
  for (const cases::AttackCase& c : cases::AllCases()) {
    auto tr = bench::LoadCase(c, scale);
    auto ext = tr->ExtractBehaviorGraph(c.oscti_text);
    auto syn = tr->SynthesizeQuery(ext.value().graph);
    if (!syn.ok()) {
      table.AddRow({c.id, "synthesis error", "", "", ""});
      continue;
    }
    tbql::TbqlQuery query = std::move(syn).value().query;
    auto analyzed = tbql::Analyze(query);
    auto giant_sql = engine::CompileGiantSql(analyzed.value());
    auto giant_cypher = engine::CompileGiantCypher(analyzed.value());
    tbql::TbqlQuery path_query = engine::ToLength1PathQuery(query);

    auto measure = [&](auto fn) {
      std::vector<double> times;
      times.reserve(rounds);
      Stopwatch sw;
      for (int i = 0; i < rounds; ++i) {
        sw.Restart();
        fn();
        times.push_back(sw.ElapsedSeconds());
      }
      return times;
    };

    std::vector<double> t_tbql =
        measure([&] { (void)tr->Hunt(query); });
    std::vector<double> t_sql = measure(
        [&] { (void)tr->store()->relational().Query(giant_sql.value()); });
    std::vector<double> t_path =
        measure([&] { (void)tr->Hunt(path_query); });
    std::vector<double> t_cypher = measure(
        [&] { (void)tr->store()->graph().Query(giant_cypher.value()); });

    totals[0] += bench::Mean(t_tbql);
    totals[1] += bench::Mean(t_sql);
    totals[2] += bench::Mean(t_path);
    totals[3] += bench::Mean(t_cypher);
    report.Metric(c.id, "tbql_seconds", bench::Mean(t_tbql));
    report.Metric(c.id, "giant_sql_seconds", bench::Mean(t_sql));
    report.Metric(c.id, "tbql_path_seconds", bench::Mean(t_path));
    report.Metric(c.id, "giant_cypher_seconds", bench::Mean(t_cypher));
    table.AddRow({c.id, bench::MeanStd(t_tbql), bench::MeanStd(t_sql),
                  bench::MeanStd(t_path), bench::MeanStd(t_cypher)});
  }
  table.AddRow({"Total", StrFormat("%.4f", totals[0]),
                StrFormat("%.4f", totals[1]), StrFormat("%.4f", totals[2]),
                StrFormat("%.4f", totals[3])});
  table.Print();
  std::printf(
      "\nRelational backend: scheduled TBQL vs giant SQL speedup = %.1fx\n"
      "Graph backend: scheduled TBQL(path) vs giant Cypher speedup = %.1fx\n",
      totals[1] / totals[0], totals[3] / totals[2]);
  report.Metric("total", "tbql_seconds", totals[0]);
  report.Metric("total", "giant_sql_seconds", totals[1]);
  report.Metric("total", "tbql_path_seconds", totals[2]);
  report.Metric("total", "giant_cypher_seconds", totals[3]);

  RunSkewedMorselWorkload(&report);
  report.Write();
  return 0;
}
