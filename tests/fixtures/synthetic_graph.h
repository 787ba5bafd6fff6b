// Shared synthetic provenance-graph fixture: the 100k-node / 500k-edge
// workload generator previously duplicated by bench_query_execution.cc and
// bench_fuzzy_search.cc, now reusable by benches, stress tests, and the
// differential test harness.
//
// Generation is fully determined by (spec, rng seed): the caller owns the
// Rng so follow-up draws (IN-list sampling, query randomization) continue
// the same deterministic stream. The two naming modes reproduce the
// original benches byte-for-byte:
//  * two-population mode (default): process nodes first, then file nodes,
//    each named prefix + within-population index
//    ("/bin/p0".."/bin/pN", "/data/f0".."/data/fM");
//  * global_name_index mode: one interleaved population where every node is
//    named prefix + global node index ("/n0".."/nK"), procs first.
// Edge endpoints either connect proc -> file (edges_proc_to_file) or join
// two uniformly random nodes.
//
// PlantAttackSubgraphs() additionally lays attack-shaped subgraphs with
// known entity ids over any base graph — a lateral-movement chain and an
// exfiltration fan-in — so tests can assert that hunting queries recover
// exactly the planted structures.
//
// Both generators write through any `Graph` with PropertyGraph's AddNode /
// AddEdge: a PropertyGraph itself, or a wrapper that also records what
// was inserted (tests/oracle/cypher_oracle.h's GraphCopy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/graphdb/graph.h"

namespace raptor::fixtures {

struct SyntheticGraphSpec {
  long long nodes = 100'000;
  long long edges = 500'000;
  int edge_types = 16;         // edge types are "op0".."op<n-1>"
  long long proc_count = -1;   // -1 => nodes / 2
  const char* proc_label = "proc";
  const char* file_label = "file";
  const char* proc_prop = "exename";
  const char* file_prop = "name";
  const char* proc_prefix = "/bin/p";
  const char* file_prefix = "/data/f";
  /// Name every node file_prefix + global node index (file_prop keys the
  /// property for both labels) instead of per-population prefixes.
  bool global_name_index = false;
  /// Edges run proc -> file; false draws both endpoints uniformly.
  bool edges_proc_to_file = true;
  /// Shard-skew knob: this fraction of edges draws its SOURCE from the
  /// "hot" node subset (source ids ≡ 0 mod skew_modulus) instead of
  /// uniformly. Because the store shards entities round-robin on the low
  /// id bits, setting skew_modulus to the store's shard count collapses
  /// the hot subset — and the expansion work its out-edges represent —
  /// onto a single shard, the straggler workload morsel stealing exists
  /// for. 0 (default) disables the extra rng draws entirely, so
  /// historical specs reproduce byte-for-byte. Note a plain Zipf over
  /// node ids would NOT skew shards: round-robin sharding spreads any
  /// id-rank distribution evenly.
  double skew_hot_fraction = 0.0;
  /// Hot subset stride; set to the store's shard count (power of two).
  int skew_modulus = 4;
};

struct SyntheticGraph {
  std::vector<graphdb::NodeId> procs;
  std::vector<graphdb::NodeId> files;
};

/// Populate `g` with the spec's node/edge workload, drawing from `rng`.
template <class Graph>
SyntheticGraph BuildSyntheticGraph(Graph& g, const SyntheticGraphSpec& spec,
                                   Rng& rng) {
  SyntheticGraph out;
  const long long n_procs =
      spec.proc_count >= 0 ? spec.proc_count : spec.nodes / 2;
  const long long n_files = spec.nodes - n_procs;
  out.procs.reserve(n_procs);
  out.files.reserve(n_files);
  if (spec.global_name_index) {
    for (long long i = 0; i < spec.nodes; ++i) {
      graphdb::NodeId id = g.AddNode(
          i < n_procs ? spec.proc_label : spec.file_label,
          {{spec.file_prop,
            graphdb::Value(spec.file_prefix + std::to_string(i))}});
      (i < n_procs ? out.procs : out.files).push_back(id);
    }
  } else {
    for (long long i = 0; i < n_procs; ++i) {
      out.procs.push_back(g.AddNode(
          spec.proc_label,
          {{spec.proc_prop,
            graphdb::Value(spec.proc_prefix + std::to_string(i))}}));
    }
    for (long long i = 0; i < n_files; ++i) {
      out.files.push_back(g.AddNode(
          spec.file_label,
          {{spec.file_prop,
            graphdb::Value(spec.file_prefix + std::to_string(i))}}));
    }
  }
  // Hot-source pool for the skew knob: sources whose id ≡ 0 mod
  // skew_modulus, restricted to the proc population when edges run
  // proc -> file.
  std::vector<graphdb::NodeId> hot_srcs;
  if (spec.skew_hot_fraction > 0) {
    const uint64_t mod =
        spec.skew_modulus > 0 ? static_cast<uint64_t>(spec.skew_modulus) : 1;
    for (graphdb::NodeId id : out.procs) {
      if (id % mod == 0) hot_srcs.push_back(id);
    }
    if (!spec.edges_proc_to_file) {
      for (graphdb::NodeId id : out.files) {
        if (id % mod == 0) hot_srcs.push_back(id);
      }
    }
  }
  // Draw order per edge is pinned to (type, src, dst) — sequenced
  // explicitly, unlike inline AddEdge arguments — so identical specs +
  // seeds reproduce the exact same graph on any compiler. The skew coin
  // (and the hot-pool draw it gates) only enters the stream when
  // skew_hot_fraction > 0.
  for (long long i = 0; i < spec.edges; ++i) {
    std::string type = "op" + std::to_string(rng.Uniform(spec.edge_types));
    graphdb::NodeId src, dst;
    bool hot = spec.skew_hot_fraction > 0 && !hot_srcs.empty() &&
               rng.Chance(spec.skew_hot_fraction);
    if (spec.edges_proc_to_file) {
      src = hot ? hot_srcs[rng.Uniform(hot_srcs.size())]
                : out.procs[rng.Uniform(out.procs.size())];
      dst = out.files[rng.Uniform(out.files.size())];
    } else {
      // Uniform over all nodes; ids are dense and in creation order, so
      // drawing the index doubles as drawing the node id.
      src = hot ? hot_srcs[rng.Uniform(hot_srcs.size())]
                : rng.Uniform(static_cast<uint64_t>(spec.nodes));
      dst = rng.Uniform(static_cast<uint64_t>(spec.nodes));
    }
    g.AddEdge(src, dst, std::move(type), {});
  }
  return out;
}

/// Planted attack-shaped subgraphs with known entity ids, so stress and
/// differential tests can assert on the exact matches a hunting query must
/// return instead of bare row counts. Plants reuse the base spec's labels
/// and property keys (so the same indexes cover them) but use distinctive
/// name prefixes and edge types that the random background population
/// never produces.
struct AttackPlantSpec {
  /// Lateral movement: a chain of processes p0 -> p1 -> ... -> p<hops>,
  /// each hop an edge of type `lateral_edge` with increasing start_time
  /// (the shape of an attacker pivoting host to host).
  int lateral_hops = 4;
  const char* lateral_prefix = "/attack/lm";
  const char* lateral_edge = "lm_hop";
  /// Exfiltration fan-in: one staging process reads `exfil_docs` sensitive
  /// files and writes a single archive (many sources converging on one
  /// sink before exfil).
  int exfil_docs = 6;
  const char* exfil_proc_name = "/attack/exfil";
  const char* exfil_doc_prefix = "/secret/doc";
  const char* exfil_archive_name = "/attack/upload.tgz";
  const char* exfil_read_edge = "exfil_read";
  const char* exfil_write_edge = "exfil_write";
};

struct AttackPlants {
  std::vector<graphdb::NodeId> lateral_procs;  // chain order, hops+1 nodes
  graphdb::NodeId exfil_proc = graphdb::kInvalidNode;
  std::vector<graphdb::NodeId> exfil_docs;
  graphdb::NodeId exfil_archive = graphdb::kInvalidNode;
};

/// The property key naming a node of `label` under the spec's scheme
/// (global_name_index mode keys every label on file_prop).
inline const char* NamePropFor(const SyntheticGraphSpec& spec,
                               bool is_proc) {
  if (spec.global_name_index || !is_proc) return spec.file_prop;
  return spec.proc_prop;
}

/// Plant the lateral-movement chain and the exfil fan-in into `g`.
/// Deterministic: node ids continue the graph's dense id space in the
/// order laid out here, and the returned ids identify every plant.
template <class Graph>
AttackPlants PlantAttackSubgraphs(Graph& g, const SyntheticGraphSpec& spec,
                                  const AttackPlantSpec& plant = {}) {
  AttackPlants out;
  const char* proc_prop = NamePropFor(spec, /*is_proc=*/true);
  const char* file_prop = NamePropFor(spec, /*is_proc=*/false);
  // Lateral movement chain.
  for (int i = 0; i <= plant.lateral_hops; ++i) {
    out.lateral_procs.push_back(g.AddNode(
        spec.proc_label,
        {{proc_prop,
          graphdb::Value(plant.lateral_prefix + std::to_string(i))}}));
  }
  for (int i = 0; i < plant.lateral_hops; ++i) {
    g.AddEdge(out.lateral_procs[i], out.lateral_procs[i + 1],
              plant.lateral_edge,
              {{"start_time", graphdb::Value(static_cast<int64_t>(i * 10))},
               {"end_time",
                graphdb::Value(static_cast<int64_t>(i * 10 + 1))}});
  }
  // Exfil fan-in.
  out.exfil_proc = g.AddNode(
      spec.proc_label, {{proc_prop, graphdb::Value(plant.exfil_proc_name)}});
  for (int i = 0; i < plant.exfil_docs; ++i) {
    out.exfil_docs.push_back(g.AddNode(
        spec.file_label,
        {{file_prop,
          graphdb::Value(plant.exfil_doc_prefix + std::to_string(i))}}));
    g.AddEdge(out.exfil_proc, out.exfil_docs.back(), plant.exfil_read_edge,
              {{"start_time", graphdb::Value(static_cast<int64_t>(100 + i))},
               {"end_time",
                graphdb::Value(static_cast<int64_t>(101 + i))}});
  }
  out.exfil_archive = g.AddNode(
      spec.file_label,
      {{file_prop, graphdb::Value(plant.exfil_archive_name)}});
  g.AddEdge(out.exfil_proc, out.exfil_archive, plant.exfil_write_edge,
            {{"start_time", graphdb::Value(static_cast<int64_t>(200))},
             {"end_time", graphdb::Value(static_cast<int64_t>(201))}});
  return out;
}

/// A Cypher IN-list body of `count` uniformly random (possibly repeated)
/// file names under the spec's naming scheme: "'/data/f1', '/data/f2', ...".
inline std::string RandomFileNameInList(const SyntheticGraphSpec& spec,
                                        const SyntheticGraph& sg, Rng& rng,
                                        int count) {
  // Under a global name index file names continue the proc numbering.
  size_t base = spec.global_name_index ? sg.procs.size() : 0;
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += ", ";
    out += "'";
    out += spec.file_prefix;
    out += std::to_string(base + rng.Uniform(sg.files.size())) + "'";
  }
  return out;
}

}  // namespace raptor::fixtures
