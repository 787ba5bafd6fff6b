// In-memory property graph, the storage unit of the embedded graph engine
// that substitutes Neo4j. Nodes carry an interned label and edges an
// interned type; their properties live only in frozen columns
// (storage/columnar.h): AddNode / AddEdge freeze the property map into
// the element's (shard × label) / (shard × edge type) bucket and drop it.
//
// Hot-path design:
//  * node labels, edge types, and property names are interned into dense
//    uint32 ids, so pattern matching compares integers, not strings; one
//    property-name interner keys both the frozen columns and the
//    (label, prop) indexes;
//  * per-node adjacency is additionally grouped by edge-type id, so a typed
//    expansion touches only edges of the requested type instead of the full
//    out/in-edge list;
//  * equality indexes over (label, property) pairs are keyed by Value with
//    a Compare()-consistent hash, so probes never stringify.
//
// Sharding: node, edge, adjacency, label-bucket and index storage is
// partitioned into a power-of-two number of shards, hashed on entity id
// (shard = id & mask; ids stay dense and global, so creation order and the
// public id space are unchanged). Each shard owns its nodes' adjacency
// lists, its slice of every (label, prop) hash index, and its label
// buckets, which lets the query executor carve seed iteration into
// per-shard morsels for parallel workers. Label buckets and index probes
// are read per shard (NodesWithLabel / ProbeNodes take the shard); the
// shard-agnostic ProbeCountNodes sums over shards and stays exact for any
// shard count.
//
// Thread-safety contract: construction and mutation (AddNode / AddEdge /
// CreateNodeIndex) are single-threaded; all const member functions are
// race-free when called concurrently from any number of threads.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "storage/columnar.h"
#include "storage/relational/value.h"
#include "storage/shard_layout.h"

namespace raptor::graphdb {

using NodeId = uint64_t;
using EdgeId = uint64_t;
using Value = sql::Value;
/// Properties of one element at insert time (frozen, then dropped).
using PropertyMap = std::map<std::string, Value, std::less<>>;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

struct Node {
  NodeId id = 0;
  uint32_t label_id = 0;
  /// Dense offset within the node's (shard × label) bucket — the cell
  /// position in every frozen column of that bucket.
  uint32_t label_pos = 0;
};

struct Edge {
  EdgeId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t type_id = 0;
  /// Dense offset within the edge's (shard × type) bucket — the cell
  /// position in every frozen column of that bucket.
  uint32_t type_pos = 0;
};

class PropertyGraph {
 public:
  /// `shard_count` is rounded up to a power of two; 1 (the default)
  /// reproduces the unsharded layout exactly.
  explicit PropertyGraph(size_t shard_count = 1);

  NodeId AddNode(std::string_view label, const PropertyMap& props);

  /// Precondition: src and dst are valid node ids.
  EdgeId AddEdge(NodeId src, NodeId dst, std::string_view type,
                 const PropertyMap& props);

  const Node& node(NodeId id) const {
    return shards_[layout_.ShardOf(id)].nodes[layout_.LocalOf(id)];
  }
  const Edge& edge(EdgeId id) const {
    return shards_[layout_.ShardOf(id)].edges[layout_.LocalOf(id)];
  }

  size_t shard_count() const { return shards_.size(); }

  /// Shard owning node (or edge) `id`.
  size_t ShardOf(uint64_t id) const { return layout_.ShardOf(id); }

  /// The id -> (shard, local position) mapping of nodes and edges.
  const storage::ShardLayout& layout() const { return layout_; }

  const std::vector<EdgeId>& OutEdges(NodeId id) const;
  const std::vector<EdgeId>& InEdges(NodeId id) const;

  /// Edges of `id` whose interned type equals `type_id` only. Passing
  /// kNoSymbol (a type absent from the graph) yields the empty list.
  const std::vector<EdgeId>& OutEdges(NodeId id, uint32_t type_id) const;
  const std::vector<EdgeId>& InEdges(NodeId id, uint32_t type_id) const;

  /// Interned id of a label / edge type, or kNoSymbol if it never occurs.
  uint32_t LookupLabel(std::string_view label) const {
    return labels_.Lookup(label);
  }
  uint32_t LookupEdgeType(std::string_view type) const {
    return edge_types_.Lookup(type);
  }

  /// The nodes of `shard` with the given label, in creation order.
  /// Precondition: shard < shard_count().
  const std::vector<NodeId>& NodesWithLabel(std::string_view label,
                                            size_t shard) const;

  /// Build an equality index on (label, prop) in every shard. No-op if
  /// already present.
  void CreateNodeIndex(std::string_view label, std::string_view prop);

  bool HasNodeIndex(std::string_view label, std::string_view prop) const;

  /// The index bucket of `shard` only; a value's full candidate set is the
  /// disjoint union of its buckets across all shards.
  /// Precondition: HasNodeIndex(label, prop) && shard < shard_count().
  const std::vector<NodeId>& ProbeNodes(std::string_view label,
                                        std::string_view prop,
                                        const Value& value,
                                        size_t shard) const;

  /// Size of the candidate set for (label, prop) == value, summed over all
  /// shards without materializing it. The matcher ranks competing index
  /// probes by this exact per-value cardinality (the same access-path
  /// choice the SQL planner makes from its candidate-set sizes).
  size_t ProbeCountNodes(std::string_view label, std::string_view prop,
                         const Value& value) const;

  size_t node_count() const { return node_count_; }
  size_t edge_count() const { return edge_count_; }
  size_t label_count() const { return labels_.size(); }
  size_t edge_type_count() const { return edge_types_.size(); }

  // --- Frozen columnar property storage (storage/columnar.h) ---------------
  // Every AddNode/AddEdge freezes the property map into per-(shard × label)
  // / per-(shard × edge type) columns, the only copy of the properties, so
  // predicate loops can scan column slices. String cells dictionary-encode
  // against one dictionary per property name, global across shards and
  // buckets: a query literal is looked up once and compared as a uint32
  // everywhere.

  /// Interned id of a property name, or kNoSymbol if no element carries it
  /// and no index names it.
  uint32_t LookupPropName(std::string_view name) const {
    return prop_names_.Lookup(name);
  }

  /// String dictionary of property `prop_id`, global across shards and
  /// buckets; nullptr when `prop_id` is kNoSymbol.
  const StringInterner* PropDict(uint32_t prop_id) const {
    return prop_id < prop_dicts_.size() ? &prop_dicts_[prop_id] : nullptr;
  }

  /// Frozen column of (shard, label, prop) — nullptr when no node of that
  /// bucket carries the property. Cell positions are Node::label_pos.
  const storage::Column* NodeColumn(size_t shard, uint32_t label_id,
                                    uint32_t prop_id) const;

  /// Frozen column of (shard, edge type, prop); positions Edge::type_pos.
  const storage::Column* EdgeColumn(size_t shard, uint32_t type_id,
                                    uint32_t prop_id) const;

 private:
  /// Per-node adjacency grouped by edge-type id. Nodes see few distinct
  /// edge types, so a flat (type, edges) vector beats a per-node hash map
  /// in both memory and probe cost.
  struct TypedAdjacency {
    std::vector<std::pair<uint32_t, std::vector<EdgeId>>> groups;

    std::vector<EdgeId>& For(uint32_t type_id);
    const std::vector<EdgeId>* Find(uint32_t type_id) const;
  };

  using ValueIndex =
      std::unordered_map<Value, std::vector<NodeId>, sql::ValueHash,
                         sql::ValueEq>;

  /// One entity-id-hashed partition: the node/edge records whose id hashes
  /// here, the adjacency of this shard's nodes (indexed by the layout's
  /// local index), this shard's label buckets, and this shard's slice of
  /// every equality index (global node ids).
  struct Shard {
    std::vector<Node> nodes;
    std::vector<Edge> edges;
    std::vector<std::vector<EdgeId>> out_edges;
    std::vector<std::vector<EdgeId>> in_edges;
    std::vector<TypedAdjacency> out_by_type;
    std::vector<TypedAdjacency> in_by_type;
    std::vector<std::vector<NodeId>> by_label;  // label id -> node ids
    // (label_id << 32 | prop_id) -> value -> node ids
    std::unordered_map<uint64_t, ValueIndex> node_indexes;
    // Frozen property columns: one group per label / edge-type bucket.
    std::vector<storage::ColumnGroup> node_cols;  // label id -> columns
    std::vector<storage::ColumnGroup> edge_cols;  // type id -> columns
    std::vector<uint32_t> edges_per_type;  // type id -> count (type_pos)
  };

  static uint64_t IndexKey(uint32_t label_id, uint32_t prop_id) {
    return (static_cast<uint64_t>(label_id) << 32) | prop_id;
  }

  const ValueIndex* FindIndex(std::string_view label, std::string_view prop,
                              size_t shard) const;

  /// Intern a property name, growing prop_dicts_ in step (a new id always
  /// equals the old dictionary count).
  uint32_t InternProp(std::string_view name);
  /// Freeze one property cell at `pos` of `group`; returns its prop id.
  uint32_t FreezeProp(storage::ColumnGroup& group, size_t pos,
                      std::string_view name, const Value& value);

  StringInterner labels_;
  StringInterner edge_types_;
  StringInterner prop_names_;
  // One string dictionary per property name (indexed by prop id); a deque
  // keeps dictionaries address-stable as new property names appear.
  std::deque<StringInterner> prop_dicts_;
  std::vector<Shard> shards_;
  storage::ShardLayout layout_;
  size_t node_count_ = 0;
  size_t edge_count_ = 0;
};

}  // namespace raptor::graphdb
