#include "storage/graphdb/graph.h"

namespace raptor::graphdb {

namespace {

const std::vector<NodeId> kNoNodes;
const std::vector<EdgeId> kNoEdges;

}  // namespace

std::vector<EdgeId>& PropertyGraph::TypedAdjacency::For(uint32_t type_id) {
  for (auto& [tid, edges] : groups) {
    if (tid == type_id) return edges;
  }
  groups.emplace_back(type_id, std::vector<EdgeId>());
  return groups.back().second;
}

const std::vector<EdgeId>* PropertyGraph::TypedAdjacency::Find(
    uint32_t type_id) const {
  for (const auto& [tid, edges] : groups) {
    if (tid == type_id) return &edges;
  }
  return nullptr;
}

PropertyGraph::PropertyGraph(size_t shard_count) : layout_(shard_count) {
  shards_.resize(layout_.count());
}

NodeId PropertyGraph::AddNode(std::string_view label,
                              const PropertyMap& props) {
  NodeId id = node_count_++;
  Shard& shard = shards_[layout_.ShardOf(id)];
  Node n;
  n.id = id;
  n.label_id = labels_.Intern(label);
  if (n.label_id >= shard.by_label.size()) {
    shard.by_label.resize(n.label_id + 1);
  }
  n.label_pos = static_cast<uint32_t>(shard.by_label[n.label_id].size());
  shard.by_label[n.label_id].push_back(id);
  // Freeze the property map into this (shard × label) bucket's columns,
  // and maintain this shard's slice of any (label, prop) index.
  if (n.label_id >= shard.node_cols.size()) {
    shard.node_cols.resize(n.label_id + 1);
  }
  storage::ColumnGroup& cols = shard.node_cols[n.label_id];
  for (const auto& [name, value] : props) {
    uint32_t prop_id = FreezeProp(cols, n.label_pos, name, value);
    if (shard.node_indexes.empty()) continue;
    auto index = shard.node_indexes.find(IndexKey(n.label_id, prop_id));
    if (index != shard.node_indexes.end()) index->second[value].push_back(id);
  }
  shard.nodes.push_back(n);
  shard.out_edges.emplace_back();
  shard.in_edges.emplace_back();
  shard.out_by_type.emplace_back();
  shard.in_by_type.emplace_back();
  return id;
}

EdgeId PropertyGraph::AddEdge(NodeId src, NodeId dst, std::string_view type,
                              const PropertyMap& props) {
  EdgeId id = edge_count_++;
  Edge e;
  e.id = id;
  e.src = src;
  e.dst = dst;
  e.type_id = edge_types_.Intern(type);
  Shard& src_shard = shards_[layout_.ShardOf(src)];
  Shard& dst_shard = shards_[layout_.ShardOf(dst)];
  src_shard.out_edges[layout_.LocalOf(src)].push_back(id);
  dst_shard.in_edges[layout_.LocalOf(dst)].push_back(id);
  src_shard.out_by_type[layout_.LocalOf(src)].For(e.type_id).push_back(id);
  dst_shard.in_by_type[layout_.LocalOf(dst)].For(e.type_id).push_back(id);
  Shard& edge_shard = shards_[layout_.ShardOf(id)];
  if (e.type_id >= edge_shard.edges_per_type.size()) {
    edge_shard.edges_per_type.resize(e.type_id + 1, 0);
    edge_shard.edge_cols.resize(e.type_id + 1);
  }
  e.type_pos = edge_shard.edges_per_type[e.type_id]++;
  for (const auto& [name, value] : props) {
    FreezeProp(edge_shard.edge_cols[e.type_id], e.type_pos, name, value);
  }
  edge_shard.edges.push_back(e);
  return id;
}

uint32_t PropertyGraph::InternProp(std::string_view name) {
  uint32_t prop_id = prop_names_.Intern(name);
  if (prop_id >= prop_dicts_.size()) prop_dicts_.emplace_back();
  return prop_id;
}

uint32_t PropertyGraph::FreezeProp(storage::ColumnGroup& group, size_t pos,
                                   std::string_view name, const Value& value) {
  uint32_t prop_id = InternProp(name);
  group.ColumnFor(prop_id)->Append(pos, value, &prop_dicts_[prop_id]);
  return prop_id;
}

const storage::Column* PropertyGraph::NodeColumn(size_t shard,
                                                 uint32_t label_id,
                                                 uint32_t prop_id) const {
  if (prop_id == kNoSymbol) return nullptr;
  const Shard& s = shards_[shard];
  if (label_id >= s.node_cols.size()) return nullptr;
  return s.node_cols[label_id].Find(prop_id);
}

const storage::Column* PropertyGraph::EdgeColumn(size_t shard,
                                                 uint32_t type_id,
                                                 uint32_t prop_id) const {
  if (prop_id == kNoSymbol) return nullptr;
  const Shard& s = shards_[shard];
  if (type_id >= s.edge_cols.size()) return nullptr;
  return s.edge_cols[type_id].Find(prop_id);
}

const std::vector<EdgeId>& PropertyGraph::OutEdges(NodeId id) const {
  if (id >= node_count_) return kNoEdges;
  return shards_[layout_.ShardOf(id)].out_edges[layout_.LocalOf(id)];
}

const std::vector<EdgeId>& PropertyGraph::InEdges(NodeId id) const {
  if (id >= node_count_) return kNoEdges;
  return shards_[layout_.ShardOf(id)].in_edges[layout_.LocalOf(id)];
}

const std::vector<EdgeId>& PropertyGraph::OutEdges(NodeId id,
                                                   uint32_t type_id) const {
  if (id >= node_count_ || type_id == kNoSymbol) return kNoEdges;
  const std::vector<EdgeId>* edges =
      shards_[layout_.ShardOf(id)].out_by_type[layout_.LocalOf(id)].Find(
          type_id);
  return edges != nullptr ? *edges : kNoEdges;
}

const std::vector<EdgeId>& PropertyGraph::InEdges(NodeId id,
                                                  uint32_t type_id) const {
  if (id >= node_count_ || type_id == kNoSymbol) return kNoEdges;
  const std::vector<EdgeId>* edges =
      shards_[layout_.ShardOf(id)].in_by_type[layout_.LocalOf(id)].Find(
          type_id);
  return edges != nullptr ? *edges : kNoEdges;
}

const std::vector<NodeId>& PropertyGraph::NodesWithLabel(
    std::string_view label, size_t shard) const {
  uint32_t label_id = labels_.Lookup(label);
  if (label_id == kNoSymbol) return kNoNodes;
  const Shard& s = shards_[shard];
  return label_id < s.by_label.size() ? s.by_label[label_id] : kNoNodes;
}

void PropertyGraph::CreateNodeIndex(std::string_view label,
                                    std::string_view prop) {
  uint32_t label_id = labels_.Intern(label);
  uint32_t prop_id = InternProp(prop);
  uint64_t key = IndexKey(label_id, prop_id);
  if (shards_[0].node_indexes.count(key)) return;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (label_id >= shard.by_label.size()) {
      shard.by_label.resize(label_id + 1);
    }
    ValueIndex& index = shard.node_indexes[key];
    // by_label lists the bucket in label_pos order.
    const std::vector<NodeId>& ids = shard.by_label[label_id];
    const storage::Column* col = NodeColumn(s, label_id, prop_id);
    for (size_t pos = 0; col != nullptr && pos < ids.size(); ++pos) {
      if (!col->Present(pos)) continue;
      index[storage::ReadCell(col, PropDict(prop_id), pos)].push_back(ids[pos]);
    }
  }
}

bool PropertyGraph::HasNodeIndex(std::string_view label,
                                 std::string_view prop) const {
  uint32_t label_id = labels_.Lookup(label);
  uint32_t prop_id = prop_names_.Lookup(prop);
  if (label_id == kNoSymbol || prop_id == kNoSymbol) return false;
  // Indexes are created in every shard at once; shard 0 is authoritative.
  return shards_[0].node_indexes.count(IndexKey(label_id, prop_id)) > 0;
}

const PropertyGraph::ValueIndex* PropertyGraph::FindIndex(
    std::string_view label, std::string_view prop, size_t shard) const {
  uint32_t label_id = labels_.Lookup(label);
  uint32_t prop_id = prop_names_.Lookup(prop);
  if (label_id == kNoSymbol || prop_id == kNoSymbol) return nullptr;
  auto it = shards_[shard].node_indexes.find(IndexKey(label_id, prop_id));
  return it == shards_[shard].node_indexes.end() ? nullptr : &it->second;
}

const std::vector<NodeId>& PropertyGraph::ProbeNodes(std::string_view label,
                                                     std::string_view prop,
                                                     const Value& value,
                                                     size_t shard) const {
  const ValueIndex* index = FindIndex(label, prop, shard);
  if (index == nullptr) return kNoNodes;
  auto it = index->find(value);
  return it == index->end() ? kNoNodes : it->second;
}

size_t PropertyGraph::ProbeCountNodes(std::string_view label,
                                      std::string_view prop,
                                      const Value& value) const {
  size_t count = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    count += ProbeNodes(label, prop, value, s).size();
  }
  return count;
}

}  // namespace raptor::graphdb
