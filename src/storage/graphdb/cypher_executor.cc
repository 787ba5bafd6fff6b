#include "storage/graphdb/cypher_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/deadline.h"
#include "common/small_vector.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "storage/column_filter.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/shard_parallel.h"
#include "storage/subresult_cache.h"

namespace raptor::graphdb {

namespace {

constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// Interned variable slots, built once per query: every node/edge variable
/// across all pattern parts maps to a dense id, so the frame binding can
/// hold bound entities in flat vectors instead of string-keyed maps.
struct VarTable {
  StringInterner nodes;
  StringInterner edges;
};

/// Flat binding frame keyed on interned slots. The streaming pipeline
/// threads exactly one frame through the whole search (bind on descent,
/// unbind on backtrack), and the inline small-vector storage makes frame
/// setup allocation-free for typical variable counts.
struct FrameBinding {
  SmallVector<NodeId, 8> nodes;       // node slot -> id, kInvalidNode unbound
  SmallVector<EdgeId, 8> edges;       // edge slot -> id, kInvalidEdge unbound
  SmallVector<EdgeId, 16> used_edges;  // LIFO stack of in-use edges
};

void InitBinding(FrameBinding& b, const VarTable& vars) {
  b.nodes.assign(vars.nodes.size(), kInvalidNode);
  b.edges.assign(vars.edges.size(), kInvalidEdge);
  b.used_edges.clear();
}

/// Inline property constraints `{key: literal}` of a node or edge pattern
/// on the entity at `pos` of `shard`'s bucket: through the compiled
/// column filters of a labeled / typed pattern, else by reading the
/// entity's own bucket cell (`column(prop_id)`, the bucket's column or
/// nullptr). A constraint holds on a present cell that Compare-equals
/// its literal.
template <class ColumnOf>
bool PropsMatch(const PropertyGraph& graph,
                const std::vector<PropConstraint>& props,
                const std::vector<uint32_t>& prop_ids,
                const std::vector<storage::ColumnFilter>& filters,
                size_t shard, size_t pos, ColumnOf&& column) {
  for (size_t i = 0; i < props.size(); ++i) {
    if (!filters.empty()) {
      if (!filters[i].Matches(shard, pos)) return false;
      continue;
    }
    const storage::Column* col = column(prop_ids[i]);
    if (col == nullptr || !col->Present(pos) ||
        storage::ReadCell(col, graph.PropDict(prop_ids[i]), pos)
                .Compare(props[i].value) != 0) {
      return false;
    }
  }
  return true;
}

/// Interned property ids of `{key: literal}` constraints.
std::vector<uint32_t> PropIds(const PropertyGraph& graph,
                              const std::vector<PropConstraint>& props) {
  std::vector<uint32_t> ids;
  ids.reserve(props.size());
  for (const PropConstraint& pc : props) {
    ids.push_back(graph.LookupPropName(pc.key));
  }
  return ids;
}

/// Compile `{key: literal}` constraints into kPresentEq column filters
/// over the per-shard columns of one label / edge-type bucket
/// (`column(shard, prop_id)`; nullptr when no entity of the shard's
/// bucket carries it).
template <class ColumnOf>
std::vector<storage::ColumnFilter> CompilePropFilters(
    const PropertyGraph& graph, const std::vector<PropConstraint>& props,
    const std::vector<uint32_t>& prop_ids, ColumnOf&& column) {
  std::vector<storage::ColumnFilter> filters;
  filters.reserve(props.size());
  std::vector<const storage::Column*> cols(graph.shard_count());
  for (size_t i = 0; i < props.size(); ++i) {
    for (size_t s = 0; s < cols.size(); ++s) cols[s] = column(s, prop_ids[i]);
    filters.emplace_back(storage::ColumnFilter::Op::kPresentEq,
                         std::span<const Value>(&props[i].value, 1),
                         graph.PropDict(prop_ids[i]), cols);
  }
  return filters;
}

/// The column-filter operator of a Cypher comparison or string operator;
/// false for the others (AND / OR / arithmetic).
bool ToFilterOp(CypherBinaryOp op, storage::ColumnFilter::Op* out) {
  using Op = storage::ColumnFilter::Op;
  switch (op) {
    case CypherBinaryOp::kEq: *out = Op::kEq; return true;
    case CypherBinaryOp::kNe: *out = Op::kNe; return true;
    case CypherBinaryOp::kLt: *out = Op::kLt; return true;
    case CypherBinaryOp::kLe: *out = Op::kLe; return true;
    case CypherBinaryOp::kGt: *out = Op::kGt; return true;
    case CypherBinaryOp::kGe: *out = Op::kGe; return true;
    case CypherBinaryOp::kContains: *out = Op::kContains; return true;
    case CypherBinaryOp::kStartsWith: *out = Op::kStartsWith; return true;
    case CypherBinaryOp::kEndsWith: *out = Op::kEndsWith; return true;
    default: return false;
  }
}

/// A single-variable WHERE conjunct, applied as soon as its variable binds
/// (the predicate pushdown real graph databases perform; without it a
/// multi-pattern MATCH would enumerate the full cross product first).
/// A conjunct of the shape `[NOT] var.prop op literal` (op a comparison,
/// a string operator or IN) on a node variable with a known label also
/// compiles into a column filter over that label's buckets, which decides
/// it on every shard; every other conjunct is evaluated through
/// CypherEvaluator.
struct PushdownFilter {
  const CypherExpr* expr = nullptr;  // the whole conjunct (Eval)
  std::string_view prop;             // compiled shape: the property read
  /// Values a positive `=` / IN conjunct allows for `prop`: an index probe
  /// candidate for seed selection (empty otherwise).
  std::span<const Value> probe_keys;
  uint32_t label_id = kNoSymbol;  // kNoSymbol: not compiled
  bool negated = false;           // the filter's verdict is inverted
  storage::ColumnFilter filter;
};

using VarFilters = std::vector<PushdownFilter>;

/// WHERE split into per-variable pushdown filters and residual conjuncts
/// (evaluated on complete bindings).
struct Pushdown {
  std::unordered_map<std::string, VarFilters> by_var;
  std::vector<const CypherExpr*> residual;

  /// The filters of `var`, nullptr when it has none (or is anonymous).
  const VarFilters* For(const std::string& var) const {
    if (var.empty()) return nullptr;
    auto it = by_var.find(var);
    return it == by_var.end() ? nullptr : &it->second;
  }
};

/// A node pattern with its label resolved to the graph's interned id and
/// its variable to the query's slot, so candidate checks compare integers
/// instead of strings. When the label is known, inline property
/// constraints additionally compile to column filters over the frozen
/// per-(shard × label) columns; an unlabeled pattern reads each
/// candidate's own bucket cell.
struct ResolvedNode {
  const NodePattern* pat = nullptr;
  bool has_label = false;
  uint32_t label_id = kNoSymbol;  // kNoSymbol: label absent, matches nothing
  uint32_t var_slot = kNoSymbol;  // kNoSymbol: anonymous node
  std::vector<uint32_t> prop_ids;              // per pat->props
  std::vector<storage::ColumnFilter> filters;  // per pat->props, or empty
  const VarFilters* pushdown = nullptr;        // the variable's WHERE filters

  bool Matches(const Node& node, const PropertyGraph& graph) const {
    if (has_label && node.label_id != label_id) return false;
    if (pat->props.empty()) return true;  // most patterns: skip the call
    size_t shard = graph.ShardOf(node.id);
    return PropsMatch(graph, pat->props, prop_ids, filters, shard,
                      node.label_pos, [&](uint32_t prop_id) {
                        return graph.NodeColumn(shard, node.label_id, prop_id);
                      });
  }
};

/// A relationship pattern with its type resolved to the interned id; typed
/// expansion uses the id to select the per-type adjacency group directly.
/// Inline property constraints compile to column filters over the
/// per-(shard × edge type) columns when the type is known.
struct ResolvedRel {
  const RelPattern* pat = nullptr;
  bool has_type = false;
  uint32_t type_id = kNoSymbol;
  uint32_t var_slot = kNoSymbol;
  std::vector<uint32_t> prop_ids;              // per pat->props
  std::vector<storage::ColumnFilter> filters;  // per pat->props, or empty
  const VarFilters* pushdown = nullptr;        // the variable's WHERE filters

  bool Matches(const Edge& edge, const PropertyGraph& graph) const {
    if (has_type && edge.type_id != type_id) return false;
    if (pat->props.empty()) return true;
    size_t shard = graph.ShardOf(edge.id);
    return PropsMatch(graph, pat->props, prop_ids, filters, shard,
                      edge.type_pos, [&](uint32_t prop_id) {
                        return graph.EdgeColumn(shard, edge.type_id, prop_id);
                      });
  }
};

ResolvedNode ResolveNode(const PropertyGraph& graph, const VarTable& vars,
                         const Pushdown& pushdown, const NodePattern& pat) {
  ResolvedNode r;
  r.pat = &pat;
  if (!pat.label.empty()) {
    r.has_label = true;
    r.label_id = graph.LookupLabel(pat.label);
  }
  if (!pat.var.empty()) r.var_slot = vars.nodes.Lookup(pat.var);
  r.pushdown = pushdown.For(pat.var);
  r.prop_ids = PropIds(graph, pat.props);
  // Column filters need a known label (the column buckets are per label);
  // an unknown label matches nothing regardless.
  if (r.has_label && r.label_id != kNoSymbol) {
    r.filters = CompilePropFilters(graph, pat.props, r.prop_ids,
                                   [&](size_t s, uint32_t p) {
                                     return graph.NodeColumn(s, r.label_id, p);
                                   });
  }
  return r;
}

ResolvedRel ResolveRel(const PropertyGraph& graph, const VarTable& vars,
                       const Pushdown& pushdown, const RelPattern& pat) {
  ResolvedRel r;
  r.pat = &pat;
  if (!pat.type.empty()) {
    r.has_type = true;
    r.type_id = graph.LookupEdgeType(pat.type);
  }
  if (!pat.var.empty()) r.var_slot = vars.edges.Lookup(pat.var);
  r.pushdown = pushdown.For(pat.var);
  r.prop_ids = PropIds(graph, pat.props);
  if (r.has_type && r.type_id != kNoSymbol) {
    r.filters = CompilePropFilters(graph, pat.props, r.prop_ids,
                                   [&](size_t s, uint32_t p) {
                                     return graph.EdgeColumn(s, r.type_id, p);
                                   });
  }
  return r;
}

// ---- Binding operations -----------------------------------------------------

bool NodeBound(const FrameBinding& b, const ResolvedNode& rn) {
  return rn.var_slot != kNoSymbol && b.nodes[rn.var_slot] != kInvalidNode;
}

/// Precondition: NodeBound(b, rn).
NodeId BoundNode(const FrameBinding& b, const ResolvedNode& rn) {
  return b.nodes[rn.var_slot];
}

void SetNode(FrameBinding& b, const ResolvedNode& rn, NodeId id) {
  b.nodes[rn.var_slot] = id;
}

void ClearNode(FrameBinding& b, const ResolvedNode& rn) {
  b.nodes[rn.var_slot] = kInvalidNode;
}

bool EdgeBound(const FrameBinding& b, const ResolvedRel& rr) {
  return rr.var_slot != kNoSymbol && b.edges[rr.var_slot] != kInvalidEdge;
}

/// Precondition: EdgeBound(b, rr).
EdgeId BoundEdge(const FrameBinding& b, const ResolvedRel& rr) {
  return b.edges[rr.var_slot];
}

void SetEdge(FrameBinding& b, const ResolvedRel& rr, EdgeId id) {
  b.edges[rr.var_slot] = id;
}

void ClearEdge(FrameBinding& b, const ResolvedRel& rr) {
  b.edges[rr.var_slot] = kInvalidEdge;
}

bool EdgeUsed(const FrameBinding& b, EdgeId id) {
  return Contains(b.used_edges, id);
}

void PushUsedEdge(FrameBinding& b, EdgeId id) { b.used_edges.push_back(id); }

/// The matcher's insert/recurse/erase discipline is strictly LIFO, so the
/// most recent PushUsedEdge is the one released.
void PopUsedEdge(FrameBinding& b) { b.used_edges.pop_back(); }

/// Evaluate a WHERE / RETURN expression against a (possibly partially)
/// bound row.
class CypherEvaluator {
 public:
  CypherEvaluator(const PropertyGraph& graph, const VarTable& vars)
      : graph_(graph), vars_(vars) {}

  Result<Value> Eval(const CypherExpr& e, const FrameBinding& b) const {
    switch (e.kind) {
      case CypherExprKind::kLiteral:
        return e.literal;
      case CypherExprKind::kVarRef: {
        NodeId nid;
        if (LookupNodeVar(b, e, &nid)) {
          return Value(static_cast<int64_t>(nid));
        }
        EdgeId eid;
        if (LookupEdgeVar(b, e, &eid)) {
          return Value(static_cast<int64_t>(eid));
        }
        return Status::NotFound("unbound variable: " + e.var);
      }
      case CypherExprKind::kPropRef: {
        NodeId nid;
        uint32_t prop_id = SlotsFor(e).prop_id;
        if (LookupNodeVar(b, e, &nid)) {
          const Node& node = graph_.node(nid);
          return storage::ReadCell(
              graph_.NodeColumn(graph_.ShardOf(nid), node.label_id, prop_id),
              graph_.PropDict(prop_id), node.label_pos);
        }
        EdgeId eid;
        if (LookupEdgeVar(b, e, &eid)) {
          const Edge& edge = graph_.edge(eid);
          return storage::ReadCell(
              graph_.EdgeColumn(graph_.ShardOf(eid), edge.type_id, prop_id),
              graph_.PropDict(prop_id), edge.type_pos);
        }
        return Status::NotFound("unbound variable: " + e.var);
      }
      case CypherExprKind::kNot: {
        auto inner = Eval(*e.lhs, b);
        if (!inner.ok()) return inner.status();
        return Value(static_cast<int64_t>(!Truthy(inner.value())));
      }
      case CypherExprKind::kInList: {
        auto lhs = Eval(*e.lhs, b);
        if (!lhs.ok()) return lhs.status();
        bool found = in_sets_.Get(e).count(lhs.value()) > 0;
        return Value(static_cast<int64_t>(e.negated ? !found : found));
      }
      case CypherExprKind::kBinary: {
        if (e.op == CypherBinaryOp::kAnd || e.op == CypherBinaryOp::kOr) {
          auto l = Eval(*e.lhs, b);
          if (!l.ok()) return l.status();
          bool lt = Truthy(l.value());
          if (e.op == CypherBinaryOp::kAnd && !lt) {
            return Value(static_cast<int64_t>(0));
          }
          if (e.op == CypherBinaryOp::kOr && lt) {
            return Value(static_cast<int64_t>(1));
          }
          auto r = Eval(*e.rhs, b);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        auto l = Eval(*e.lhs, b);
        if (!l.ok()) return l.status();
        auto r = Eval(*e.rhs, b);
        if (!r.ok()) return r.status();
        if (e.op == CypherBinaryOp::kAdd || e.op == CypherBinaryOp::kSub) {
          if (l.value().is_double() || r.value().is_double()) {
            double x = l.value().AsDouble(), y = r.value().AsDouble();
            return Value(e.op == CypherBinaryOp::kAdd ? x + y : x - y);
          }
          int64_t x = l.value().AsInt(), y = r.value().AsInt();
          return Value(e.op == CypherBinaryOp::kAdd ? x + y : x - y);
        }
        return Value(static_cast<int64_t>(Compare(e.op, l.value(), r.value())));
      }
    }
    return Status::Internal("unreachable cypher expr kind");
  }

  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static bool Compare(CypherBinaryOp op, const Value& l, const Value& r) {
    switch (op) {
      case CypherBinaryOp::kEq: return l.Compare(r) == 0;
      case CypherBinaryOp::kNe: return l.Compare(r) != 0;
      case CypherBinaryOp::kLt: return l.Compare(r) < 0;
      case CypherBinaryOp::kLe: return l.Compare(r) <= 0;
      case CypherBinaryOp::kGt: return l.Compare(r) > 0;
      case CypherBinaryOp::kGe: return l.Compare(r) >= 0;
      case CypherBinaryOp::kContains:
      case CypherBinaryOp::kStartsWith:
      case CypherBinaryOp::kEndsWith: {
        storage::ColumnFilter::Op fop;
        ToFilterOp(op, &fop);
        if (l.is_text() && r.is_text()) {
          return storage::ColumnFilter::TextHolds(fop, l.AsText(), r.AsText());
        }
        return storage::ColumnFilter::TextHolds(fop, l.ToString(),
                                                r.ToString());
      }
      default:
        return false;
    }
  }

 private:
  /// Interned slots of an expression's variable (and, for kPropRef, the
  /// graph's interned property-name id), resolved once per expr node and
  /// cached by pointer: repeated evaluations (one per result row) pay a
  /// pointer-hash probe instead of re-hashing the names.
  struct VarSlots {
    uint32_t node_slot = kNoSymbol;
    uint32_t edge_slot = kNoSymbol;
    uint32_t prop_id = kNoSymbol;
  };
  const VarSlots& SlotsFor(const CypherExpr& e) const {
    auto it = slots_.find(&e);
    if (it == slots_.end()) {
      it = slots_
               .emplace(&e, VarSlots{vars_.nodes.Lookup(e.var),
                                     vars_.edges.Lookup(e.var),
                                     graph_.LookupPropName(e.prop)})
               .first;
    }
    return it->second;
  }

  bool LookupNodeVar(const FrameBinding& b, const CypherExpr& e,
                     NodeId* out) const {
    uint32_t slot = SlotsFor(e).node_slot;
    if (slot == kNoSymbol || b.nodes[slot] == kInvalidNode) return false;
    *out = b.nodes[slot];
    return true;
  }
  bool LookupEdgeVar(const FrameBinding& b, const CypherExpr& e,
                     EdgeId* out) const {
    uint32_t slot = SlotsFor(e).edge_slot;
    if (slot == kNoSymbol || b.edges[slot] == kInvalidEdge) return false;
    *out = b.edges[slot];
    return true;
  }

  const PropertyGraph& graph_;
  const VarTable& vars_;
  sql::InListCache<CypherExpr> in_sets_;
  mutable std::unordered_map<const CypherExpr*, VarSlots> slots_;
};

/// Split an AND-tree into conjuncts.
void SplitConjuncts(const CypherExpr* e, std::vector<const CypherExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == CypherExprKind::kBinary && e->op == CypherBinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
  } else {
    out->push_back(e);
  }
}

void CollectVars(const CypherExpr& e, std::unordered_set<std::string>* vars) {
  switch (e.kind) {
    case CypherExprKind::kPropRef:
    case CypherExprKind::kVarRef:
      vars->insert(e.var);
      break;
    case CypherExprKind::kBinary:
      CollectVars(*e.lhs, vars);
      CollectVars(*e.rhs, vars);
      break;
    case CypherExprKind::kNot:
      CollectVars(*e.lhs, vars);
      break;
    case CypherExprKind::kInList:
      CollectVars(*e.lhs, vars);
      break;
    case CypherExprKind::kLiteral:
      break;
  }
}

/// Pushdown filter of conjunct `c`, whose only variable is `var`;
/// `labels` maps node variables to the label of a labeled occurrence.
PushdownFilter CompileConjunct(
    const CypherExpr& c, const std::string& var,
    const std::unordered_map<std::string, std::string_view>& labels,
    const PropertyGraph& graph) {
  using Op = storage::ColumnFilter::Op;
  PushdownFilter f;
  f.expr = &c;
  const CypherExpr* e = &c;
  bool negated = false;
  while (e->kind == CypherExprKind::kNot) {
    negated = !negated;
    e = e->lhs.get();
  }
  Op op = Op::kIn;
  std::span<const Value> literals;
  if (e->kind == CypherExprKind::kInList &&
      e->lhs->kind == CypherExprKind::kPropRef) {
    literals = e->in_list;
    negated = negated != e->negated;
  } else if (e->kind == CypherExprKind::kBinary &&
             e->lhs->kind == CypherExprKind::kPropRef &&
             e->rhs->kind == CypherExprKind::kLiteral &&
             ToFilterOp(e->op, &op)) {
    literals = std::span<const Value>(&e->rhs->literal, 1);
  } else {
    return f;
  }
  f.prop = e->lhs->prop;
  if (!negated && (op == Op::kEq || op == Op::kIn)) f.probe_keys = literals;
  auto label = labels.find(var);
  uint32_t label_id = label == labels.end()
                          ? kNoSymbol
                          : graph.LookupLabel(label->second);
  if (label_id == kNoSymbol) return f;
  uint32_t prop_id = graph.LookupPropName(f.prop);
  std::vector<const storage::Column*> cols(graph.shard_count());
  for (size_t s = 0; s < cols.size(); ++s) {
    cols[s] = graph.NodeColumn(s, label_id, prop_id);
  }
  f.filter = storage::ColumnFilter(op, literals, graph.PropDict(prop_id), cols);
  f.label_id = label_id;
  f.negated = negated;
  return f;
}

/// Split WHERE into pushdown filters (single-variable conjuncts, compiled
/// where they have a column-filter shape) and residual conjuncts. The one
/// split both the executor and EstimateCypherCost plan from.
Pushdown PlanPushdown(const CypherQuery& query, const PropertyGraph& graph) {
  // A node variable bound to a node of another label fails its labeled
  // pattern anyway, so any labeled occurrence decides the bucket.
  std::unordered_map<std::string, std::string_view> labels;
  for (const PatternPart& part : query.patterns) {
    for (const NodePattern& n : part.nodes) {
      if (!n.var.empty() && !n.label.empty()) labels.emplace(n.var, n.label);
    }
  }
  std::vector<const CypherExpr*> conjuncts;
  SplitConjuncts(query.where.get(), &conjuncts);
  Pushdown pushdown;
  for (const CypherExpr* c : conjuncts) {
    std::unordered_set<std::string> cvars;
    CollectVars(*c, &cvars);
    if (cvars.size() == 1) {
      const std::string& var = *cvars.begin();
      pushdown.by_var[var].push_back(CompileConjunct(*c, var, labels, graph));
    } else {
      pushdown.residual.push_back(c);
    }
  }
  return pushdown;
}

/// The access path of a chain's start node, with the number of seeds it
/// visits:
///  * kIndex: probe an indexed property with `keys` — an inline
///    constraint, or a positive WHERE `=` / IN (summed per-value counts);
///  * kDict: a covering string filter (ColumnFilter::CollectDictHits) on
///    an indexed property, probed with the dictionary strings it accepts;
///  * kLabelScan: every node of the label;
///  * kFullScan: every node (unlabeled pattern).
struct SeedPlan {
  enum class Kind : uint8_t { kFullScan, kLabelScan, kIndex, kDict };
  Kind kind = Kind::kFullScan;
  std::string_view prop;   // kIndex / kDict
  std::vector<Value> keys;  // kIndex / kDict
  size_t count = 0;
};

/// Cheapest access path of `pat` as a chain start, ranked by exact
/// per-value index cardinalities summed over every shard
/// (ProbeCountNodes), never materializing a candidate. Index probes beat
/// the label scan; the dictionary seed is tried only when its dictionary
/// is smaller than the best count so far, the rule the SQL planner's
/// ChooseAccessPath applies. The one estimate behind seed selection, the
/// chain direction and EstimateCypherCost.
SeedPlan EstimateSeedCount(const NodePattern& pat, const VarFilters* filters,
                           const PropertyGraph& graph) {
  SeedPlan best;
  if (pat.label.empty()) {
    best.count = graph.node_count();
    return best;
  }
  best.count = static_cast<size_t>(-1);
  auto consider_index = [&](std::string_view prop,
                            std::span<const Value> keys) {
    if (!graph.HasNodeIndex(pat.label, prop)) return;
    size_t count = 0;
    for (const Value& v : keys) {
      count += graph.ProbeCountNodes(pat.label, prop, v);
    }
    if (count < best.count) {
      best = {SeedPlan::Kind::kIndex, prop, {keys.begin(), keys.end()}, count};
    }
  };
  for (const PropConstraint& pc : pat.props) {
    consider_index(pc.key, std::span<const Value>(&pc.value, 1));
  }
  if (filters != nullptr) {
    for (const PushdownFilter& f : *filters) {
      if (!f.probe_keys.empty()) consider_index(f.prop, f.probe_keys);
    }
  }
  size_t labeled = 0;
  for (size_t s = 0; s < graph.shard_count(); ++s) {
    labeled += graph.NodesWithLabel(pat.label, s).size();
  }
  if (filters != nullptr) {
    uint32_t label_id = graph.LookupLabel(pat.label);
    for (const PushdownFilter& f : *filters) {
      if (f.label_id != label_id || f.negated ||
          !graph.HasNodeIndex(pat.label, f.prop)) {
        continue;
      }
      auto hits = f.filter.CollectDictHits(
          std::min(best.count, labeled), [&](const Value& v) {
            return graph.ProbeCountNodes(pat.label, f.prop, v);
          });
      if (hits.has_value()) {
        best = {SeedPlan::Kind::kDict, f.prop, std::move(hits->keys),
                hits->count};
      }
    }
  }
  if (best.count == static_cast<size_t>(-1)) {
    best = {SeedPlan::Kind::kLabelScan, {}, {}, labeled};
  }
  return best;
}

/// The end of `part` an earlier part binds (`is_bound(var)`), which the
/// matcher seeds the part from, once per binding: the first node when both
/// ends are bound; null when neither is. The one rule behind
/// Matcher::ChooseDirection and EstimateCypherCost.
template <typename IsBound>
const NodePattern* BoundStart(const PatternPart& part, IsBound is_bound) {
  for (const NodePattern* n : {&part.nodes.front(), &part.nodes.back()}) {
    if (!n->var.empty() && is_bound(n->var)) return n;
  }
  return nullptr;
}

/// Start-node candidates for one chain: either per-shard non-owning spans
/// (index buckets or label buckets, one per storage shard, iterated lazily
/// so LIMIT pushdown can stop early without materializing the tail), an
/// owned list (multi-value probe unions), or a full node scan. The
/// per-shard layout is what lets the parallel driver carve each shard's
/// seeds into morsels.
struct SeedSet {
  SmallVector<const std::vector<NodeId>*, 8> spans;  // indexed by shard
  std::vector<NodeId> owned;                         // owning storage
  /// Plan-time split of `owned` into per-shard sub-lists (order preserved
  /// within each shard). Built once by the parallel driver so workers walk
  /// exactly their shard's seeds instead of skip-scanning the whole list.
  std::vector<std::vector<NodeId>> owned_by_shard;
  bool full_scan = false;

  /// Materialize `plan` for `pat`: a single probe value or a label scan
  /// stays lazily iterated per-shard spans; a multi-value probe becomes
  /// the sorted, deduplicated union of its buckets.
  static SeedSet Of(const SeedPlan& plan, const NodePattern& pat,
                    const PropertyGraph& graph) {
    SeedSet seeds;
    size_t shards = graph.shard_count();
    if (plan.kind == SeedPlan::Kind::kFullScan) {
      seeds.full_scan = true;
    } else if (plan.kind == SeedPlan::Kind::kLabelScan) {
      for (size_t s = 0; s < shards; ++s) {
        seeds.spans.push_back(&graph.NodesWithLabel(pat.label, s));
      }
    } else if (plan.keys.size() == 1) {
      for (size_t s = 0; s < shards; ++s) {
        seeds.spans.push_back(
            &graph.ProbeNodes(pat.label, plan.prop, plan.keys[0], s));
      }
    } else {
      for (const Value& v : plan.keys) {
        for (size_t s = 0; s < shards; ++s) {
          const std::vector<NodeId>& bucket =
              graph.ProbeNodes(pat.label, plan.prop, v, s);
          seeds.owned.insert(seeds.owned.end(), bucket.begin(), bucket.end());
        }
      }
      std::sort(seeds.owned.begin(), seeds.owned.end());
      seeds.owned.erase(std::unique(seeds.owned.begin(), seeds.owned.end()),
                        seeds.owned.end());
    }
    return seeds;
  }

  size_t SeedCount(const PropertyGraph& graph) const {
    if (full_scan) return graph.node_count();
    if (!spans.empty()) {
      size_t n = 0;
      for (const std::vector<NodeId>* span : spans) n += span->size();
      return n;
    }
    return owned.size();
  }

  void SplitOwnedByShard(const PropertyGraph& graph) {
    if (owned.empty() || !owned_by_shard.empty()) return;
    owned_by_shard.resize(graph.shard_count());
    for (NodeId id : owned) owned_by_shard[graph.ShardOf(id)].push_back(id);
  }
};

/// Terminal stage of the streaming pipeline: evaluates residual WHERE
/// conjuncts, projects RETURN items, applies DISTINCT through an
/// incremental seen-set, and signals a stop once LIMIT rows exist. The
/// limit is enforced either locally (`local_cap`: the serial matcher, and
/// parallel DISTINCT workers whose merged seen-sets re-dedup at the
/// barrier) or through a shared atomic budget (`shared_claimed`/
/// `shared_cap`: parallel non-DISTINCT workers claim one slot per emitted
/// row, so the fleet never emits more than the limit in total).
class RowSink {
 public:
  /// `partition_distinct` hash-partitions DISTINCT emissions into
  /// rs->parts so the parallel merge can adopt whole compacted blocks
  /// (storage/shard_parallel.h); off, rows stream into rs->rows.
  RowSink(const CypherQuery& query, const CypherEvaluator& eval,
          const std::vector<const CypherExpr*>& residual,
          bool partition_distinct, size_t local_cap,
          std::atomic<size_t>* shared_claimed, size_t shared_cap,
          MatchStats* stats, storage::WorkerRows* rs)
      : query_(query),
        eval_(eval),
        residual_(residual),
        partition_distinct_(partition_distinct),
        local_cap_(local_cap),
        shared_claimed_(shared_claimed),
        shared_cap_(shared_cap),
        stats_(stats),
        rs_(rs) {
    if (partition_distinct_) rs_->EnableDistinctPartitions();
  }

  /// False stops the search: either LIMIT is satisfied or evaluation
  /// failed (check error() afterwards).
  bool operator()(const FrameBinding& binding) {
    if (stats_ != nullptr) ++stats_->bindings_emitted;
    for (const CypherExpr* c : residual_) {
      auto cond = eval_.Eval(*c, binding);
      if (!cond.ok()) {
        error_ = cond.status();
        return false;
      }
      if (!CypherEvaluator::Truthy(cond.value())) return true;
    }
    std::vector<Value> row;
    row.reserve(query_.items.size());
    for (const CypherReturnItem& item : query_.items) {
      auto v = eval_.Eval(*item.expr, binding);
      if (!v.ok()) {
        error_ = v.status();
        return false;
      }
      row.push_back(std::move(v).value());
    }
    if (query_.distinct && !seen_.insert(row).second) return true;
    if (shared_claimed_ != nullptr &&
        shared_claimed_->fetch_add(1, std::memory_order_relaxed) >=
            shared_cap_) {
      return false;  // budget exhausted by other workers; drop the row
    }
    if (partition_distinct_) {
      rs_->parts[storage::DistinctPartitionOf(row)].push_back(std::move(row));
    } else {
      rs_->rows.push_back(std::move(row));
    }
    ++emitted_;
    if (stats_ != nullptr) ++stats_->rows_emitted;
    return emitted_ < local_cap_;
  }

  const Status& error() const { return error_; }

 private:
  const CypherQuery& query_;
  const CypherEvaluator& eval_;
  const std::vector<const CypherExpr*>& residual_;
  bool partition_distinct_;
  size_t local_cap_;
  size_t emitted_ = 0;
  std::atomic<size_t>* shared_claimed_;
  size_t shared_cap_;
  MatchStats* stats_;
  storage::WorkerRows* rs_;
  Status error_ = Status::OK();
  std::unordered_set<std::vector<Value>, sql::ValueRowHash, sql::ValueRowEq>
      seen_;
};

/// The streaming matcher: drives all pattern parts depth-first, calling
/// `sink(binding)` once per complete query binding. Every traversal method
/// returns true to continue and false to stop the whole search (LIMIT
/// pushdown); after a stop the binding contents are unspecified.
class Matcher {
 public:
  Matcher(const PropertyGraph& graph, const MatchOptions& options,
          const CypherEvaluator& eval, MatchStats* stats, RowSink& sink)
      : graph_(graph),
        options_(options),
        eval_(eval),
        stats_(stats),
        sink_(sink),
        deadline_(options.deadline) {}

  /// The chain being matched, with every label / edge type resolved to its
  /// interned id once up front instead of per candidate.
  struct ResolvedPart {
    std::vector<ResolvedNode> nodes;
    std::vector<ResolvedRel> rels;
  };

  /// A pattern part prepared for repeated matching: the forward and
  /// reversed chains with labels/types resolved once, the direction the
  /// part is matched in, and — unless an earlier part binds the start —
  /// the start's seed set, planned once and reused across every binding
  /// the part extends.
  struct PreparedPart {
    const PatternPart* fwd = nullptr;
    PatternPart rev;
    ResolvedPart resolved_fwd;
    ResolvedPart resolved_rev;
    bool reversed = false;     // match resolved_rev (seed from the last node)
    bool start_bound = false;  // an earlier part binds the start variable
    SeedSet seeds;             // !start_bound: the start's candidates

    const ResolvedPart& chain() const {
      return reversed ? resolved_rev : resolved_fwd;
    }
  };

  /// Resolve every part and choose its direction (ChooseDirection).
  Status PrepareParts(const std::vector<PatternPart>& parts,
                      const VarTable& vars, const Pushdown& pushdown) {
    own_parts_.reserve(parts.size());
    // Which variables earlier parts bind: the matcher descends part by
    // part, so at part k exactly the named nodes of parts < k are bound.
    std::unordered_set<std::string_view> bound;
    for (const PatternPart& part : parts) {
      if (part.nodes.empty()) {
        return Status::InvalidArgument("empty pattern part");
      }
      PreparedPart pp;
      pp.fwd = &part;
      pp.rev = Reverse(part);
      pp.resolved_fwd = Resolve(part, vars, pushdown);
      pp.resolved_rev = Resolve(pp.rev, vars, pushdown);
      ChooseDirection(pp, bound, pushdown);
      for (const NodePattern& n : part.nodes) {
        if (!n.var.empty()) bound.insert(n.var);
      }
      own_parts_.push_back(std::move(pp));
    }
    parts_ = &own_parts_;
    return Status::OK();
  }

  /// Reuse another matcher's prepared parts (immutable after PrepareParts)
  /// instead of re-resolving the query: the parallel driver prepares once
  /// and shares across all morsel workers. `other` must outlive this
  /// matcher.
  void SharePreparedParts(const Matcher& other) { parts_ = other.parts_; }

  /// Match every part against `binding`; false if the sink stopped early.
  bool Run(FrameBinding& binding) { return MatchFrom(0, binding); }

  /// Restrict top-level (part 0) seed iteration to the half-open sub-range
  /// [lo, hi) of one shard's seed list (seed-list positions, not node
  /// ids): one work-stealing morsel.
  void RestrictTopSeedsToMorsel(int shard, size_t lo, size_t hi) {
    seed_shard_ = shard;
    morsel_lo_ = lo;
    morsel_hi_ = hi;
  }

  /// Cooperative LIMIT cancellation: once `claimed` reaches `cap`, the
  /// top-level seed loop stops even if this worker never emitted a row.
  void SetSharedRowBudget(const std::atomic<size_t>* claimed, size_t cap) {
    shared_claimed_ = claimed;
    shared_cap_ = cap;
  }

  /// Part 0's seed set, which the parallel driver sizes its fan-out on
  /// and carves into morsels. Precondition: PrepareParts succeeded and
  /// parts are non-empty (part 0's start is never bound).
  SeedSet& TopSeeds() { return own_parts_[0].seeds; }

 private:
  /// Choose a part's search direction once, at prepare time: seed from
  /// the end an earlier part binds (BoundStart); otherwise from the end
  /// whose EstimateSeedCount is smaller (the first on a tie), whose seeds
  /// are materialized here.
  void ChooseDirection(PreparedPart& pp,
                       const std::unordered_set<std::string_view>& bound,
                       const Pushdown& pushdown) const {
    const NodePattern& first = pp.fwd->nodes.front();
    const NodePattern& last = pp.fwd->nodes.back();
    const NodePattern* start = BoundStart(
        *pp.fwd, [&](const std::string& var) { return bound.count(var) > 0; });
    if (start != nullptr) {
      pp.reversed = start != &first;
      pp.start_bound = true;
      return;
    }
    SeedPlan fwd = EstimateSeedCount(first, pushdown.For(first.var), graph_);
    SeedPlan rev = EstimateSeedCount(last, pushdown.For(last.var), graph_);
    pp.reversed = rev.count < fwd.count;
    pp.seeds = SeedSet::Of(pp.reversed ? rev : fwd,
                           pp.reversed ? last : first, graph_);
  }

  bool MatchFrom(size_t part_idx, FrameBinding& binding) {
    if (part_idx == parts_->size()) return sink_(binding);
    const PreparedPart& pp = (*parts_)[part_idx];
    return MatchChainFrom(pp, part_idx, binding);
  }

  static PatternPart Reverse(const PatternPart& part) {
    PatternPart rev;
    rev.nodes.assign(part.nodes.rbegin(), part.nodes.rend());
    rev.rels.assign(part.rels.rbegin(), part.rels.rend());
    return rev;
  }

  ResolvedPart Resolve(const PatternPart& part, const VarTable& vars,
                       const Pushdown& pushdown) const {
    ResolvedPart rp;
    rp.nodes.reserve(part.nodes.size());
    rp.rels.reserve(part.rels.size());
    for (const NodePattern& n : part.nodes) {
      rp.nodes.push_back(ResolveNode(graph_, vars, pushdown, n));
    }
    for (const RelPattern& r : part.rels) {
      rp.rels.push_back(ResolveRel(graph_, vars, pushdown, r));
    }
    return rp;
  }

  /// Evaluate the pushed-down filters of node `id`, just bound to `rn`'s
  /// variable: a compiled filter reads one column cell (a node of another
  /// label fails the variable's labeled pattern anyway), the rest Eval.
  bool PassesFilters(const ResolvedNode& rn, NodeId id,
                     const FrameBinding& binding) const {
    if (rn.pushdown == nullptr) return true;
    for (const PushdownFilter& f : *rn.pushdown) {
      if (f.label_id == kNoSymbol) {
        if (!EvalTrue(*f.expr, binding)) return false;
        continue;
      }
      const Node& node = graph_.node(id);
      if (node.label_id != f.label_id ||
          f.filter.Matches(graph_.ShardOf(id), node.label_pos) == f.negated) {
        return false;
      }
    }
    return true;
  }

  /// The pushed-down filters of a relationship variable (Eval).
  bool PassesFilters(const ResolvedRel& rr,
                     const FrameBinding& binding) const {
    if (rr.pushdown == nullptr) return true;
    for (const PushdownFilter& f : *rr.pushdown) {
      if (!EvalTrue(*f.expr, binding)) return false;
    }
    return true;
  }

  bool EvalTrue(const CypherExpr& e, const FrameBinding& binding) const {
    auto v = eval_.Eval(e, binding);
    return v.ok() && CypherEvaluator::Truthy(v.value());
  }

  bool MatchChainFrom(const PreparedPart& pp, size_t part_idx,
                      FrameBinding& binding) {
    const ResolvedPart& rp = pp.chain();
    bool reversed = pp.reversed;
    const ResolvedNode& rseed = rp.nodes[0];
    const SeedSet& seeds = pp.seeds;
    // Bind/unbind the seed variable in place: Extend() restores the binding
    // on backtrack, so the whole search threads one binding with no copies.
    bool bindable = !rseed.pat->var.empty() && !NodeBound(binding, rseed);
    bool keep_going = true;
    // Incremental standing hunts restrict part-0 seeds to the caller's
    // dirty-node set; deeper parts always see the whole graph.
    const std::unordered_set<NodeId>* seed_filter =
        part_idx == 0 ? options_.top_seed_filter : nullptr;
    auto visit = [&](NodeId seed) {
      if (seed_filter != nullptr && seed_filter->count(seed) == 0) return true;
      if (stats_ != nullptr) ++stats_->seed_candidates;
      if (!rseed.Matches(graph_.node(seed), graph_)) return true;
      if (bindable) {
        SetNode(binding, rseed, seed);
        if (!PassesFilters(rseed, seed, binding)) return true;
      }
      return Extend(rp, reversed, part_idx, 0, seed, binding);
    };
    // A parallel worker only walks the top-level seeds of its own shard;
    // deeper parts (and the serial matcher) walk every shard in order. The
    // shared LIMIT budget is also polled here, so a worker whose shard
    // yields no matches stops scanning as soon as its siblings fill the
    // limit instead of draining its seed set for nothing. A cancellation
    // flag (HuntService tickets) is polled at the same points, at every
    // part level, so cancelled queries stop at seed granularity.
    bool top = part_idx == 0;
    int only_shard = top ? seed_shard_ : -1;
    auto budget_spent = [&] {
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return true;
      }
      if (deadline_.Expired()) return true;
      return top && shared_claimed_ != nullptr &&
             shared_claimed_->load(std::memory_order_relaxed) >= shared_cap_;
    };
    if (pp.start_bound) {
      // An earlier part bound the start: its node is the only seed.
      keep_going = !budget_spent() && visit(BoundNode(binding, rseed));
    } else if (seeds.full_scan) {
      // A restricted walk iterates the shard's k-th node, so a morsel's
      // [lo, hi) positions map directly.
      if (only_shard >= 0) {
        const storage::ShardLayout& layout = graph_.layout();
        size_t end = std::min(
            morsel_hi_, layout.SizeOf(only_shard, graph_.node_count()));
        for (size_t k = morsel_lo_; k < end && keep_going; ++k) {
          keep_going = !budget_spent() && visit(layout.GlobalOf(only_shard, k));
        }
      } else {
        for (NodeId id = 0; id < graph_.node_count() && keep_going; ++id) {
          keep_going = !budget_spent() && visit(id);
        }
      }
    } else if (!seeds.spans.empty()) {
      for (size_t s = 0; s < seeds.spans.size() && keep_going; ++s) {
        if (only_shard >= 0 && s != static_cast<size_t>(only_shard)) continue;
        const std::vector<NodeId>& span = *seeds.spans[s];
        size_t begin = 0, end = span.size();
        if (only_shard >= 0) {
          begin = std::min(morsel_lo_, end);
          end = std::min(morsel_hi_, end);
        }
        for (size_t i = begin; i < end; ++i) {
          keep_going = !budget_spent() && visit(span[i]);
          if (!keep_going) break;
        }
      }
    } else if (only_shard >= 0 && !seeds.owned_by_shard.empty()) {
      // Plan-time per-shard sub-list: this morsel's seeds only, no
      // skip-scan over the shared materialized union.
      const std::vector<NodeId>& list = seeds.owned_by_shard[only_shard];
      size_t begin = std::min(morsel_lo_, list.size());
      size_t end = std::min(morsel_hi_, list.size());
      for (size_t i = begin; i < end; ++i) {
        keep_going = !budget_spent() && visit(list[i]);
        if (!keep_going) break;
      }
    } else {
      for (NodeId id : seeds.owned) {
        if (only_shard >= 0 &&
            graph_.ShardOf(id) != static_cast<size_t>(only_shard)) {
          continue;
        }
        keep_going = !budget_spent() && visit(id);
        if (!keep_going) break;
      }
    }
    if (bindable) ClearNode(binding, rseed);
    return keep_going;
  }

  /// Edges to expand from `node` for relationship `rrel`: the per-type
  /// adjacency group when the pattern is typed (touching only matching
  /// edges), the full list otherwise.
  const std::vector<EdgeId>& ExpansionEdges(NodeId node, bool reversed,
                                            const ResolvedRel& rrel) const {
    if (rrel.has_type) {
      return reversed ? graph_.InEdges(node, rrel.type_id)
                      : graph_.OutEdges(node, rrel.type_id);
    }
    return reversed ? graph_.InEdges(node) : graph_.OutEdges(node);
  }

  /// We are standing at `node`, having matched rp.nodes[idx]; match
  /// rp.rels[idx] and continue — into the next pattern part (and finally
  /// the sink) once this chain is exhausted.
  bool Extend(const ResolvedPart& rp, bool reversed, size_t part_idx,
              size_t idx, NodeId node, FrameBinding& binding) {
    if (idx == rp.rels.size()) return MatchFrom(part_idx + 1, binding);
    const ResolvedRel& rrel = rp.rels[idx];
    const RelPattern& rel = *rrel.pat;
    const ResolvedNode& next_rnode = rp.nodes[idx + 1];

    if (!rel.varlen) {
      for (EdgeId eid : ExpansionEdges(node, reversed, rrel)) {
        if (stats_ != nullptr) ++stats_->edges_traversed;
        const Edge& e = graph_.edge(eid);
        if (!rrel.Matches(e, graph_)) continue;
        if (EdgeUsed(binding, eid)) continue;
        if (!rel.var.empty() && EdgeBound(binding, rrel) &&
            BoundEdge(binding, rrel) != eid) {
          continue;
        }
        NodeId next = reversed ? e.src : e.dst;
        if (!AdmitNode(next, next_rnode, binding)) continue;

        // Bind, check pushed-down filters, recurse, unbind.
        bool node_was_new = BindNode(next_rnode, next, binding);
        bool edge_was_new = false;
        if (!rel.var.empty() && !EdgeBound(binding, rrel)) {
          SetEdge(binding, rrel, eid);
          edge_was_new = true;
        }
        PushUsedEdge(binding, eid);
        bool pass =
            (!node_was_new || PassesFilters(next_rnode, next, binding)) &&
            (!edge_was_new || PassesFilters(rrel, binding));
        bool keep_going = true;
        if (pass) {
          keep_going = Extend(rp, reversed, part_idx, idx + 1, next, binding);
        }
        PopUsedEdge(binding);
        if (edge_was_new) ClearEdge(binding, rrel);
        if (node_was_new) ClearNode(binding, next_rnode);
        if (!keep_going) return false;
      }
      return true;
    }

    // Variable-length expansion: bounded DFS. Type/prop constraints apply to
    // every hop (Neo4j semantics); the endpoint must match next_rnode.
    int max_len =
        rel.max_len >= 0 ? rel.max_len : options_.unbounded_varlen_cap;
    int min_len = std::max(0, rel.min_len);
    return VarlenDfs(rp, reversed, part_idx, idx, min_len, max_len, node,
                     /*depth=*/0, binding);
  }

  /// One level of the bounded variable-length DFS (a plain recursive member
  /// instead of a per-call std::function: seed loops over large graphs call
  /// this tens of thousands of times).
  bool VarlenDfs(const ResolvedPart& rp, bool reversed, size_t part_idx,
                 size_t idx, int min_len, int max_len, NodeId cur, int depth,
                 FrameBinding& binding) {
    const ResolvedRel& rrel = rp.rels[idx];
    const ResolvedNode& next_rnode = rp.nodes[idx + 1];
    if (depth >= min_len && AdmitNode(cur, next_rnode, binding) &&
        // A zero-length path may only close when start==end is allowed.
        (depth > 0 || min_len == 0)) {
      bool node_was_new = BindNode(next_rnode, cur, binding);
      bool keep_going = true;
      if (!node_was_new || PassesFilters(next_rnode, cur, binding)) {
        keep_going = Extend(rp, reversed, part_idx, idx + 1, cur, binding);
      }
      if (node_was_new) ClearNode(binding, next_rnode);
      if (!keep_going) return false;
    }
    if (depth == max_len) return true;
    for (EdgeId eid : ExpansionEdges(cur, reversed, rrel)) {
      if (stats_ != nullptr) ++stats_->edges_traversed;
      const Edge& e = graph_.edge(eid);
      if (!rrel.Matches(e, graph_)) continue;
      if (EdgeUsed(binding, eid)) continue;
      PushUsedEdge(binding, eid);
      bool keep_going = VarlenDfs(rp, reversed, part_idx, idx, min_len,
                                  max_len, reversed ? e.src : e.dst,
                                  depth + 1, binding);
      PopUsedEdge(binding);
      if (!keep_going) return false;
    }
    return true;
  }

  bool AdmitNode(NodeId id, const ResolvedNode& rnode,
                 const FrameBinding& binding) const {
    if (!rnode.Matches(graph_.node(id), graph_)) return false;
    if (NodeBound(binding, rnode) && BoundNode(binding, rnode) != id) {
      return false;
    }
    return true;
  }

  /// Returns true if this call introduced the binding (caller must unbind).
  bool BindNode(const ResolvedNode& rnode, NodeId id,
                FrameBinding& binding) const {
    if (rnode.pat->var.empty()) return false;
    if (NodeBound(binding, rnode)) return false;
    SetNode(binding, rnode, id);
    return true;
  }

  const PropertyGraph& graph_;
  const MatchOptions& options_;
  const CypherEvaluator& eval_;
  MatchStats* stats_;
  RowSink& sink_;
  std::vector<PreparedPart> own_parts_;
  // Either &own_parts_ (after PrepareParts) or a sharing matcher's parts
  // (SharePreparedParts); immutable once matching starts.
  const std::vector<PreparedPart>* parts_ = &own_parts_;
  int seed_shard_ = -1;  // -1: walk every shard (serial matcher)
  // Morsel sub-range of the restricted shard's seed list (positions, not
  // ids).
  size_t morsel_lo_ = 0;
  size_t morsel_hi_ = static_cast<size_t>(-1);
  const std::atomic<size_t>* shared_claimed_ = nullptr;
  size_t shared_cap_ = 0;
  DeadlinePoller deadline_;  // polled with the cancel flag / LIMIT budget
};

Result<GraphBlockResult> RunPipeline(
    const CypherQuery& query, const PropertyGraph& graph,
    const MatchOptions& options, MatchStats* stats, const VarTable& vars,
    const Pushdown& pushdown, const CypherEvaluator& eval,
    obs::TraceSpan::Clock::time_point start) {
  GraphBlockResult result;
  for (const CypherReturnItem& item : query.items) {
    result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                : item.alias);
  }

  // LIMIT pushes into the matcher; the sink's seen-set makes it count
  // post-dedup rows under DISTINCT.
  size_t local_cap = query.limit >= 0 ? static_cast<size_t>(query.limit)
                                      : static_cast<size_t>(-1);

  // The serial run counts into its own stats, which its worker span
  // carries; a parallel run's workers count into theirs.
  MatchStats serial_stats;
  storage::WorkerRows serial_rs;
  RowSink sink(query, eval, pushdown.residual, /*partition_distinct=*/false,
               local_cap, /*shared_claimed=*/nullptr, /*shared_cap=*/0,
               &serial_stats, &serial_rs);
  Matcher matcher(graph, options, eval, &serial_stats, sink);
  // Structural validation always runs, so a LIMIT 0 query still reports
  // malformed-pattern errors; only the search itself is skipped (runtime
  // evaluation errors are suppressed past a satisfied limit, and 0 is
  // satisfied up front).
  RAPTOR_RETURN_NOT_OK(matcher.PrepareParts(query.patterns, vars, pushdown));
  if (query.limit != 0) {
    FrameBinding binding;
    InitBinding(binding, vars);
    // Fan out under the shared rule (storage/shard_parallel.h), sized by
    // the top-level seed set that PrepareParts planned; every morsel
    // worker shares it through the prepared parts.
    bool parallel =
        !query.patterns.empty() &&
        storage::FanOut(options.parallel_shards, graph.shard_count(),
                        query.limit, options.parallel_min_seeds, [&] {
                          return matcher.TopSeeds().SeedCount(graph);
                        });
    if (parallel) {
      // Pre-split any materialized seed union (multi-value probes,
      // dictionary seeds) into per-shard sub-lists so morsels slice them by position,
      // and count each shard's seeds under the iteration scheme
      // MatchChainFrom uses (full-scan positions, span offsets, or the
      // pre-split owned sub-lists).
      SeedSet& top_seeds = matcher.TopSeeds();
      top_seeds.SplitOwnedByShard(graph);
      std::vector<size_t> counts(graph.shard_count(), 0);
      for (size_t s = 0; s < counts.size(); ++s) {
        if (top_seeds.full_scan) {
          counts[s] = graph.layout().SizeOf(s, graph.node_count());
        } else if (!top_seeds.spans.empty()) {
          counts[s] = top_seeds.spans[s]->size();
        } else if (!top_seeds.owned_by_shard.empty()) {
          counts[s] = top_seeds.owned_by_shard[s].size();
        }
      }
      storage::ShardRowBudget budget(query.limit, query.distinct);
      RAPTOR_RETURN_NOT_OK(storage::RunMorsels(
          counts, options.morsel_size, options.parallel_shards,
          query.distinct, options.trace, stats, &result.rows, [&] {
            // Per-worker evaluator (mutable IN-list / slot caches); a
            // per-morsel sink + matcher so every morsel owns its rows and
            // error status.
            return [&, worker_eval = CypherEvaluator(graph, vars)](
                       const storage::Morsel& mo, MatchStats* ws,
                       storage::WorkerRows* rs) {
              RowSink morsel_sink(query, worker_eval, pushdown.residual,
                                  /*partition_distinct=*/query.distinct,
                                  budget.local_cap, budget.shared_claimed(),
                                  budget.shared_cap, ws, rs);
              Matcher morsel_matcher(graph, options, worker_eval, ws,
                                     morsel_sink);
              morsel_matcher.SharePreparedParts(matcher);
              morsel_matcher.RestrictTopSeedsToMorsel(
                  static_cast<int>(mo.shard), mo.lo, mo.hi);
              if (budget.shared) {
                morsel_matcher.SetSharedRowBudget(&budget.claimed,
                                                  budget.shared_cap);
              }
              FrameBinding morsel_binding;
              InitBinding(morsel_binding, vars);
              morsel_matcher.Run(morsel_binding);
              return morsel_sink.error();
            };
          }));
    } else {
      matcher.Run(binding);
      storage::WorkerSpan(options.trace, 0, start, serial_stats);
      if (stats != nullptr) stats->Add(serial_stats);
      RAPTOR_RETURN_NOT_OK(sink.error());
      result.rows.Adopt(std::move(serial_rs.rows));
    }
  }
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("cypher query cancelled");
  }
  if (DeadlinePoller(options.deadline).ExpiredNow()) {
    return Status::Timeout("cypher query deadline exceeded");
  }

  // Parallel DISTINCT workers each keep up to LIMIT rows, so the merged
  // result can exceed it (storage/shard_parallel.h).
  if (query.limit >= 0 &&
      result.rows.row_count() > static_cast<size_t>(query.limit)) {
    result.rows.Truncate(static_cast<size_t>(query.limit));
  }
  return result;
}

}  // namespace

void MatchStats::Add(const MatchStats& other) {
  seed_candidates += other.seed_candidates;
  edges_traversed += other.edges_traversed;
  bindings_emitted += other.bindings_emitted;
  rows_emitted += other.rows_emitted;
  morsels_executed += other.morsels_executed;
  morsels_stolen += other.morsels_stolen;
}

void MatchStats::WriteSpan(obs::TraceSpan* span) const {
  if (span == nullptr) return;
  span->Set("seeds_visited", static_cast<int64_t>(seed_candidates));
  span->Set("edges_traversed", static_cast<int64_t>(edges_traversed));
  span->Set("rows_emitted", static_cast<int64_t>(rows_emitted));
  span->Set("morsels_executed", static_cast<int64_t>(morsels_executed));
  span->Set("morsels_stolen", static_cast<int64_t>(morsels_stolen));
}

Result<GraphBlockResult> ExecuteCypherBlocks(const CypherQuery& query,
                                             const PropertyGraph& graph,
                                             const MatchOptions& options,
                                             MatchStats* stats) {
  auto start = obs::TraceSpan::Clock::now();
  // Intern every pattern variable into a dense slot up front; the frame
  // binding and the evaluator resolve variables through this table.
  VarTable vars;
  for (const PatternPart& part : query.patterns) {
    for (const NodePattern& n : part.nodes) {
      if (!n.var.empty()) vars.nodes.Intern(n.var);
    }
    for (const RelPattern& r : part.rels) {
      if (!r.var.empty()) vars.edges.Intern(r.var);
    }
  }

  CypherEvaluator eval(graph, vars);
  return RunPipeline(query, graph, options, stats, vars,
                     PlanPushdown(query, graph), eval, start);
}

Result<GraphResultSet> ExecuteCypher(const CypherQuery& query,
                                     const PropertyGraph& graph,
                                     const MatchOptions& options,
                                     MatchStats* stats) {
  auto blocks = ExecuteCypherBlocks(query, graph, options, stats);
  if (!blocks.ok()) return blocks.status();
  GraphResultSet result;
  result.columns = std::move(blocks.value().columns);
  result.rows = blocks.value().rows.Flatten();
  return result;
}

Result<GraphResultSet> GraphDatabase::Query(std::string_view cypher,
                                            MatchStats* stats) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return query.status();
  return ExecuteCypher(query.value(), graph_, options_, stats);
}

namespace {

/// Cache key for a memoized execution: the query text plus every option
/// that can change the result rows or their order (parallel merge order
/// depends on morsel/shard geometry, varlen expansion on the cap). Cancel,
/// deadline, and the cache pointer itself are deliberately excluded — they
/// never change a successful result.
std::string SubresultCacheKey(std::string_view cypher,
                              const MatchOptions& o) {
  std::string key(cypher);
  key += '\x1f';
  key += std::to_string(o.unbounded_varlen_cap) + ',' +
         std::to_string(o.morsel_size) + ',' +
         std::to_string(o.parallel_shards) + ',' +
         std::to_string(o.parallel_min_seeds);
  return key;
}

}  // namespace

Result<GraphBlockResult> GraphDatabase::QueryBlocks(
    std::string_view cypher, const MatchOptions& options,
    MatchStats* stats) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return query.status();
  // Shared-subresult hook (multi-query optimization): memoize full-scan
  // executions only. Seed-filtered (incremental) runs would poison the
  // cache with partial results, and parallel LIMIT row-claiming races the
  // shared budget, so both bypass it.
  auto run = [&] {
    return ExecuteCypherBlocks(query.value(), graph_, options, stats);
  };
  if (options.result_cache != nullptr && options.top_seed_filter == nullptr &&
      query.value().limit < 0) {
    return options.result_cache->GetOrRun(SubresultCacheKey(cypher, options),
                                          options.trace, run);
  }
  return run();
}

double EstimateCypherCost(const CypherQuery& query, const PropertyGraph& graph,
                          const MatchOptions& options) {
  // The pushdown split and seed estimate the matcher plans from.
  Pushdown pushdown = PlanPushdown(query, graph);
  // Seeds of the part that first binds each variable: a later part
  // starting at that variable runs once per such seed.
  std::unordered_map<std::string_view, double> binder_seeds;
  double total = 0.0;
  for (const PatternPart& part : query.patterns) {
    if (part.nodes.empty()) continue;
    double radius = 0.0;
    for (const RelPattern& r : part.rels) {
      int hops = 1;
      if (r.varlen) {
        hops = r.max_len < 0 ? options.unbounded_varlen_cap : r.max_len;
      }
      radius += static_cast<double>(std::max(hops, 1));
    }
    // Priced the way the matcher runs the part (ChooseDirection): from a
    // bound start once per binding, else from its cheaper end.
    double seeds = 0.0;
    const NodePattern* start =
        BoundStart(part, [&](const std::string& var) {
          return binder_seeds.count(var) > 0;
        });
    if (start != nullptr) {
      seeds = binder_seeds.at(start->var);
    } else {
      const NodePattern& first = part.nodes.front();
      const NodePattern& last = part.nodes.back();
      seeds = static_cast<double>(std::min(
          EstimateSeedCount(first, pushdown.For(first.var), graph).count,
          EstimateSeedCount(last, pushdown.For(last.var), graph).count));
    }
    total += seeds * (1.0 + radius);
    for (const NodePattern& n : part.nodes) {
      if (!n.var.empty()) binder_seeds.emplace(n.var, seeds);
    }
  }
  return total;
}

double GraphDatabase::EstimateCost(std::string_view cypher) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return 0.0;
  return EstimateCypherCost(query.value(), graph_, options_);
}

}  // namespace raptor::graphdb
