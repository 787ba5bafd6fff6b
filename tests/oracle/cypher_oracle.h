// Reference evaluator for the Cypher subset of storage/graphdb/cypher_ast.h:
// multi-part MATCH with shared variables and inline {k: v} constraints,
// fixed and variable-length relationships, WHERE with comparisons,
// CONTAINS / STARTS WITH / ENDS WITH, [NOT] IN, NOT, AND, OR and +/-,
// RETURN [DISTINCT] and LIMIT. It enumerates every full binding by nested
// loops over all node and edge ids, reading entities only from a GraphCopy
// — the labels, types, endpoints and property maps the test inserted, kept
// beside the PropertyGraph it checks. It never reads the graph itself: no
// frozen columns (the graph's only copy of its properties), adjacency
// lists, indexes, interned ids or threads, and no executor code. An absent
// property reads NULL, and fails every inline `{k: v}` constraint.
// Relationship uniqueness spans the whole MATCH: every part
// and every hop of a variable-length path. One row is emitted per binding,
// so each distinct edge sequence counts. The differential suite checks the
// real executor against it; keep it obviously correct rather than fast.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "storage/graphdb/cypher_ast.h"
#include "storage/graphdb/graph.h"

namespace raptor::oracle {

/// A PropertyGraph beside a record of everything inserted into it. Add*
/// forward to the graph and keep their own copy of the label / type,
/// endpoints and property map; the graph must start empty and grow only
/// through this copy, so the copy's positions are the graph's ids.
class GraphCopy {
 public:
  struct Node {
    std::string label;
    graphdb::PropertyMap props;
  };
  struct Edge {
    graphdb::NodeId src = 0;
    graphdb::NodeId dst = 0;
    std::string type;
    graphdb::PropertyMap props;
  };

  explicit GraphCopy(graphdb::PropertyGraph& graph) : graph_(graph) {}

  graphdb::NodeId AddNode(std::string label, graphdb::PropertyMap props) {
    nodes_.push_back({std::move(label), std::move(props)});
    return graph_.AddNode(nodes_.back().label, nodes_.back().props);
  }

  graphdb::EdgeId AddEdge(graphdb::NodeId src, graphdb::NodeId dst,
                          std::string type, graphdb::PropertyMap props) {
    edges_.push_back({src, dst, std::move(type), std::move(props)});
    const Edge& e = edges_.back();
    return graph_.AddEdge(src, dst, e.type, e.props);
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  graphdb::PropertyGraph& graph_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

class CypherOracle {
 public:
  using Row = std::vector<graphdb::Value>;

  /// Result rows of `query` in enumeration order (parts in MATCH order,
  /// node and edge ids ascending), then DISTINCT and LIMIT. A
  /// variable-length relationship without an upper bound expands at most
  /// `unbounded_varlen_cap` hops, and binds no variable.
  static Result<std::vector<Row>> Run(const graphdb::CypherQuery& query,
                                      const GraphCopy& graph,
                                      int unbounded_varlen_cap) {
    CypherOracle o(query, graph, unbounded_varlen_cap);
    RAPTOR_RETURN_NOT_OK(o.MatchPart(0));
    std::vector<Row> rows;
    std::unordered_set<Row, sql::ValueRowHash, sql::ValueRowEq> seen;
    for (Row& row : o.out_) {
      if (query.distinct && !seen.insert(row).second) continue;
      rows.push_back(std::move(row));
    }
    if (query.limit >= 0 && rows.size() > static_cast<size_t>(query.limit)) {
      rows.resize(static_cast<size_t>(query.limit));
    }
    return rows;
  }

 private:
  CypherOracle(const graphdb::CypherQuery& query, const GraphCopy& graph,
               int cap)
      : query_(query), nodes_in_(graph.nodes()), edges_in_(graph.edges()),
        cap_(cap) {}

  /// Bind the first node of part `p` to every node in turn.
  Status MatchPart(size_t p) {
    if (p == query_.patterns.size()) return Emit();
    const graphdb::PatternPart& part = query_.patterns[p];
    if (part.nodes.empty()) {
      return Status::InvalidArgument("oracle: empty pattern part");
    }
    for (graphdb::NodeId n = 0; n < nodes_in_.size(); ++n) {
      RAPTOR_RETURN_NOT_OK(
          WithNode(part.nodes[0], n, [&] { return MatchHop(p, 0, n); }));
    }
    return Status::OK();
  }

  /// Standing at `cur` (bound to part.nodes[i]), match relationship i.
  Status MatchHop(size_t p, size_t i, graphdb::NodeId cur) {
    const graphdb::PatternPart& part = query_.patterns[p];
    if (i == part.rels.size()) return MatchPart(p + 1);
    const graphdb::RelPattern& rel = part.rels[i];
    const graphdb::NodePattern& next = part.nodes[i + 1];
    if (rel.varlen) {
      int max_len = rel.max_len >= 0 ? rel.max_len : cap_;
      return Walk(p, i, std::max(0, rel.min_len), max_len, cur, 0);
    }
    for (graphdb::EdgeId e = 0; e < edges_in_.size(); ++e) {
      const GraphCopy::Edge& edge = edges_in_[e];
      if (edge.src != cur || !EdgeMatches(rel, edge) || Used(e)) continue;
      bool bind = !rel.var.empty();
      if (bind && edges_.count(rel.var) > 0) {
        if (edges_[rel.var] != e) continue;
        bind = false;
      }
      if (bind) edges_[rel.var] = e;
      used_.push_back(e);
      Status st = WithNode(next, edge.dst,
                           [&] { return MatchHop(p, i + 1, edge.dst); });
      used_.pop_back();
      if (bind) edges_.erase(rel.var);
      RAPTOR_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  /// Every path of `depth`..max_len further hops from `cur` whose edges all
  /// match relationship i and are unused; paths of min_len hops or more
  /// close at part.nodes[i + 1].
  Status Walk(size_t p, size_t i, int min_len, int max_len,
              graphdb::NodeId cur, int depth) {
    const graphdb::PatternPart& part = query_.patterns[p];
    if (depth >= min_len) {
      RAPTOR_RETURN_NOT_OK(WithNode(part.nodes[i + 1], cur,
                                    [&] { return MatchHop(p, i + 1, cur); }));
    }
    if (depth >= max_len) return Status::OK();
    for (graphdb::EdgeId e = 0; e < edges_in_.size(); ++e) {
      const GraphCopy::Edge& edge = edges_in_[e];
      if (edge.src != cur || !EdgeMatches(part.rels[i], edge) || Used(e)) {
        continue;
      }
      used_.push_back(e);
      Status st = Walk(p, i, min_len, max_len, edge.dst, depth + 1);
      used_.pop_back();
      RAPTOR_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  /// Run `then` with `pat` bound to node `id`, if the node fits the pattern
  /// and any earlier binding of the same variable.
  template <class Fn>
  Status WithNode(const graphdb::NodePattern& pat, graphdb::NodeId id,
                  Fn&& then) {
    const GraphCopy::Node& node = nodes_in_[id];
    if (!pat.label.empty() && node.label != pat.label) return Status::OK();
    if (!PropsMatch(pat.props, node.props)) return Status::OK();
    if (pat.var.empty()) return then();
    auto it = nodes_.find(pat.var);
    if (it != nodes_.end()) {
      return it->second == id ? then() : Status::OK();
    }
    nodes_[pat.var] = id;
    Status st = then();
    nodes_.erase(pat.var);
    return st;
  }

  bool EdgeMatches(const graphdb::RelPattern& rel,
                   const GraphCopy::Edge& edge) const {
    if (!rel.type.empty() && edge.type != rel.type) return false;
    return PropsMatch(rel.props, edge.props);
  }

  static bool PropsMatch(const std::vector<graphdb::PropConstraint>& props,
                         const graphdb::PropertyMap& map) {
    for (const graphdb::PropConstraint& pc : props) {
      auto it = map.find(pc.key);
      if (it == map.end() || it->second.Compare(pc.value) != 0) return false;
    }
    return true;
  }

  bool Used(graphdb::EdgeId e) const {
    return std::find(used_.begin(), used_.end(), e) != used_.end();
  }

  /// A complete binding: apply WHERE, project RETURN.
  Status Emit() {
    if (query_.where) {
      auto cond = Eval(*query_.where);
      if (!cond.ok()) return cond.status();
      if (!Truthy(cond.value())) return Status::OK();
    }
    Row row;
    for (const graphdb::CypherReturnItem& item : query_.items) {
      auto v = Eval(*item.expr);
      if (!v.ok()) return v.status();
      row.push_back(std::move(v).value());
    }
    out_.push_back(std::move(row));
    return Status::OK();
  }

  Result<graphdb::Value> Eval(const graphdb::CypherExpr& e) const {
    using graphdb::CypherBinaryOp;
    using graphdb::CypherExprKind;
    using graphdb::Value;
    auto truth = [](bool b) { return Value(static_cast<int64_t>(b)); };
    switch (e.kind) {
      case CypherExprKind::kLiteral:
        return e.literal;
      case CypherExprKind::kVarRef:
      case CypherExprKind::kPropRef: {
        auto n = nodes_.find(e.var);
        auto r = edges_.find(e.var);
        if (n == nodes_.end() && r == edges_.end()) {
          return Status::NotFound("unbound variable: " + e.var);
        }
        uint64_t id = n != nodes_.end() ? n->second : r->second;
        if (e.kind == CypherExprKind::kVarRef) {
          return Value(static_cast<int64_t>(id));
        }
        const graphdb::PropertyMap& map =
            n != nodes_.end() ? nodes_in_[id].props : edges_in_[id].props;
        auto it = map.find(e.prop);
        return it != map.end() ? it->second : Value::Null();
      }
      case CypherExprKind::kNot: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        return truth(!Truthy(v.value()));
      }
      case CypherExprKind::kInList: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        bool found = false;
        for (const Value& item : e.in_list) {
          found = found || v.value().Compare(item) == 0;
        }
        return truth(found != e.negated);
      }
      case CypherExprKind::kBinary:
        break;
    }
    auto l = Eval(*e.lhs);
    if (!l.ok()) return l.status();
    // AND / OR decide on the left operand when they can.
    if (e.op == CypherBinaryOp::kAnd && !Truthy(l.value())) return truth(false);
    if (e.op == CypherBinaryOp::kOr && Truthy(l.value())) return truth(true);
    auto r = Eval(*e.rhs);
    if (!r.ok()) return r.status();
    const Value& x = l.value();
    const Value& y = r.value();
    switch (e.op) {
      case CypherBinaryOp::kAnd:
      case CypherBinaryOp::kOr: return truth(Truthy(y));
      case CypherBinaryOp::kEq: return truth(x.Compare(y) == 0);
      case CypherBinaryOp::kNe: return truth(x.Compare(y) != 0);
      case CypherBinaryOp::kLt: return truth(x.Compare(y) < 0);
      case CypherBinaryOp::kLe: return truth(x.Compare(y) <= 0);
      case CypherBinaryOp::kGt: return truth(x.Compare(y) > 0);
      case CypherBinaryOp::kGe: return truth(x.Compare(y) >= 0);
      case CypherBinaryOp::kContains:
        return truth(x.ToString().find(y.ToString()) != std::string::npos);
      case CypherBinaryOp::kStartsWith:
        return truth(StartsWith(x.ToString(), y.ToString()));
      case CypherBinaryOp::kEndsWith:
        return truth(EndsWith(x.ToString(), y.ToString()));
      case CypherBinaryOp::kAdd:
      case CypherBinaryOp::kSub: {
        bool add = e.op == CypherBinaryOp::kAdd;
        if (x.is_double() || y.is_double()) {
          double a = x.AsDouble(), b = y.AsDouble();
          return Value(add ? a + b : a - b);
        }
        int64_t a = x.AsInt(), b = y.AsInt();
        return Value(add ? a + b : a - b);
      }
    }
    return Status::Unsupported("oracle: operator outside the subset");
  }

  /// Cypher truthiness as the executor applies it: NULL, zero and the
  /// empty string are false.
  static bool Truthy(const graphdb::Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  const graphdb::CypherQuery& query_;
  const std::vector<GraphCopy::Node>& nodes_in_;
  const std::vector<GraphCopy::Edge>& edges_in_;
  int cap_;
  std::map<std::string, graphdb::NodeId> nodes_;
  std::map<std::string, graphdb::EdgeId> edges_;
  std::vector<graphdb::EdgeId> used_;  // relationship uniqueness
  std::vector<Row> out_;
};

}  // namespace raptor::oracle
