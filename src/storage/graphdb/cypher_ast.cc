#include "storage/graphdb/cypher_ast.h"

#include "common/query_lexer.h"
#include "common/strings.h"
#include "storage/graphdb/cypher_parser.h"

namespace raptor::graphdb {

const char* CypherBinaryOpName(CypherBinaryOp op) {
  switch (op) {
    case CypherBinaryOp::kEq: return "=";
    case CypherBinaryOp::kNe: return "<>";
    case CypherBinaryOp::kLt: return "<";
    case CypherBinaryOp::kLe: return "<=";
    case CypherBinaryOp::kGt: return ">";
    case CypherBinaryOp::kGe: return ">=";
    case CypherBinaryOp::kContains: return "CONTAINS";
    case CypherBinaryOp::kStartsWith: return "STARTS WITH";
    case CypherBinaryOp::kEndsWith: return "ENDS WITH";
    case CypherBinaryOp::kAnd: return "AND";
    case CypherBinaryOp::kOr: return "OR";
    case CypherBinaryOp::kAdd: return "+";
    case CypherBinaryOp::kSub: return "-";
  }
  return "?";
}

namespace {

std::string LiteralText(const Value& v) {
  if (v.is_text()) return QuoteString(kCypherLex, v.AsText());
  if (v.is_double()) return FormatFloat(v.AsDouble());
  return v.ToString();
}

/// The grammar level that reads `e` back: 3 a primary (a literal, a
/// variable, a property or a parenthesized AND/OR), 2 an additive chain,
/// 1 a comparison, 0 NOT.
int Level(const CypherExpr& e) {
  switch (e.kind) {
    case CypherExprKind::kLiteral:
    case CypherExprKind::kPropRef:
    case CypherExprKind::kVarRef:
      return 3;
    case CypherExprKind::kBinary:
      if (e.op == CypherBinaryOp::kAnd || e.op == CypherBinaryOp::kOr) {
        return 3;
      }
      if (e.op == CypherBinaryOp::kAdd || e.op == CypherBinaryOp::kSub) {
        return 2;
      }
      return 1;
    case CypherExprKind::kInList:
      return 1;
    case CypherExprKind::kNot:
      return 0;
  }
  return 0;
}

/// `e` where the parser reads a `level` operand, parenthesized if it binds
/// more loosely, so the printed text parses back to the same tree.
std::string Operand(const CypherExpr& e, int level) {
  return Level(e) >= level ? e.ToString() : "(" + e.ToString() + ")";
}

std::string PropsToString(const std::vector<PropConstraint>& props) {
  if (props.empty()) return "";
  std::vector<std::string> parts;
  parts.reserve(props.size());
  for (const PropConstraint& p : props) {
    parts.push_back(p.key + ": " + LiteralText(p.value));
  }
  return " {" + Join(parts, ", ") + "}";
}

}  // namespace

std::string CypherExpr::ToString() const {
  switch (kind) {
    case CypherExprKind::kLiteral:
      return LiteralText(literal);
    case CypherExprKind::kPropRef:
      return var + "." + prop;
    case CypherExprKind::kVarRef:
      return var;
    case CypherExprKind::kNot:
      return "NOT (" + lhs->ToString() + ")";
    case CypherExprKind::kInList: {
      std::vector<std::string> parts;
      parts.reserve(in_list.size());
      for (const Value& v : in_list) parts.push_back(LiteralText(v));
      return Operand(*lhs, 2) + (negated ? " NOT IN [" : " IN [") +
             Join(parts, ", ") + "]";
    }
    case CypherExprKind::kBinary: {
      if (op == CypherBinaryOp::kAnd || op == CypherBinaryOp::kOr) {
        return "(" + lhs->ToString() + " " + CypherBinaryOpName(op) + " " +
               rhs->ToString() + ")";
      }
      // Arithmetic reads its right operand as a primary.
      bool primary_rhs =
          op == CypherBinaryOp::kAdd || op == CypherBinaryOp::kSub;
      return Operand(*lhs, 2) + " " + CypherBinaryOpName(op) + " " +
             Operand(*rhs, primary_rhs ? 3 : 2);
    }
  }
  return "?";
}

std::string CypherQuery::ToString() const {
  std::string out = "MATCH ";
  std::vector<std::string> parts;
  for (const PatternPart& part : patterns) {
    std::string s;
    for (size_t i = 0; i < part.nodes.size(); ++i) {
      const NodePattern& n = part.nodes[i];
      s += "(" + n.var;
      if (!n.label.empty()) s += ":" + n.label;
      s += PropsToString(n.props) + ")";
      if (i < part.rels.size()) {
        const RelPattern& r = part.rels[i];
        s += "-[" + r.var;
        if (!r.type.empty()) s += ":" + r.type;
        if (r.varlen) {
          s += "*" + std::to_string(r.min_len) + "..";
          if (r.max_len >= 0) s += std::to_string(r.max_len);
        }
        s += PropsToString(r.props) + "]->";
      }
    }
    parts.push_back(std::move(s));
  }
  out += Join(parts, ", ");
  if (where) out += " WHERE " + where->ToString();
  out += " RETURN ";
  if (distinct) out += "DISTINCT ";
  std::vector<std::string> item_strs;
  for (const CypherReturnItem& item : items) {
    std::string s = Operand(*item.expr, 3);
    if (!item.alias.empty()) s += " AS " + item.alias;
    item_strs.push_back(std::move(s));
  }
  out += Join(item_strs, ", ");
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

}  // namespace raptor::graphdb
