#include "storage/relational/sql_ast.h"

#include "common/query_lexer.h"
#include "common/strings.h"
#include "storage/relational/sql_parser.h"

namespace raptor::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kLike: return "LIKE";
    case BinaryOp::kNotLike: return "NOT LIKE";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumn(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                       std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::unique_ptr<Expr> Expr::MakeNot(std::unique_ptr<Expr> inner) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnaryNot;
  e->lhs = std::move(inner);
  return e;
}

namespace {

std::string LiteralText(const Value& v) {
  if (v.is_text()) return QuoteString(kSqlLex, v.AsText());
  if (v.is_double()) return FormatFloat(v.AsDouble());
  return v.ToString();
}

/// The grammar level that reads `e` back: 3 a primary (a literal, a column
/// or a parenthesized AND/OR), 2 an additive chain, 1 a comparison, 0 NOT.
int Level(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return 3;
    case ExprKind::kBinary:
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) return 3;
      return e.op == BinaryOp::kAdd || e.op == BinaryOp::kSub ? 2 : 1;
    case ExprKind::kInList:
      return 1;
    case ExprKind::kUnaryNot:
      return 0;
  }
  return 0;
}

/// `e` where the parser reads a `level` operand, parenthesized if it binds
/// more loosely, so the printed text parses back to the same tree.
std::string Operand(const Expr& e, int level) {
  return Level(e) >= level ? e.ToString() : "(" + e.ToString() + ")";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return LiteralText(literal);
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kUnaryNot:
      return "NOT (" + lhs->ToString() + ")";
    case ExprKind::kInList: {
      std::vector<std::string> parts;
      parts.reserve(in_list.size());
      for (const Value& v : in_list) parts.push_back(LiteralText(v));
      return Operand(*lhs, 2) + (negated ? " NOT IN (" : " IN (") +
             Join(parts, ", ") + ")";
    }
    case ExprKind::kBinary: {
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        return "(" + lhs->ToString() + " " + BinaryOpName(op) + " " +
               rhs->ToString() + ")";
      }
      // Arithmetic and LIKE read their right operand as a primary.
      bool primary_rhs = op == BinaryOp::kAdd || op == BinaryOp::kSub ||
                         op == BinaryOp::kLike || op == BinaryOp::kNotLike;
      return Operand(*lhs, 2) + " " + BinaryOpName(op) + " " +
             Operand(*rhs, primary_rhs ? 3 : 2);
    }
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  std::vector<std::string> item_strs;
  for (const SelectItem& item : items) {
    if (item.star) {
      item_strs.push_back("*");
    } else {
      std::string s = item.expr->ToString();
      if (!item.alias.empty()) s += " AS " + item.alias;
      item_strs.push_back(std::move(s));
    }
  }
  out += Join(item_strs, ", ");
  out += " FROM ";
  std::vector<std::string> from_strs;
  for (const TableRef& t : from) {
    from_strs.push_back(t.alias.empty() ? t.table : t.table + " " + t.alias);
  }
  out += Join(from_strs, ", ");
  for (const JoinClause& j : joins) {
    out += " JOIN " + j.table.table;
    if (!j.table.alias.empty()) out += " " + j.table.alias;
    out += " ON " + j.on->ToString();
  }
  if (where) out += " WHERE " + where->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    std::vector<std::string> ord;
    for (const OrderItem& o : order_by) {
      ord.push_back(o.expr->ToString() + (o.descending ? " DESC" : ""));
    }
    out += Join(ord, ", ");
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

}  // namespace raptor::sql
