// AST for the SQL subset the engine executes: SELECT with multi-table FROM,
// explicit JOIN ... ON, WHERE (AND/OR/NOT, comparisons, LIKE, IN), ORDER BY,
// LIMIT and DISTINCT. This covers everything the TBQL compiler emits plus
// the hand-written "giant SQL" baselines of Tables VIII/X.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/relational/value.h"

namespace raptor::sql {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnaryNot,
  kInList,
};

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLike,
  kNotLike,
  kAnd,
  kOr,
  kAdd,
  kSub,
};

const char* BinaryOpName(BinaryOp op);

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string table;   // alias; may be empty (unqualified)
  std::string column;

  // kBinary / kUnaryNot
  BinaryOp op = BinaryOp::kEq;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;   // null for kUnaryNot

  // kInList: lhs IN (list...); `negated` for NOT IN
  std::vector<Value> in_list;
  bool negated = false;

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumn(std::string table,
                                          std::string column);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> lhs,
                                          std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> MakeNot(std::unique_ptr<Expr> inner);

  /// Render back to SQL text (used by tests and the scheduler's constraint
  /// injection).
  std::string ToString() const;
};

struct SelectItem {
  std::unique_ptr<Expr> expr;  // column ref (general exprs render via eval)
  std::string alias;           // optional
  bool star = false;           // SELECT *
};

struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name

  const std::string& effective_alias() const {
    return alias.empty() ? table : alias;
  }
};

struct JoinClause {
  TableRef table;
  std::unique_ptr<Expr> on;
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;       // comma-separated FROM list
  std::vector<JoinClause> joins;    // explicit JOIN ... ON
  std::unique_ptr<Expr> where;      // may be null
  std::vector<OrderItem> order_by;
  long long limit = -1;             // -1 = no limit

  std::string ToString() const;
};

}  // namespace raptor::sql
