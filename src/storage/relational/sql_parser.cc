#include "storage/relational/sql_parser.h"

namespace raptor::sql {

namespace {

constexpr std::string_view kKeywords[] = {
    "SELECT", "DISTINCT", "FROM", "JOIN", "ON",    "WHERE", "AND",
    "OR",     "NOT",      "LIKE", "IN",   "ORDER", "BY",    "ASC",
    "DESC",   "LIMIT",    "AS",   "NULL",
};
constexpr std::string_view kTwoCharSymbols[] = {"<=", ">=", "!=", "<>"};

}  // namespace

const LexSpec kSqlLex{kKeywords, kTwoCharSymbols, "=<>(),.*+-", '\'',
                      EscapeStyle::kDoubled, /*floats=*/true};

namespace {

/// Recursive-descent parser over the token stream.
class Parser : private TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<SelectStmt> ParseSelectStmt() {
    SelectStmt stmt;
    RAPTOR_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    if (AcceptKeyword("DISTINCT")) stmt.distinct = true;
    // Select list.
    do {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        RAPTOR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          RAPTOR_ASSIGN_OR_RETURN(item.alias, Ident("alias after AS"));
        }
      }
      stmt.items.push_back(std::move(item));
    } while (AcceptSymbol(","));
    RAPTOR_RETURN_NOT_OK(ExpectKeyword("FROM"));
    do {
      RAPTOR_ASSIGN_OR_RETURN(TableRef tref, ParseTableRef());
      stmt.from.push_back(std::move(tref));
    } while (AcceptSymbol(","));
    while (AcceptKeyword("JOIN")) {
      JoinClause join;
      RAPTOR_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("ON"));
      RAPTOR_ASSIGN_OR_RETURN(join.on, ParseExpr());
      stmt.joins.push_back(std::move(join));
    }
    if (AcceptKeyword("WHERE")) {
      RAPTOR_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderItem item;
        RAPTOR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        item.descending = AcceptKeyword("DESC");
        if (!item.descending) AcceptKeyword("ASC");
        stmt.order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      RAPTOR_ASSIGN_OR_RETURN(stmt.limit, Int("LIMIT count"));
    }
    if (!PeekKind(TokenKind::kEnd)) {
      return Err("trailing tokens after statement: '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  Result<TableRef> ParseTableRef() {
    TableRef ref;
    RAPTOR_ASSIGN_OR_RETURN(ref.table, Ident("table name"));
    if (PeekKind(TokenKind::kIdent)) ref.alias = Next().text;
    return ref;
  }

  // expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<Expr>> ParseExpr() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAnd());
    while (AcceptKeyword("OR")) {
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseAnd());
      node = Expr::MakeBinary(BinaryOp::kOr, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseNot());
    while (AcceptKeyword("AND")) {
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseNot());
      node = Expr::MakeBinary(BinaryOp::kAnd, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (AcceptKeyword("NOT")) {
      RAPTOR_ASSIGN_OR_RETURN(auto inner, ParseNot());
      return Expr::MakeNot(std::move(inner));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParsePrimary());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      BinaryOp op = Next().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParsePrimary());
      node = Expr::MakeBinary(op, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAdditive());

    // LIKE / NOT LIKE / IN / NOT IN; a bare NOT belongs to ParseNot.
    bool negated = PeekKeyword("NOT") &&
                   (PeekKeyword("LIKE", 1) || PeekKeyword("IN", 1));
    if (negated) Next();
    if (AcceptKeyword("LIKE")) {
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParsePrimary());
      return Expr::MakeBinary(negated ? BinaryOp::kNotLike : BinaryOp::kLike,
                              std::move(node), std::move(rhs));
    }
    if (AcceptKeyword("IN")) {
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = negated;
      e->lhs = std::move(node);
      do {
        RAPTOR_ASSIGN_OR_RETURN(auto v, ParsePrimary());
        if (v->kind != ExprKind::kLiteral) {
          return Err("IN list must contain literals");
        }
        e->in_list.push_back(std::move(v->literal));
      } while (AcceptSymbol(","));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }

    static const std::pair<std::string_view, BinaryOp> kOps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<>", BinaryOp::kNe},
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (AcceptSymbol(sym)) {
        RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseAdditive());
        return Expr::MakeBinary(op, std::move(node), std::move(rhs));
      }
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInt: {
        RAPTOR_ASSIGN_OR_RETURN(int64_t v, Int("integer literal"));
        return Expr::MakeLiteral(Value(v));
      }
      case TokenKind::kFloat: {
        RAPTOR_ASSIGN_OR_RETURN(double v, Float("float literal"));
        return Expr::MakeLiteral(Value(v));
      }
      case TokenKind::kString:
        return Expr::MakeLiteral(Value(Next().text));
      case TokenKind::kKeyword:
        if (AcceptKeyword("NULL")) return Expr::MakeLiteral(Value::Null());
        return Err("unexpected keyword '" + tok.text + "'");
      case TokenKind::kIdent: {
        std::string first = Next().text;
        if (AcceptSymbol(".")) {
          RAPTOR_ASSIGN_OR_RETURN(std::string column,
                                  Ident("column name after '.'"));
          return Expr::MakeColumn(std::move(first), std::move(column));
        }
        return Expr::MakeColumn("", std::move(first));
      }
      case TokenKind::kSymbol:
        if (AcceptSymbol("(")) {
          RAPTOR_ASSIGN_OR_RETURN(auto inner, ParseExpr());
          RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        return Err("unexpected symbol '" + tok.text + "'");
      case TokenKind::kEnd:
        return Err("unexpected end of input");
    }
    return Err("unexpected token");
  }
};

}  // namespace

Result<SelectStmt> ParseSelect(std::string_view sql) {
  RAPTOR_ASSIGN_OR_RETURN(auto tokens, Lex(sql, kSqlLex));
  return Parser(std::move(tokens)).ParseSelectStmt();
}

}  // namespace raptor::sql
