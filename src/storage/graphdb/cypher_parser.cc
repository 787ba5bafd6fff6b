#include "storage/graphdb/cypher_parser.h"

#include <limits>
#include <optional>

namespace raptor::graphdb {

namespace {

constexpr std::string_view kKeywords[] = {
    "MATCH", "WHERE", "RETURN",   "DISTINCT", "AND",  "OR",
    "NOT",   "IN",    "CONTAINS", "STARTS",   "ENDS", "WITH",
    "AS",    "LIMIT", "NULL",
};
constexpr std::string_view kTwoCharSymbols[] = {"->", "<=", ">=", "<>", ".."};

}  // namespace

const LexSpec kCypherLex{kKeywords, kTwoCharSymbols, "()[]{}:,.*-=<>+", '\'',
                         EscapeStyle::kBackslash, /*floats=*/true};

namespace {

std::unique_ptr<CypherExpr> MakeBinary(CypherBinaryOp op,
                                       std::unique_ptr<CypherExpr> lhs,
                                       std::unique_ptr<CypherExpr> rhs) {
  auto e = std::make_unique<CypherExpr>();
  e->kind = CypherExprKind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

class Parser : private TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<CypherQuery> Parse() {
    CypherQuery query;
    RAPTOR_RETURN_NOT_OK(ExpectKeyword("MATCH"));
    do {
      RAPTOR_ASSIGN_OR_RETURN(PatternPart part, ParsePatternPart());
      query.patterns.push_back(std::move(part));
    } while (AcceptSymbol(","));
    if (AcceptKeyword("WHERE")) {
      RAPTOR_ASSIGN_OR_RETURN(query.where, ParseExpr());
    }
    RAPTOR_RETURN_NOT_OK(ExpectKeyword("RETURN"));
    if (AcceptKeyword("DISTINCT")) query.distinct = true;
    do {
      CypherReturnItem item;
      RAPTOR_ASSIGN_OR_RETURN(item.expr, ParsePrimary());
      if (AcceptKeyword("AS")) {
        RAPTOR_ASSIGN_OR_RETURN(item.alias, Ident("alias after AS"));
      }
      query.items.push_back(std::move(item));
    } while (AcceptSymbol(","));
    if (AcceptKeyword("LIMIT")) {
      RAPTOR_ASSIGN_OR_RETURN(query.limit, Int("LIMIT count"));
    }
    if (!PeekKind(TokenKind::kEnd)) {
      return Err("trailing tokens: '" + Peek().text + "'");
    }
    return query;
  }

 private:
  Result<Value> ParseLiteralValue() {
    switch (Peek().kind) {
      case TokenKind::kInt: {
        RAPTOR_ASSIGN_OR_RETURN(int64_t v, Int("integer literal"));
        return Value(v);
      }
      case TokenKind::kFloat: {
        RAPTOR_ASSIGN_OR_RETURN(double v, Float("float literal"));
        return Value(v);
      }
      case TokenKind::kString:
        return Value(Next().text);
      default:
        if (AcceptKeyword("NULL")) return Value::Null();
        return Err("expected literal");
    }
  }

  Result<std::vector<PropConstraint>> ParseProps() {
    std::vector<PropConstraint> props;
    if (!AcceptSymbol("{")) return props;
    do {
      PropConstraint pc;
      RAPTOR_ASSIGN_OR_RETURN(pc.key, Ident("property name"));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(":"));
      RAPTOR_ASSIGN_OR_RETURN(pc.value, ParseLiteralValue());
      props.push_back(std::move(pc));
    } while (AcceptSymbol(","));
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("}"));
    return props;
  }

  Result<NodePattern> ParseNode() {
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("("));
    NodePattern node;
    if (PeekKind(TokenKind::kIdent)) node.var = Next().text;
    if (AcceptSymbol(":")) {
      RAPTOR_ASSIGN_OR_RETURN(node.label, Ident("label"));
    }
    RAPTOR_ASSIGN_OR_RETURN(node.props, ParseProps());
    RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
    return node;
  }

  Result<RelPattern> ParseRel() {
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("-"));
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("["));
    RelPattern rel;
    if (PeekKind(TokenKind::kIdent)) rel.var = Next().text;
    if (AcceptSymbol(":")) {
      RAPTOR_ASSIGN_OR_RETURN(rel.type, Ident("relationship type"));
    }
    if (AcceptSymbol("*")) {
      constexpr int64_t kMaxHops = std::numeric_limits<int>::max();
      rel.varlen = true;
      rel.min_len = 1;
      rel.max_len = -1;
      if (PeekKind(TokenKind::kInt)) {
        RAPTOR_ASSIGN_OR_RETURN(rel.min_len, Int("hop bound", kMaxHops));
        rel.max_len = rel.min_len;  // "*n" = exactly n unless ".." follows
      }
      if (AcceptSymbol("..")) {
        rel.max_len = -1;
        if (PeekKind(TokenKind::kInt)) {
          RAPTOR_ASSIGN_OR_RETURN(rel.max_len, Int("hop bound", kMaxHops));
        }
      }
    }
    RAPTOR_ASSIGN_OR_RETURN(rel.props, ParseProps());
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
    RAPTOR_RETURN_NOT_OK(ExpectSymbol("->"));
    return rel;
  }

  Result<PatternPart> ParsePatternPart() {
    PatternPart part;
    RAPTOR_ASSIGN_OR_RETURN(NodePattern first, ParseNode());
    part.nodes.push_back(std::move(first));
    while (PeekSymbol("-")) {
      RAPTOR_ASSIGN_OR_RETURN(RelPattern rel, ParseRel());
      part.rels.push_back(std::move(rel));
      RAPTOR_ASSIGN_OR_RETURN(NodePattern node, ParseNode());
      part.nodes.push_back(std::move(node));
    }
    return part;
  }

  Result<std::unique_ptr<CypherExpr>> ParseExpr() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAnd());
    while (AcceptKeyword("OR")) {
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseAnd());
      node = MakeBinary(CypherBinaryOp::kOr, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseAnd() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseNot());
    while (AcceptKeyword("AND")) {
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseNot());
      node = MakeBinary(CypherBinaryOp::kAnd, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseNot() {
    if (AcceptKeyword("NOT")) {
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kNot;
      RAPTOR_ASSIGN_OR_RETURN(e->lhs, ParseNot());
      return e;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<CypherExpr>> ParseAdditive() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParsePrimary());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      CypherBinaryOp op = Next().text == "+" ? CypherBinaryOp::kAdd
                                             : CypherBinaryOp::kSub;
      RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParsePrimary());
      node = MakeBinary(op, std::move(node), std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseComparison() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAdditive());
    std::optional<CypherBinaryOp> op;
    if (AcceptKeyword("CONTAINS")) {
      op = CypherBinaryOp::kContains;
    } else if (AcceptKeyword("STARTS")) {
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("WITH"));
      op = CypherBinaryOp::kStartsWith;
    } else if (AcceptKeyword("ENDS")) {
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("WITH"));
      op = CypherBinaryOp::kEndsWith;
    } else if (PeekKeyword("IN") ||
               (PeekKeyword("NOT") && PeekKeyword("IN", 1))) {
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kInList;
      e->negated = AcceptKeyword("NOT");
      e->lhs = std::move(node);
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("IN"));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("["));
      do {
        RAPTOR_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        e->in_list.push_back(std::move(v));
      } while (AcceptSymbol(","));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
      return e;
    } else {
      static const std::pair<std::string_view, CypherBinaryOp> kOps[] = {
          {"=", CypherBinaryOp::kEq},  {"<>", CypherBinaryOp::kNe},
          {"<=", CypherBinaryOp::kLe}, {">=", CypherBinaryOp::kGe},
          {"<", CypherBinaryOp::kLt},  {">", CypherBinaryOp::kGt},
      };
      for (const auto& [sym, cmp] : kOps) {
        if (AcceptSymbol(sym)) {
          op = cmp;
          break;
        }
      }
      if (!op.has_value()) return node;
    }
    RAPTOR_ASSIGN_OR_RETURN(auto rhs, ParseAdditive());
    return MakeBinary(*op, std::move(node), std::move(rhs));
  }

  Result<std::unique_ptr<CypherExpr>> ParsePrimary() {
    auto e = std::make_unique<CypherExpr>();
    if (PeekKind(TokenKind::kIdent)) {
      e->var = Next().text;
      e->kind = CypherExprKind::kVarRef;
      if (AcceptSymbol(".")) {
        e->kind = CypherExprKind::kPropRef;
        RAPTOR_ASSIGN_OR_RETURN(e->prop, Ident("property name"));
      }
      return e;
    }
    if (AcceptSymbol("(")) {
      RAPTOR_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    e->kind = CypherExprKind::kLiteral;
    RAPTOR_ASSIGN_OR_RETURN(e->literal, ParseLiteralValue());
    return e;
  }
};

}  // namespace

Result<CypherQuery> ParseCypher(std::string_view text) {
  RAPTOR_ASSIGN_OR_RETURN(auto tokens, Lex(text, kCypherLex));
  return Parser(std::move(tokens)).Parse();
}

}  // namespace raptor::graphdb
