#include "tbql/parser.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/strings.h"

namespace raptor::tbql {

namespace {

constexpr std::string_view kKeywords[] = {
    "file", "proc", "ip", "as",   "with",   "before",   "after", "within",
    "from", "to",   "at", "last", "return", "distinct", "in",    "not",
};
constexpr std::string_view kTwoCharSymbols[] = {"~>", "->", "&&", "||",
                                                "!=", "<=", ">="};

}  // namespace

const LexSpec kTbqlLex{kKeywords, kTwoCharSymbols, "[](),.!=<>~-", '"',
                       EscapeStyle::kBackslash, /*floats=*/false};

namespace {

Result<audit::Timestamp> UnitScale(const std::string& unit) {
  static const std::unordered_map<std::string, audit::Timestamp> kUnits = {
      {"us", 1},
      {"ms", 1000},
      {"sec", 1000000},
      {"second", 1000000},
      {"seconds", 1000000},
      {"min", 60LL * 1000000},
      {"minute", 60LL * 1000000},
      {"minutes", 60LL * 1000000},
      {"hour", 3600LL * 1000000},
      {"hours", 3600LL * 1000000},
      {"day", 86400LL * 1000000},
      {"days", 86400LL * 1000000},
  };
  auto it = kUnits.find(unit);
  if (it == kUnits.end()) {
    return Status::ParseError("unknown time unit: " + unit);
  }
  return it->second;
}

class Parser : private TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<TbqlQuery> Parse() {
    TbqlQuery query;
    // Global filters until the first entity-type keyword.
    while (!PeekEntityType() && !PeekKeyword("return") &&
           !PeekKind(TokenKind::kEnd)) {
      if (PeekWindowStart()) {
        RAPTOR_ASSIGN_OR_RETURN(TimeWindow w, ParseWindow());
        query.global_windows.push_back(w);
      } else {
        RAPTOR_ASSIGN_OR_RETURN(auto f, ParseAttrExpr());
        query.global_attr_filters.push_back(std::move(f));
      }
    }
    // Patterns.
    while (PeekEntityType()) {
      RAPTOR_ASSIGN_OR_RETURN(Pattern p, ParsePattern());
      query.patterns.push_back(std::move(p));
    }
    if (query.patterns.empty()) {
      return Err("a TBQL query requires at least one pattern");
    }
    // Relationship clause.
    if (AcceptKeyword("with")) {
      do {
        RAPTOR_RETURN_NOT_OK(ParseRelItem(&query));
      } while (AcceptSymbol(","));
    }
    // Return clause.
    RAPTOR_RETURN_NOT_OK(ExpectKeyword("return"));
    if (AcceptKeyword("distinct")) query.distinct = true;
    do {
      ReturnItem item;
      RAPTOR_ASSIGN_OR_RETURN(item.id, Ident("return item"));
      if (AcceptSymbol(".")) {
        RAPTOR_ASSIGN_OR_RETURN(item.attr, Ident("attribute name"));
      }
      query.returns.push_back(std::move(item));
    } while (AcceptSymbol(","));
    if (!PeekKind(TokenKind::kEnd)) {
      return Err("trailing tokens: '" + Peek().text + "'");
    }
    return query;
  }

 private:
  bool PeekEntityType() const {
    return PeekKeyword("file") || PeekKeyword("proc") || PeekKeyword("ip");
  }
  bool PeekWindowStart() const {
    return PeekKeyword("from") || PeekKeyword("at") || PeekKeyword("before") ||
           PeekKeyword("after") || PeekKeyword("last");
  }

  /// The time unit that follows, in microseconds; `amount` of it must fit
  /// a timestamp.
  Result<audit::Timestamp> ParseUnit(int64_t amount) {
    RAPTOR_ASSIGN_OR_RETURN(std::string unit, Ident("time unit"));
    RAPTOR_ASSIGN_OR_RETURN(audit::Timestamp scale, UnitScale(unit));
    if (amount > std::numeric_limits<audit::Timestamp>::max() / scale) {
      return Err("time span out of range");
    }
    return scale;
  }

  Result<TimeWindow> ParseWindow() {
    TimeWindow w;
    if (AcceptKeyword("from")) {
      w.kind = WindowKind::kRange;
      RAPTOR_ASSIGN_OR_RETURN(w.from, Int("integer timestamp"));
      RAPTOR_RETURN_NOT_OK(ExpectKeyword("to"));
      RAPTOR_ASSIGN_OR_RETURN(w.to, Int("integer timestamp"));
      return w;
    }
    if (AcceptKeyword("at")) {
      w.kind = WindowKind::kAt;
    } else if (AcceptKeyword("before")) {
      w.kind = WindowKind::kBefore;
    } else if (AcceptKeyword("after")) {
      w.kind = WindowKind::kAfter;
    } else if (AcceptKeyword("last")) {
      w.kind = WindowKind::kLast;
      RAPTOR_ASSIGN_OR_RETURN(int64_t amount, Int("amount after 'last'"));
      RAPTOR_ASSIGN_OR_RETURN(audit::Timestamp scale, ParseUnit(amount));
      w.last_amount = amount * scale;
      return w;
    } else {
      return Err("expected time window");
    }
    RAPTOR_ASSIGN_OR_RETURN(w.from, Int("integer timestamp"));
    return w;
  }

  /// A string or integer literal's text. Integers must fit int64, the type
  /// the backends compare them as.
  Result<std::string> ParseValue(std::string_view what, bool* is_number) {
    std::string text = Peek().text;
    *is_number = PeekKind(TokenKind::kInt);
    if (*is_number) {
      RAPTOR_RETURN_NOT_OK(Int(what).status());
    } else if (PeekKind(TokenKind::kString)) {
      Next();
    } else {
      return Err("expected " + std::string(what));
    }
    return text;
  }

  bool PeekValue() const {
    return PeekKind(TokenKind::kString) || PeekKind(TokenKind::kInt);
  }

  Result<CompareOp> ParseCompareOp() {
    static const std::pair<std::string_view, CompareOp> kOps[] = {
        {"=", CompareOp::kEq},  {"!=", CompareOp::kNe},
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (AcceptSymbol(sym)) return op;
    }
    return Err("expected comparison operator");
  }

  // ------------------------------------------------------------- attr_exp
  Result<std::unique_ptr<AttrExpr>> ParseAttrExpr() { return ParseAttrOr(); }

  Result<std::unique_ptr<AttrExpr>> ParseAttrOr() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAttrAnd());
    while (AcceptSymbol("||")) {
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kOr;
      e->lhs = std::move(node);
      RAPTOR_ASSIGN_OR_RETURN(e->rhs, ParseAttrAnd());
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrAnd() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseAttrUnary());
    while (AcceptSymbol("&&")) {
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kAnd;
      e->lhs = std::move(node);
      RAPTOR_ASSIGN_OR_RETURN(e->rhs, ParseAttrUnary());
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrUnary() {
    if (AcceptSymbol("!")) {
      auto e = std::make_unique<AttrExpr>();
      // "!value" bare-negation sugar, or !(...) general negation.
      if (PeekValue()) {
        e->kind = AttrExprKind::kBareValue;
        e->negated = true;
        RAPTOR_ASSIGN_OR_RETURN(e->value,
                                ParseValue("value", &e->value_is_number));
      } else {
        e->kind = AttrExprKind::kNot;
        RAPTOR_ASSIGN_OR_RETURN(e->lhs, ParseAttrUnary());
      }
      return e;
    }
    return ParseAttrPrimary();
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrPrimary() {
    if (AcceptSymbol("(")) {
      RAPTOR_ASSIGN_OR_RETURN(auto inner, ParseAttrExpr());
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    auto e = std::make_unique<AttrExpr>();
    if (PeekValue()) {
      e->kind = AttrExprKind::kBareValue;
      RAPTOR_ASSIGN_OR_RETURN(e->value,
                              ParseValue("value", &e->value_is_number));
      return e;
    }
    RAPTOR_ASSIGN_OR_RETURN(e->attr, Ident("attribute or value"));
    if (AcceptSymbol(".")) {
      e->qualifier = e->attr;
      RAPTOR_ASSIGN_OR_RETURN(e->attr, Ident("attribute name"));
    }
    // "attr not? in (v1, v2, ...)"
    bool neg = AcceptKeyword("not");
    if (AcceptKeyword("in")) {
      e->kind = AttrExprKind::kInList;
      e->negated = neg;
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        bool is_number = false;
        RAPTOR_ASSIGN_OR_RETURN(std::string v,
                                ParseValue("value in list", &is_number));
        e->values.push_back(std::move(v));
      } while (AcceptSymbol(","));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (neg) return Err("'not' must be followed by 'in'");
    // "attr bop value"
    e->kind = AttrExprKind::kCompare;
    RAPTOR_ASSIGN_OR_RETURN(e->op, ParseCompareOp());
    RAPTOR_ASSIGN_OR_RETURN(
        e->value, ParseValue("comparison value", &e->value_is_number));
    return e;
  }

  // --------------------------------------------------------------- op_exp
  Result<std::unique_ptr<OpExpr>> ParseOpExpr() { return ParseOpOr(); }

  Result<std::unique_ptr<OpExpr>> ParseOpOr() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseOpAnd());
    while (AcceptSymbol("||")) {
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kOr;
      e->lhs = std::move(node);
      RAPTOR_ASSIGN_OR_RETURN(e->rhs, ParseOpAnd());
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<OpExpr>> ParseOpAnd() {
    RAPTOR_ASSIGN_OR_RETURN(auto node, ParseOpUnary());
    while (AcceptSymbol("&&")) {
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kAnd;
      e->lhs = std::move(node);
      RAPTOR_ASSIGN_OR_RETURN(e->rhs, ParseOpUnary());
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<OpExpr>> ParseOpUnary() {
    if (AcceptSymbol("!")) {
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kNot;
      RAPTOR_ASSIGN_OR_RETURN(e->lhs, ParseOpUnary());
      return e;
    }
    if (AcceptSymbol("(")) {
      RAPTOR_ASSIGN_OR_RETURN(auto inner, ParseOpExpr());
      RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    // Operation names are plain identifiers.
    RAPTOR_ASSIGN_OR_RETURN(std::string name, Ident("operation name"));
    std::string op = ToLower(name);
    if (!audit::EventOpFromName(op).has_value()) {
      return Err("unknown operation: " + op);
    }
    auto e = std::make_unique<OpExpr>();
    e->kind = OpExprKind::kOp;
    e->op = std::move(op);
    return e;
  }

  // ----------------------------------------------------------- entity/patt
  Result<EntityRef> ParseEntity() {
    EntityRef ref;
    if (AcceptKeyword("file")) {
      ref.type = EntityType::kFile;
    } else if (AcceptKeyword("proc")) {
      ref.type = EntityType::kProcess;
    } else if (AcceptKeyword("ip")) {
      ref.type = EntityType::kNetwork;
    } else {
      return Err("expected entity type (file/proc/ip)");
    }
    RAPTOR_ASSIGN_OR_RETURN(ref.id, Ident("entity id"));
    if (AcceptSymbol("[")) {
      RAPTOR_ASSIGN_OR_RETURN(ref.filter, ParseAttrExpr());
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    return ref;
  }

  Result<Pattern> ParsePattern() {
    Pattern p;
    RAPTOR_ASSIGN_OR_RETURN(p.subject, ParseEntity());
    if (PeekSymbol("~>") || PeekSymbol("->")) {
      p.path.is_path = true;
      p.path.fuzzy_arrow = Next().text == "~>";
      // "->" without a length spec is a length-1 path, "~>" unbounded.
      p.path.min_len = 1;
      p.path.max_len = p.path.fuzzy_arrow ? -1 : 1;
      if (AcceptSymbol("(")) {
        // (min~max) / (min~) / (~max) / (n)
        constexpr int64_t kMaxLen = std::numeric_limits<int>::max();
        p.path.max_len = -1;
        bool saw_min = PeekKind(TokenKind::kInt);
        if (saw_min) {
          RAPTOR_ASSIGN_OR_RETURN(p.path.min_len, Int("path length", kMaxLen));
        }
        if (AcceptSymbol("~")) {
          if (PeekKind(TokenKind::kInt)) {
            RAPTOR_ASSIGN_OR_RETURN(p.path.max_len,
                                    Int("path length", kMaxLen));
          }
        } else if (saw_min) {
          p.path.max_len = p.path.min_len;  // exact length "(n)"
        }
        RAPTOR_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      if (AcceptSymbol("[")) {
        RAPTOR_ASSIGN_OR_RETURN(p.op, ParseOpExpr());
        RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
      }
    } else {
      RAPTOR_ASSIGN_OR_RETURN(p.op, ParseOpExpr());
    }
    RAPTOR_ASSIGN_OR_RETURN(p.object, ParseEntity());
    if (AcceptKeyword("as")) {
      RAPTOR_ASSIGN_OR_RETURN(p.id, Ident("pattern id"));
      if (AcceptSymbol("[")) {
        RAPTOR_ASSIGN_OR_RETURN(p.event_filter, ParseAttrExpr());
        RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
      }
    }
    if (PeekWindowStart() && !IsRelKeywordContext()) {
      RAPTOR_ASSIGN_OR_RETURN(p.window, ParseWindow());
    }
    return p;
  }

  /// "before"/"after" inside a rel clause follow "with id"; a pattern-level
  /// window "before <ts>" is followed by an integer. Disambiguate by the
  /// token after the keyword.
  bool IsRelKeywordContext() const {
    if (!(PeekKeyword("before") || PeekKeyword("after"))) return false;
    return !PeekKind(TokenKind::kInt, 1);
  }

  // ------------------------------------------------------------------ rel
  Status ParseRelItem(TbqlQuery* query) {
    RAPTOR_ASSIGN_OR_RETURN(
        std::string first,
        Ident("pattern id or attribute in with-clause"));
    if (AcceptSymbol(".")) {
      // Attribute relationship: a.x bop b.y
      AttrRel rel;
      rel.left_qualifier = std::move(first);
      RAPTOR_ASSIGN_OR_RETURN(rel.left_attr, Ident("attribute name"));
      RAPTOR_ASSIGN_OR_RETURN(rel.op, ParseCompareOp());
      RAPTOR_ASSIGN_OR_RETURN(rel.right_qualifier,
                              Ident("attribute reference"));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("."));
      RAPTOR_ASSIGN_OR_RETURN(rel.right_attr, Ident("attribute name"));
      query->attr_rels.push_back(std::move(rel));
      return Status::OK();
    }
    // Temporal relationship: id before/after/within [n-m unit]? id
    TemporalRel rel;
    rel.left = std::move(first);
    if (AcceptKeyword("before")) {
      rel.op = TemporalOp::kBefore;
    } else if (AcceptKeyword("after")) {
      rel.op = TemporalOp::kAfter;
    } else if (AcceptKeyword("within")) {
      rel.op = TemporalOp::kWithin;
    } else {
      return Err("expected before/after/within");
    }
    if (AcceptSymbol("[")) {
      RAPTOR_ASSIGN_OR_RETURN(int64_t lo, Int("gap bound"));
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("-"));
      RAPTOR_ASSIGN_OR_RETURN(int64_t hi, Int("gap bound"));
      RAPTOR_ASSIGN_OR_RETURN(audit::Timestamp scale,
                              ParseUnit(std::max(lo, hi)));
      rel.min_gap = lo * scale;
      rel.max_gap = hi * scale;
      RAPTOR_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    RAPTOR_ASSIGN_OR_RETURN(rel.right, Ident("pattern id"));
    query->temporal_rels.push_back(std::move(rel));
    return Status::OK();
  }
};

}  // namespace

Result<TbqlQuery> ParseTbql(std::string_view text) {
  RAPTOR_ASSIGN_OR_RETURN(auto tokens, Lex(text, kTbqlLex));
  return Parser(std::move(tokens)).Parse();
}

}  // namespace raptor::tbql
