#include "storage/column_filter.h"

#include <utility>

#include "common/strings.h"

namespace raptor::storage {

namespace {

bool IsTextOp(ColumnFilter::Op op) {
  using Op = ColumnFilter::Op;
  return op == Op::kLike || op == Op::kNotLike || op == Op::kContains ||
         op == Op::kStartsWith || op == Op::kEndsWith;
}

}  // namespace

bool ColumnFilter::TextHolds(Op op, std::string_view text,
                             std::string_view lit) {
  switch (op) {
    case Op::kLike:
    case Op::kNotLike:
      return LikeMatch(text, lit);
    case Op::kContains:
      return text.find(lit) != std::string_view::npos;
    case Op::kStartsWith:
      return StartsWith(text, lit);
    case Op::kEndsWith:
      return EndsWith(text, lit);
    default:
      return false;
  }
}

ColumnFilter::TextMemo::TextMemo(Op op, std::string lit, size_t dict_size)
    : literal(std::move(lit)),
      null_match(TextHolds(op, "NULL", literal)),
      verdicts(dict_size) {}

ColumnFilter::ColumnFilter(Op op, std::span<const sql::Value> literals,
                           const StringInterner* dict,
                           std::span<const Column* const> cols)
    : op_(op), dict_(dict) {
  // With a non-null literal an absent cell fails `=` anyway.
  if (op == Op::kPresentEq && !literals[0].is_null()) op_ = Op::kEq;
  auto lookup = [&](const sql::Value& v) {
    uint32_t id = dict == nullptr ? kNoSymbol : dict->Lookup(v.AsText());
    return id == kNoSymbol ? kNullDictId : id;
  };
  // Typed: the literal(s) are of a kind the int / string modes serve.
  bool typed = true;
  bool lit_int = false;
  if (IsTextOp(op_)) {
    memo_ = std::make_unique<TextMemo>(op_, literals[0].ToString(),
                                       dict == nullptr ? 0 : dict->size());
    absent_ = memo_->null_match != (op_ == Op::kNotLike);
    dict_covers_ = op_ != Op::kNotLike && !memo_->null_match;
  } else if (op_ == Op::kIn) {
    bool all_int = !literals.empty();
    bool all_text = !literals.empty();
    for (const sql::Value& v : literals) {
      all_int = all_int && v.is_int();
      all_text = all_text && v.is_text();
      absent_ = absent_ || v.is_null();
    }
    typed = all_int || all_text;
    lit_int = all_int;
    for (const sql::Value& v : literals) {
      if (all_int) int_set_.insert(v.AsInt());
      uint32_t id = all_text ? lookup(v) : kNullDictId;
      if (id != kNullDictId) dict_set_.insert(id);
    }
  } else {
    lit_ = literals[0];
    typed = lit_.is_int() || lit_.is_text();
    lit_int = lit_.is_int();
    if (lit_int) {
      int_lit_ = lit_.AsInt();
    } else if (lit_.is_text()) {
      dict_lit_ = lookup(lit_);
    }
    absent_ = op_ != Op::kPresentEq &&
              CmpHolds(sql::Value::Null().Compare(lit_));
  }
  bool any_value = false;
  shards_.reserve(cols.size());
  for (const Column* col : cols) {
    // No cell on the shard: every row reads the absent verdict.
    PerShard ps{Const(absent_), col};
    if (col != nullptr && col->kind() != Column::Kind::kUnset) {
      bool exact = typed && col->kind() != Column::Kind::kMixed;
      ps.mode = exact ? ModeFor(*col, lit_int) : Mode::kValue;
      any_value = any_value || ps.mode == Mode::kValue;
      if (ps.mode != Mode::kDictText) dict_covers_ = false;
    }
    shards_.push_back(ps);
  }
  if (op_ == Op::kIn && any_value) {
    value_set_.insert(literals.begin(), literals.end());
  }
}

ColumnFilter::Mode ColumnFilter::ModeFor(const Column& col,
                                         bool lit_int) const {
  bool col_int = col.kind() == Column::Kind::kInt64;
  if (IsTextOp(op_)) return col_int ? Mode::kValue : Mode::kDictText;
  if (col_int != lit_int) return Mode::kValue;  // cross-kind
  if (op_ == Op::kIn) {
    if (col_int) return Mode::kIntIn;
    return dict_set_.empty() ? Mode::kNever : Mode::kDictIn;
  }
  if (col_int) return op_ == Op::kEq ? Mode::kIntEq : Mode::kIntCmp;
  if (op_ == Op::kEq) {
    return dict_lit_ == kNullDictId ? Mode::kNever : Mode::kDictEq;
  }
  if (op_ == Op::kNe) {
    return dict_lit_ == kNullDictId ? Mode::kAlways : Mode::kDictNe;
  }
  return Mode::kStrCmp;
}

bool ColumnFilter::MatchesOther(const PerShard& ps, size_t pos) const {
  switch (ps.mode) {
    case Mode::kIntCmp: {
      int64_t v = 0;
      if (!ps.col->IntAt(pos, &v)) return CmpHolds(-1);  // NULL cell
      return CmpHolds(v < int_lit_ ? -1 : (v > int_lit_ ? 1 : 0));
    }
    case Mode::kIntIn: {
      int64_t v = 0;
      return ps.col->IntAt(pos, &v) && int_set_.count(v) > 0;
    }
    case Mode::kDictNe:
      return ps.col->DictAt(pos) != dict_lit_;
    case Mode::kDictIn: {
      uint32_t id = ps.col->DictAt(pos);
      return id != kNullDictId && dict_set_.count(id) > 0;
    }
    case Mode::kStrCmp: {
      uint32_t id = ps.col->DictAt(pos);
      if (id == kNullDictId) return CmpHolds(-1);  // NULL cell
      int r = dict_->Name(id).compare(lit_.AsText());
      return CmpHolds(r < 0 ? -1 : (r > 0 ? 1 : 0));
    }
    case Mode::kValue:
      return ps.col->Present(pos)
                 ? ValueHolds(ReadCell(ps.col, dict_, pos))
                 : absent_;
    default:
      return false;
  }
}

bool ColumnFilter::ValueHolds(const sql::Value& cell) const {
  if (memo_ != nullptr) {
    return TextHolds(op_, cell.ToString(), memo_->literal) !=
           (op_ == Op::kNotLike);
  }
  if (op_ == Op::kIn) return value_set_.count(cell) > 0;
  return CmpHolds(cell.Compare(lit_));
}

bool ColumnFilter::MatchText(uint32_t id) const {
  bool m = TextHolds(op_, dict_->Name(id), memo_->literal);
  memo_->verdicts[id].store(m ? kYes : kNo, std::memory_order_relaxed);
  memo_->evals.fetch_add(1, std::memory_order_relaxed);
  return m;
}

}  // namespace raptor::storage
