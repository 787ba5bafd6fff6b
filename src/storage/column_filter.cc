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
  shards_.reserve(cols.size());
  for (const Column* col : cols) shards_.push_back({Mode::kRow, col});
  auto lookup = [&](const sql::Value& v) {
    uint32_t id = dict == nullptr ? kNoSymbol : dict->Lookup(v.AsText());
    return id == kNoSymbol ? kNullDictId : id;
  };
  bool lit_int = false;
  Mode absent = Mode::kRow;  // the verdict of an all-NULL shard
  if (IsTextOp(op)) {
    memo_ = std::make_unique<TextMemo>(op, literals[0].ToString(),
                                       dict == nullptr ? 0 : dict->size());
    absent = Const(memo_->null_match != (op == Op::kNotLike));
    dict_covers_ = op != Op::kNotLike && !memo_->null_match;
  } else if (op == Op::kIn) {
    bool all_int = !literals.empty();
    bool all_text = !literals.empty();
    for (const sql::Value& v : literals) {
      all_int = all_int && v.is_int();
      all_text = all_text && v.is_text();
    }
    if (!all_int && !all_text) return;
    for (const sql::Value& v : literals) {
      if (all_int) {
        int_set_.insert(v.AsInt());
      } else if (uint32_t id = lookup(v); id != kNullDictId) {
        dict_set_.insert(id);
      }
    }
    lit_int = all_int;
    absent = Mode::kNever;
  } else if (literals[0].is_int()) {
    int_lit_ = literals[0].AsInt();
    lit_int = true;
    present_match_ = CmpHolds(1);  // text cells sort after numbers
    absent = Const(CmpHolds(-1));
  } else if (literals[0].is_text()) {
    str_lit_ = literals[0].AsText();
    dict_lit_ = lookup(literals[0]);
    absent = Const(CmpHolds(-1));
  } else {
    return;  // double / NULL literal
  }
  for (PerShard& ps : shards_) {
    if (ps.col == nullptr || ps.col->kind() == Column::Kind::kUnset) {
      ps.mode = absent;  // no entity of the bucket carries the property
    } else if (ps.col->kind() == Column::Kind::kMixed) {
      dict_covers_ = false;
    } else {
      ps.mode = ModeFor(*ps.col, lit_int);
      if (ps.mode != Mode::kDictText) dict_covers_ = false;
    }
  }
}

ColumnFilter::Mode ColumnFilter::ModeFor(const Column& col,
                                         bool lit_int) const {
  bool col_int = col.kind() == Column::Kind::kInt64;
  switch (op_) {
    case Op::kLike:
    case Op::kNotLike:
    case Op::kContains:
    case Op::kStartsWith:
    case Op::kEndsWith:
      return col_int ? Mode::kRow : Mode::kDictText;
    case Op::kIn:
      // A value of the other kind never Compare-equals a cell.
      if (col_int) return lit_int ? Mode::kIntIn : Mode::kNever;
      return lit_int || dict_set_.empty() ? Mode::kNever : Mode::kDictIn;
    default:
      break;
  }
  if (col_int) {
    // Int cells and NULL both sort before a text literal.
    if (!lit_int) return Const(CmpHolds(-1));
    return op_ == Op::kEq ? Mode::kIntEq : Mode::kIntCmp;
  }
  if (lit_int) {
    // Text cells sort after an int literal, NULL before it.
    return present_match_ == CmpHolds(-1) ? Const(present_match_)
                                          : Mode::kDictPresent;
  }
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
    case Mode::kDictPresent:
      return (ps.col->DictAt(pos) != kNullDictId) == present_match_;
    case Mode::kStrCmp: {
      uint32_t id = ps.col->DictAt(pos);
      if (id == kNullDictId) return CmpHolds(-1);  // NULL cell
      int r = dict_->Name(id).compare(str_lit_);
      return CmpHolds(r < 0 ? -1 : (r > 0 ? 1 : 0));
    }
    default:
      return false;
  }
}

bool ColumnFilter::MatchText(uint32_t id) const {
  bool m = TextHolds(op_, dict_->Name(id), memo_->literal);
  memo_->verdicts[id].store(m ? kYes : kNo, std::memory_order_relaxed);
  memo_->evals.fetch_add(1, std::memory_order_relaxed);
  return m;
}

}  // namespace raptor::storage
