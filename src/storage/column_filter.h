// One predicate over a frozen column (storage/columnar.h), compiled per
// shard: the kernel both executors evaluate `col op literal` through — the
// SQL executor's single-table filters and the Cypher matcher's inline
// property constraints and single-variable WHERE conjuncts.
//
// A filter is built from an operator, its literal(s), the column's string
// dictionary and one column per shard, and serves every shard: its
// verdict is the one the executors' Eval would reach on the cell read
// back through ReadCell, under sql::Value::Compare semantics:
//  * an absent cell — a position the column never froze, a missing
//    dictionary id, or every cell of a shard whose column is nullptr (no
//    entity of the bucket carries the property) — is NULL: it sorts
//    before every non-null literal and equals only a NULL one (kPresentEq
//    alone, the Cypher `{key: literal}` shape, never matches it);
//  * an int column under an int literal (or an all-int IN list) compares
//    its int64 cells directly;
//  * a string column under a text literal (or an all-text IN list)
//    compares dictionary ids: a literal missing from the dictionary
//    equals no cell, so `=` / `IN` fold to false and `<>` to true;
//  * string range compares read the dictionary name (same sign as
//    Value's text ordering);
//  * the text operators — `[NOT] LIKE`, CONTAINS, STARTS WITH and ENDS
//    WITH — match the rendered literal (Value::ToString, so an int literal
//    matches its decimal digits) against the rendered cell. On string
//    columns each distinct dictionary string is matched at most once per
//    filter: verdicts are memoized by dictionary id (one uint32 read and
//    one byte load per row). CONTAINS / STARTS WITH / ENDS WITH are
//    literal substring / prefix / suffix tests (no wildcards); LIKE keeps
//    `%` / `_`. An absent cell renders as "NULL", so `x CONTAINS 'UL'`
//    holds on it;
//  * everything else — kMixed columns, a literal of the other kind than
//    the column's (int columns under the text operators among them),
//    double or NULL literals and mixed-kind IN lists — reads the cell as a
//    Value and decides with Value::Compare, a ValueHash/ValueEq set for
//    IN, or TextHolds on the rendered cell.
// Modes bind per shard because column kinds can diverge across the shards
// of a loosely-typed table or property.
//
// Thread-safety: a built filter is immutable except for the text memo,
// whose slots are relaxed atomics (racing workers compute and store the
// same verdict byte), so one filter serves every morsel worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/interner.h"
#include "storage/columnar.h"
#include "storage/relational/value.h"

namespace raptor::storage {

class ColumnFilter {
 public:
  enum class Op : uint8_t {
    kEq, kNe, kLt, kLe, kGt, kGe,
    kPresentEq,   // kEq, except that an absent cell never matches
    kIn,          // literal list membership
    kLike,        // literal[0] rendered as the pattern
    kNotLike,
    kContains,    // literal[0] rendered: a substring of the cell
    kStartsWith,  // ... a prefix of the cell
    kEndsWith,    // ... a suffix of the cell
  };

  /// Does `text op literal` hold for a text operator (kLike, kNotLike
  /// before its negation, kContains, kStartsWith, kEndsWith)? The one
  /// definition of their string semantics: string shards memoize it per
  /// dictionary entry, other shards and the Cypher evaluator call it on
  /// rendered values.
  static bool TextHolds(Op op, std::string_view text, std::string_view lit);

  /// A filter over no shard: the placeholder of a conjunct that Eval
  /// decides.
  ColumnFilter() = default;

  /// `col op literals` over `cols[shard]` (nullptr: no entity of that
  /// shard's bucket carries the property). Comparisons and the text
  /// operators take one literal, kIn the whole list (possibly empty).
  /// `dict` is the column's dictionary (nullptr when the property never
  /// froze a string).
  ColumnFilter(Op op, std::span<const sql::Value> literals,
               const StringInterner* dict,
               std::span<const Column* const> cols);

  /// Verdict for the cell at `pos` (the entity's bucket offset) of
  /// `shard`. Precondition: `shard` is below the number of columns the
  /// filter was built over. The per-row modes of the hot paths
  /// (constants, equality, text) dispatch inline; the rest call
  /// MatchesOther, keeping this small enough to inline.
  bool Matches(size_t shard, size_t pos) const {
    const PerShard& ps = shards_[shard];
    switch (ps.mode) {
      case Mode::kNever:
        return false;
      case Mode::kAlways:
        return true;
      case Mode::kIntEq: {
        int64_t v = 0;
        return ps.col->IntAt(pos, &v) && v == int_lit_;
      }
      case Mode::kDictEq:
        return ps.col->DictAt(pos) == dict_lit_;
      case Mode::kDictText: {
        uint32_t id = ps.col->DictAt(pos);
        bool m = id == kNullDictId ? memo_->null_match : DictVerdict(id);
        return m != (op_ == Op::kNotLike);
      }
      default:
        return MatchesOther(ps, pos);
    }
  }

  /// True when the dictionary alone decides the filter: a LIKE, CONTAINS,
  /// STARTS WITH or ENDS WITH whose every shard is dictionary-encoded or
  /// holds no cell, and whose verdict on an absent cell is false. The
  /// matching rows are then exactly those whose dictionary entry's
  /// DictVerdict holds, so an index probe of each hit finds them all.
  bool dict_covers_column() const { return dict_covers_; }

  /// Dictionary entries the text memo covers (0 for other operators).
  size_t dict_memo_size() const {
    return memo_ == nullptr ? 0 : memo_->verdicts.size();
  }

  /// Memoized TextHolds of dictionary entry `id` (id < dict_memo_size()),
  /// before kNotLike's negation. Safe to call concurrently.
  bool DictVerdict(uint32_t id) const {
    uint8_t v = memo_->verdicts[id].load(std::memory_order_relaxed);
    return v == kUnknown ? MatchText(id) : v == kYes;
  }

  /// Dictionary entries matched against the text literal so far.
  size_t dict_evals() const {
    return memo_ == nullptr ? 0
                            : memo_->evals.load(std::memory_order_relaxed);
  }

  /// The dictionary-seed access path both executors plan: the strings
  /// whose DictVerdict holds, with the summed `count_of(string)` (the rows
  /// an index probe of that string returns). nullopt unless it can beat
  /// `bound`, the caller's best path so far: the filter must cover its
  /// column, the dictionary must be smaller than `bound` (walking it costs
  /// one verdict per entry), and the summed count must stay below it.
  struct DictHits {
    std::vector<sql::Value> keys;
    size_t count = 0;
  };
  template <class CountOf>
  std::optional<DictHits> CollectDictHits(size_t bound,
                                          CountOf&& count_of) const {
    if (!dict_covers_ || dict_memo_size() >= bound) return std::nullopt;
    DictHits hits;
    for (uint32_t id = 0; id < dict_memo_size(); ++id) {
      if (!DictVerdict(id)) continue;
      hits.keys.emplace_back(std::string(dict_->Name(id)));
      hits.count += count_of(hits.keys.back());
      if (hits.count >= bound) return std::nullopt;
    }
    return hits;
  }

 private:
  enum class Mode : uint8_t {
    kNever,        // constant false
    kAlways,       // constant true
    kIntEq,        // int column == int literal
    kIntCmp,       // int column `op` int literal (other operators)
    kIntIn,        // int column IN hashed int set
    kDictEq,       // string column == interned dictionary id
    kDictNe,       // string column != interned dictionary id
    kDictIn,       // string column IN hashed dictionary-id set
    kStrCmp,       // string column `op` text literal via dictionary names
    kDictText,     // string column text operator via memoized verdicts
    kValue,        // the cell read as a Value (ReadCell)
  };

  struct PerShard {
    Mode mode = Mode::kNever;
    const Column* col = nullptr;
  };

  static constexpr uint8_t kUnknown = 0, kNo = 1, kYes = 2;

  /// Per-filter text-operator verdicts by dictionary id (kUnknown until
  /// matched).
  struct TextMemo {
    TextMemo(Op op, std::string lit, size_t dict_size);
    std::string literal;
    bool null_match;  // an absent cell renders as "NULL"
    std::vector<std::atomic<uint8_t>> verdicts;
    std::atomic<size_t> evals{0};
  };

  /// Mode of one shard whose column is kInt64 or kString, under an int
  /// or text literal (or an all-int / all-text IN list); kValue where the
  /// literal's kind is not the column's.
  Mode ModeFor(const Column& col, bool lit_int) const;

  /// kValue: the verdict on a present cell read as a Value.
  bool ValueHolds(const sql::Value& cell) const;

  /// Matches for the modes it does not dispatch inline.
  bool MatchesOther(const PerShard& ps, size_t pos) const;

  /// DictVerdict's first sight of `id`: match and memoize.
  bool MatchText(uint32_t id) const;

  /// Does `cell op literal` hold given the sign of Compare(cell, literal)?
  bool CmpHolds(int c) const {
    switch (op_) {
      case Op::kEq:
      case Op::kPresentEq: return c == 0;
      case Op::kNe: return c != 0;
      case Op::kLt: return c < 0;
      case Op::kLe: return c <= 0;
      case Op::kGt: return c > 0;
      case Op::kGe: return c >= 0;
      default: return false;
    }
  }

  /// Fold a verdict that is the same for every cell into a constant mode.
  static Mode Const(bool verdict) {
    return verdict ? Mode::kAlways : Mode::kNever;
  }

  Op op_ = Op::kEq;
  const StringInterner* dict_ = nullptr;
  bool absent_ = false;  // the verdict on an absent cell
  sql::Value lit_;       // comparison literal
  int64_t int_lit_ = 0;
  uint32_t dict_lit_ = kNullDictId;
  std::unordered_set<int64_t> int_set_;
  std::unordered_set<uint32_t> dict_set_;
  std::unordered_set<sql::Value, sql::ValueHash, sql::ValueEq> value_set_;
  std::unique_ptr<TextMemo> memo_;
  bool dict_covers_ = false;
  std::vector<PerShard> shards_;
};

}  // namespace raptor::storage
