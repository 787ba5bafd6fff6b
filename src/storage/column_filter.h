// One predicate over a frozen column (storage/columnar.h), compiled per
// shard: the kernel both executors evaluate `col op literal` through — the
// SQL executor's single-table filters and the Cypher matcher's inline
// property constraints.
//
// A filter is built from an operator, its literal(s), the column's string
// dictionary and one column per shard. The rules below mirror
// sql::Value::Compare exactly, so a compiled shard returns the verdict the
// row path would:
//  * an absent cell — a position the column never froze, a missing
//    dictionary id, or every cell of a shard whose column is nullptr (no
//    entity of the bucket carries the property) or still unset — is NULL:
//    it sorts before every non-null literal and equals none of them;
//  * cross-kind compares fold to constants: numeric sorts before text, so
//    an int cell is always < a text literal and a text cell always > an
//    int literal (a string shard with absent cells keeps a presence check
//    where NULL and text disagree);
//  * a text literal missing from the dictionary equals no cell, so `=` /
//    `IN` fold to false and `<>` to true;
//  * string range compares read the dictionary name (same sign as
//    Value's text ordering);
//  * `[NOT] LIKE` matches each distinct dictionary string at most once per
//    filter: verdicts are memoized by dictionary id (one uint32 read and
//    one byte load per row); an absent cell keeps the row path's
//    LikeMatch("NULL", pattern) verdict;
//  * kMixed columns, int columns under LIKE, double or NULL literals and
//    mixed-kind or empty IN lists are not compiled: compiled(shard) is
//    false and the caller takes its own row path for that shard.
// Modes bind per shard because column kinds can diverge across the shards
// of a loosely-typed table or property. ReadCell reads one cell as a Value
// under the same rules (the Cypher evaluator's property reads).
//
// Thread-safety: a built filter is immutable except for the LIKE memo,
// whose slots are relaxed atomics (racing workers compute and store the
// same verdict byte), so one filter serves every morsel worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
    kIn,       // homogeneous literal list (all int or all text)
    kLike,     // literal[0] rendered as the pattern
    kNotLike,
  };

  /// A filter over `shard_count` shards compiled for none of them.
  explicit ColumnFilter(size_t shard_count) : shards_(shard_count) {}

  /// `col op literals` over `cols[shard]` (nullptr: no entity of that
  /// shard's bucket carries the property). Comparisons and LIKE take one
  /// literal, kIn the whole list. `dict` is the column's dictionary
  /// (nullptr when the property never froze a string).
  ColumnFilter(Op op, std::span<const sql::Value> literals,
               const StringInterner* dict,
               std::span<const Column* const> cols);

  /// False: shard `shard` is not compiled, evaluate the row path instead.
  /// Precondition: `shard` is below the filter's shard count.
  bool compiled(size_t shard) const {
    return shards_[shard].mode != Mode::kRow;
  }

  /// Row-semantics verdict for the cell at `pos` (the entity's bucket
  /// offset) of `shard`. Precondition: compiled(shard). The per-row modes
  /// of the hot paths (constants, equality, LIKE) dispatch inline; the
  /// rest call MatchesOther, keeping this small enough to inline.
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
      case Mode::kDictLike: {
        uint32_t id = ps.col->DictAt(pos);
        bool m = id == kNullDictId ? like_->null_match : LikeVerdict(id);
        return m != (op_ == Op::kNotLike);
      }
      default:
        return MatchesOther(ps, pos);
    }
  }

  /// True for `col LIKE text` when every shard's column is
  /// dictionary-encoded or holds no cell yet (an empty shard): the
  /// dictionary then holds every cell value, so the matching entities are
  /// exactly those whose dictionary entry's LikeVerdict holds.
  bool like_covers_column() const {
    return like_ != nullptr && op_ == Op::kLike && like_covers_;
  }

  /// Dictionary entries the LIKE memo covers (0 for other operators).
  size_t like_dict_size() const {
    return like_ == nullptr ? 0 : like_->verdicts.size();
  }

  /// Memoized LikeMatch of dictionary entry `id` (id < like_dict_size()).
  /// Safe to call concurrently.
  bool LikeVerdict(uint32_t id) const {
    uint8_t v = like_->verdicts[id].load(std::memory_order_relaxed);
    return v == kUnknown ? MatchLike(id) : v == kYes;
  }

  /// Dictionary entries matched against the LIKE pattern so far.
  size_t like_dict_evals() const {
    return like_ == nullptr ? 0
                            : like_->evals.load(std::memory_order_relaxed);
  }

 private:
  enum class Mode : uint8_t {
    kRow,          // not compiled for this shard: caller's row path
    kNever,        // constant false
    kAlways,       // constant true
    kIntEq,        // int column == int literal
    kIntCmp,       // int column `op` int literal (other operators)
    kIntIn,        // int column IN hashed int set
    kDictEq,       // string column == interned dictionary id
    kDictNe,       // string column != interned dictionary id
    kDictIn,       // string column IN hashed dictionary-id set
    kDictPresent,  // string column vs int literal: cell present == verdict
    kStrCmp,       // string column `op` text literal via dictionary names
    kDictLike,     // string column [NOT] LIKE via memoized verdicts
  };

  struct PerShard {
    Mode mode = Mode::kRow;
    const Column* col = nullptr;
  };

  static constexpr uint8_t kUnknown = 0, kNo = 1, kYes = 2;

  /// Per-filter LIKE verdicts by dictionary id (kUnknown until matched).
  struct LikeMemo {
    LikeMemo(std::string pat, size_t dict_size);
    std::string pattern;
    bool null_match;  // the row path renders an absent cell as "NULL"
    std::vector<std::atomic<uint8_t>> verdicts;
    std::atomic<size_t> evals{0};
  };

  /// Mode of one shard whose column is kInt64 or kString.
  Mode ModeFor(const Column& col, bool lit_int) const;

  /// Matches for the modes it does not dispatch inline.
  bool MatchesOther(const PerShard& ps, size_t pos) const;

  /// LikeVerdict's first sight of `id`: match and memoize.
  bool MatchLike(uint32_t id) const;

  /// Does `cell op literal` hold given the sign of Compare(cell, literal)?
  bool CmpHolds(int c) const {
    switch (op_) {
      case Op::kEq: return c == 0;
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
  int64_t int_lit_ = 0;
  uint32_t dict_lit_ = kNullDictId;
  bool present_match_ = false;  // kDictPresent verdict for present cells
  std::string str_lit_;
  std::unordered_set<int64_t> int_set_;
  std::unordered_set<uint32_t> dict_set_;
  std::unique_ptr<LikeMemo> like_;
  bool like_covers_ = false;
  std::vector<PerShard> shards_;
};

/// Read the cell at `pos` of `col` into `*out` under the same absent-cell
/// rule (a nullptr or unset column, or an absent cell, reads NULL). False
/// (`*out` untouched) for a kMixed column: only the caller's row path
/// holds its cells.
inline bool ReadCell(const Column* col, const StringInterner* dict,
                     size_t pos, sql::Value* out) {
  if (col == nullptr || col->kind() == Column::Kind::kUnset) {
    *out = sql::Value::Null();
  } else if (col->kind() == Column::Kind::kInt64) {
    int64_t v = 0;
    *out = col->IntAt(pos, &v) ? sql::Value(v) : sql::Value::Null();
  } else if (col->kind() == Column::Kind::kString) {
    uint32_t id = col->DictAt(pos);
    *out = id == kNullDictId ? sql::Value::Null()
                             : sql::Value(std::string(dict->Name(id)));
  } else {
    return false;
  }
  return true;
}

}  // namespace raptor::storage
