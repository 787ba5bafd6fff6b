// Frozen columnar (SoA) property storage shared by the graph and
// relational backends, and the only copy of their cells.
//
// Ingest takes row-oriented input (graphdb::PropertyMap, sql::Row), freezes
// each cell into per-bucket column vectors — per (shard × label) for graph
// nodes, per (shard × edge type) for graph edges, per (shard × schema
// column) for tables — and drops the row. The executors' predicate loops
// run tight scans over column slices, and every other read (projection,
// join keys, index builds) goes through ReadCell. String cells are
// dictionary-encoded against one dictionary per property/column (global
// across shards and buckets), so an equality literal is interned once per
// query and compared as a uint32 everywhere.
//
// Typing is resolved per column from the data: the first frozen value
// picks the kind (int64 or string). Any later conflict, and any value
// those encodings cannot hold (doubles, explicit NULLs), demotes the
// column to kMixed, which keeps every cell — the ones frozen before the
// demotion included — as an owning sql::Value. Every kind reads back
// exactly the value frozen. An absent cell (a row or entity without the
// property) stays distinct from an explicit NULL: a present-bitmap for
// int and mixed columns, kNullDictId for string columns (which never hold
// a NULL), and positions past len() for trailing rows that never froze a
// cell. ReadCell renders both as NULL; Present tells them apart.
//
// Thread-safety matches the owning stores: freezing happens on the
// single-writer mutation path; all readers are const and race-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "storage/relational/value.h"

namespace raptor::storage {

/// Absent-cell sentinel in dictionary-encoded string columns.
constexpr uint32_t kNullDictId = static_cast<uint32_t>(-1);

/// One frozen property column over a bucket of rows. Positions are the
/// row's dense offset within its bucket (label_pos / type_pos / local row
/// offset) and must be appended in increasing order; skipped positions
/// are absent cells.
class Column {
 public:
  enum class Kind : uint8_t { kUnset, kInt64, kString, kMixed };

  Kind kind() const { return kind_; }

  /// Cells frozen so far; positions >= len() are absent.
  size_t len() const {
    switch (kind_) {
      case Kind::kString: return dict_ids_.size();
      case Kind::kMixed: return values_.size();
      default: return ints_.size();
    }
  }

  /// Freeze the cell at `pos` (the row's bucket offset). `dict` is the
  /// column's global string dictionary.
  void Append(size_t pos, const sql::Value& v, StringInterner* dict) {
    if (kind_ != Kind::kMixed) {
      if (v.is_int() && Resolve(Kind::kInt64)) {
        ints_.resize(pos, 0);
        present_.resize(pos, 0);
        ints_.push_back(v.AsInt());
        present_.push_back(1);
        return;
      }
      if (v.is_text() && Resolve(Kind::kString)) {
        dict_ids_.resize(pos, kNullDictId);
        dict_ids_.push_back(dict->Intern(v.AsText()));
        return;
      }
      Demote(*dict);
    }
    values_.resize(pos);
    present_.resize(pos, 0);
    values_.push_back(v);
    present_.push_back(1);
  }

  /// Did a cell freeze at `pos` (an explicit NULL included)?
  bool Present(size_t pos) const {
    if (kind_ == Kind::kString) return DictAt(pos) != kNullDictId;
    return pos < present_.size() && present_[pos] != 0;
  }

  /// kInt64 cell read; false when absent.
  bool IntAt(size_t pos, int64_t* out) const {
    if (!Present(pos)) return false;
    *out = ints_[pos];
    return true;
  }

  /// kString cell read; kNullDictId when absent.
  uint32_t DictAt(size_t pos) const {
    return pos >= dict_ids_.size() ? kNullDictId : dict_ids_[pos];
  }

  /// kMixed cell read; NULL when absent.
  sql::Value MixedAt(size_t pos) const {
    return pos < values_.size() ? values_[pos] : sql::Value::Null();
  }

 private:
  /// Settle an unset column on `k`; false when the column holds another
  /// kind.
  bool Resolve(Kind k) {
    if (kind_ == Kind::kUnset) kind_ = k;
    return kind_ == k;
  }

  /// Re-encode every cell frozen so far as a Value (absent cells stay
  /// absent) and switch to kMixed.
  void Demote(const StringInterner& dict) {
    size_t n = len();
    present_.resize(n, 0);
    values_.resize(n);
    for (size_t pos = 0; pos < n; ++pos) {
      if (kind_ == Kind::kInt64) {
        if (present_[pos]) values_[pos] = sql::Value(ints_[pos]);
      } else if (dict_ids_[pos] != kNullDictId) {
        present_[pos] = 1;
        values_[pos] = sql::Value(std::string(dict.Name(dict_ids_[pos])));
      }
    }
    kind_ = Kind::kMixed;
    ints_ = {};
    dict_ids_ = {};
  }

  Kind kind_ = Kind::kUnset;
  std::vector<int64_t> ints_;       // kInt64 cells (0 where absent)
  std::vector<uint8_t> present_;    // kInt64 / kMixed: 1 = cell present
  std::vector<uint32_t> dict_ids_;  // kString cells (kNullDictId = absent)
  std::vector<sql::Value> values_;  // kMixed cells (NULL where absent)
};

/// The cell at `pos` of `col` as a Value, exactly as frozen; NULL when
/// the cell is absent or `col` is nullptr (no row of the bucket carries
/// the property). `dict` is the column's dictionary.
inline sql::Value ReadCell(const Column* col, const StringInterner* dict,
                           size_t pos) {
  if (col == nullptr) return sql::Value::Null();
  switch (col->kind()) {
    case Column::Kind::kInt64: {
      int64_t v = 0;
      return col->IntAt(pos, &v) ? sql::Value(v) : sql::Value::Null();
    }
    case Column::Kind::kString: {
      uint32_t id = col->DictAt(pos);
      return id == kNullDictId ? sql::Value::Null()
                               : sql::Value(std::string(dict->Name(id)));
    }
    case Column::Kind::kMixed:
      return col->MixedAt(pos);
    case Column::Kind::kUnset:
      break;
  }
  return sql::Value::Null();
}

/// Column set of one bucket (shard × label / edge type), keyed by the
/// owning store's interned property-name id.
class ColumnGroup {
 public:
  Column* ColumnFor(uint32_t prop_id) { return &cols_[prop_id]; }

  /// nullptr when no row of this bucket ever froze the property.
  const Column* Find(uint32_t prop_id) const {
    auto it = cols_.find(prop_id);
    return it == cols_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<uint32_t, Column> cols_;
};

}  // namespace raptor::storage
