// Frozen columnar (SoA) property storage shared by the graph and
// relational backends.
//
// Ingest keeps its row-oriented representation (graphdb::PropertyMap,
// sql::Row); each append additionally freezes the cells into per-bucket
// column vectors — per (shard × label) for graph nodes, per (shard × edge
// type) for graph edges, per (shard × schema column) for tables — so the
// executors' predicate loops can run tight scans over column slices
// instead of per-row map probes. String cells are dictionary-encoded
// against one dictionary per property/column (global across shards and
// buckets), so an equality literal is interned once per query and
// compared as a uint32 everywhere.
//
// Typing is resolved per column from the data: the first frozen value
// picks the kind (int64 or string); any later conflict — or any value the
// columnar cells cannot represent exactly under sql::Value::Compare
// semantics (doubles, explicit NULLs) — demotes the column to kMixed,
// which tells the column filter (storage/column_filter.h) to leave that
// predicate to the executors' retained row path. Absent cells (a row
// without the property) are explicit: a present-bitmap for int columns,
// kNullDictId for string columns, and positions past len() for trailing
// rows that never froze a cell.
//
// Thread-safety matches the owning stores: freezing happens on the
// single-writer mutation path; all readers are const and race-free.
#pragma once

#include <cstddef>
#include <cstdint>
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
    return kind_ == Kind::kString ? dict_ids_.size() : ints_.size();
  }

  /// Freeze the cell at `pos` (the row's bucket offset). `dict` is the
  /// column's global string dictionary.
  void Append(size_t pos, const sql::Value& v, StringInterner* dict) {
    if (kind_ == Kind::kMixed) return;
    if (v.is_int()) {
      if (!Resolve(Kind::kInt64)) return;
      ints_.resize(pos, 0);
      present_.resize(pos, 0);
      ints_.push_back(v.AsInt());
      present_.push_back(1);
    } else if (v.is_text()) {
      if (!Resolve(Kind::kString)) return;
      dict_ids_.resize(pos, kNullDictId);
      dict_ids_.push_back(dict->Intern(v.AsText()));
    } else {
      Demote();
    }
  }

  /// kInt64 cell read; false when absent.
  bool IntAt(size_t pos, int64_t* out) const {
    if (pos >= ints_.size() || !present_[pos]) return false;
    *out = ints_[pos];
    return true;
  }

  /// kString cell read; kNullDictId when absent.
  uint32_t DictAt(size_t pos) const {
    return pos >= dict_ids_.size() ? kNullDictId : dict_ids_[pos];
  }

 private:
  bool Resolve(Kind k) {
    if (kind_ == Kind::kUnset) kind_ = k;
    if (kind_ != k) {
      Demote();
      return false;
    }
    return true;
  }

  void Demote() {
    kind_ = Kind::kMixed;
    ints_ = {};
    present_ = {};
    dict_ids_ = {};
  }

  Kind kind_ = Kind::kUnset;
  std::vector<int64_t> ints_;     // kInt64 cells (0 where absent)
  std::vector<uint8_t> present_;  // kInt64: 1 = cell present
  std::vector<uint32_t> dict_ids_;  // kString cells (kNullDictId = absent)
};

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
