#include "storage/relational/table.h"

#include "common/strings.h"

namespace raptor::sql {

namespace {

const std::vector<RowId> kNoRows;

}  // namespace

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    by_name_.emplace(columns_[i].name, static_cast<int>(i));
  }
}

int Schema::FindColumn(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

Table::Table(std::string name, Schema schema, size_t shard_count)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      layout_(shard_count) {
  shards_.resize(layout_.count());
  for (Shard& s : shards_) s.cols.resize(schema_.size());
  col_dicts_.resize(schema_.size());
}

Status Table::Insert(const Row& row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  schema_.size(), row.size()));
  }
  RowId id = row_count_++;
  Shard& shard = shards_[layout_.ShardOf(id)];
  for (auto& [col, index] : shard.indexes) {
    index[row[col]].push_back(id);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    shard.cols[c].Append(layout_.LocalOf(id), row[c], &col_dicts_[c]);
  }
  return Status::OK();
}

Status Table::CreateIndex(std::string_view column) {
  int col = schema_.FindColumn(column);
  if (col < 0) {
    return Status::NotFound(StrFormat("no column %s in table %s",
                                      std::string(column).c_str(),
                                      name_.c_str()));
  }
  if (shards_[0].indexes.count(col)) return Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    ValueIndex& index = shards_[s].indexes[col];
    for (size_t local = 0; local < layout_.SizeOf(s, row_count_); ++local) {
      RowId id = layout_.GlobalOf(s, local);
      index[Cell(id, col)].push_back(id);
    }
  }
  return Status::OK();
}

bool Table::HasIndex(int column_idx) const {
  // Indexes are created in every shard at once; shard 0 is authoritative.
  return shards_[0].indexes.count(column_idx) > 0;
}

const std::vector<RowId>& Table::Probe(int column_idx, const Value& v,
                                       size_t shard) const {
  auto it = shards_[shard].indexes.find(column_idx);
  if (it == shards_[shard].indexes.end()) return kNoRows;
  auto jt = it->second.find(v);
  return jt == it->second.end() ? kNoRows : jt->second;
}

size_t Table::ProbeCount(int column_idx, const Value& v) const {
  size_t count = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    count += Probe(column_idx, v, s).size();
  }
  return count;
}

}  // namespace raptor::sql
