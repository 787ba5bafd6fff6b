// Database facade for the embedded relational engine: table DDL, inserts,
// indexes and SQL execution. Substitutes PostgreSQL in the paper's storage
// layer.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/relational/sql_executor.h"
#include "storage/relational/sql_parser.h"
#include "storage/relational/table.h"

namespace raptor::sql {

/// Default storage shard count used by the database facade (a raw Table
/// still defaults to one shard).
constexpr size_t kDefaultShardCount = 4;

class Database : public Catalog {
 public:
  /// Every table created through this facade partitions its rows and
  /// indexes into `shard_count` entity-id-hashed shards (rounded up to a
  /// power of two), enabling shard-parallel SELECT execution.
  explicit Database(size_t shard_count = kDefaultShardCount)
      : shard_count_(shard_count) {}

  /// Create a new empty table. Fails with AlreadyExists on name collision.
  Status CreateTable(std::string_view name, Schema schema);

  /// Streaming toggles applied to every query executed through this facade.
  SelectOptions& options() { return options_; }
  const SelectOptions& options() const { return options_; }

  /// Insert one row into `table`.
  Status Insert(std::string_view table, const Row& row);

  /// Create a hash index on table.column.
  Status CreateIndex(std::string_view table, std::string_view column);

  /// Parse and execute a SELECT statement.
  Result<ResultSet> Query(std::string_view sql, ExecStats* stats = nullptr) const;

  /// Execute an already-parsed statement.
  Result<ResultSet> Execute(const SelectStmt& stmt,
                            ExecStats* stats = nullptr) const;

  /// Streaming variant returning chunked block results under per-request
  /// settings (HuntService cancellation flags; pass options() for the
  /// facade defaults) without mutating shared state.
  Result<BlockResultSet> QueryBlocks(std::string_view sql,
                                     const SelectOptions& options,
                                     ExecStats* stats = nullptr) const;

  /// Plan-time row-visit estimate for a SELECT text (EstimateSelectCost on
  /// the parsed statement); 0.0 when the text does not parse — the price of
  /// an unrunnable query is nothing, its Submit will fail fast anyway.
  double EstimateCost(std::string_view sql) const;

  // Catalog:
  const Table* FindTable(std::string_view name) const override;

  Table* GetMutableTable(std::string_view name);

  size_t table_count() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  SelectOptions options_;
  size_t shard_count_ = kDefaultShardCount;
};

}  // namespace raptor::sql
