#include "storage/relational/sql_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/deadline.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "storage/column_filter.h"
#include "storage/shard_parallel.h"

namespace raptor::sql {

namespace {

struct BoundColumn {
  int alias_idx = -1;
  int col_idx = -1;
};

/// Resolves alias.column references against the FROM/JOIN alias list.
class Binder {
 public:
  Binder(const std::vector<std::string>& aliases,
         const std::vector<const Table*>& tables)
      : aliases_(aliases), tables_(tables) {}

  Result<BoundColumn> Resolve(const Expr& col) const {
    BoundColumn out;
    if (!col.table.empty()) {
      for (size_t i = 0; i < aliases_.size(); ++i) {
        if (aliases_[i] == col.table) {
          out.alias_idx = static_cast<int>(i);
          break;
        }
      }
      if (out.alias_idx < 0) {
        return Status::NotFound("unknown table alias: " + col.table);
      }
      out.col_idx = tables_[out.alias_idx]->schema().FindColumn(col.column);
      if (out.col_idx < 0) {
        return Status::NotFound("no column " + col.column + " in " +
                                col.table);
      }
      return out;
    }
    // Unqualified: must be unambiguous across tables.
    for (size_t i = 0; i < tables_.size(); ++i) {
      int c = tables_[i]->schema().FindColumn(col.column);
      if (c >= 0) {
        if (out.alias_idx >= 0) {
          return Status::InvalidArgument("ambiguous column: " + col.column);
        }
        out.alias_idx = static_cast<int>(i);
        out.col_idx = c;
      }
    }
    if (out.alias_idx < 0) {
      return Status::NotFound("unknown column: " + col.column);
    }
    return out;
  }

  size_t alias_count() const { return aliases_.size(); }
  const Table* table(size_t i) const { return tables_[i]; }
  const std::string& alias(size_t i) const { return aliases_[i]; }

 private:
  const std::vector<std::string>& aliases_;
  const std::vector<const Table*>& tables_;
};

using Tuple = std::vector<RowId>;  // one RowId per alias; SIZE_MAX = unbound

constexpr RowId kUnbound = static_cast<RowId>(-1);

/// Expression evaluator over a (possibly partially bound) tuple.
class Evaluator {
 public:
  Evaluator(const Binder& binder) : binder_(binder) {}

  Result<Value> Eval(const Expr& e, const Tuple& tuple) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        auto bc = binder_.Resolve(e);
        if (!bc.ok()) return bc.status();
        RowId rid = tuple[bc.value().alias_idx];
        if (rid == kUnbound) {
          return Status::Internal("column evaluated before alias bound: " +
                                  e.ToString());
        }
        return binder_.table(bc.value().alias_idx)
            ->Cell(rid, bc.value().col_idx);
      }
      case ExprKind::kUnaryNot: {
        auto inner = Eval(*e.lhs, tuple);
        if (!inner.ok()) return inner.status();
        return Value(static_cast<int64_t>(!Truthy(inner.value())));
      }
      case ExprKind::kInList: {
        auto lhs = Eval(*e.lhs, tuple);
        if (!lhs.ok()) return lhs.status();
        // Hashed-set probe instead of the old O(list) scan per row.
        bool found = in_sets_.Get(e).count(lhs.value()) > 0;
        return Value(static_cast<int64_t>(e.negated ? !found : found));
      }
      case ExprKind::kBinary: {
        if (e.op == BinaryOp::kAnd) {
          auto l = Eval(*e.lhs, tuple);
          if (!l.ok()) return l.status();
          if (!Truthy(l.value())) return Value(static_cast<int64_t>(0));
          auto r = Eval(*e.rhs, tuple);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        if (e.op == BinaryOp::kOr) {
          auto l = Eval(*e.lhs, tuple);
          if (!l.ok()) return l.status();
          if (Truthy(l.value())) return Value(static_cast<int64_t>(1));
          auto r = Eval(*e.rhs, tuple);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        auto l = Eval(*e.lhs, tuple);
        if (!l.ok()) return l.status();
        auto r = Eval(*e.rhs, tuple);
        if (!r.ok()) return r.status();
        if (e.op == BinaryOp::kAdd || e.op == BinaryOp::kSub) {
          if (l.value().is_double() || r.value().is_double()) {
            double a = l.value().AsDouble(), b = r.value().AsDouble();
            return Value(e.op == BinaryOp::kAdd ? a + b : a - b);
          }
          int64_t a = l.value().AsInt(), b = r.value().AsInt();
          return Value(e.op == BinaryOp::kAdd ? a + b : a - b);
        }
        return Value(static_cast<int64_t>(Compare(e.op, l.value(), r.value())));
      }
    }
    return Status::Internal("unreachable expr kind");
  }

  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static bool Compare(BinaryOp op, const Value& l, const Value& r) {
    switch (op) {
      case BinaryOp::kEq: return l.Compare(r) == 0;
      case BinaryOp::kNe: return l.Compare(r) != 0;
      case BinaryOp::kLt: return l.Compare(r) < 0;
      case BinaryOp::kLe: return l.Compare(r) <= 0;
      case BinaryOp::kGt: return l.Compare(r) > 0;
      case BinaryOp::kGe: return l.Compare(r) >= 0;
      case BinaryOp::kLike: return LikeMatch(l.ToString(), r.ToString());
      case BinaryOp::kNotLike: return !LikeMatch(l.ToString(), r.ToString());
      default: return false;
    }
  }

 private:
  const Binder& binder_;
  InListCache<Expr> in_sets_;
};

/// A single-table filter resolved to its column and literal(s) and
/// compiled into a storage::ColumnFilter over the table's frozen columns
/// (storage/column_filter.h owns the semantics), which decides it on
/// every shard. Compilation recognizes `col op literal`, `literal op col`
/// (op mirrored), non-negated `col IN (...)` and `col [NOT] LIKE
/// literal`; any other shape keeps col_idx < 0 and an empty filter, and
/// the Evaluator decides the original expression.
struct ColumnPredicate {
  int col_idx;
  storage::ColumnFilter filter;

  /// Compile `f`, a single-table filter of `alias_idx`.
  static ColumnPredicate Compile(const Expr& f, const Binder& binder,
                                 int alias_idx) {
    using Op = storage::ColumnFilter::Op;
    const Table& table = *binder.table(alias_idx);
    auto no_filter = [] { return ColumnPredicate{-1, {}}; };
    Op op = Op::kIn;
    const Expr* colref = nullptr;
    std::span<const Value> literals;
    if (f.kind == ExprKind::kInList) {
      if (f.negated || f.lhs->kind != ExprKind::kColumnRef) return no_filter();
      colref = f.lhs.get();
      literals = f.in_list;
    } else if (f.kind == ExprKind::kBinary) {
      switch (f.op) {
        case BinaryOp::kEq: op = Op::kEq; break;
        case BinaryOp::kNe: op = Op::kNe; break;
        case BinaryOp::kLt: op = Op::kLt; break;
        case BinaryOp::kLe: op = Op::kLe; break;
        case BinaryOp::kGt: op = Op::kGt; break;
        case BinaryOp::kGe: op = Op::kGe; break;
        case BinaryOp::kLike: op = Op::kLike; break;
        case BinaryOp::kNotLike: op = Op::kNotLike; break;
        default: return no_filter();
      }
      bool like = op == Op::kLike || op == Op::kNotLike;
      const Expr* lit = nullptr;
      if (f.lhs->kind == ExprKind::kColumnRef &&
          f.rhs->kind == ExprKind::kLiteral) {
        colref = f.lhs.get();
        lit = f.rhs.get();
      } else if (!like && f.rhs->kind == ExprKind::kColumnRef &&
                 f.lhs->kind == ExprKind::kLiteral) {
        colref = f.rhs.get();
        lit = f.lhs.get();
        op = Mirror(op);
      } else {
        return no_filter();
      }
      literals = std::span<const Value>(&lit->literal, 1);
    } else {
      return no_filter();
    }
    auto bc = binder.Resolve(*colref);
    if (!bc.ok() || bc.value().alias_idx != alias_idx) return no_filter();
    int col = bc.value().col_idx;
    std::vector<const storage::Column*> cols(table.shard_count());
    for (size_t s = 0; s < cols.size(); ++s) {
      cols[s] = &table.ColumnSlice(s, col);
    }
    return {col, storage::ColumnFilter(op, literals, &table.ColumnDict(col),
                                       cols)};
  }

 private:
  /// `lit op col` rewritten as `col Mirror(op) lit`.
  static storage::ColumnFilter::Op Mirror(storage::ColumnFilter::Op op) {
    using Op = storage::ColumnFilter::Op;
    switch (op) {
      case Op::kLt: return Op::kGt;
      case Op::kLe: return Op::kGe;
      case Op::kGt: return Op::kLt;
      case Op::kGe: return Op::kLe;
      default: return op;  // kEq / kNe are symmetric
    }
  }
};

/// Which aliases an expression references.
void CollectAliases(const Expr& e, const Binder& binder,
                    std::set<int>* aliases) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      auto bc = binder.Resolve(e);
      if (bc.ok()) aliases->insert(bc.value().alias_idx);
      break;
    }
    case ExprKind::kBinary:
      CollectAliases(*e.lhs, binder, aliases);
      CollectAliases(*e.rhs, binder, aliases);
      break;
    case ExprKind::kUnaryNot:
      CollectAliases(*e.lhs, binder, aliases);
      break;
    case ExprKind::kInList:
      CollectAliases(*e.lhs, binder, aliases);
      break;
    case ExprKind::kLiteral:
      break;
  }
}

/// Split an expression into AND-ed conjuncts (ownership stays with caller).
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
  } else {
    out->push_back(e);
  }
}

struct Conjunct {
  const Expr* expr;
  std::set<int> aliases;
  bool applied = false;
};

/// The index column and probe values of an `indexed_col = literal` (either
/// side) or `indexed_col IN (...)` conjunct on alias `a`; col < 0 when `f`
/// has another shape.
std::pair<int, std::span<const Value>> IndexProbe(const Expr& f,
                                                  const Binder& binder,
                                                  size_t a) {
  const Expr* col = nullptr;
  std::span<const Value> keys;
  if (f.kind == ExprKind::kBinary && f.op == BinaryOp::kEq) {
    col = f.lhs.get();
    const Expr* lit = f.rhs.get();
    if (col->kind != ExprKind::kColumnRef) std::swap(col, lit);
    if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
      return {-1, {}};
    }
    keys = std::span<const Value>(&lit->literal, 1);
  } else if (f.kind == ExprKind::kInList && !f.negated &&
             f.lhs->kind == ExprKind::kColumnRef) {
    col = f.lhs.get();
    keys = f.in_list;
  } else {
    return {-1, {}};
  }
  auto bc = binder.Resolve(*col);
  if (!bc.ok() || bc.value().alias_idx != static_cast<int>(a) ||
      !binder.table(a)->HasIndex(bc.value().col_idx)) {
    return {-1, {}};
  }
  return {bc.value().col_idx, keys};
}

/// How one alias's base rows are fetched: probe index column `col` with
/// each of `keys` (col < 0: scan every row). `count` is the summed
/// Table::ProbeCount the candidates are ranked by.
struct AccessPath {
  std::string kind;  // "index", "like-dict" or "join-seed"
  int col = -1;
  std::vector<Value> keys;
  size_t count = static_cast<size_t>(-1);
};

/// Cheapest access path of alias `a`, ranked by per-shard index
/// cardinalities the store already keeps (no rows are materialized):
///  * index: an equality / IN conjunct on an indexed column (IN sums its
///    per-value counts, an upper bound on the deduplicated union);
///  * like-dict: `col LIKE text` on an indexed column whose dictionary
///    covers it and is smaller than the best count so far — match the
///    whole dictionary, probe the hits (ColumnFilter::CollectDictHits);
///  * join-seed (the driving alias only): an indexed column equi-joined
///    to an alias already filtered, probed with that alias's distinct key
///    values.
/// The last two must also beat a full scan. Every conjunct still applies
/// afterwards, so the choice never changes which rows qualify.
AccessPath ChooseAccessPath(size_t a, const std::vector<const Expr*>& filters,
                            const std::vector<ColumnPredicate>& compiled,
                            const std::vector<Conjunct>& conjuncts,
                            const Binder& binder,
                            const std::vector<std::vector<RowId>>& candidates) {
  const Table* table = binder.table(a);
  AccessPath best;
  for (const Expr* f : filters) {
    auto [col, keys] = IndexProbe(*f, binder, a);
    if (col < 0) continue;
    size_t count = 0;
    for (const Value& v : keys) count += table->ProbeCount(col, v);
    if (count < best.count) {
      best = {"index", col, {keys.begin(), keys.end()}, count};
    }
  }
  auto bound = [&] { return std::min(best.count, table->row_count()); };
  for (const ColumnPredicate& p : compiled) {
    if (p.col_idx < 0 || !table->HasIndex(p.col_idx)) continue;
    auto hits = p.filter.CollectDictHits(bound(), [&](const Value& v) {
      return table->ProbeCount(p.col_idx, v);
    });
    if (hits.has_value()) {
      best = {"like-dict", p.col_idx, std::move(hits->keys), hits->count};
    }
  }
  if (a != 0) return best;
  for (const Conjunct& c : conjuncts) {
    const Expr& e = *c.expr;
    if (c.aliases.size() != 2 || e.kind != ExprKind::kBinary ||
        e.op != BinaryOp::kEq || e.lhs->kind != ExprKind::kColumnRef ||
        e.rhs->kind != ExprKind::kColumnRef) {
      continue;
    }
    auto l = binder.Resolve(*e.lhs);
    auto r = binder.Resolve(*e.rhs);
    if (!l.ok() || !r.ok()) continue;
    BoundColumn own = l.value(), other = r.value();
    if (other.alias_idx == 0) std::swap(own, other);
    if (own.alias_idx != 0 || !table->HasIndex(own.col_idx)) continue;
    const std::vector<RowId>& rows = candidates[other.alias_idx];
    // Collecting the keys costs one pass over the other side's rows, so
    // only try when that alone undercuts the best path.
    if (rows.size() >= bound()) continue;
    std::unordered_set<Value, ValueHash, ValueEq> seen;
    std::vector<Value> keys;
    size_t count = 0;
    const Table* other_table = binder.table(other.alias_idx);
    for (size_t i = 0; i < rows.size() && count < bound(); ++i) {
      Value v = other_table->Cell(rows[i], other.col_idx);
      if (!seen.insert(v).second) continue;
      count += table->ProbeCount(own.col_idx, v);
      keys.push_back(std::move(v));
    }
    if (count < bound()) {
      best = {"join-seed", own.col_idx, std::move(keys), count};
    }
  }
  return best;
}

/// Hash-join build storage: per-key row ids chained through fixed-size
/// chunks allocated from one arena, instead of one heap vector per key.
/// Appends preserve insertion order (head/tail chain), so probe iteration
/// visits row ids exactly as the per-key vectors used to.
class RowIdChunks {
 public:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  struct Ref {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  void Append(Ref& ref, RowId rid) {
    if (ref.tail == kNone || chunks_[ref.tail].count == kChunkRows) {
      uint32_t c = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
      if (ref.tail == kNone) {
        ref.head = c;
      } else {
        chunks_[ref.tail].next = c;
      }
      ref.tail = c;
    }
    Chunk& chunk = chunks_[ref.tail];
    chunk.rows[chunk.count++] = rid;
  }

  /// Invoke fn(rid) over the chain in insertion order; stops and returns
  /// false as soon as fn returns false.
  template <class Fn>
  bool ForEach(const Ref& ref, Fn&& fn) const {
    for (uint32_t c = ref.head; c != kNone; c = chunks_[c].next) {
      const Chunk& chunk = chunks_[c];
      for (uint32_t i = 0; i < chunk.count; ++i) {
        if (!fn(chunk.rows[i])) return false;
      }
    }
    return true;
  }

 private:
  static constexpr uint32_t kChunkRows = 8;

  struct Chunk {
    RowId rows[kChunkRows];
    uint32_t count = 0;
    uint32_t next = kNone;
  };

  std::vector<Chunk> chunks_;
};

/// One level of the left-deep join pipeline, planned before execution:
/// equi-join keys against already-bound aliases (with the hash table built
/// on the level's filtered candidates as chunked candidate blocks), plus
/// the residual conjuncts that become fully bound once this level binds.
struct JoinLevel {
  std::vector<std::pair<BoundColumn, BoundColumn>> keys;  // (new, old)
  std::unordered_map<std::vector<Value>, RowIdChunks::Ref, ValueRowHash,
                     ValueRowEq>
      build;
  RowIdChunks build_rows;
  std::vector<const Expr*> ready;
};

/// The streaming executor: threads one tuple through the join levels
/// depth-first and emits projected rows as they complete, so LIMIT can stop
/// the whole pipeline — including the first table's base scan — early.
/// Every method returns true to continue and false to stop (limit reached
/// or evaluation error; check `error` afterwards).
class TuplePipeline {
 public:
  TuplePipeline(const SelectStmt& stmt, const Binder& binder,
                const Evaluator& eval, const std::vector<JoinLevel>& levels,
                const std::vector<std::vector<RowId>>& candidates,
                const std::vector<const Expr*>& projected, bool has_star,
                bool partition_distinct, size_t local_cap, ExecStats* stats,
                storage::WorkerRows* rs)
      : stmt_(stmt),
        binder_(binder),
        eval_(eval),
        levels_(levels),
        candidates_(candidates),
        projected_(projected),
        has_star_(has_star),
        partition_distinct_(partition_distinct),
        local_cap_(local_cap),
        stats_(stats),
        rs_(rs) {
    // Parallel DISTINCT workers hash-partition their emissions so the
    // merge can re-dedup partition-by-partition and adopt whole blocks
    // (storage/shard_parallel.h).
    if (partition_distinct_) rs_->EnableDistinctPartitions();
  }

  /// Restrict the first table's iteration to the half-open positional
  /// range [lo, hi) of one storage shard: the shard's k-th row in a full
  /// scan, or the k-th entry of the shard's pre-split seed/candidate
  /// sub-list (SetLazyFirstTable / SetFirstCandidates). The morsel driver
  /// runs one pipeline per morsel.
  void RestrictFirstTableToMorsel(size_t shard, size_t lo, size_t hi) {
    shard_ = static_cast<int64_t>(shard);
    morsel_lo_ = lo;
    morsel_hi_ = hi;
  }

  /// Cooperative LIMIT cancellation shared by all parallel workers: every
  /// emitted row claims one slot; the scan stops once `cap` are claimed.
  void SetSharedRowBudget(std::atomic<size_t>* claimed, size_t cap) {
    shared_claimed_ = claimed;
    shared_cap_ = cap;
  }

  /// Cooperative query cancellation (HuntService tickets): polled with the
  /// shared LIMIT budget at every first-table row visit.
  void SetCancelFlag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Deadline polled at the same points (amortized clock reads).
  void SetDeadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = DeadlinePoller(deadline);
  }

  /// Replace candidates[0] with this morsel's shard sub-list (the
  /// non-lazy parallel path).
  void SetFirstCandidates(const std::vector<RowId>* cand0) {
    first_candidates_ = cand0;
  }

  /// Defer the first table's filtering into the pipeline: scan `seed`
  /// (or all `row_count` rows when scan_all) lazily, applying `filters`
  /// inline, so an early stop skips the tail of the base scan. `compiled`
  /// runs parallel to `filters` (entry i compiles filters[i]); a filter
  /// without a column filter (col_idx < 0) Evals in the same position of
  /// the conjunct order.
  void SetLazyFirstTable(const std::vector<RowId>* seed, bool scan_all,
                         RowId row_count,
                         const std::vector<const Expr*>* filters,
                         const std::vector<ColumnPredicate>* compiled) {
    lazy0_seed_ = seed;
    lazy0_scan_all_ = scan_all;
    lazy0_row_count_ = row_count;
    lazy0_filters_ = filters;
    lazy0_compiled_ = compiled;
  }

  void Run() {
    Tuple tuple(levels_.size(), kUnbound);
    EmitFrom(0, tuple);
  }

  const Status& error() const { return error_; }

 private:
  bool EmitFrom(size_t a, Tuple& t) {
    if (a == levels_.size()) return EmitRow(t);
    const JoinLevel& level = levels_[a];
    if (!level.keys.empty()) {
      // Hash join: probe the level's build table with the bound aliases.
      key_scratch_.clear();
      key_scratch_.reserve(level.keys.size());
      for (const auto& [nc, oc] : level.keys) {
        key_scratch_.push_back(
            binder_.table(oc.alias_idx)->Cell(t[oc.alias_idx], oc.col_idx));
      }
      auto it = level.build.find(key_scratch_);
      if (it == level.build.end()) return true;
      return level.build_rows.ForEach(
          it->second, [&](RowId rid) { return BindAndDescend(a, rid, t); });
    }
    if (a == 0 && (lazy0_seed_ != nullptr || lazy0_scan_all_)) {
      return ScanFirstTable(t);
    }
    if (a == 0) {
      // Cross product with the filtered candidates: this morsel's slice of
      // its shard's pre-split sub-list on the parallel path.
      const std::vector<RowId>& list =
          first_candidates_ != nullptr ? *first_candidates_ : candidates_[0];
      size_t end = std::min(morsel_hi_, list.size());
      for (size_t i = morsel_lo_; i < end; ++i) {
        if (BudgetSpent()) return false;
        if (!BindAndDescend(a, list[i], t)) return false;
      }
      return true;
    }
    for (RowId rid : candidates_[a]) {
      if (!BindAndDescend(a, rid, t)) return false;
    }
    return true;
  }

  /// True once the shared LIMIT budget has been drained by any worker, the
  /// query has been cancelled, or its deadline has passed.
  bool BudgetSpent() {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    if (deadline_.Expired()) return true;
    return shared_claimed_ != nullptr &&
           shared_claimed_->load(std::memory_order_relaxed) >= shared_cap_;
  }

  bool ScanFirstTable(Tuple& t) {
    bool keep_going = true;
    const Table* table0 = binder_.table(0);
    auto visit = [&](RowId rid) {
      if (BudgetSpent()) return false;
      if (stats_ != nullptr) ++stats_->base_rows_scanned;
      t[0] = rid;
      bool pass = true;
      size_t sh = table0->ShardOf(rid);
      size_t pos = table0->LocalOf(rid);
      for (size_t i = 0; i < lazy0_filters_->size(); ++i) {
        // The column filter where the conjunct compiled; same conjunct
        // position, identical verdict to the Eval below.
        const ColumnPredicate& cp = (*lazy0_compiled_)[i];
        if (cp.col_idx >= 0) {
          if (stats_ != nullptr) ++stats_->columnar_filter_rows;
          if (!cp.filter.Matches(sh, pos)) {
            pass = false;
            break;
          }
          continue;
        }
        auto v = eval_.Eval(*(*lazy0_filters_)[i], t);
        if (!v.ok()) {
          error_ = v.status();
          t[0] = kUnbound;
          return false;
        }
        if (!Evaluator::Truthy(v.value())) {
          pass = false;
          break;
        }
      }
      bool cont = pass ? Descend(0, t) : true;
      t[0] = kUnbound;
      return cont;
    };
    if (lazy0_scan_all_) {
      if (shard_ >= 0) {
        // Walk this shard's rows by local position, so a morsel range
        // restricts by position within the shard.
        const storage::ShardLayout& layout = table0->layout();
        size_t shard = static_cast<size_t>(shard_);
        size_t end =
            std::min(morsel_hi_, layout.SizeOf(shard, lazy0_row_count_));
        for (size_t k = morsel_lo_; k < end && keep_going; ++k) {
          keep_going = visit(layout.GlobalOf(shard, k));
        }
      } else {
        for (RowId rid = 0; rid < lazy0_row_count_ && keep_going; ++rid) {
          keep_going = visit(rid);
        }
      }
    } else {
      size_t end = std::min(morsel_hi_, lazy0_seed_->size());
      for (size_t i = morsel_lo_; i < end && keep_going; ++i) {
        keep_going = visit((*lazy0_seed_)[i]);
      }
    }
    return keep_going;
  }

  bool BindAndDescend(size_t a, RowId rid, Tuple& t) {
    t[a] = rid;
    bool cont = Descend(a, t);
    t[a] = kUnbound;
    return cont;
  }

  /// `t[a]` just bound: count it, apply the conjuncts that became fully
  /// bound at this level, and continue to the next one.
  bool Descend(size_t a, Tuple& t) {
    if (stats_ != nullptr) ++stats_->join_output_tuples;
    for (const Expr* e : levels_[a].ready) {
      auto v = eval_.Eval(*e, t);
      if (!v.ok()) {
        error_ = v.status();
        return false;
      }
      if (!Evaluator::Truthy(v.value())) return true;
    }
    return EmitFrom(a + 1, t);
  }

  bool EmitRow(const Tuple& t) {
    Row row;
    if (has_star_) {
      for (size_t a = 0; a < levels_.size(); ++a) {
        const Table* table = binder_.table(a);
        for (size_t c = 0; c < table->schema().size(); ++c) {
          row.push_back(table->Cell(t[a], static_cast<int>(c)));
        }
      }
    }
    for (const Expr* e : projected_) {
      auto v = eval_.Eval(*e, t);
      if (!v.ok()) {
        error_ = v.status();
        return false;
      }
      row.push_back(std::move(v).value());
    }
    if (stmt_.distinct && !seen_.insert(row).second) return true;
    if (shared_claimed_ != nullptr &&
        shared_claimed_->fetch_add(1, std::memory_order_relaxed) >=
            shared_cap_) {
      return false;  // budget exhausted by other workers; drop the row
    }
    if (partition_distinct_) {
      size_t part = storage::DistinctPartitionOf(row);
      rs_->parts[part].push_back(std::move(row));
    } else {
      rs_->rows.push_back(std::move(row));
    }
    if (stats_ != nullptr) ++stats_->rows_emitted;
    ++emitted_;
    return emitted_ < local_cap_;
  }

  const SelectStmt& stmt_;
  const Binder& binder_;
  const Evaluator& eval_;
  const std::vector<JoinLevel>& levels_;
  const std::vector<std::vector<RowId>>& candidates_;
  const std::vector<const Expr*>& projected_;
  bool has_star_;
  bool partition_distinct_;
  size_t local_cap_;
  size_t emitted_ = 0;     // rows this pipeline kept (vs. local_cap_)
  int64_t shard_ = -1;     // -1: iterate every shard (serial pipeline)
  size_t morsel_lo_ = 0;   // positional first-table range [lo, hi)
  size_t morsel_hi_ = static_cast<size_t>(-1);
  std::atomic<size_t>* shared_claimed_ = nullptr;
  size_t shared_cap_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  DeadlinePoller deadline_;
  const std::vector<RowId>* first_candidates_ = nullptr;
  ExecStats* stats_;
  storage::WorkerRows* rs_;
  const std::vector<RowId>* lazy0_seed_ = nullptr;
  bool lazy0_scan_all_ = false;
  RowId lazy0_row_count_ = 0;
  const std::vector<const Expr*>* lazy0_filters_ = nullptr;
  const std::vector<ColumnPredicate>* lazy0_compiled_ = nullptr;
  Status error_ = Status::OK();
  std::unordered_set<Row, ValueRowHash, ValueRowEq> seen_;
  std::vector<Value> key_scratch_;
};

}  // namespace

void ExecStats::Add(const ExecStats& other) {
  base_rows_scanned += other.base_rows_scanned;
  index_probe_rows += other.index_probe_rows;
  join_output_tuples += other.join_output_tuples;
  rows_emitted += other.rows_emitted;
  columnar_filter_rows += other.columnar_filter_rows;
  like_dict_evals += other.like_dict_evals;
  morsels_executed += other.morsels_executed;
}

void ExecStats::WriteSpan(obs::TraceSpan* span) const {
  if (span == nullptr) return;
  span->Set("base_rows_scanned", static_cast<int64_t>(base_rows_scanned));
  span->Set("index_probe_rows", static_cast<int64_t>(index_probe_rows));
  span->Set("rows_emitted", static_cast<int64_t>(rows_emitted));
  span->Set("columnar_filter_rows",
            static_cast<int64_t>(columnar_filter_rows));
  span->Set("morsels_executed", static_cast<int64_t>(morsels_executed));
}

Result<BlockResultSet> ExecuteSelectBlocks(const SelectStmt& stmt,
                                           const Catalog& catalog,
                                           const SelectOptions& options,
                                           ExecStats* caller_stats) {
  auto start = obs::TraceSpan::Clock::now();
  // This query's counters, folded into `caller_stats` once it has run.
  ExecStats query_stats;
  ExecStats* stats = &query_stats;

  // Bind all table refs (FROM list then JOINs, left-deep order).
  std::vector<std::string> aliases;
  std::vector<const Table*> tables;
  auto bind_table = [&](const TableRef& ref) -> Status {
    const Table* t = catalog.FindTable(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    for (const std::string& a : aliases) {
      if (a == ref.effective_alias()) {
        return Status::InvalidArgument("duplicate alias: " + a);
      }
    }
    aliases.push_back(ref.effective_alias());
    tables.push_back(t);
    return Status::OK();
  };
  for (const TableRef& ref : stmt.from) RAPTOR_RETURN_NOT_OK(bind_table(ref));
  for (const JoinClause& j : stmt.joins) RAPTOR_RETURN_NOT_OK(bind_table(j.table));

  Binder binder(aliases, tables);
  Evaluator eval(binder);

  // Gather conjuncts from WHERE and all JOIN ... ON clauses.
  std::vector<const Expr*> raw_conjuncts;
  SplitConjuncts(stmt.where.get(), &raw_conjuncts);
  for (const JoinClause& j : stmt.joins) {
    SplitConjuncts(j.on.get(), &raw_conjuncts);
  }
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(raw_conjuncts.size());
  for (const Expr* e : raw_conjuncts) {
    Conjunct c;
    c.expr = e;
    CollectAliases(*e, binder, &c.aliases);
    conjuncts.push_back(std::move(c));
  }

  size_t n_aliases = aliases.size();

  // LIMIT pushes into the pipeline (the emitter's seen-set makes it count
  // post-dedup rows under DISTINCT); ORDER BY must see every row, so it
  // disables the pushdown.
  bool limit_pushed = stmt.limit >= 0 && stmt.order_by.empty();

  // --- Base-table filtering -------------------------------------------------
  // For each alias, gather its single-table conjuncts, fetch its rows
  // through the cheapest access path (ChooseAccessPath), then filter the
  // candidates.
  // With LIMIT pushed down, the first table's filtering is deferred into
  // the pipeline so its scan stops early; later tables always materialize
  // (hash-join build sides and cross products iterate them repeatedly).
  std::vector<std::vector<const Expr*>> filters(n_aliases);
  for (size_t a = 0; a < n_aliases; ++a) {
    for (Conjunct& c : conjuncts) {
      if (c.aliases.size() == 1 && *c.aliases.begin() == static_cast<int>(a)) {
        filters[a].push_back(c.expr);
        c.applied = true;
      }
    }
  }
  // Compile each single-table filter against the frozen columnar storage
  // once per query; entries stay parallel to filters[a] so a conjunct
  // that did not compile Evals in the same conjunct position.
  std::vector<std::vector<ColumnPredicate>> compiled(n_aliases);
  for (size_t a = 0; a < n_aliases; ++a) {
    compiled[a].reserve(filters[a].size());
    for (const Expr* f : filters[a]) {
      compiled[a].push_back(
          ColumnPredicate::Compile(*f, binder, static_cast<int>(a)));
    }
  }
  std::vector<std::vector<RowId>> candidates(n_aliases);
  std::vector<RowId> lazy0_seed;
  bool lazy0 = false;
  bool lazy0_scan_all = false;
  // The driving alias (FROM position 0) is planned last, so its access
  // path can seed from the join keys of aliases already filtered.
  for (size_t k = 0; k < n_aliases; ++k) {
    size_t a = (k + 1) % n_aliases;
    const Table* table = tables[a];
    AccessPath path =
        ChooseAccessPath(a, filters[a], compiled[a], conjuncts, binder,
                         candidates);
    obs::Note(options.trace, "access." + aliases[a],
              path.col < 0 ? std::string("scan")
                           : path.kind + ":" +
                                 table->schema().column(path.col).name);
    std::vector<RowId> seed;
    bool seeded = path.col >= 0;
    if (seeded) {
      // Materialize the winner: union of its per-shard buckets, re-sorted
      // into global row order (buckets of distinct values are disjoint;
      // duplicate IN values are dropped by the unique pass).
      for (const Value& v : path.keys) {
        for (size_t s = 0; s < table->shard_count(); ++s) {
          const std::vector<RowId>& bucket = table->Probe(path.col, v, s);
          seed.insert(seed.end(), bucket.begin(), bucket.end());
        }
      }
      std::sort(seed.begin(), seed.end());
      seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
      stats->index_probe_rows += seed.size();
    }
    if (a == 0 && limit_pushed) {
      lazy0 = true;
      lazy0_scan_all = !seeded;
      lazy0_seed = std::move(seed);
      continue;
    }
    if (!seeded) {
      seed.resize(table->row_count());
      for (RowId i = 0; i < table->row_count(); ++i) seed[i] = i;
    }
    // Apply all single-table filters, through the column filter where the
    // conjunct compiled.
    Tuple probe(n_aliases, kUnbound);
    std::vector<RowId>& out = candidates[a];
    out.reserve(seed.size());
    for (RowId rid : seed) {
      ++stats->base_rows_scanned;
      probe[a] = rid;
      bool pass = true;
      size_t sh = table->ShardOf(rid);
      size_t pos = table->LocalOf(rid);
      for (size_t i = 0; i < filters[a].size(); ++i) {
        if (compiled[a][i].col_idx >= 0) {
          ++stats->columnar_filter_rows;
          if (!compiled[a][i].filter.Matches(sh, pos)) {
            pass = false;
            break;
          }
          continue;
        }
        auto v = eval.Eval(*filters[a][i], probe);
        if (!v.ok()) return v.status();
        if (!Evaluator::Truthy(v.value())) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(rid);
    }
  }

  // --- Join planning (left-deep, FROM order) --------------------------------
  // Classify the remaining conjuncts level by level: equi-join keys against
  // already-bound aliases (hash-join build tables constructed up front from
  // the filtered candidates), and residual conjuncts applied at the first
  // level where all their aliases are bound.
  std::vector<JoinLevel> levels(n_aliases);
  std::set<int> bound;
  for (size_t a = 0; a < n_aliases; ++a) {
    // Equi-join conjuncts linking alias `a` to already-bound aliases:
    // colref(a) = colref(bound).
    for (Conjunct& c : conjuncts) {
      if (c.applied || c.expr->kind != ExprKind::kBinary ||
          c.expr->op != BinaryOp::kEq) {
        continue;
      }
      const Expr& e = *c.expr;
      if (e.lhs->kind != ExprKind::kColumnRef ||
          e.rhs->kind != ExprKind::kColumnRef) {
        continue;
      }
      auto l = binder.Resolve(*e.lhs);
      auto r = binder.Resolve(*e.rhs);
      if (!l.ok() || !r.ok()) continue;
      BoundColumn lc = l.value(), rc = r.value();
      auto is_new = [&](const BoundColumn& b) {
        return b.alias_idx == static_cast<int>(a);
      };
      auto is_bound = [&](const BoundColumn& b) {
        return bound.count(b.alias_idx) > 0;
      };
      if (is_new(lc) && is_bound(rc)) {
        levels[a].keys.emplace_back(lc, rc);
        c.applied = true;
      } else if (is_new(rc) && is_bound(lc)) {
        levels[a].keys.emplace_back(rc, lc);
        c.applied = true;
      }
    }
    bound.insert(static_cast<int>(a));
    // Residual conjuncts that become fully bound at this level (e.g.
    // temporal constraints between two event aliases).
    for (Conjunct& c : conjuncts) {
      if (c.applied) continue;
      bool ready = true;
      for (int al : c.aliases) {
        if (!bound.count(al)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        levels[a].ready.push_back(c.expr);
        c.applied = true;
      }
    }
  }
  for (size_t a = 0; a < n_aliases; ++a) {
    if (levels[a].keys.empty()) continue;
    const Table* table = tables[a];
    std::vector<Value> key_vals;
    for (RowId rid : candidates[a]) {
      key_vals.clear();
      key_vals.reserve(levels[a].keys.size());
      for (const auto& [nc, oc] : levels[a].keys) {
        key_vals.push_back(table->Cell(rid, nc.col_idx));
      }
      levels[a].build_rows.Append(levels[a].build[key_vals], rid);
    }
  }

  // --- Projection setup -----------------------------------------------------
  BlockResultSet result;
  std::vector<const Expr*> projected;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t a = 0; a < n_aliases; ++a) {
        for (size_t c = 0; c < tables[a]->schema().size(); ++c) {
          result.columns.push_back(aliases[a] + "." +
                                   tables[a]->schema().column(c).name);
        }
      }
    } else {
      result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                  : item.alias);
      projected.push_back(item.expr.get());
    }
  }
  bool has_star = std::any_of(stmt.items.begin(), stmt.items.end(),
                              [](const SelectItem& i) { return i.star; });

  // --- Streaming scan / join / emit pipeline --------------------------------
  size_t local_cap =
      limit_pushed ? static_cast<size_t>(stmt.limit) : static_cast<size_t>(-1);
  // Fan the base scan (and with it the whole probe pipeline) out over the
  // first table's shards under the shared rule (storage/shard_parallel.h),
  // sized by the first table's scan or seed list.
  size_t n_shards = n_aliases == 0 ? 1 : tables[0]->shard_count();
  bool parallel = storage::FanOut(
      options.parallel_shards, n_shards, limit_pushed ? stmt.limit : -1,
      options.parallel_min_rows, [&] {
        return lazy0 ? (lazy0_scan_all ? tables[0]->row_count()
                                       : lazy0_seed.size())
                     : candidates[0].size();
      });
  if (!(limit_pushed && stmt.limit == 0)) {
    if (!parallel) {
      storage::WorkerRows serial_rs;
      TuplePipeline pipeline(stmt, binder, eval, levels, candidates, projected,
                             has_star, /*partition_distinct=*/false,
                             local_cap, stats, &serial_rs);
      if (lazy0) {
        pipeline.SetLazyFirstTable(lazy0_scan_all ? nullptr : &lazy0_seed,
                                   lazy0_scan_all, tables[0]->row_count(),
                                   &filters[0], &compiled[0]);
      }
      pipeline.SetCancelFlag(options.cancel);
      pipeline.SetDeadline(options.deadline);
      pipeline.Run();
      storage::WorkerSpan(options.trace, 0, start, query_stats);
      RAPTOR_RETURN_NOT_OK(pipeline.error());
      result.rows.Adopt(std::move(serial_rs.rows));
    } else {
      // Pre-split the shared first-table iteration list (index seed or
      // filtered candidates) into per-shard sub-lists at plan time, so a
      // morsel is a positional slice of its shard's list. Order within a
      // shard is preserved.
      std::vector<std::vector<RowId>> first_by_shard;
      const std::vector<RowId>* first_list =
          lazy0 ? (lazy0_scan_all ? nullptr : &lazy0_seed) : &candidates[0];
      if (first_list != nullptr) {
        first_by_shard.resize(n_shards);
        for (RowId rid : *first_list) {
          first_by_shard[tables[0]->ShardOf(rid)].push_back(rid);
        }
      }
      std::vector<size_t> counts(n_shards);
      for (size_t s = 0; s < n_shards; ++s) {
        counts[s] = first_list != nullptr
                        ? first_by_shard[s].size()
                        : tables[0]->layout().SizeOf(s, tables[0]->row_count());
      }
      // LIMIT policy (shared atomic claims vs per-worker caps merged with
      // a re-dedup): see storage/shard_parallel.h.
      storage::ShardRowBudget budget(limit_pushed ? stmt.limit : -1,
                                     stmt.distinct);
      RAPTOR_RETURN_NOT_OK(storage::RunMorsels(
          counts, options.morsel_size, options.parallel_shards,
          stmt.distinct, options.trace, stats, &result.rows, [&] {
            // Evaluator IN-list caches are mutable, so every worker owns
            // one (shared across its morsels).
            return [&, worker_eval = Evaluator(binder)](
                       const storage::Morsel& mo, ExecStats* ws,
                       storage::WorkerRows* rs) {
              TuplePipeline pipeline(stmt, binder, worker_eval, levels,
                                     candidates, projected, has_star,
                                     /*partition_distinct=*/stmt.distinct,
                                     budget.local_cap, ws, rs);
              if (lazy0) {
                pipeline.SetLazyFirstTable(
                    lazy0_scan_all ? nullptr : &first_by_shard[mo.shard],
                    lazy0_scan_all, tables[0]->row_count(), &filters[0],
                    &compiled[0]);
              } else {
                pipeline.SetFirstCandidates(&first_by_shard[mo.shard]);
              }
              pipeline.RestrictFirstTableToMorsel(mo.shard, mo.lo, mo.hi);
              pipeline.SetCancelFlag(options.cancel);
              pipeline.SetDeadline(options.deadline);
              if (budget.shared) {
                pipeline.SetSharedRowBudget(&budget.claimed,
                                            budget.shared_cap);
              }
              pipeline.Run();
              return pipeline.error();
            };
          }));
    }
  }
  for (const std::vector<ColumnPredicate>& preds : compiled) {
    for (const ColumnPredicate& p : preds) {
      stats->like_dict_evals += p.filter.dict_evals();
    }
  }
  if (options.trace != nullptr) {
    auto add = [&](const char* name, size_t n) {
      options.trace->Add(name, static_cast<int64_t>(n));
    };
    add("index_probe_rows", stats->index_probe_rows);
    add("base_rows_scanned", stats->base_rows_scanned);
    add("columnar_filter_rows", stats->columnar_filter_rows);
    add("like_dict_evals", stats->like_dict_evals);
  }
  if (caller_stats != nullptr) caller_stats->Add(query_stats);
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("sql query cancelled");
  }
  if (DeadlinePoller(options.deadline).ExpiredNow()) {
    return Status::Timeout("sql query deadline exceeded");
  }

  // --- ORDER BY / DISTINCT / LIMIT -------------------------------------------
  if (!stmt.order_by.empty()) {
    // Result rows hold only the projected columns, so each ORDER BY key
    // must name one of them: match its printed text to a column header
    // and sort on that column.
    std::vector<int> key_cols;
    std::vector<bool> desc;
    for (const OrderItem& o : stmt.order_by) {
      std::string txt = o.expr->ToString();
      int col = -1;
      for (size_t c = 0; c < result.columns.size(); ++c) {
        if (result.columns[c] == txt) {
          col = static_cast<int>(c);
          break;
        }
      }
      if (col < 0) {
        return Status::Unsupported("ORDER BY must reference a selected column: " +
                                   txt);
      }
      key_cols.push_back(col);
      desc.push_back(o.descending);
    }
    // Sorting needs random access over every row: flatten the blocks, sort,
    // and re-adopt as one block.
    std::vector<Row> rows = result.rows.Flatten();
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < key_cols.size(); ++k) {
                         int cmp = a[key_cols[k]].Compare(b[key_cols[k]]);
                         if (cmp != 0) return desc[k] ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
    result.rows.Adopt(std::move(rows));
  }
  if (stmt.limit >= 0 &&
      result.rows.row_count() > static_cast<size_t>(stmt.limit)) {
    result.rows.Truncate(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                                const SelectOptions& options,
                                ExecStats* stats) {
  auto blocks = ExecuteSelectBlocks(stmt, catalog, options, stats);
  if (!blocks.ok()) return blocks.status();
  ResultSet result;
  result.columns = std::move(blocks.value().columns);
  result.rows = blocks.value().rows.Flatten();
  return result;
}

double EstimateSelectCost(const SelectStmt& stmt, const Catalog& catalog) {
  // Mirror the executor's binding pass, but tolerate unknown tables: an
  // alias we cannot bind estimates as zero rows rather than erroring (the
  // real run will report the error; admission only needs a price).
  std::vector<std::string> aliases;
  std::vector<const Table*> tables;
  auto bind_table = [&](const TableRef& ref) {
    const Table* t = catalog.FindTable(ref.table);
    if (t == nullptr) return;
    aliases.push_back(ref.effective_alias());
    tables.push_back(t);
  };
  for (const TableRef& ref : stmt.from) bind_table(ref);
  for (const JoinClause& j : stmt.joins) bind_table(j.table);
  if (tables.empty()) return 0.0;

  Binder binder(aliases, tables);
  std::vector<const Expr*> raw_conjuncts;
  SplitConjuncts(stmt.where.get(), &raw_conjuncts);
  for (const JoinClause& j : stmt.joins) {
    SplitConjuncts(j.on.get(), &raw_conjuncts);
  }

  size_t n_aliases = aliases.size();
  // Per alias: the cheapest probe-able eq/IN conjunct's cardinality, or the
  // full row count when nothing probes — exactly the access-path rank the
  // executor's index selection computes before materializing the winner.
  std::vector<double> est(n_aliases, 0.0);
  for (size_t a = 0; a < n_aliases; ++a) est[a] = static_cast<double>(tables[a]->row_count());
  for (const Expr* f : raw_conjuncts) {
    for (size_t a = 0; a < n_aliases; ++a) {
      auto [col, keys] = IndexProbe(*f, binder, a);
      if (col < 0) continue;
      size_t count = 0;
      for (const Value& v : keys) count += tables[a]->ProbeCount(col, v);
      est[a] = std::min(est[a], static_cast<double>(count));
    }
  }

  // The driving alias threads every candidate through the whole left-deep
  // pipeline, so scale it by the join depth; later aliases pay their own
  // filter scan once (hash builds) — a deliberately join-selectivity-blind
  // upper-flavored estimate, cheap and monotone in the inputs.
  double cost = est[0] * static_cast<double>(n_aliases);
  for (size_t a = 1; a < n_aliases; ++a) cost += est[a];
  return cost;
}

}  // namespace raptor::sql
