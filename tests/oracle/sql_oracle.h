// Reference evaluator for the SQL subset the TBQL compiler emits: FROM
// lists and JOIN ... ON, WHERE with AND/OR/NOT, comparisons, IN and
// [NOT] LIKE, DISTINCT and ORDER BY. It runs the statement as brute-force
// nested loops over every row of every table — no indexes, no threads, no
// planner — comparing cells only through sql::Value::Compare and
// LikeMatch. Its rows come from a SqlCopy, the schemas and rows the test
// inserted, kept beside the database it checks; it never reads the
// database's frozen columns, which are the database's only copy of its
// cells. Each AND-conjunct of the ON and WHERE
// clauses is checked in the loop of the last alias it mentions, so a
// failing prefix is not extended; conjuncts have no side effects, so where
// one is checked changes no result. The differential suite checks the real
// executor against it; keep it obviously correct rather than fast.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "storage/relational/database.h"
#include "storage/relational/sql_ast.h"

namespace raptor::oracle {

/// An sql::Database beside a record of every table created and row
/// inserted through it: CreateTable / Insert forward to the database and
/// keep their own copy, in insert order (so a row's position is its id).
class SqlCopy {
 public:
  struct Table {
    sql::Schema schema;
    std::vector<sql::Row> rows;
  };

  explicit SqlCopy(sql::Database& db) : db_(db) {}

  Status CreateTable(const std::string& name, sql::Schema schema) {
    RAPTOR_RETURN_NOT_OK(db_.CreateTable(name, schema));
    tables_[name].schema = std::move(schema);
    return Status::OK();
  }

  Status Insert(const std::string& table, sql::Row row) {
    RAPTOR_RETURN_NOT_OK(db_.Insert(table, row));
    tables_[table].rows.push_back(std::move(row));
    return Status::OK();
  }

  /// nullptr for a table never created.
  const Table* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
  }

 private:
  sql::Database& db_;
  std::map<std::string, Table> tables_;
};

class SqlOracle {
 public:
  /// Result rows of `stmt` over `data` in nested-loop order (FROM/JOIN
  /// order, row ids ascending), then ORDER BY (stable), DISTINCT and
  /// LIMIT.
  static Result<std::vector<sql::Row>> Run(const sql::SelectStmt& stmt,
                                           const SqlCopy& data) {
    SqlOracle o;
    for (const sql::TableRef& ref : stmt.from) {
      RAPTOR_RETURN_NOT_OK(o.Bind(ref, data));
    }
    for (const sql::JoinClause& j : stmt.joins) {
      RAPTOR_RETURN_NOT_OK(o.Bind(j.table, data));
    }
    if (o.tables_.empty()) return Status::InvalidArgument("oracle: no FROM");
    // Every ON clause and the WHERE clause must hold (all are AND-ed).
    std::vector<const sql::Expr*> conds;
    for (const sql::JoinClause& j : stmt.joins) Split(j.on.get(), &conds);
    Split(stmt.where.get(), &conds);
    o.checks_.resize(o.tables_.size());
    for (const sql::Expr* c : conds) o.checks_[o.LastAlias(*c)].push_back(c);

    // (projected row, ORDER BY keys) per qualifying tuple.
    std::vector<std::pair<sql::Row, sql::Row>> out;
    std::vector<sql::RowId> tuple(o.tables_.size());
    Status st = Status::OK();
    o.Loop(0, &tuple, [&]() -> Status {
      sql::Row row, keys;
      for (const sql::SelectItem& item : stmt.items) {
        if (item.star) {
          for (size_t a = 0; a < o.tables_.size(); ++a) {
            const sql::Row& r = o.tables_[a]->rows[tuple[a]];
            row.insert(row.end(), r.begin(), r.end());
          }
          continue;
        }
        auto v = o.Eval(*item.expr, tuple);
        if (!v.ok()) return v.status();
        row.push_back(std::move(v).value());
      }
      for (const sql::OrderItem& item : stmt.order_by) {
        auto v = o.Eval(*item.expr, tuple);
        if (!v.ok()) return v.status();
        keys.push_back(std::move(v).value());
      }
      out.emplace_back(std::move(row), std::move(keys));
      return Status::OK();
    }, &st);
    RAPTOR_RETURN_NOT_OK(st);

    std::stable_sort(out.begin(), out.end(),
                     [&](const auto& x, const auto& y) {
                       for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                         int c = x.second[k].Compare(y.second[k]);
                         if (c != 0) {
                           return stmt.order_by[k].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    std::vector<sql::Row> rows;
    std::unordered_set<sql::Row, sql::ValueRowHash, sql::ValueRowEq> seen;
    for (auto& [row, keys] : out) {
      if (stmt.distinct && !seen.insert(row).second) continue;
      rows.push_back(std::move(row));
    }
    if (stmt.limit >= 0 && rows.size() > static_cast<size_t>(stmt.limit)) {
      rows.resize(static_cast<size_t>(stmt.limit));
    }
    return rows;
  }

 private:
  Status Bind(const sql::TableRef& ref, const SqlCopy& data) {
    const SqlCopy::Table* t = data.Find(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    aliases_.push_back(ref.effective_alias());
    tables_.push_back(t);
    return Status::OK();
  }

  /// Split an AND-tree into its conjuncts.
  static void Split(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
    if (e == nullptr) return;
    if (e->kind == sql::ExprKind::kBinary && e->op == sql::BinaryOp::kAnd) {
      Split(e->lhs.get(), out);
      Split(e->rhs.get(), out);
    } else {
      out->push_back(e);
    }
  }

  /// Visit every combination of row ids, alias 0 outermost, keeping the
  /// tuples whose bound prefix passes each level's checks.
  template <class Fn>
  void Loop(size_t a, std::vector<sql::RowId>* tuple, Fn&& emit,
            Status* st) const {
    if (!st->ok()) return;
    if (a == tables_.size()) {
      *st = emit();
      return;
    }
    for (sql::RowId r = 0; r < tables_[a]->rows.size() && st->ok(); ++r) {
      (*tuple)[a] = r;
      bool pass = true;
      for (const sql::Expr* c : checks_[a]) {
        auto v = Eval(*c, *tuple);
        if (!v.ok()) {
          *st = v.status();
          return;
        }
        if (!Truthy(v.value())) {
          pass = false;
          break;
        }
      }
      if (pass) Loop(a + 1, tuple, emit, st);
    }
  }

  /// The alias and column index a column reference names.
  Status Resolve(const sql::Expr& e, int* alias, int* col) const {
    *alias = -1;
    for (size_t a = 0; a < tables_.size(); ++a) {
      if (!e.table.empty() && aliases_[a] != e.table) continue;
      int c = tables_[a]->schema.FindColumn(e.column);
      if (c < 0) continue;
      if (*alias >= 0) {
        return Status::InvalidArgument("ambiguous column: " + e.column);
      }
      *alias = static_cast<int>(a);
      *col = c;
    }
    if (*alias < 0) {
      return Status::NotFound("unknown column: " + e.ToString());
    }
    return Status::OK();
  }

  /// The last alias (in loop order) `e` mentions; a column that does not
  /// resolve counts as the last alias of all, where its error surfaces.
  size_t LastAlias(const sql::Expr& e) const {
    if (e.kind == sql::ExprKind::kColumnRef) {
      int a = -1, c = -1;
      if (!Resolve(e, &a, &c).ok()) return tables_.size() - 1;
      return static_cast<size_t>(a);
    }
    size_t last = 0;
    if (e.lhs) last = std::max(last, LastAlias(*e.lhs));
    if (e.rhs) last = std::max(last, LastAlias(*e.rhs));
    return last;
  }

  Result<sql::Value> Column(const sql::Expr& e,
                            const std::vector<sql::RowId>& tuple) const {
    int a = -1, c = -1;
    RAPTOR_RETURN_NOT_OK(Resolve(e, &a, &c));
    return tables_[a]->rows[tuple[a]][c];
  }

  Result<sql::Value> Eval(const sql::Expr& e,
                          const std::vector<sql::RowId>& tuple) const {
    using sql::BinaryOp;
    using sql::ExprKind;
    auto truth = [](bool b) { return sql::Value(static_cast<int64_t>(b)); };
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef:
        return Column(e, tuple);
      case ExprKind::kUnaryNot: {
        auto v = Eval(*e.lhs, tuple);
        if (!v.ok()) return v.status();
        return truth(!Truthy(v.value()));
      }
      case ExprKind::kInList: {
        auto v = Eval(*e.lhs, tuple);
        if (!v.ok()) return v.status();
        bool found = false;
        for (const sql::Value& item : e.in_list) {
          found = found || v.value().Compare(item) == 0;
        }
        return truth(found != e.negated);
      }
      case ExprKind::kBinary:
        break;
    }
    auto l = Eval(*e.lhs, tuple);
    if (!l.ok()) return l.status();
    // AND / OR decide on the left operand when they can.
    if (e.op == BinaryOp::kAnd && !Truthy(l.value())) return truth(false);
    if (e.op == BinaryOp::kOr && Truthy(l.value())) return truth(true);
    auto r = Eval(*e.rhs, tuple);
    if (!r.ok()) return r.status();
    const sql::Value& x = l.value();
    const sql::Value& y = r.value();
    switch (e.op) {
      case BinaryOp::kAnd: return truth(Truthy(x) && Truthy(y));
      case BinaryOp::kOr: return truth(Truthy(x) || Truthy(y));
      case BinaryOp::kEq: return truth(x.Compare(y) == 0);
      case BinaryOp::kNe: return truth(x.Compare(y) != 0);
      case BinaryOp::kLt: return truth(x.Compare(y) < 0);
      case BinaryOp::kLe: return truth(x.Compare(y) <= 0);
      case BinaryOp::kGt: return truth(x.Compare(y) > 0);
      case BinaryOp::kGe: return truth(x.Compare(y) >= 0);
      case BinaryOp::kLike:
        return truth(LikeMatch(x.ToString(), y.ToString()));
      case BinaryOp::kNotLike:
        return truth(!LikeMatch(x.ToString(), y.ToString()));
      default:
        return Status::Unsupported("oracle: operator outside the subset");
    }
  }

  /// SQL truthiness: NULL, zero and the empty string are false.
  static bool Truthy(const sql::Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  std::vector<std::string> aliases_;
  std::vector<const SqlCopy::Table*> tables_;
  std::vector<std::vector<const sql::Expr*>> checks_;  // per loop level
};

}  // namespace raptor::oracle
