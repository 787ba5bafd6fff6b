// Reference evaluator for the SQL subset the TBQL compiler emits: FROM
// lists and JOIN ... ON, WHERE with AND/OR/NOT, comparisons, IN and
// [NOT] LIKE, DISTINCT and ORDER BY. It runs the statement as brute-force
// nested loops over every row of every table — no indexes, no frozen
// columns, no threads, no planner — comparing cells only through
// sql::Value::Compare and LikeMatch. The differential suite checks the
// real executor against it; keep it obviously correct rather than fast.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "storage/relational/sql_ast.h"
#include "storage/relational/sql_executor.h"

namespace raptor::oracle {

class SqlOracle {
 public:
  /// Result rows of `stmt` in nested-loop order (FROM/JOIN order, row ids
  /// ascending), then ORDER BY (stable), DISTINCT and LIMIT.
  static Result<std::vector<sql::Row>> Run(const sql::SelectStmt& stmt,
                                           const sql::Catalog& catalog) {
    SqlOracle o;
    for (const sql::TableRef& ref : stmt.from) {
      RAPTOR_RETURN_NOT_OK(o.Bind(ref, catalog));
    }
    for (const sql::JoinClause& j : stmt.joins) {
      RAPTOR_RETURN_NOT_OK(o.Bind(j.table, catalog));
    }
    // Every ON clause and the WHERE clause must hold (all are AND-ed).
    std::vector<const sql::Expr*> conds;
    for (const sql::JoinClause& j : stmt.joins) conds.push_back(j.on.get());
    if (stmt.where) conds.push_back(stmt.where.get());

    // (projected row, ORDER BY keys) per qualifying tuple.
    std::vector<std::pair<sql::Row, sql::Row>> out;
    std::vector<sql::RowId> tuple(o.tables_.size());
    Status st = Status::OK();
    o.Loop(0, &tuple, [&]() -> Status {
      for (const sql::Expr* c : conds) {
        auto v = o.Eval(*c, tuple);
        if (!v.ok()) return v.status();
        if (!Truthy(v.value())) return Status::OK();
      }
      sql::Row row, keys;
      for (const sql::SelectItem& item : stmt.items) {
        if (item.star) {
          for (size_t a = 0; a < o.tables_.size(); ++a) {
            const sql::Row& r = o.tables_[a]->row(tuple[a]);
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
  Status Bind(const sql::TableRef& ref, const sql::Catalog& catalog) {
    const sql::Table* t = catalog.FindTable(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    aliases_.push_back(ref.effective_alias());
    tables_.push_back(t);
    return Status::OK();
  }

  /// Visit every combination of row ids, alias 0 outermost.
  template <class Fn>
  void Loop(size_t a, std::vector<sql::RowId>* tuple, Fn&& emit,
            Status* st) const {
    if (!st->ok()) return;
    if (a == tables_.size()) {
      *st = emit();
      return;
    }
    for (sql::RowId r = 0; r < tables_[a]->row_count() && st->ok(); ++r) {
      (*tuple)[a] = r;
      Loop(a + 1, tuple, emit, st);
    }
  }

  Result<sql::Value> Column(const sql::Expr& e,
                            const std::vector<sql::RowId>& tuple) const {
    int found_a = -1, found_c = -1;
    for (size_t a = 0; a < tables_.size(); ++a) {
      if (!e.table.empty() && aliases_[a] != e.table) continue;
      int c = tables_[a]->schema().FindColumn(e.column);
      if (c < 0) continue;
      if (found_a >= 0) {
        return Status::InvalidArgument("ambiguous column: " + e.column);
      }
      found_a = static_cast<int>(a);
      found_c = c;
    }
    if (found_a < 0) {
      return Status::NotFound("unknown column: " + e.ToString());
    }
    return tables_[found_a]->row(tuple[found_a])[found_c];
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
  std::vector<const sql::Table*> tables_;
};

}  // namespace raptor::oracle
