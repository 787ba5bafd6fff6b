// Typed cell values for the embedded relational engine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/hash.h"

namespace raptor::sql {

enum class ColumnType {
  kInt64 = 0,
  kDouble,
  kText,
};

/// A dynamically typed cell: NULL, INT64, DOUBLE or TEXT.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_text() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const;      // numeric coercion; 0 for non-numeric
  double AsDouble() const;    // numeric coercion; 0.0 for non-numeric
  const std::string& AsText() const;  // empty string if not text

  /// Render for display and for index keys.
  std::string ToString() const;

  /// Three-way comparison with SQL-ish semantics: NULL sorts first; numeric
  /// types compare numerically (with int/double coercion); text compares
  /// lexicographically; numeric < text across types.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// Hash consistent with Compare() equality: values comparing equal hash
/// equal, including across int/double coercion (Value(1) == Value(1.0)).
/// Enables Value-keyed hash indexes and IN-list sets with no ToString()
/// allocation per probe.
struct ValueHash {
  size_t operator()(const Value& v) const;
};

struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) == 0;
  }
};

/// Hash/equality over whole value rows (join keys, DISTINCT): replaces the
/// old per-row ToString() key concatenation with direct hashing.
struct ValueRowHash {
  size_t operator()(const std::vector<Value>& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    ValueHash vh;
    for (const Value& v : row) h = HashCombine(h, vh(v));
    return h;
  }
};

struct ValueRowEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

/// Per-statement cache of hashed IN-list membership sets, shared by the SQL
/// and Cypher evaluators: built once per expression on first probe, so each
/// candidate row pays an O(1) set lookup instead of an O(list) scan.
/// ExprT only needs an `in_list` member of std::vector<Value>.
template <typename ExprT>
class InListCache {
 public:
  using Set = std::unordered_set<Value, ValueHash, ValueEq>;

  const Set& Get(const ExprT& e) const {
    auto it = sets_.find(&e);
    if (it == sets_.end()) {
      it = sets_.emplace(&e, Set(e.in_list.begin(), e.in_list.end())).first;
    }
    return it->second;
  }

 private:
  mutable std::unordered_map<const ExprT*, Set> sets_;
};

}  // namespace raptor::sql
