#include "storage/relational/value.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>

namespace raptor::sql {

int64_t Value::AsInt() const {
  if (is_int()) return std::get<int64_t>(v_);
  if (is_double()) return static_cast<int64_t>(std::get<double>(v_));
  return 0;
}

double Value::AsDouble() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
  return 0.0;
}

const std::string& Value::AsText() const {
  static const std::string kEmpty;
  if (is_text()) return std::get<std::string>(v_);
  return kEmpty;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<int64_t>(v_));
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v_));
    return buf;
  }
  return std::get<std::string>(v_);
}

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  bool lhs_num = is_int() || is_double();
  bool rhs_num = other.is_int() || other.is_double();
  if (lhs_num && rhs_num) {
    if (is_int() && other.is_int()) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    // NaN sorts below every number and equals itself; without this,
    // "equality" via `a < b ? ... : 0` is not transitive and no hash can
    // be consistent with it.
    bool a_nan = std::isnan(a), b_nan = std::isnan(b);
    if (a_nan || b_nan) {
      if (a_nan && b_nan) return 0;
      return a_nan ? -1 : 1;
    }
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (lhs_num != rhs_num) return lhs_num ? -1 : 1;
  const std::string& a = AsText();
  const std::string& b = other.AsText();
  return a < b ? -1 : (a > b ? 1 : 0);
}

size_t ValueHash::operator()(const Value& v) const {
  if (v.is_null()) return 0x9e3779b97f4a7c15ULL;
  if (v.is_int() || v.is_double()) {
    // Compare() coerces int/double to double, so hash the double image to
    // keep Value(1) and Value(1.0) in the same bucket.
    double d = v.AsDouble();
    if (std::isnan(d)) return 0x7ff8dead;  // all NaN payloads compare equal
    if (d == 0.0) d = 0.0;  // collapse -0.0 and +0.0 (they compare equal)
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return std::hash<uint64_t>{}(bits);
  }
  return std::hash<std::string_view>{}(v.AsText());
}

}  // namespace raptor::sql
