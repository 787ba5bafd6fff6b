#include "tbql/ast.h"

#include <algorithm>

#include "common/strings.h"
#include "tbql/parser.h"

namespace raptor::tbql {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

std::string AttrExpr::ToString() const {
  std::string value_text =
      value_is_number ? value : QuoteString(kTbqlLex, value);
  switch (kind) {
    case AttrExprKind::kCompare: {
      std::string a = qualifier.empty() ? attr : qualifier + "." + attr;
      return a + " " + CompareOpName(op) + " " + value_text;
    }
    case AttrExprKind::kBareValue:
      return std::string(negated ? "!" : "") + value_text;
    case AttrExprKind::kInList: {
      std::string a = qualifier.empty() ? attr : qualifier + "." + attr;
      std::vector<std::string> qs;
      qs.reserve(values.size());
      for (const std::string& v : values) {
        qs.push_back(QuoteString(kTbqlLex, v));
      }
      return a + (negated ? " not in (" : " in (") + Join(qs, ", ") + ")";
    }
    case AttrExprKind::kAnd:
      return "(" + lhs->ToString() + " && " + rhs->ToString() + ")";
    case AttrExprKind::kOr:
      return "(" + lhs->ToString() + " || " + rhs->ToString() + ")";
    case AttrExprKind::kNot:
      return "!(" + lhs->ToString() + ")";
  }
  return "?";
}

std::string OpExpr::ToString() const {
  switch (kind) {
    case OpExprKind::kOp: return op;
    case OpExprKind::kNot: return "!" + lhs->ToString();
    case OpExprKind::kAnd: return "(" + lhs->ToString() + " && " + rhs->ToString() + ")";
    case OpExprKind::kOr: return "(" + lhs->ToString() + " || " + rhs->ToString() + ")";
  }
  return "?";
}

bool OpExpr::Matches(std::string_view op_name) const {
  switch (kind) {
    case OpExprKind::kOp: return op == op_name;
    case OpExprKind::kNot: return !lhs->Matches(op_name);
    case OpExprKind::kAnd: return lhs->Matches(op_name) && rhs->Matches(op_name);
    case OpExprKind::kOr: return lhs->Matches(op_name) || rhs->Matches(op_name);
  }
  return false;
}

void OpExpr::CollectOps(std::vector<std::string>* out) const {
  switch (kind) {
    case OpExprKind::kOp:
      out->push_back(op);
      break;
    case OpExprKind::kNot:
      break;  // negated ops do not contribute positive candidates
    case OpExprKind::kAnd:
    case OpExprKind::kOr:
      lhs->CollectOps(out);
      rhs->CollectOps(out);
      break;
  }
}

std::string TimeWindow::ToString() const {
  switch (kind) {
    case WindowKind::kRange:
      return StrFormat("from %lld to %lld", static_cast<long long>(from),
                       static_cast<long long>(to));
    case WindowKind::kAt:
      return StrFormat("at %lld", static_cast<long long>(from));
    case WindowKind::kBefore:
      return StrFormat("before %lld", static_cast<long long>(from));
    case WindowKind::kAfter:
      return StrFormat("after %lld", static_cast<long long>(from));
    case WindowKind::kLast:
      if (last_amount % 1000000 != 0) {
        return StrFormat("last %lld us", static_cast<long long>(last_amount));
      }
      return StrFormat("last %lld sec",
                       static_cast<long long>(last_amount / 1000000));
  }
  return "?";
}

std::string EntityRef::ToString(bool with_filter) const {
  std::string out = std::string(audit::EntityTypeName(type)) + " " + id;
  if (with_filter && filter) out += "[" + filter->ToString() + "]";
  return out;
}

std::string PathSpec::ToString() const {
  if (!is_path) return "";
  std::string out = fuzzy_arrow ? "~>" : "->";
  // A bare "->" reads back as length 1, a bare "~>" as unbounded.
  if (fuzzy_arrow || !(min_len == 1 && max_len == 1)) {
    out += "(";
    if (min_len != 1 || max_len < 0) out += std::to_string(min_len);
    out += "~";
    if (max_len >= 0) out += std::to_string(max_len);
    out += ")";
  }
  return out;
}

std::string Pattern::ToString() const {
  std::string out = subject.ToString();
  if (path.is_path) {
    out += " " + path.ToString();
    if (op) out += "[" + op->ToString() + "]";
  } else {
    out += " " + (op ? op->ToString() : std::string("?"));
  }
  out += " " + object.ToString();
  if (!id.empty()) {
    out += " as " + id;
    if (event_filter) out += "[" + event_filter->ToString() + "]";
  }
  if (window.has_value()) out += " " + window->ToString();
  return out;
}

std::string TemporalRel::ToString() const {
  std::string out = "with " + left + " ";
  switch (op) {
    case TemporalOp::kBefore: out += "before"; break;
    case TemporalOp::kAfter: out += "after"; break;
    case TemporalOp::kWithin: out += "within"; break;
  }
  if (min_gap >= 0 || max_gap >= 0) {
    long long lo = std::max<audit::Timestamp>(min_gap, 0);
    long long hi = std::max<audit::Timestamp>(max_gap, 0);
    if (lo % 1000000 != 0 || hi % 1000000 != 0) {
      out += StrFormat("[%lld-%lld us]", lo, hi);
    } else {
      out += StrFormat("[%lld-%lld sec]", lo / 1000000, hi / 1000000);
    }
  }
  return out + " " + right;
}

std::string AttrRel::ToString() const {
  return "with " + left_qualifier + "." + left_attr + " " +
         CompareOpName(op) + " " + right_qualifier + "." + right_attr;
}

std::string ReturnItem::ToString() const {
  return attr.empty() ? id : id + "." + attr;
}

std::string TbqlQuery::ToString() const {
  std::vector<std::string> lines;
  for (const auto& f : global_attr_filters) lines.push_back(f->ToString());
  for (const TimeWindow& w : global_windows) lines.push_back(w.ToString());
  for (const Pattern& p : patterns) lines.push_back(p.ToString());
  std::vector<std::string> rels;
  for (const TemporalRel& r : temporal_rels) {
    std::string s = r.ToString();
    rels.push_back(s.substr(5));  // strip the leading "with "
  }
  for (const AttrRel& r : attr_rels) {
    std::string s = r.ToString();
    rels.push_back(s.substr(5));
  }
  if (!rels.empty()) lines.push_back("with " + Join(rels, ", "));
  std::string ret = "return ";
  if (distinct) ret += "distinct ";
  std::vector<std::string> items;
  items.reserve(returns.size());
  for (const ReturnItem& r : returns) items.push_back(r.ToString());
  ret += Join(items, ", ");
  lines.push_back(std::move(ret));
  return Join(lines, "\n");
}

}  // namespace raptor::tbql
