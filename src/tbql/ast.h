// TBQL (Threat Behavior Query Language) AST — Grammar 1 of the paper.
//
// A TBQL query is a sequence of event patterns / variable-length event path
// patterns over typed system entities, optional global filters, optional
// temporal & attribute relationships between patterns, and a return clause:
//
//   proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
//   proc p1 write file f2["%/tmp/upload.tar%"] as evt2
//   with evt1 before evt2
//   return distinct p1, f1, f2
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/types.h"

namespace raptor::tbql {

using EntityType = audit::EntityType;

// ----------------------------------------------------------- attr_exp rule

enum class AttrExprKind {
  kCompare,    // attr bop value
  kBareValue,  // '!'? value      (default-attribute sugar)
  kInList,     // attr ('not')? in (v1, v2, ...)
  kAnd,
  kOr,
  kNot,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

struct AttrExpr {
  AttrExprKind kind = AttrExprKind::kBareValue;

  // kCompare / kInList: attribute reference, optionally qualified ("p1.pid"
  // in with/global clauses; bare "pid" inside entity filters).
  std::string qualifier;
  std::string attr;

  CompareOp op = CompareOp::kEq;
  std::string value;              // kCompare / kBareValue (string form)
  bool value_is_number = false;
  std::vector<std::string> values;  // kInList
  bool negated = false;             // kBareValue('!') / kInList('not in')

  std::unique_ptr<AttrExpr> lhs;  // kAnd / kOr / kNot
  std::unique_ptr<AttrExpr> rhs;

  std::string ToString() const;
};

// ------------------------------------------------------------ op_exp rule

enum class OpExprKind { kOp, kNot, kAnd, kOr };

struct OpExpr {
  OpExprKind kind = OpExprKind::kOp;
  std::string op;  // operation name, e.g. "read"
  std::unique_ptr<OpExpr> lhs;
  std::unique_ptr<OpExpr> rhs;

  std::string ToString() const;

  /// Evaluate against a concrete operation name.
  bool Matches(std::string_view op_name) const;

  /// Collect the positive operation names mentioned (for pruning-score and
  /// compilation to op IN (...) filters).
  void CollectOps(std::vector<std::string>* out) const;
};

// -------------------------------------------------------------- wind rule

enum class WindowKind { kRange, kAt, kBefore, kAfter, kLast };

struct TimeWindow {
  WindowKind kind = WindowKind::kRange;
  audit::Timestamp from = 0;  // kRange / kAt / kBefore / kAfter
  audit::Timestamp to = 0;
  audit::Timestamp last_amount = 0;  // kLast, already scaled to microseconds

  std::string ToString() const;
};

// ------------------------------------------------------------ entity rule

struct EntityRef {
  EntityType type = EntityType::kFile;
  std::string id;
  std::unique_ptr<AttrExpr> filter;  // may be null

  std::string ToString(bool with_filter = true) const;
};

// ---------------------------------------------------------- op_path rule

struct PathSpec {
  bool is_path = false;   // false: basic event pattern
  bool fuzzy_arrow = false;  // "~>" (true) vs "->" (false)
  int min_len = 1;
  int max_len = 1;        // -1 = unbounded
  // The operation constraint of the final hop lives in Pattern::op.

  std::string ToString() const;
};

// -------------------------------------------------------------- patt rule

struct Pattern {
  EntityRef subject;
  EntityRef object;
  std::unique_ptr<OpExpr> op;  // null for "~>" with omitted op
  PathSpec path;
  std::string id;                          // "as evtN"; may be empty
  std::unique_ptr<AttrExpr> event_filter;  // "as evtN[...]"; may be null
  std::optional<TimeWindow> window;

  std::string ToString() const;
};

// --------------------------------------------------------------- rel rule

enum class TemporalOp { kBefore, kAfter, kWithin };

struct TemporalRel {
  std::string left;
  TemporalOp op = TemporalOp::kBefore;
  std::string right;
  // Optional "[n-m unit]" bound, scaled to microseconds; -1 if absent.
  audit::Timestamp min_gap = -1;
  audit::Timestamp max_gap = -1;

  std::string ToString() const;
};

struct AttrRel {
  std::string left_qualifier, left_attr;
  CompareOp op = CompareOp::kEq;
  std::string right_qualifier, right_attr;

  std::string ToString() const;
};

// ------------------------------------------------------------ return rule

struct ReturnItem {
  std::string id;
  std::string attr;  // empty = default attribute (syntactic sugar)

  std::string ToString() const;
};

// -------------------------------------------------------------- the query

struct TbqlQuery {
  // Global filters: attribute expressions and/or time windows that apply to
  // every pattern.
  std::vector<std::unique_ptr<AttrExpr>> global_attr_filters;
  std::vector<TimeWindow> global_windows;

  std::vector<Pattern> patterns;
  std::vector<TemporalRel> temporal_rels;
  std::vector<AttrRel> attr_rels;

  bool distinct = false;
  std::vector<ReturnItem> returns;

  std::string ToString() const;
};

}  // namespace raptor::tbql
