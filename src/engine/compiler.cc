#include "engine/compiler.h"

#include <algorithm>

#include "common/strings.h"

namespace raptor::engine {

namespace {

using tbql::AnalyzedQuery;
using tbql::AttrExpr;
using tbql::AttrExprKind;
using tbql::CompareOp;
using tbql::EntityType;
using tbql::OpExpr;
using tbql::OpExprKind;
using tbql::Pattern;
using tbql::TemporalRel;
using tbql::TimeWindow;

/// The relational schema names the "group" attribute "grp" (reserved-ish).
std::string SqlColumn(std::string_view attr) {
  return attr == "group" ? "grp" : std::string(attr);
}

std::string SqlQuote(const std::string& v) {
  return "'" + ReplaceAll(v, "'", "''") + "'";
}

std::string CypherQuote(const std::string& v) {
  return "'" + ReplaceAll(v, "'", "\\'") + "'";
}

std::string DefaultAttr(EntityType type) {
  return std::string(audit::SystemEntity::DefaultAttribute(type));
}

// ------------------------------------------------------------- SQL filters

Result<std::string> AttrExprToSql(const AttrExpr& e, const std::string& alias,
                                  EntityType type);

Result<std::string> CompareToSql(const std::string& alias,
                                 const std::string& attr, CompareOp op,
                                 const std::string& value, bool is_number) {
  std::string col = alias + "." + SqlColumn(attr);
  if (!is_number && value.find('%') != std::string::npos) {
    if (op == CompareOp::kEq) return col + " LIKE " + SqlQuote(value);
    if (op == CompareOp::kNe) return col + " NOT LIKE " + SqlQuote(value);
    return Status::Unsupported("wildcards require = or != comparison");
  }
  std::string rhs = is_number ? value : SqlQuote(value);
  return col + " " + tbql::CompareOpName(op) + " " + rhs;
}

Result<std::string> AttrExprToSql(const AttrExpr& e, const std::string& alias,
                                  EntityType type) {
  switch (e.kind) {
    case AttrExprKind::kBareValue: {
      auto s = CompareToSql(alias, DefaultAttr(type),
                            e.negated ? CompareOp::kNe : CompareOp::kEq,
                            e.value, e.value_is_number);
      return s;
    }
    case AttrExprKind::kCompare:
      return CompareToSql(alias, e.attr, e.op, e.value, e.value_is_number);
    case AttrExprKind::kInList: {
      std::vector<std::string> vals;
      vals.reserve(e.values.size());
      for (const std::string& v : e.values) vals.push_back(SqlQuote(v));
      return alias + "." + SqlColumn(e.attr) +
             (e.negated ? " NOT IN (" : " IN (") + Join(vals, ", ") + ")";
    }
    case AttrExprKind::kAnd: {
      auto l = AttrExprToSql(*e.lhs, alias, type);
      if (!l.ok()) return l.status();
      auto r = AttrExprToSql(*e.rhs, alias, type);
      if (!r.ok()) return r.status();
      return "(" + l.value() + " AND " + r.value() + ")";
    }
    case AttrExprKind::kOr: {
      auto l = AttrExprToSql(*e.lhs, alias, type);
      if (!l.ok()) return l.status();
      auto r = AttrExprToSql(*e.rhs, alias, type);
      if (!r.ok()) return r.status();
      return "(" + l.value() + " OR " + r.value() + ")";
    }
    case AttrExprKind::kNot: {
      auto l = AttrExprToSql(*e.lhs, alias, type);
      if (!l.ok()) return l.status();
      return "NOT (" + l.value() + ")";
    }
  }
  return Status::Internal("unreachable attr expr kind");
}

std::string OpExprToSql(const OpExpr& e, const std::string& event_alias) {
  switch (e.kind) {
    case OpExprKind::kOp:
      return event_alias + ".op = " + SqlQuote(e.op);
    case OpExprKind::kNot:
      return "NOT (" + OpExprToSql(*e.lhs, event_alias) + ")";
    case OpExprKind::kAnd:
      return "(" + OpExprToSql(*e.lhs, event_alias) + " AND " +
             OpExprToSql(*e.rhs, event_alias) + ")";
    case OpExprKind::kOr:
      return "(" + OpExprToSql(*e.lhs, event_alias) + " OR " +
             OpExprToSql(*e.rhs, event_alias) + ")";
  }
  return "1 = 0";
}

std::string WindowToSql(const TimeWindow& w, const std::string& event_alias,
                        audit::Timestamp now) {
  switch (w.kind) {
    case tbql::WindowKind::kRange:
      return StrFormat("%s.start_time >= %lld AND %s.end_time <= %lld",
                       event_alias.c_str(), static_cast<long long>(w.from),
                       event_alias.c_str(), static_cast<long long>(w.to));
    case tbql::WindowKind::kAt:
      return StrFormat("%s.start_time <= %lld AND %s.end_time >= %lld",
                       event_alias.c_str(), static_cast<long long>(w.from),
                       event_alias.c_str(), static_cast<long long>(w.from));
    case tbql::WindowKind::kBefore:
      return StrFormat("%s.end_time <= %lld", event_alias.c_str(),
                       static_cast<long long>(w.from));
    case tbql::WindowKind::kAfter:
      return StrFormat("%s.start_time >= %lld", event_alias.c_str(),
                       static_cast<long long>(w.from));
    case tbql::WindowKind::kLast:
      // "last N <unit>" resolves against the data's maximum timestamp,
      // supplied by the executor.
      return StrFormat("%s.start_time >= %lld", event_alias.c_str(),
                       static_cast<long long>(now - w.last_amount));
  }
  return "1 = 1";
}

/// Render a propagated id set in ascending order, so the emitted query
/// text is deterministic regardless of hash-set iteration order.
std::vector<long long> SortedIds(const EntitySet& ids) {
  std::vector<long long> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string IdListSql(const EntitySet& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (long long id : SortedIds(ids)) parts.push_back(std::to_string(id));
  return Join(parts, ", ");
}

// ---------------------------------------------------------- Cypher filters

Result<std::string> CompareToCypher(const std::string& var,
                                    const std::string& attr, CompareOp op,
                                    const std::string& value, bool is_number) {
  std::string prop = var + "." + attr;
  if (!is_number && value.find('%') != std::string::npos) {
    if (op != CompareOp::kEq && op != CompareOp::kNe) {
      return Status::Unsupported("wildcards require = or != comparison");
    }
    bool leading = StartsWith(value, "%");
    bool trailing = EndsWith(value, "%");
    std::string core = value;
    if (leading) core.erase(0, 1);
    if (trailing && !core.empty()) core.pop_back();
    if (core.find('%') != std::string::npos) {
      return Status::Unsupported("interior wildcards unsupported in Cypher");
    }
    std::string cond;
    if (leading && trailing) {
      cond = prop + " CONTAINS " + CypherQuote(core);
    } else if (trailing) {
      cond = prop + " STARTS WITH " + CypherQuote(core);
    } else if (leading) {
      cond = prop + " ENDS WITH " + CypherQuote(core);
    } else {
      cond = prop + " = " + CypherQuote(core);
    }
    if (op == CompareOp::kNe) cond = "NOT (" + cond + ")";
    return cond;
  }
  std::string rhs = is_number ? value : CypherQuote(value);
  const char* opname = op == CompareOp::kNe ? "<>" : tbql::CompareOpName(op);
  return prop + " " + opname + " " + rhs;
}

Result<std::string> AttrExprToCypher(const AttrExpr& e, const std::string& var,
                                     EntityType type) {
  switch (e.kind) {
    case AttrExprKind::kBareValue:
      return CompareToCypher(var, DefaultAttr(type),
                             e.negated ? CompareOp::kNe : CompareOp::kEq,
                             e.value, e.value_is_number);
    case AttrExprKind::kCompare:
      return CompareToCypher(var, e.attr, e.op, e.value, e.value_is_number);
    case AttrExprKind::kInList: {
      std::vector<std::string> vals;
      vals.reserve(e.values.size());
      for (const std::string& v : e.values) vals.push_back(CypherQuote(v));
      std::string cond =
          var + "." + e.attr + " IN [" + Join(vals, ", ") + "]";
      if (e.negated) cond = "NOT (" + cond + ")";
      return cond;
    }
    case AttrExprKind::kAnd: {
      auto l = AttrExprToCypher(*e.lhs, var, type);
      if (!l.ok()) return l.status();
      auto r = AttrExprToCypher(*e.rhs, var, type);
      if (!r.ok()) return r.status();
      return "(" + l.value() + " AND " + r.value() + ")";
    }
    case AttrExprKind::kOr: {
      auto l = AttrExprToCypher(*e.lhs, var, type);
      if (!l.ok()) return l.status();
      auto r = AttrExprToCypher(*e.rhs, var, type);
      if (!r.ok()) return r.status();
      return "(" + l.value() + " OR " + r.value() + ")";
    }
    case AttrExprKind::kNot: {
      auto l = AttrExprToCypher(*e.lhs, var, type);
      if (!l.ok()) return l.status();
      return "NOT (" + l.value() + ")";
    }
  }
  return Status::Internal("unreachable attr expr kind");
}

std::string OpExprToCypher(const OpExpr& e, const std::string& edge_var) {
  switch (e.kind) {
    case OpExprKind::kOp:
      return edge_var + ".op = " + CypherQuote(e.op);
    case OpExprKind::kNot:
      return "NOT (" + OpExprToCypher(*e.lhs, edge_var) + ")";
    case OpExprKind::kAnd:
      return "(" + OpExprToCypher(*e.lhs, edge_var) + " AND " +
             OpExprToCypher(*e.rhs, edge_var) + ")";
    case OpExprKind::kOr:
      return "(" + OpExprToCypher(*e.lhs, edge_var) + " OR " +
             OpExprToCypher(*e.rhs, edge_var) + ")";
  }
  return "1 = 0";
}

std::string IdListCypher(const EntitySet& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (long long id : SortedIds(ids)) parts.push_back(std::to_string(id));
  return "[" + Join(parts, ", ") + "]";
}

/// The single positive op name if the op expression is exactly one op.
const std::string* SingleOp(const OpExpr* op) {
  if (op != nullptr && op->kind == OpExprKind::kOp) return &op->op;
  return nullptr;
}

/// Collect the subject/object/event conditions shared by both compilers.
struct PatternPieces {
  std::vector<std::string> subject_conds;
  std::vector<std::string> object_conds;
  std::vector<std::string> event_conds;
};

Result<PatternPieces> BuildSqlPieces(const AnalyzedQuery& aq,
                                     const Pattern& p,
                                     const std::string& subj_alias,
                                     const std::string& obj_alias,
                                     const std::string& evt_alias,
                                     const EntityConstraints& constraints,
                                     audit::Timestamp now) {
  PatternPieces pieces;
  pieces.subject_conds.push_back(subj_alias + ".type = 'proc'");
  pieces.object_conds.push_back(
      obj_alias + ".type = '" +
      std::string(audit::EntityTypeName(p.object.type)) + "'");
  // Entity filters merge across all occurrences of the entity id.
  for (const auto& [ref, alias, type] :
       {std::tuple{&p.subject, &subj_alias, p.subject.type},
        std::tuple{&p.object, &obj_alias, p.object.type}}) {
    const tbql::EntityInfo& info = aq.entities.at(ref->id);
    for (const AttrExpr* f : info.filters) {
      auto cond = AttrExprToSql(*f, *alias, type);
      if (!cond.ok()) return cond.status();
      if (ref == &p.subject) {
        pieces.subject_conds.push_back(std::move(cond).value());
      } else {
        pieces.object_conds.push_back(std::move(cond).value());
      }
    }
    auto cit = constraints.find(ref->id);
    if (cit != constraints.end()) {
      if (cit->second.empty()) {
        // An empty propagated domain can never match.
        pieces.event_conds.push_back("1 = 0");
        continue;
      }
      // Constrain the entity alias (the "adding filters" step of the
      // scheduling algorithm); the SQL planner seeds the events access
      // from the constrained alias's join keys.
      std::string cond = *alias + ".id IN (" + IdListSql(cit->second) + ")";
      if (ref == &p.subject) {
        pieces.subject_conds.push_back(std::move(cond));
      } else {
        pieces.object_conds.push_back(std::move(cond));
      }
    }
  }
  if (p.op) pieces.event_conds.push_back(OpExprToSql(*p.op, evt_alias));
  if (p.event_filter) {
    auto cond = AttrExprToSql(*p.event_filter, evt_alias, p.object.type);
    if (!cond.ok()) return cond.status();
    pieces.event_conds.push_back(std::move(cond).value());
  }
  if (p.window.has_value()) {
    pieces.event_conds.push_back(WindowToSql(*p.window, evt_alias, now));
  }
  for (const TimeWindow& w : aq.query->global_windows) {
    pieces.event_conds.push_back(WindowToSql(w, evt_alias, now));
  }
  for (const auto& f : aq.query->global_attr_filters) {
    auto cond = AttrExprToSql(*f, evt_alias, p.object.type);
    if (!cond.ok()) return cond.status();
    pieces.event_conds.push_back(std::move(cond).value());
  }
  return pieces;
}

}  // namespace

Result<DataQuery> CompilePattern(const AnalyzedQuery& aq, size_t idx,
                                 const EntityConstraints& constraints,
                                 audit::Timestamp now) {
  const Pattern& p = aq.query->patterns[idx];
  DataQuery out;
  out.pattern_index = idx;

  bool length1 = !p.path.is_path ||
                 (p.path.min_len == 1 && p.path.max_len == 1);
  if (!p.path.is_path) {
    // Event pattern -> SQL on the relational backend.
    out.backend = Backend::kRelational;
    out.has_event_columns = true;
    auto pieces = BuildSqlPieces(aq, p, "s", "o", "e", constraints, now);
    if (!pieces.ok()) return pieces.status();
    std::vector<std::string> conds;
    for (auto& c : pieces.value().subject_conds) conds.push_back(std::move(c));
    for (auto& c : pieces.value().object_conds) conds.push_back(std::move(c));
    for (auto& c : pieces.value().event_conds) conds.push_back(std::move(c));
    out.text =
        "SELECT e.id, e.subject, e.object, e.start_time, e.end_time "
        "FROM events e JOIN entities s ON e.subject = s.id "
        "JOIN entities o ON e.object = o.id WHERE " +
        Join(conds, " AND ");
    return out;
  }

  // Path pattern -> Cypher on the graph backend.
  out.backend = Backend::kGraph;
  out.has_event_columns = length1;

  std::string subj_label = "proc";
  std::string obj_label = audit::EntityTypeName(p.object.type);
  std::vector<std::string> where;
  for (const auto& [id, var, type] :
       {std::tuple{p.subject.id, std::string("s"), p.subject.type},
        std::tuple{p.object.id, std::string("o"), p.object.type}}) {
    const tbql::EntityInfo& info = aq.entities.at(id);
    for (const AttrExpr* f : info.filters) {
      auto cond = AttrExprToCypher(*f, var, type);
      if (!cond.ok()) return cond.status();
      where.push_back(std::move(cond).value());
    }
    auto cit = constraints.find(id);
    if (cit != constraints.end()) {
      where.push_back(cit->second.empty()
                          ? "1 = 0"
                          : var + ".id IN " + IdListCypher(cit->second));
    }
  }

  std::string match;
  const std::string* single_op = SingleOp(p.op.get());
  if (length1) {
    std::string rel = single_op != nullptr ? (":" + *single_op) : "";
    match = "(s:" + subj_label + ")-[e" + rel + "]->(o:" + obj_label + ")";
    if (single_op == nullptr && p.op) {
      where.push_back(OpExprToCypher(*p.op, "e"));
    }
  } else {
    // Multi-hop: the op constraint applies to the final hop, so the path
    // decomposes as (s)-[*min-1..max-1]->()-[e:op]->(o). When the op is
    // omitted the whole span is a single variable-length relationship.
    int min_len = std::max(1, p.path.min_len);
    int max_len = p.path.max_len;
    if (p.op) {
      std::string span = "*" + std::to_string(std::max(0, min_len - 1)) + "..";
      if (max_len >= 0) span += std::to_string(max_len - 1);
      std::string rel = single_op != nullptr ? (":" + *single_op) : "";
      match = "(s:" + subj_label + ")-[" + span + "]->()-[e" + rel + "]->(o:" +
              obj_label + ")";
      if (single_op == nullptr) where.push_back(OpExprToCypher(*p.op, "e"));
    } else {
      std::string span = "*" + std::to_string(min_len) + "..";
      if (max_len >= 0) span += std::to_string(max_len);
      match = "(s:" + subj_label + ")-[" + span + "]->(o:" + obj_label + ")";
    }
  }
  // Windows constrain the final hop only (paths have no single extent).
  if (out.has_event_columns) {
    if (p.window.has_value()) {
      where.push_back(WindowToSql(*p.window, "e", now));
    }
    for (const TimeWindow& w : aq.query->global_windows) {
      where.push_back(WindowToSql(w, "e", now));
    }
  }

  // Multi-hop paths return pure entity pairs (path existence); many paths
  // can connect the same pair, so DISTINCT dedups at the matcher — where
  // the streaming seen-set short-circuits — instead of blowing up the join
  // phase with one row per path.
  std::string ret = out.has_event_columns
                        ? "RETURN s.id AS sid, o.id AS oid, e.id AS eid, "
                          "e.start_time AS est, e.end_time AS eet"
                        : "RETURN DISTINCT s.id AS sid, o.id AS oid";
  out.text = "MATCH " + match;
  if (!where.empty()) out.text += " WHERE " + Join(where, " AND ");
  out.text += " " + ret;
  return out;
}

Result<std::string> CompileGiantSql(const AnalyzedQuery& aq,
                                    audit::Timestamp now) {
  const tbql::TbqlQuery& q = *aq.query;
  std::vector<std::string> from;
  std::vector<std::string> conds;
  // One events alias per pattern, one entities alias per distinct entity.
  // Aliases are interleaved in pattern order (each event alias followed by
  // its entities on first reference), which is the join order a relational
  // planner can satisfy with equi-joins.
  std::vector<std::string> listed_entities;
  auto list_entity = [&](const std::string& id) -> Status {
    if (std::find(listed_entities.begin(), listed_entities.end(), id) !=
        listed_entities.end()) {
      return Status::OK();
    }
    listed_entities.push_back(id);
    const tbql::EntityInfo& info = aq.entities.at(id);
    from.push_back("entities " + id);
    conds.push_back(id + ".type = '" +
                    std::string(audit::EntityTypeName(info.type)) + "'");
    for (const AttrExpr* f : info.filters) {
      auto cond = AttrExprToSql(*f, id, info.type);
      if (!cond.ok()) return cond.status();
      conds.push_back(std::move(cond).value());
    }
    return Status::OK();
  };
  for (size_t i = 0; i < q.patterns.size(); ++i) {
    const Pattern& p = q.patterns[i];
    if (p.path.is_path && !(p.path.min_len == 1 && p.path.max_len == 1)) {
      return Status::Unsupported(
          "variable-length path patterns cannot be expressed in SQL");
    }
    std::string evt =
        p.id.empty() ? "e" + std::to_string(i + 1) : p.id;
    from.push_back("events " + evt);
    conds.push_back(evt + ".subject = " + p.subject.id + ".id");
    conds.push_back(evt + ".object = " + p.object.id + ".id");
    RAPTOR_RETURN_NOT_OK(list_entity(p.subject.id));
    RAPTOR_RETURN_NOT_OK(list_entity(p.object.id));
    if (p.op) conds.push_back(OpExprToSql(*p.op, evt));
    if (p.event_filter) {
      auto cond = AttrExprToSql(*p.event_filter, evt, p.object.type);
      if (!cond.ok()) return cond.status();
      conds.push_back(std::move(cond).value());
    }
    if (p.window.has_value()) {
      conds.push_back(WindowToSql(*p.window, evt, now));
    }
    for (const TimeWindow& w : q.global_windows) {
      conds.push_back(WindowToSql(w, evt, now));
    }
  }
  auto evt_alias = [&](const std::string& id) -> std::string {
    size_t idx = aq.pattern_by_id.at(id);
    return q.patterns[idx].id.empty() ? "e" + std::to_string(idx + 1)
                                      : q.patterns[idx].id;
  };
  for (const TemporalRel& rel : q.temporal_rels) {
    std::string l = evt_alias(rel.left);
    std::string r = evt_alias(rel.right);
    if (rel.op == tbql::TemporalOp::kAfter) std::swap(l, r);
    if (rel.op == tbql::TemporalOp::kWithin) {
      long long hi = rel.max_gap < 0 ? 0 : rel.max_gap;
      conds.push_back(StrFormat(
          "((%s.start_time >= %s.start_time AND %s.start_time <= "
          "%s.start_time + %lld) OR (%s.start_time >= %s.start_time AND "
          "%s.start_time <= %s.start_time + %lld))",
          r.c_str(), l.c_str(), r.c_str(), l.c_str(), hi, l.c_str(), r.c_str(),
          l.c_str(), r.c_str(), hi));
      continue;
    }
    if (rel.min_gap >= 0 || rel.max_gap >= 0) {
      if (rel.min_gap >= 0) {
        conds.push_back(StrFormat("%s.start_time >= %s.end_time + %lld",
                                  r.c_str(), l.c_str(),
                                  static_cast<long long>(rel.min_gap)));
      }
      if (rel.max_gap >= 0) {
        conds.push_back(StrFormat("%s.start_time <= %s.end_time + %lld",
                                  r.c_str(), l.c_str(),
                                  static_cast<long long>(rel.max_gap)));
      }
    } else {
      conds.push_back(l + ".end_time <= " + r + ".start_time");
    }
  }
  for (const tbql::AttrRel& rel : q.attr_rels) {
    conds.push_back(rel.left_qualifier + "." + SqlColumn(rel.left_attr) + " " +
                    tbql::CompareOpName(rel.op) + " " + rel.right_qualifier +
                    "." + SqlColumn(rel.right_attr));
  }
  std::string sql = "SELECT ";
  if (q.distinct) sql += "DISTINCT ";
  std::vector<std::string> items;
  for (const tbql::ResolvedReturn& r : aq.returns) {
    items.push_back(r.id + "." + SqlColumn(r.attr));
  }
  sql += Join(items, ", ") + " FROM " + Join(from, ", ") + " WHERE " +
         Join(conds, " AND ");
  return sql;
}

Result<std::string> CompileGiantCypher(const AnalyzedQuery& aq,
                                       audit::Timestamp now) {
  const tbql::TbqlQuery& q = *aq.query;
  std::vector<std::string> parts;
  std::vector<std::string> where;
  std::vector<std::string> entity_done;

  auto entity_pattern = [&](const std::string& id,
                            EntityType type) -> std::string {
    bool first = std::find(entity_done.begin(), entity_done.end(), id) ==
                 entity_done.end();
    if (!first) return "(" + id + ")";
    entity_done.push_back(id);
    const tbql::EntityInfo& info = aq.entities.at(id);
    for (const AttrExpr* f : info.filters) {
      auto cond = AttrExprToCypher(*f, id, type);
      if (cond.ok()) where.push_back(std::move(cond).value());
    }
    return "(" + id + ":" + std::string(audit::EntityTypeName(type)) + ")";
  };

  for (size_t i = 0; i < q.patterns.size(); ++i) {
    const Pattern& p = q.patterns[i];
    std::string evt = p.id.empty() ? "e" + std::to_string(i + 1) : p.id;
    std::string part = entity_pattern(p.subject.id, p.subject.type);
    const std::string* single_op = SingleOp(p.op.get());
    bool length1 = !p.path.is_path ||
                   (p.path.min_len == 1 && p.path.max_len == 1);
    if (length1) {
      part += "-[" + evt + (single_op != nullptr ? ":" + *single_op : "") +
              "]->";
      if (single_op == nullptr && p.op) {
        where.push_back(OpExprToCypher(*p.op, evt));
      }
    } else {
      int min_len = std::max(1, p.path.min_len);
      std::string span = "*" + std::to_string(std::max(0, min_len - 1)) + "..";
      if (p.path.max_len >= 0) span += std::to_string(p.path.max_len - 1);
      if (p.op) {
        part += "-[" + span + "]->()-[" + evt +
                (single_op != nullptr ? ":" + *single_op : "") + "]->";
        if (single_op == nullptr) where.push_back(OpExprToCypher(*p.op, evt));
      } else {
        std::string full_span = "*" + std::to_string(min_len) + "..";
        if (p.path.max_len >= 0) full_span += std::to_string(p.path.max_len);
        part += "-[" + full_span + "]->";
      }
    }
    part += entity_pattern(p.object.id, p.object.type);
    parts.push_back(std::move(part));

    if (p.window.has_value()) {
      where.push_back(WindowToSql(*p.window, evt, now));
    }
    for (const TimeWindow& w : q.global_windows) {
      where.push_back(WindowToSql(w, evt, now));
    }
  }
  for (const TemporalRel& rel : q.temporal_rels) {
    std::string l = rel.left, r = rel.right;
    if (rel.op == tbql::TemporalOp::kAfter) std::swap(l, r);
    if (rel.op == tbql::TemporalOp::kWithin) {
      long long hi = rel.max_gap < 0 ? 0 : rel.max_gap;
      where.push_back(StrFormat(
          "((%s.start_time >= %s.start_time AND %s.start_time <= "
          "%s.start_time + %lld) OR (%s.start_time >= %s.start_time AND "
          "%s.start_time <= %s.start_time + %lld))",
          r.c_str(), l.c_str(), r.c_str(), l.c_str(), hi, l.c_str(), r.c_str(),
          l.c_str(), r.c_str(), hi));
      continue;
    }
    if (rel.min_gap >= 0 || rel.max_gap >= 0) {
      if (rel.min_gap >= 0) {
        where.push_back(StrFormat("%s.start_time >= %s.end_time + %lld",
                                  r.c_str(), l.c_str(),
                                  static_cast<long long>(rel.min_gap)));
      }
      if (rel.max_gap >= 0) {
        where.push_back(StrFormat("%s.start_time <= %s.end_time + %lld",
                                  r.c_str(), l.c_str(),
                                  static_cast<long long>(rel.max_gap)));
      }
    } else {
      where.push_back(l + ".end_time <= " + r + ".start_time");
    }
  }
  for (const tbql::AttrRel& rel : q.attr_rels) {
    const char* opname =
        rel.op == tbql::CompareOp::kNe ? "<>" : tbql::CompareOpName(rel.op);
    where.push_back(rel.left_qualifier + "." + rel.left_attr + " " + opname +
                    " " + rel.right_qualifier + "." + rel.right_attr);
  }

  std::string cypher = "MATCH " + Join(parts, ", ");
  if (!where.empty()) cypher += " WHERE " + Join(where, " AND ");
  cypher += " RETURN ";
  if (q.distinct) cypher += "DISTINCT ";
  std::vector<std::string> items;
  for (const tbql::ResolvedReturn& r : aq.returns) {
    if (r.is_event) {
      items.push_back(r.id + "." + r.attr);
    } else {
      items.push_back(r.id + "." + r.attr);
    }
  }
  cypher += Join(items, ", ");
  return cypher;
}

}  // namespace raptor::engine
