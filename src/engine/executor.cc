#include "engine/executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/interner.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace raptor::engine {

namespace {

using tbql::AnalyzedQuery;
using tbql::AttrExpr;
using tbql::AttrExprKind;
using tbql::Pattern;
using tbql::TemporalRel;

/// One concrete match of a TBQL pattern: the bound subject/object entity
/// ids, plus event identity and times when the pattern is a (length-1)
/// event pattern.
struct PatternMatch {
  long long subject_id = 0;
  long long object_id = 0;
  long long event_id = 0;  // 0 when the pattern is a multi-hop path
  long long start_time = 0;
  long long end_time = 0;
  bool has_event = false;
};

size_t CountAtoms(const AttrExpr& e) {
  switch (e.kind) {
    case AttrExprKind::kBareValue:
    case AttrExprKind::kCompare:
    case AttrExprKind::kInList:
      return 1;
    case AttrExprKind::kAnd:
    case AttrExprKind::kOr:
      return CountAtoms(*e.lhs) + CountAtoms(*e.rhs);
    case AttrExprKind::kNot:
      return CountAtoms(*e.lhs);
  }
  return 0;
}

/// Sentinel for an entity slot not yet bound by any joined pattern.
constexpr long long kUnboundEntity = std::numeric_limits<long long>::min();

/// A partial/full assignment under construction during the join phase.
/// TBQL entity ids are interned into dense slots up front, so extending an
/// assignment copies two flat vectors instead of two string-keyed maps.
struct Assignment {
  std::vector<long long> entities;          // entity slot -> audit entity
  std::vector<const PatternMatch*> events;  // pattern index -> match
};

/// Hash over projected result rows for DISTINCT, replacing the old
/// delimiter-joined string key (one concatenation per row).
struct StringRowHash {
  size_t operator()(const std::vector<std::string>& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::string& s : row) {
      h = HashCombine(h, std::hash<std::string>{}(s));
    }
    return h;
  }
};

}  // namespace

std::string TbqlResultSet::ToString(size_t max_rows) const {
  std::string out = Join(columns, " | ") + "\n";
  size_t n = std::min(max_rows, rows.size());
  for (size_t i = 0; i < n; ++i) out += Join(rows[i], " | ") + "\n";
  if (rows.size() > n) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - n);
  }
  return out;
}

double PruningScore(const AnalyzedQuery& aq, size_t idx) {
  const Pattern& p = aq.query->patterns[idx];
  size_t constraints = 0;
  for (const std::string& id : {p.subject.id, p.object.id}) {
    for (const AttrExpr* f : aq.entities.at(id).filters) {
      constraints += CountAtoms(*f);
    }
  }
  if (p.op) {
    std::vector<std::string> ops;
    p.op->CollectOps(&ops);
    constraints += ops.empty() ? 0 : 1;
  }
  if (p.event_filter) constraints += CountAtoms(*p.event_filter);
  if (p.window.has_value()) ++constraints;
  // Smaller maximum path length => higher score (Sec III-F). An event
  // pattern behaves like a length-1 path.
  int max_len = 1;
  if (p.path.is_path) max_len = p.path.max_len < 0 ? 16 : p.path.max_len;
  return static_cast<double>(constraints) + 1.0 / static_cast<double>(max_len);
}

Result<ExecReport> TbqlExecutor::ExecuteText(std::string_view text,
                                             const ExecOptions& options) const {
  auto query = tbql::ParseTbql(text);
  if (!query.ok()) return query.status();
  return Execute(query.value(), options);
}

double TbqlExecutor::EstimateCost(std::string_view text) const {
  auto query = tbql::ParseTbql(text);
  if (!query.ok()) return 0.0;
  auto analyzed = tbql::Analyze(query.value());
  if (!analyzed.ok()) return 0.0;
  const AnalyzedQuery& aq = analyzed.value();
  double total = 0.0;
  for (size_t idx = 0; idx < aq.query->patterns.size(); ++idx) {
    // Empty constraints and now=0: the estimate prices the un-propagated
    // pattern, matching the worst case the scheduler starts from.
    auto dq = CompilePattern(aq, idx, {}, 0);
    if (!dq.ok()) continue;
    if (dq.value().backend == Backend::kRelational) {
      total += store_->relational().EstimateCost(dq.value().text);
    } else {
      total += store_->graph().EstimateCost(dq.value().text);
    }
  }
  return total;
}

std::vector<std::vector<size_t>> PatternDependencies(
    const AnalyzedQuery& aq, const std::vector<size_t>& order) {
  const tbql::TbqlQuery& query = *aq.query;
  auto joinable = [&aq](const std::string& id) {
    return aq.entities.at(id).type != tbql::EntityType::kNetwork;
  };
  std::vector<std::vector<size_t>> deps(query.patterns.size());
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const Pattern& pi = query.patterns[order[oi]];
    for (size_t oj = 0; oj < oi; ++oj) {
      const Pattern& pj = query.patterns[order[oj]];
      bool shared = false;
      for (const std::string& id : {pi.subject.id, pi.object.id}) {
        if (!joinable(id)) continue;
        if (id == pj.subject.id || id == pj.object.id) {
          shared = true;
          break;
        }
      }
      if (shared) deps[order[oi]].push_back(order[oj]);
    }
  }
  return deps;
}

Result<ExecReport> TbqlExecutor::Execute(const tbql::TbqlQuery& query,
                                         const ExecOptions& options) const {
  Stopwatch timer;
  ExecReport report;
  auto analyzed = tbql::Analyze(query);
  if (!analyzed.ok()) return analyzed.status();
  const AnalyzedQuery& aq = analyzed.value();
  size_t n_patterns = query.patterns.size();
  report.pattern_match_counts.assign(n_patterns, 0);

  // "last N" windows resolve against the newest event in the store; the
  // scan over every event is paid only by queries that have one.
  audit::Timestamp now = 0;
  auto is_last = [](const tbql::TimeWindow& w) {
    return w.kind == tbql::WindowKind::kLast;
  };
  bool needs_now =
      std::any_of(query.global_windows.begin(), query.global_windows.end(),
                  is_last) ||
      std::any_of(query.patterns.begin(), query.patterns.end(),
                  [&](const Pattern& p) {
                    return p.window.has_value() && is_last(*p.window);
                  });
  if (needs_now) {
    for (const audit::SystemEvent& ev : store_->events()) {
      now = std::max(now, ev.end_time);
    }
  }

  // ---- Scheduling ----------------------------------------------------------
  std::vector<size_t> order(n_patterns);
  for (size_t i = 0; i < n_patterns; ++i) order[i] = i;
  if (options.use_scheduler) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return PruningScore(aq, a) > PruningScore(aq, b);
    });
  }
  // Dirty-restricted passes force the restricted pattern to execute first,
  // so its (small) match set drives constraint propagation into every
  // dependent pattern instead of the other way around. Applied before the
  // DAG is derived — dependencies follow execution order.
  if (options.force_first_pattern >= 0 &&
      static_cast<size_t>(options.force_first_pattern) < n_patterns) {
    auto it = std::find(order.begin(), order.end(),
                        static_cast<size_t>(options.force_first_pattern));
    if (it != order.end()) std::rotate(order.begin(), it, it + 1);
  }

  // Network-connection entities are flow-scoped (one 5-tuple per
  // connection): a reused ip entity ID means "the same destination", which
  // the replicated dstip filter already enforces, NOT "the same flow".
  // They are therefore excluded from id propagation and join equality.
  auto joinable = [&aq](const std::string& id) {
    return aq.entities.at(id).type != tbql::EntityType::kNetwork;
  };

  // ---- Per-pattern execution with constraint propagation -------------------
  // The constraint-propagation DAG chains every pattern pair sharing a
  // joinable entity id in scheduler order; patterns with no edge are
  // independent and may execute concurrently. Each pattern reads the
  // shared domains when it starts (its DAG predecessors have all finished,
  // so it sees exactly the serial schedule's domains) and intersects its
  // own matched ids back in when it completes; the mutex only guards those
  // two boundary touches, never a data query.
  EntityConstraints constraints;
  if (options.initial_constraints != nullptr) {
    constraints = *options.initial_constraints;
  }
  std::mutex constraints_mu;
  std::vector<std::vector<PatternMatch>> matches(n_patterns);
  std::vector<std::string> query_texts(n_patterns);
  if (options.propagate_constraints) {
    report.pattern_deps = PatternDependencies(aq, order);
  } else {
    report.pattern_deps.assign(n_patterns, {});
  }

  auto check_interrupt = [&options]() -> Status {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("hunt cancelled");
    }
    if (options.deadline.has_value() &&
        std::chrono::steady_clock::now() > *options.deadline) {
      return Status::Timeout("hunt deadline exceeded");
    }
    return Status::OK();
  };

  // Intersect pattern `idx`'s matched subject/object ids into the shared
  // constraint domains (the "adding filters" step of the scheduling
  // algorithm); the mutex guards only this boundary touch.
  auto propagate_ids = [&](size_t idx) {
    const std::vector<PatternMatch>& out = matches[idx];
    if (out.empty()) return;
    const Pattern& p = query.patterns[idx];
    for (const auto& [id, pick] :
         {std::pair{p.subject.id, &PatternMatch::subject_id},
          std::pair{p.object.id, &PatternMatch::object_id}}) {
      if (!joinable(id)) continue;
      EntitySet ids;
      ids.reserve(out.size());
      for (const PatternMatch& m : out) ids.insert(m.*pick);
      std::lock_guard<std::mutex> lock(constraints_mu);
      auto it = constraints.find(id);
      if (it == constraints.end()) {
        constraints.emplace(id, std::move(ids));
      } else {
        // Intersect with the previous domain: probe the larger set with
        // the smaller one (the old path merged two sorted vectors).
        const EntitySet& small =
            ids.size() < it->second.size() ? ids : it->second;
        const EntitySet& large =
            ids.size() < it->second.size() ? it->second : ids;
        EntitySet merged;
        merged.reserve(small.size());
        for (long long v : small) {
          if (large.count(v)) merged.insert(v);
        }
        it->second = std::move(merged);
      }
    }
  };

  // Compile and execute pattern `idx`: read the propagated domains before
  // compiling and intersect its matched ids back afterwards.
  auto run_pattern = [&](size_t idx) -> Status {
    RAPTOR_RETURN_NOT_OK(check_interrupt());
    auto pattern_start = obs::TraceSpan::Clock::now();
    obs::TraceSpan* pspan =
        obs::Child(options.trace, "pattern[" + std::to_string(idx) + "]");
    EntityConstraints relevant;
    if (options.propagate_constraints) {
      const Pattern& p = query.patterns[idx];
      std::lock_guard<std::mutex> lock(constraints_mu);
      for (const std::string& id : {p.subject.id, p.object.id}) {
        if (!joinable(id)) continue;
        auto it = constraints.find(id);
        if (it != constraints.end()) relevant.emplace(*it);
      }
    }
    if (pspan != nullptr) {
      pspan->Set("constraint_domains", static_cast<int64_t>(relevant.size()));
      int64_t domain_ids = 0;
      for (const auto& [id, ids] : relevant) {
        domain_ids += static_cast<int64_t>(ids.size());
      }
      pspan->Set("constraint_domain_ids", domain_ids);
    }
    auto dq = CompilePattern(aq, idx, relevant, now);
    if (!dq.ok()) return dq.status();
    query_texts[idx] = dq.value().text;

    std::vector<PatternMatch>& out = matches[idx];
    if (dq.value().backend == Backend::kRelational) {
      obs::Note(pspan, "backend", "relational");
      sql::SelectOptions sopts = store_->relational().options();
      sopts.cancel = options.cancel;
      sopts.deadline = options.deadline;
      sopts.result_cache = options.sql_result_cache;
      sopts.trace = pspan;
      sql::ExecStats sstats;
      auto rs = store_->relational().QueryBlocks(
          dq.value().text, sopts, pspan != nullptr ? &sstats : nullptr);
      if (!rs.ok()) return rs.status();
      sstats.WriteSpan(pspan);
      out.reserve(rs.value().rows.row_count());
      auto cursor = rs.value().cursor();
      while (const sql::Row* row = cursor.Next()) {
        PatternMatch m;
        m.event_id = (*row)[0].AsInt();
        m.subject_id = (*row)[1].AsInt();
        m.object_id = (*row)[2].AsInt();
        m.start_time = (*row)[3].AsInt();
        m.end_time = (*row)[4].AsInt();
        m.has_event = true;
        out.push_back(m);
      }
    } else {
      obs::Note(pspan, "backend", "graph");
      graphdb::MatchOptions gopts = store_->graph().options();
      gopts.cancel = options.cancel;
      gopts.deadline = options.deadline;
      gopts.result_cache = options.graph_result_cache;
      gopts.trace = pspan;
      graphdb::MatchStats gstats;
      auto rs = store_->graph().QueryBlocks(
          dq.value().text, gopts, pspan != nullptr ? &gstats : nullptr);
      if (!rs.ok()) return rs.status();
      gstats.WriteSpan(pspan);
      bool has_event = dq.value().has_event_columns;
      out.reserve(rs.value().rows.row_count());
      auto cursor = rs.value().cursor();
      while (const std::vector<graphdb::Value>* row = cursor.Next()) {
        PatternMatch m;
        m.subject_id = (*row)[0].AsInt();
        m.object_id = (*row)[1].AsInt();
        if (has_event && row->size() >= 5) {
          m.event_id = (*row)[2].AsInt();
          m.start_time = (*row)[3].AsInt();
          m.end_time = (*row)[4].AsInt();
          m.has_event = true;
        }
        out.push_back(m);
      }
    }
    report.pattern_match_counts[idx] = out.size();

    if (options.propagate_constraints) {
      auto prop_start = obs::TraceSpan::Clock::now();
      propagate_ids(idx);
      if (pspan != nullptr) {
        pspan->Set("propagate_us",
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       obs::TraceSpan::Clock::now() - prop_start)
                       .count());
      }
    }
    if (pspan != nullptr) {
      pspan->Set("match_count", static_cast<int64_t>(out.size()));
      pspan->SetWindow(pattern_start, obs::TraceSpan::Clock::now());
    }
    return Status::OK();
  };

  if (n_patterns <= 1 || options.max_pattern_workers <= 1) {
    for (size_t idx : order) RAPTOR_RETURN_NOT_OK(run_pattern(idx));
  } else {
    // Dataflow ready-queue over the DAG on the shared pool: workers claim
    // ready patterns, and each completion unlocks its dependents. The
    // caller participates (ThreadPool::ParallelFor), so the schedule makes
    // progress even when every pool helper is busy elsewhere; a worker
    // only blocks while some other worker is executing a pattern, so the
    // wait always terminates.
    std::vector<size_t> indegree(n_patterns, 0);
    std::vector<std::vector<size_t>> dependents(n_patterns);
    for (size_t i = 0; i < n_patterns; ++i) {
      indegree[i] = report.pattern_deps[i].size();
      for (size_t d : report.pattern_deps[i]) dependents[d].push_back(i);
    }
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> ready;
    for (size_t idx : order) {
      if (indegree[idx] == 0) ready.push_back(idx);
    }
    size_t remaining = n_patterns;
    bool failed = false;
    Status first_error;
    size_t workers = std::min<size_t>(
        static_cast<size_t>(options.max_pattern_workers), n_patterns);
    ThreadPool::Shared().ParallelFor(workers, workers, [&](size_t) {
      for (;;) {
        size_t idx;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return failed || remaining == 0 || !ready.empty();
          });
          if (failed || remaining == 0) return;
          idx = ready.front();
          ready.pop_front();
        }
        Status st = run_pattern(idx);
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!st.ok()) {
            if (!failed) {
              failed = true;
              first_error = st;
            }
          } else if (!failed) {
            for (size_t dep : dependents[idx]) {
              if (--indegree[dep] == 0) ready.push_back(dep);
            }
          }
          --remaining;
        }
        cv.notify_all();
      }
    });
    if (failed) return first_error;
  }
  for (size_t idx : order) {
    report.executed_queries.push_back(std::move(query_texts[idx]));
  }

  // Re-filter earlier pattern matches with the final entity domains (later
  // patterns may have narrowed entities that earlier executions bound).
  // Patterns are independent here — each task reads the shared (now
  // frozen) constraint domains and rewrites only its own match list — so
  // the pass fans out over the shared worker pool once there is enough
  // work to amortize dispatch (typical hunts filter a few dozen matches,
  // which stay on the inline path).
  if (options.propagate_constraints) {
    obs::ScopedSpan refilter_span(options.trace, "refilter");
    size_t total_matches = 0;
    for (const auto& m : matches) total_matches += m.size();
    obs::Set(refilter_span.get(), "input_matches",
             static_cast<int64_t>(total_matches));
    constexpr size_t kParallelRefilterMinMatches = 4096;
    auto refilter = [&](size_t i) {
      const Pattern& p = query.patterns[i];
      auto sit = joinable(p.subject.id) ? constraints.find(p.subject.id)
                                        : constraints.end();
      auto oit = joinable(p.object.id) ? constraints.find(p.object.id)
                                       : constraints.end();
      auto allowed = [](const EntityConstraints::const_iterator& it,
                        long long v) { return it->second.count(v) > 0; };
      std::vector<PatternMatch> kept;
      kept.reserve(matches[i].size());
      for (const PatternMatch& m : matches[i]) {
        if (sit != constraints.end() && !allowed(sit, m.subject_id)) {
          continue;
        }
        if (oit != constraints.end() && !allowed(oit, m.object_id)) {
          continue;
        }
        kept.push_back(m);
      }
      matches[i] = std::move(kept);
    };
    if (n_patterns > 1 && total_matches >= kParallelRefilterMinMatches) {
      ThreadPool::Shared().ParallelFor(n_patterns, refilter);
    } else {
      for (size_t i = 0; i < n_patterns; ++i) refilter(i);
    }
  }

  // ---- Join phase ----------------------------------------------------------
  // Join patterns in ascending match-count order; hash-join on the entity
  // ids already bound by the partial assignments. Entity ids are interned
  // into dense slots so binding checks are flat vector reads.
  obs::TraceSpan* join_span = obs::Child(options.trace, "join");
  StringInterner entity_slots;
  for (const Pattern& p : query.patterns) {
    entity_slots.Intern(p.subject.id);
    entity_slots.Intern(p.object.id);
  }

  std::vector<size_t> join_order;
  for (size_t i = 0; i < n_patterns; ++i) {
    if (matches[i].empty()) {
      report.unmatched_patterns.push_back(i);
    } else {
      join_order.push_back(i);
    }
  }
  std::sort(join_order.begin(), join_order.end(), [&](size_t a, size_t b) {
    return matches[a].size() < matches[b].size();
  });
  // Dirty-restricted passes must not reinterpret "pattern found nothing
  // under the restricted domain" as "pattern is excessive, exclude it from
  // the join" — that would fabricate rows the unrestricted query never
  // produces. Such passes demand every pattern contributes or the pass
  // result is empty.
  if (options.require_all_patterns && !report.unmatched_patterns.empty()) {
    join_order.clear();
  }

  std::vector<Assignment> assignments;
  // Seed with the empty assignment only when at least one pattern matched;
  // otherwise the result set is empty (not one all-empty row).
  if (!join_order.empty()) {
    Assignment seed;
    seed.entities.assign(entity_slots.size(), kUnboundEntity);
    seed.events.assign(n_patterns, nullptr);
    assignments.push_back(std::move(seed));
  }
  for (size_t idx : join_order) {
    RAPTOR_RETURN_NOT_OK(check_interrupt());
    const Pattern& p = query.patterns[idx];
    std::vector<Assignment> next;
    uint32_t s_slot = entity_slots.Lookup(p.subject.id);
    uint32_t o_slot = entity_slots.Lookup(p.object.id);
    bool subj_joinable = joinable(p.subject.id);
    bool obj_joinable = joinable(p.object.id);
    for (const Assignment& a : assignments) {
      long long bound_s = subj_joinable ? a.entities[s_slot] : kUnboundEntity;
      long long bound_o = obj_joinable ? a.entities[o_slot] : kUnboundEntity;
      for (const PatternMatch& m : matches[idx]) {
        if (bound_s != kUnboundEntity && bound_s != m.subject_id) continue;
        if (bound_o != kUnboundEntity && bound_o != m.object_id) continue;
        // Entity-ID reuse within one pattern ("proc p start proc p") means
        // subject and object are the same entity.
        if (p.subject.id == p.object.id && m.subject_id != m.object_id) {
          continue;
        }
        Assignment na = a;
        na.entities[s_slot] = m.subject_id;
        na.entities[o_slot] = m.object_id;
        na.events[idx] = &m;
        next.push_back(std::move(na));
      }
    }
    assignments = std::move(next);
    if (assignments.empty()) break;
  }
  obs::Set(join_span, "assignments", static_cast<int64_t>(assignments.size()));
  obs::Finish(join_span);

  // ---- Temporal & attribute relationships ----------------------------------
  RAPTOR_RETURN_NOT_OK(check_interrupt());
  obs::TraceSpan* project_span = obs::Child(options.trace, "project");
  auto event_of = [&](const Assignment& a,
                      const std::string& id) -> const PatternMatch* {
    auto pit = aq.pattern_by_id.find(id);
    if (pit == aq.pattern_by_id.end()) return nullptr;
    return a.events[pit->second];
  };
  auto entity_of = [&](const Assignment& a, const std::string& id) {
    uint32_t slot = entity_slots.Lookup(id);
    return slot == kNoSymbol ? kUnboundEntity : a.entities[slot];
  };
  std::vector<Assignment> satisfying;
  for (Assignment& a : assignments) {
    bool ok = true;
    for (const TemporalRel& rel : query.temporal_rels) {
      const PatternMatch* l = event_of(a, rel.left);
      const PatternMatch* r = event_of(a, rel.right);
      if (l == nullptr || r == nullptr) continue;  // unmatched pattern
      if (!l->has_event || !r->has_event) {
        ok = false;
        break;
      }
      const PatternMatch* first = l;
      const PatternMatch* second = r;
      if (rel.op == tbql::TemporalOp::kAfter) std::swap(first, second);
      if (rel.op == tbql::TemporalOp::kWithin) {
        long long gap = std::llabs(r->start_time - l->start_time);
        long long lo = rel.min_gap < 0 ? 0 : rel.min_gap;
        long long hi = rel.max_gap < 0 ? 0 : rel.max_gap;
        if (gap < lo || gap > hi) {
          ok = false;
          break;
        }
        continue;
      }
      long long gap = second->start_time - first->end_time;
      if (rel.min_gap >= 0 || rel.max_gap >= 0) {
        if (gap < (rel.min_gap < 0 ? 0 : rel.min_gap) ||
            (rel.max_gap >= 0 && gap > rel.max_gap)) {
          ok = false;
          break;
        }
      } else if (first->end_time > second->start_time) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (const tbql::AttrRel& rel : query.attr_rels) {
      auto attr_value = [&](const std::string& qual,
                            const std::string& attr) -> std::string {
        long long ent = entity_of(a, qual);
        if (ent != kUnboundEntity) {
          return store_->entities()[ent - 1].Attribute(attr);
        }
        const PatternMatch* m = event_of(a, qual);
        if (m != nullptr) {
          if (attr == "id") return std::to_string(m->event_id);
          if (attr == "start_time") return std::to_string(m->start_time);
          if (attr == "end_time") return std::to_string(m->end_time);
          const audit::SystemEvent& ev = store_->EventById(m->event_id);
          if (attr == "amount") return std::to_string(ev.amount);
          if (attr == "failure_code") return std::to_string(ev.failure_code);
          if (attr == "op") return audit::EventOpName(ev.op);
        }
        return "";
      };
      std::string lv = attr_value(rel.left_qualifier, rel.left_attr);
      std::string rv = attr_value(rel.right_qualifier, rel.right_attr);
      long long ln = 0, rn = 0;
      int cmp;
      if (ParseInt64(lv, &ln) && ParseInt64(rv, &rn)) {
        cmp = ln < rn ? -1 : (ln > rn ? 1 : 0);
      } else {
        cmp = lv.compare(rv);
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
      bool pass = false;
      switch (rel.op) {
        case tbql::CompareOp::kEq: pass = cmp == 0; break;
        case tbql::CompareOp::kNe: pass = cmp != 0; break;
        case tbql::CompareOp::kLt: pass = cmp < 0; break;
        case tbql::CompareOp::kLe: pass = cmp <= 0; break;
        case tbql::CompareOp::kGt: pass = cmp > 0; break;
        case tbql::CompareOp::kGe: pass = cmp >= 0; break;
      }
      if (!pass) {
        ok = false;
        break;
      }
    }
    if (ok) satisfying.push_back(std::move(a));
  }

  // Events found by the event patterns (for evaluation): union of the
  // per-pattern matches that survived constraint propagation.
  std::set<long long> matched_events;
  for (size_t i = 0; i < n_patterns; ++i) {
    for (const PatternMatch& m : matches[i]) {
      if (m.has_event) matched_events.insert(m.event_id);
    }
  }

  // ---- Projection -----------------------------------------------------------
  for (const tbql::ResolvedReturn& r : aq.returns) {
    report.results.columns.push_back(r.attr.empty() ? r.id
                                                    : r.id + "." + r.attr);
  }
  std::unordered_set<std::vector<std::string>, StringRowHash> seen;
  for (const Assignment& a : satisfying) {
    std::vector<std::string> row;
    row.reserve(aq.returns.size());
    for (const tbql::ResolvedReturn& r : aq.returns) {
      if (r.is_event) {
        const PatternMatch* m = event_of(a, r.id);
        if (m == nullptr) {
          row.push_back("");
          continue;
        }
        if (r.attr == "id") {
          row.push_back(std::to_string(m->event_id));
        } else if (r.attr == "start_time") {
          row.push_back(std::to_string(m->start_time));
        } else if (r.attr == "end_time") {
          row.push_back(std::to_string(m->end_time));
        } else {
          const audit::SystemEvent& ev = store_->EventById(m->event_id);
          if (r.attr == "amount") {
            row.push_back(std::to_string(ev.amount));
          } else if (r.attr == "failure_code") {
            row.push_back(std::to_string(ev.failure_code));
          } else {
            row.push_back(audit::EventOpName(ev.op));
          }
        }
      } else {
        long long ent = entity_of(a, r.id);
        row.push_back(ent == kUnboundEntity
                          ? ""
                          : store_->entities()[ent - 1].Attribute(r.attr));
      }
    }
    if (query.distinct && !seen.insert(row).second) continue;
    report.results.rows.push_back(std::move(row));
  }
  report.matched_event_ids.assign(matched_events.begin(),
                                  matched_events.end());
  obs::Set(project_span, "rows_emitted",
           static_cast<int64_t>(report.results.rows.size()));
  obs::Finish(project_span);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

tbql::TbqlQuery ToLength1PathQuery(const tbql::TbqlQuery& query) {
  // TBQL queries round-trip through their printed form; clone that way and
  // rewrite each basic event pattern to a "->" length-1 path.
  auto clone = tbql::ParseTbql(query.ToString());
  tbql::TbqlQuery out = std::move(clone).value();
  for (tbql::Pattern& p : out.patterns) {
    if (!p.path.is_path) {
      p.path.is_path = true;
      p.path.fuzzy_arrow = false;
      p.path.min_len = 1;
      p.path.max_len = 1;
    }
  }
  return out;
}

}  // namespace raptor::engine
