#include "service/hunt_service.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "huntlib/mqo.h"
#include "storage/graphdb/cypher_parser.h"

namespace raptor::service {

namespace {

std::chrono::microseconds ClampMicros(long long micros) {
  return std::chrono::microseconds(std::max<long long>(0, micros));
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

const char* DialectName(QueryDialect dialect) {
  switch (dialect) {
    case QueryDialect::kTbql: return "tbql";
    case QueryDialect::kCypher: return "cypher";
    case QueryDialect::kSql: return "sql";
  }
  return "unknown";
}

const char* StatusLabel(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kTimeout: return "timeout";
    default: return "error";
  }
}

/// Subscription identity used by ExportStandingSeen/SeedStanding.
std::string StandingKey(const HuntRequest& request) {
  // Unit separators keep distinct (dialect, tenant, text) triples distinct
  // even when a tenant name embeds query-ish characters.
  std::string key;
  key.reserve(request.tenant.size() + request.text.size() + 4);
  key.push_back(static_cast<char>('0' + static_cast<int>(request.dialect)));
  key.push_back('\x1f');
  key += request.tenant;
  key.push_back('\x1f');
  key += request.text;
  return key;
}

}  // namespace

/// The reap-back channel between outstanding tickets and the service.
/// Shutdown() severs it (service = nullptr) under mu as its FIRST step, so
/// any in-flight reap completes before teardown proceeds and no later reap
/// touches a dying service. Lock order: ServiceHook::mu -> HuntService::mu_
/// -> HuntTicket::State::mu.
struct ServiceHook {
  std::mutex mu;
  HuntService* service = nullptr;
};

/// A registered standing hunt. Refreshes run one at a time (the scheduled
/// flag, guarded by the service mutex, admits at most one queued/running
/// refresh per subscription), so the refresh-only fields need no lock.
struct StandingState {
  // Immutable after SubmitStanding().
  uint64_t id = 0;
  HuntRequest request;
  StandingSink sink;
  StandingOptions options;

  /// Unsubscribed (or service shut down); doubles as the cooperative
  /// cancellation flag of an in-flight refresh.
  std::atomic<bool> cancelled{false};

  /// Canonical query identity (huntlib/mqo.h) for refresh dedupe across
  /// structural twins; empty when dedupe is disabled. Immutable.
  std::string canonical_key;

  // Scheduling state, guarded by the service's mu_.
  bool scheduled = false;      // a refresh is queued or running
  uint64_t last_epoch = 0;     // newest epoch reflected in `seen`
  bool baseline_done = false;  // the initial full refresh has run

  /// Refresh-only: a full TBQL refresh has matched every pattern, which
  /// makes per-pattern dirty passes sound (see TryIncrementalTbql). Reset
  /// whenever the exclusive gate releases — retention can un-match a
  /// pattern without an epoch bump.
  bool tbql_all_matched = false;

  // Subscriber-visible progress.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t delivered_epoch = 0;
  size_t total_rows = 0;
  bool detached = false;  // service destroyed; no further refreshes

  // Refresh-only: every row ever delivered (set semantics for deltas).
  std::unordered_set<std::vector<sql::Value>, sql::ValueRowHash,
                     sql::ValueRowEq>
      seen;
};

/// One deduplicated full-refresh execution (MQO layer 1). The first
/// subscription to register for a (canonical key, epoch) pair becomes the
/// leader: it executes the query and fills the entry — always, even on
/// error or cancellation, so followers can never wait forever. Followers
/// block on the entry (never on a service lock) and derive their own
/// per-subscription deltas from the shared response. No deadlock at any
/// worker count: a leader is always already running when a follower waits.
struct SharedRefresh {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Status status = Status::OK();
  std::shared_ptr<const HuntResponse> response;  // null when !status.ok()
};

// ---- StandingHandle --------------------------------------------------------

uint64_t StandingHandle::id() const {
  return state_ == nullptr ? 0 : state_->id;
}

uint64_t StandingHandle::delivered_epoch() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->delivered_epoch;
}

size_t StandingHandle::total_rows() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->total_rows;
}

bool StandingHandle::WaitEpoch(uint64_t epoch,
                               long long timeout_micros) const {
  if (state_ == nullptr) return false;
  StandingState& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  auto reached = [&] {
    return st.delivered_epoch >= epoch || st.detached ||
           st.cancelled.load(std::memory_order_relaxed);
  };
  if (timeout_micros < 0) {
    st.cv.wait(lock, reached);
  } else if (!st.cv.wait_for(lock, ClampMicros(timeout_micros), reached)) {
    return false;
  }
  return st.delivered_epoch >= epoch;
}

void StandingHandle::Cancel() const {
  if (state_ == nullptr) return;
  state_->cancelled.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state_->mu);  // pairs with WaitEpoch
  }
  state_->cv.notify_all();
}

// ---- HuntTicket ------------------------------------------------------------

namespace {

const Status& InvalidTicketStatus() {
  static const Status* status = new Status(
      Status::InvalidArgument("invalid hunt ticket (not from Submit)"));
  return *status;
}

}  // namespace

void HuntTicket::Reap(const std::shared_ptr<State>& state, Status status) {
  if (state->hook == nullptr) return;
  std::lock_guard<std::mutex> hook_lock(state->hook->mu);
  if (state->hook->service != nullptr) {
    state->hook->service->ReapQueued(state, std::move(status));
  }
  // Service already shut down: Shutdown() finishes every queued ticket
  // itself, so the waiter's plain wait below still terminates.
}

const Status& HuntTicket::Wait() const {
  if (state_ == nullptr) return InvalidTicketStatus();
  HuntTicket::State& st = *state_;
  // A queued hunt whose deadline passes must not wait for a worker to
  // happen to dequeue it: expire it ourselves, releasing its queue slot.
  // One reap attempt suffices — whatever its outcome, someone (the reap,
  // the admitting worker, or Shutdown) is now bound to finish the ticket.
  bool reap = false;
  {
    std::unique_lock<std::mutex> lock(st.mu);
    if (st.deadline.has_value() && !st.started && !st.done) {
      reap = !st.cv.wait_until(lock, *st.deadline,
                               [&] { return st.done || st.started; });
    }
  }
  if (reap) Reap(state_, Status::Timeout("hunt deadline exceeded"));
  std::unique_lock<std::mutex> lock(st.mu);
  st.cv.wait(lock, [&] { return st.done; });
  return st.status;
}

bool HuntTicket::WaitFor(long long micros) const {
  if (state_ == nullptr) return true;  // an invalid ticket is "finished"
  HuntTicket::State& st = *state_;
  auto until = std::chrono::steady_clock::now() + ClampMicros(micros);
  bool reap = false;
  {
    std::unique_lock<std::mutex> lock(st.mu);
    if (st.deadline.has_value() && !st.started && !st.done &&
        *st.deadline < until) {
      reap = !st.cv.wait_until(lock, *st.deadline,
                               [&] { return st.done || st.started; });
    }
  }
  if (reap) Reap(state_, Status::Timeout("hunt deadline exceeded"));
  std::unique_lock<std::mutex> lock(st.mu);
  return st.cv.wait_until(lock, until, [&] { return st.done; });
}

void HuntTicket::WaitStarted() const {
  if (state_ == nullptr) return;
  HuntTicket::State& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  st.cv.wait(lock, [&] { return st.started || st.done; });
}

bool HuntTicket::done() const {
  if (state_ == nullptr) return true;
  HuntTicket::State& st = *state_;
  std::lock_guard<std::mutex> lock(st.mu);
  return st.done;
}

void HuntTicket::Cancel() const {
  if (state_ == nullptr) return;
  state_->cancel.store(true, std::memory_order_relaxed);
  // A still-queued hunt finishes right now and frees its slot — holding a
  // queue position until a worker dequeues the corpse would block Wait()
  // and admission capacity for nothing. Running hunts stop at their next
  // cooperative poll; the worker finishes the ticket.
  Reap(state_, Status::Cancelled("hunt cancelled"));
}

const Status& HuntTicket::status() const {
  if (state_ == nullptr) return InvalidTicketStatus();
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

const HuntResponse& HuntTicket::response() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->response;
}

HuntResponse HuntTicket::TakeResponse() {
  std::lock_guard<std::mutex> lock(state_->mu);
  return std::move(state_->response);
}

uint64_t HuntTicket::id() const { return state_ == nullptr ? 0 : state_->id; }

// ---- HuntService -----------------------------------------------------------

HuntService::HuntService(const storage::AuditStore* store,
                         HuntServiceOptions options)
    : store_(store), options_(options) {
  if (options_.max_concurrent == 0) options_.max_concurrent = 1;
  epoch_ = options_.initial_epoch;
  start_time_ = std::chrono::steady_clock::now();
  hook_ = std::make_shared<ServiceHook>();
  hook_->service = this;
}

HuntService::~HuntService() {
  Shutdown();
  for (std::thread& t : workers_) t.join();
}

void HuntService::Shutdown() {
  // Sever the ticket reap-back channel first: an in-flight Cancel/expiry
  // reap holds hook_->mu through its whole service call, so after this
  // block no ticket can re-enter the service. (Lock order: hook_->mu
  // before mu_, never the reverse.)
  {
    std::lock_guard<std::mutex> hook_lock(hook_->mu);
    hook_->service = nullptr;
  }
  std::vector<StatePtr> abandoned;
  std::vector<StandingPtr> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& [tenant, ts] : tenants_) {
      for (StatePtr& st : ts.queue) abandoned.push_back(std::move(st));
      ts.queue.clear();
      ts.in_rr = false;
    }
    tenant_rr_.clear();
    queued_ = 0;
    // Running hunts observe the flag at their next poll point.
    for (const StatePtr& st : running_) {
      st->cancel.store(true, std::memory_order_relaxed);
    }
    subs = std::move(standing_);
    standing_.clear();
  }
  cv_.notify_all();
  ingest_cv_.notify_all();  // blocked writers return Cancelled
  for (const StandingPtr& sub : subs) {
    sub->cancelled.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sub->mu);
      sub->detached = true;
    }
    sub->cv.notify_all();
  }
  for (StatePtr& st : abandoned) {
    Finish(st, Status::Cancelled("hunt service shut down"), HuntResponse{});
  }
}

HuntTicket HuntService::Submit(HuntRequest request) {
  auto state = std::make_shared<HuntTicket::State>();
  state->submit_time = std::chrono::steady_clock::now();
  if (request.timeout_micros >= 0) {
    state->deadline = state->submit_time + ClampMicros(request.timeout_micros);
  }
  state->request = std::move(request);
  state->hook = hook_;
  Status rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state->id = next_id_++;
    ++stats_.submitted;
    if (stop_) {
      // Not an admission-capacity problem: the service is gone, and the
      // caller should stop submitting rather than retry/back off.
      rejection = Status::Cancelled("hunt service shut down");
      ++stats_.rejected_shutdown;
    } else {
      TenantState& ts = TenantLocked(state->request.tenant);
      ts.last_active = ++activity_seq_;
      ++ts.submitted;
      if (queued_ >= options_.max_queue) {
        rejection = Status::Unavailable("hunt admission queue full");
        ++stats_.rejected;
        ++ts.rejected;
      } else if (ts.queue.size() >=
                 std::max<size_t>(1, options_.max_queue / 8)) {
        // The tenant's own cap — other tenants keep admitting.
        rejection = Status::Unavailable("tenant admission queue full");
        ++stats_.rejected;
        ++ts.rejected;
      } else {
        StartWorkersLocked();
        EnqueueLocked(state);
      }
      PruneIdleTenantsLocked();
    }
  }
  HuntTicket ticket{state};
  if (!rejection.ok()) {
    // Finish inline, bypassing Finish(): rejections are already counted
    // above (rejected / rejected_shutdown), not as hunt outcomes.
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->status = std::move(rejection);
      state->done = true;
    }
    state->cv.notify_all();
  } else {
    cv_.notify_one();
  }
  return ticket;
}

Result<HuntResponse> HuntService::Run(HuntRequest request) {
  HuntTicket ticket = Submit(std::move(request));
  Status status = ticket.Wait();
  if (!status.ok()) return status;
  return ticket.TakeResponse();
}

Status HuntService::AcquireGate() {
  auto wait_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  ++ingests_waiting_;
  // Writer preference: a waiting ingest (ingests_waiting_ > 0) holds off
  // new admissions, so running hunts drain instead of being replaced.
  // Queued hunts stay queued — nothing is refused. The preference is
  // bounded: after kMaxConsecutiveIngests back-to-back acquisitions with
  // hunts waiting, the next writer yields until a worker admits one hunt
  // (which resets the window), so a firehose source cannot starve hunt
  // latency indefinitely.
  ingest_cv_.wait(lock, [&] {
    if (stop_) return true;
    if (!running_.empty() || ingest_active_) return false;
    if (queued_ > 0 && consecutive_ingests_ >= kMaxConsecutiveIngests) {
      return false;  // budget spent; a hunt goes first
    }
    return true;
  });
  --ingests_waiting_;
  if (stop_) {
    return Status::Cancelled("hunt service shut down");
  }
  ingest_active_ = true;
  ++consecutive_ingests_;
  ++gate_acquires_;
  double waited = MicrosSince(wait_start) / 1e6;
  gate_wait_total_ += waited;
  gate_wait_max_ = std::max(gate_wait_max_, waited);
  return Status::OK();
}

void HuntService::ReleaseGate() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ingest_active_ = false;
    // Exclusive() may have rebuilt the store (retention, checkpoint
    // compaction) without an epoch bump: cached results and the
    // all-patterns-matched latch may describe data that no longer exists.
    // No refresh is running here (the gate drained running_), so the
    // refresh-only flag is safe to write.
    refresh_cache_.clear();
    graph_cache_.Clear();
    sql_cache_.Clear();
    for (const StandingPtr& sub : standing_) sub->tbql_all_matched = false;
  }
  cv_.notify_all();         // resume admissions
  ingest_cv_.notify_all();  // next writer in line
}

Result<uint64_t> HuntService::Ingest(
    const std::function<Status(IngestReport*)>& mutate,
    const persist::WalRecord* wal_record) {
  RAPTOR_RETURN_NOT_OK(AcquireGate());
  // Write-ahead: the record reaches the log before the mutation touches
  // the store, under the same exclusion as the mutation itself (the gate
  // serializes writers, so append order == apply order). If the append
  // fails, the mutation never runs and the epoch does not advance.
  bool logged = false;
  if (wal_record != nullptr && wal_ != nullptr) {
    Status appended = wal_->Append(*wal_record);
    if (!appended.ok()) {
      ReleaseGate();
      return appended;
    }
    logged = true;
  }
  // The mutation runs on the calling thread with exclusive store access:
  // no hunt is running, none admits until ingest_active_ clears, and
  // concurrent Ingest calls serialize on the flag.
  IngestReport report;
  Status mutated = mutate(&report);
  // Dedup before retaining: AppendStats reports subject+object per stored
  // event, so a hot entity shows up once per event. The dirty set is kept
  // for up to kMaxDirtyEpochs and concatenated on every standing
  // refresh — store unique ids, not the raw event-endpoint stream.
  if (mutated.ok()) {
    std::sort(report.touched_entities.begin(), report.touched_entities.end());
    report.touched_entities.erase(std::unique(report.touched_entities.begin(),
                                              report.touched_entities.end()),
                                  report.touched_entities.end());
  }
  uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ingest_active_ = false;
    // The store (possibly) changed — even a failed mutation may have
    // partially applied: every MQO cache entry describes the old contents.
    refresh_cache_.clear();
    graph_cache_.Clear();
    sql_cache_.Clear();
    if (mutated.ok()) {
      new_epoch = ++epoch_;
      ++stats_.ingests;
      if (logged) ++stats_.wal_records;
      dirty_.push_back({new_epoch, std::move(report.touched_entities)});
      while (dirty_.size() > kMaxDirtyEpochs) dirty_.pop_front();
      // Wake every live standing hunt; prune unsubscribed ones.
      auto it = standing_.begin();
      while (it != standing_.end()) {
        if ((*it)->cancelled.load(std::memory_order_relaxed)) {
          it = standing_.erase(it);
        } else {
          ScheduleStandingLocked(*it);
          ++it;
        }
      }
    }
  }
  cv_.notify_all();         // resume admissions (and standing refreshes)
  ingest_cv_.notify_all();  // next writer in line
  if (!mutated.ok()) return mutated;
  return new_epoch;
}

Status HuntService::Exclusive(const std::function<Status()>& fn) {
  RAPTOR_RETURN_NOT_OK(AcquireGate());
  Status result = fn();
  ReleaseGate();
  return result;
}

void HuntService::AttachWal(persist::WalWriter* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
}

std::vector<persist::StandingSeen> HuntService::ExportStandingSeen() const {
  std::vector<persist::StandingSeen> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const StandingPtr& sub : standing_) {
    if (sub->cancelled.load(std::memory_order_relaxed)) continue;
    persist::StandingSeen seen;
    seen.key = StandingKey(sub->request);
    // The caller holds the write gate, so no refresh is running and the
    // refresh-only seen-set is safe to read.
    seen.rows.assign(sub->seen.begin(), sub->seen.end());
    std::sort(seen.rows.begin(), seen.rows.end(),
              [](const std::vector<sql::Value>& a,
                 const std::vector<sql::Value>& b) {
                return std::lexicographical_compare(
                    a.begin(), a.end(), b.begin(), b.end(),
                    [](const sql::Value& x, const sql::Value& y) {
                      return x.Compare(y) < 0;
                    });
              });
    {
      std::lock_guard<std::mutex> sub_lock(sub->mu);
      seen.total_rows = sub->total_rows;
    }
    out.push_back(std::move(seen));
  }
  return out;
}

void HuntService::SeedStanding(std::vector<persist::StandingSeen> seeds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (persist::StandingSeen& seed : seeds) {
    std::string key = seed.key;
    standing_seeds_[std::move(key)] = std::move(seed);
  }
}

uint64_t HuntService::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

StandingHandle HuntService::SubmitStanding(HuntRequest request,
                                           StandingSink sink,
                                           StandingOptions options) {
  auto sub = std::make_shared<StandingState>();
  sub->request = std::move(request);
  sub->sink = std::move(sink);
  sub->options = options;
  if (options_.mqo) {
    // Parse outside the lock; the key never changes afterwards. Tenant is
    // deliberately absent — merging structural twins across tenants is the
    // point (each keeps its own seen-set and delivery).
    switch (sub->request.dialect) {
      case QueryDialect::kTbql:
        sub->canonical_key = huntlib::CanonicalTbqlKey(sub->request.text);
        break;
      case QueryDialect::kCypher:
        sub->canonical_key = huntlib::CanonicalCypherKey(sub->request.text);
        break;
      case QueryDialect::kSql:
        sub->canonical_key = huntlib::CanonicalSqlKey(sub->request.text);
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    sub->id = next_standing_id_++;
    // A restored seen-set re-arms this subscription: the baseline refresh
    // against the recovered store delivers only rows the pre-restart run
    // never saw, and the accumulated total carries over.
    auto seed = standing_seeds_.find(StandingKey(sub->request));
    if (seed != standing_seeds_.end()) {
      for (std::vector<sql::Value>& row : seed->second.rows) {
        sub->seen.insert(std::move(row));
      }
      sub->total_rows = seed->second.total_rows;
      standing_seeds_.erase(seed);
    }
    if (stop_) {
      sub->cancelled.store(true, std::memory_order_relaxed);
      sub->detached = true;
      return StandingHandle{sub};
    }
    standing_.push_back(sub);
    StartWorkersLocked();
    ScheduleStandingLocked(sub);  // baseline refresh against current store
  }
  cv_.notify_one();
  return StandingHandle{sub};
}

HuntService::Stats HuntService::stats() const { return metrics().stats; }

HuntService::Metrics HuntService::metrics() const {
  std::unique_lock<std::mutex> lock(mu_);
  Metrics out;
  out.stats = stats_;
  out.stats.subresult_hits =
      static_cast<size_t>(graph_cache_.hits() + sql_cache_.hits());
  out.queue_depth = queued_;
  out.running = running_.size();
  out.workers = workers_.size();
  out.running_cost = running_cost_;
  out.tracked_tenants = tenants_.size();
  out.epoch = epoch_;
  for (const StandingPtr& sub : standing_) {
    if (sub->cancelled.load(std::memory_order_relaxed)) continue;
    ++out.standing;
    uint64_t lag = epoch_ - std::min(epoch_, sub->last_epoch);
    out.epoch_lag = std::max(out.epoch_lag, lag);
  }
  out.gate_acquires = gate_acquires_;
  out.gate_wait_seconds_total = gate_wait_total_;
  out.gate_wait_seconds_max = gate_wait_max_;
  out.consecutive_ingests = consecutive_ingests_;
  out.uptime_seconds = MicrosSince(start_time_) / 1e6;
  out.hunt_latency = hunt_latency_;
  out.queue_wait = queue_wait_;
  out.tenants.reserve(tenants_.size());
  for (const auto& [name, ts] : tenants_) {
    TenantMetrics tm;
    tm.tenant = name;
    tm.queued = ts.queue.size();
    tm.running = ts.running;
    tm.submitted = ts.submitted;
    tm.completed = ts.completed;
    tm.rejected = ts.rejected;
    tm.cancelled = ts.cancelled;
    tm.timed_out = ts.timed_out;
    tm.failed = ts.failed;
    tm.qps = out.uptime_seconds > 0
                 ? static_cast<double>(ts.submitted) / out.uptime_seconds
                 : 0.0;
    out.tenants.push_back(std::move(tm));
  }
  // The log counts under its own mutex, which it holds across file writes:
  // read it after releasing mu_.
  std::shared_ptr<obs::SlowHuntLog> slow = slow_log_;
  lock.unlock();
  out.slow_hunts_logged = slow == nullptr ? 0 : slow->logged();
  return out;
}

void HuntService::ConfigureSlowLog(const std::string& path,
                                   long long threshold_micros) {
  std::shared_ptr<obs::SlowHuntLog> log;
  if (!path.empty() && threshold_micros >= 0) {
    log = std::make_shared<obs::SlowHuntLog>(path, threshold_micros);
  }
  std::lock_guard<std::mutex> lock(mu_);
  slow_log_ = std::move(log);
}

std::shared_ptr<obs::SlowHuntLog> HuntService::SlowLogSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_log_;
}

void HuntService::CollectMetrics(obs::MetricsRegistry* registry) const {
  Metrics m = metrics();
  const Stats& s = m.stats;
  auto count = [](size_t v) { return static_cast<double>(v); };

  // Hunt lifecycle.
  registry->Counter("raptor_hunts_submitted_total", "Hunts submitted",
                    count(s.submitted));
  registry->Counter("raptor_hunts_completed_total", "Hunts finished OK",
                    count(s.completed));
  registry->Counter("raptor_hunts_failed_total",
                    "Hunts finished with a non-OK, non-cancel status",
                    count(s.failed));
  registry->Counter("raptor_hunts_cancelled_total", "Hunts cancelled",
                    count(s.cancelled));
  registry->Counter("raptor_hunts_timed_out_total", "Hunts past deadline",
                    count(s.timed_out));
  registry->Counter("raptor_hunts_rejected_total",
                    "Admission rejections (global or tenant queue cap)",
                    count(s.rejected));

  // Admission / scheduling state.
  registry->Gauge("raptor_admission_queue_depth", "Hunts queued, all tenants",
                  count(m.queue_depth));
  registry->Gauge("raptor_admission_running", "Hunts currently executing",
                  count(m.running));
  registry->Gauge("raptor_admission_workers", "Admission worker threads",
                  count(m.workers));
  registry->Gauge("raptor_admission_running_cost",
                  "Sum of running hunts' cost weights", m.running_cost);
  registry->Gauge("raptor_admission_cost_budget",
                  "Configured admission cost budget", kAdmissionCostBudget);
  registry->Gauge("raptor_tenants_tracked", "Live tenant map entries",
                  count(m.tracked_tenants));
  registry->Gauge("raptor_tenants_distinct", "Distinct tenants ever seen",
                  count(s.tenants));

  // Write gate / epochs.
  registry->Counter("raptor_ingests_total", "Epoch-gated mutations applied",
                    count(s.ingests));
  registry->Counter("raptor_wal_records_total",
                    "Mutations logged write-ahead", count(s.wal_records));
  registry->Counter("raptor_gate_acquires_total",
                    "Ingest/Exclusive write-gate acquisitions",
                    count(m.gate_acquires));
  registry->Counter("raptor_gate_wait_seconds_total",
                    "Seconds writers spent blocked at the gate",
                    m.gate_wait_seconds_total);
  registry->Gauge("raptor_gate_wait_seconds_max",
                  "Longest single gate wait", m.gate_wait_seconds_max);
  registry->Gauge("raptor_epoch", "Store epochs applied", count(m.epoch));
  registry->Gauge("raptor_epoch_lag",
                  "Epochs the slowest live standing hunt trails the store",
                  count(m.epoch_lag));

  // Standing hunts / MQO.
  registry->Gauge("raptor_standing_hunts", "Registered standing hunts",
                  count(m.standing));
  registry->Counter("raptor_standing_refreshes_total",
                    "Standing refresh executions completed",
                    count(s.standing_refreshes));
  registry->Counter("raptor_standing_incremental_total",
                    "Refreshes that ran dirty-seeded incremental passes",
                    count(s.standing_incremental));
  registry->Counter("raptor_standing_alerts_total",
                    "Refreshes that delivered a non-empty delta",
                    count(s.standing_alerts));
  registry->Counter("raptor_mqo_dedup_hits_total",
                    "Refreshes served from a structural twin's execution",
                    count(s.standing_dedup_hits));
  registry->Counter("raptor_mqo_subresult_hits_total",
                    "Shared-subresult cache hits across both backends",
                    count(s.subresult_hits));

  // Latency distributions + slow-hunt log.
  registry->Histogram("raptor_hunt_latency_micros",
                      "Submit-to-done latency of completed client hunts",
                      m.hunt_latency);
  registry->Histogram("raptor_queue_wait_micros",
                      "Submit-to-admission wait of client hunts", m.queue_wait);
  registry->Counter("raptor_slow_hunts_logged_total",
                    "Records appended by the slow-hunt log",
                    count(m.slow_hunts_logged));
  registry->Gauge("raptor_uptime_seconds", "Service uptime",
                  m.uptime_seconds);

  // Per-tenant series.
  for (const TenantMetrics& t : m.tenants) {
    obs::MetricLabels labels{{"tenant", t.tenant}};
    registry->Counter("raptor_tenant_submitted_total",
                      "Hunts submitted, by tenant", count(t.submitted),
                      labels);
    registry->Counter("raptor_tenant_completed_total",
                      "Hunts finished OK, by tenant", count(t.completed),
                      labels);
    registry->Counter("raptor_tenant_rejected_total",
                      "Admission rejections, by tenant", count(t.rejected),
                      labels);
    registry->Gauge("raptor_tenant_queued", "Hunts queued, by tenant",
                    count(t.queued), labels);
    registry->Gauge("raptor_tenant_running", "Hunts running, by tenant",
                    count(t.running), labels);
  }
}

void HuntService::StartWorkersLocked() {
  if (!workers_.empty()) return;
  workers_.reserve(options_.max_concurrent);
  for (size_t i = 0; i < options_.max_concurrent; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HuntService::TenantState& HuntService::TenantLocked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, TenantState{}).first;
    // First sighting — or first since the idle entry was pruned; the
    // counter is exact while distinct tenants stay within kMaxIdleTenants
    // of concurrent tracking, an over-estimate beyond that.
    ++stats_.tenants;
  }
  return it->second;
}

bool HuntService::WriterPreferredLocked() const {
  return ingests_waiting_ > 0 &&
         consecutive_ingests_ < kMaxConsecutiveIngests;
}

double HuntService::CostWeightLocked(HuntTicket::State& state) {
  if (state.cost_weight >= 0) return state.cost_weight;
  // Safe to read index statistics here: mu_ is held and ingest_active_ is
  // false (worker predicate), and a mutation cannot start without first
  // taking mu_ in AcquireGate.
  const HuntRequest& req =
      state.standing != nullptr ? state.standing->request : state.request;
  double cost = 0;
  switch (req.dialect) {
    case QueryDialect::kTbql: {
      engine::TbqlExecutor executor(store_);
      cost = executor.EstimateCost(req.text);
      break;
    }
    case QueryDialect::kCypher:
      cost = store_->graph().EstimateCost(req.text);
      break;
    case QueryDialect::kSql:
      cost = store_->relational().EstimateCost(req.text);
      break;
  }
  double denom = std::max<double>(
      1.0, static_cast<double>(store_->entity_count() + store_->event_count()));
  double weight = std::min(1.0, std::max(kMinCostWeight, cost / denom));
  state.cost_weight = weight;
  return weight;
}

HuntService::StatePtr HuntService::AdmitLocked() {
  // Walk the round-robin ring from its head: admit the first tenant whose
  // head-of-line hunt fits the remaining cost budget (a too-expensive head
  // does not block a cheaper tenant behind it). Stale ring entries —
  // tenants whose queue emptied through reaps — are dropped as found.
  for (size_t i = 0; i < tenant_rr_.size();) {
    auto it = tenants_.find(tenant_rr_[i]);
    if (it == tenants_.end() || it->second.queue.empty()) {
      if (it != tenants_.end()) it->second.in_rr = false;
      tenant_rr_.erase(tenant_rr_.begin() + static_cast<long>(i));
      continue;
    }
    TenantState& ts = it->second;
    double weight = CostWeightLocked(*ts.queue.front());
    if (!running_.empty() &&
        running_cost_ + weight > kAdmissionCostBudget) {
      ++i;  // over budget right now; try the next tenant's head
      continue;
    }
    StatePtr state = std::move(ts.queue.front());
    ts.queue.pop_front();
    --queued_;
    ++ts.running;
    ts.last_active = ++activity_seq_;
    // Round-robin: one hunt per tenant turn; a tenant with more queued
    // work rotates to the back of the ring.
    tenant_rr_.erase(tenant_rr_.begin() + static_cast<long>(i));
    ts.in_rr = !ts.queue.empty();
    if (ts.in_rr) tenant_rr_.push_back(it->first);
    running_.push_back(state);
    running_cost_ += weight;
    consecutive_ingests_ = 0;  // a hunt got through; writers restart their
                               // preference window
    return state;
  }
  return nullptr;
}

void HuntService::EnqueueLocked(const StatePtr& state) {
  TenantState& ts = TenantLocked(state->request.tenant);
  if (!ts.in_rr) {
    ts.in_rr = true;
    tenant_rr_.push_back(state->request.tenant);
  }
  ts.queue.push_back(state);
  ++queued_;
}

bool HuntService::ReapQueued(const StatePtr& state, Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(state->request.tenant);
    if (it == tenants_.end()) return false;
    std::deque<StatePtr>& queue = it->second.queue;
    auto pos = std::find(queue.begin(), queue.end(), state);
    if (pos == queue.end()) return false;  // admitted or finished already
    queue.erase(pos);
    --queued_;
    it->second.last_active = ++activity_seq_;
    PruneIdleTenantsLocked();
  }
  // A writer blocked on its spent preference budget may now see an empty
  // queue; stale ring entries are cleaned up lazily by AdmitLocked.
  ingest_cv_.notify_all();
  Finish(state, std::move(status), HuntResponse{});
  return true;
}

void HuntService::PruneIdleTenantsLocked() {
  auto idle = [](const TenantState& ts) {
    return ts.queue.empty() && ts.running == 0;
  };
  size_t idle_count = 0;
  for (const auto& [name, ts] : tenants_) {
    if (idle(ts)) ++idle_count;
  }
  while (idle_count > kMaxIdleTenants) {
    auto victim = tenants_.end();
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      if (!idle(it->second)) continue;
      if (victim == tenants_.end() ||
          it->second.last_active < victim->second.last_active) {
        victim = it;
      }
    }
    if (victim == tenants_.end()) break;
    tenants_.erase(victim);
    --idle_count;
  }
}

void HuntService::ScheduleStandingLocked(const StandingPtr& sub) {
  // At most one refresh per subscription is queued or running; a refresh
  // that finds further epochs applied re-covers them in one pass, so
  // back-to-back ingests coalesce instead of piling up executions. The
  // refresh bypasses max_queue — it is bounded by the subscription count,
  // not by client submissions.
  if (sub->scheduled || sub->cancelled.load(std::memory_order_relaxed)) {
    return;
  }
  auto state = std::make_shared<HuntTicket::State>();
  state->id = next_id_++;
  state->standing = sub;
  state->request.tenant = sub->request.tenant;  // fairness bucket
  sub->scheduled = true;
  EnqueueLocked(state);
}

void HuntService::WorkerLoop() {
  for (;;) {
    StatePtr state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // Admission pauses while a mutation holds the store or a writer
        // with remaining preference budget is waiting for it (bounded
        // writer preference — ingest applies between hunt admissions
        // instead of starving behind a full queue, but cannot starve the
        // queue forever either).
        cv_.wait(lock, [&] {
          return stop_ ||
                 (queued_ > 0 && !ingest_active_ && !WriterPreferredLocked());
        });
        if (stop_) return;  // Shutdown() drained the queue
        state = AdmitLocked();
        if (state != nullptr) break;
        // Every queue head is over the cost budget: block until capacity
        // changes (a hunt completes, a reap empties a queue, a submit
        // arrives) and re-evaluate. mu_ is held from the predicate through
        // AdmitLocked, so no wakeup can slip by in between.
        cv_.wait(lock);
      }
      if (state->standing == nullptr) {
        queue_wait_.Record(MicrosSince(state->submit_time));
      }
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->started = true;
    }
    state->cv.notify_all();
    Status status = Status::OK();
    HuntResponse response;
    Process(state, &status, &response);
    // Leave running_ BEFORE finishing the ticket: a waiter observing
    // done() must also observe the running set without this hunt, and a
    // drained running set must wake any ingest waiting to mutate.
    bool wake_ingest = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), state));
      running_cost_ -= std::max(0.0, state->cost_weight);
      if (running_.empty()) running_cost_ = 0;  // absorb float drift
      auto it = tenants_.find(state->request.tenant);
      if (it != tenants_.end() && it->second.running > 0) {
        --it->second.running;
        it->second.last_active = ++activity_seq_;
      }
      PruneIdleTenantsLocked();
      wake_ingest = running_.empty() && ingests_waiting_ > 0;
    }
    // Capacity freed: wake cost-gated sibling workers, and the writer
    // gate if the pool drained.
    cv_.notify_all();
    if (wake_ingest) ingest_cv_.notify_all();
    Finish(state, std::move(status), std::move(response));
  }
}

void HuntService::Process(const StatePtr& state, Status* status,
                          HuntResponse* response) {
  if (state->standing != nullptr) {
    // Internal standing refresh: errors go to the subscription's sink, so
    // the internal ticket always finishes OK.
    if (!state->standing->cancelled.load(std::memory_order_relaxed)) {
      RunStanding(state->standing);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      state->standing->scheduled = false;
    }
    return;
  }
  // Queue-time expiry: cancellation and deadlines apply while waiting for
  // admission, not just during execution.
  if (state->cancel.load(std::memory_order_relaxed)) {
    *status = Status::Cancelled("hunt cancelled");
    return;
  }
  if (state->deadline.has_value() &&
      std::chrono::steady_clock::now() > *state->deadline) {
    *status = Status::Timeout("hunt deadline exceeded");
    return;
  }
  // EXPLAIN ANALYZE / slow-hunt tracing. The root spans the whole hunt
  // lifecycle (queue wait + execution); null when neither the request nor
  // an attached slow log asks for it, which costs one branch here.
  std::shared_ptr<obs::SlowHuntLog> slow = SlowLogSnapshot();
  std::shared_ptr<obs::TraceSpan> root;
  if (state->request.profile || slow != nullptr) {
    root = obs::TraceSpan::Root("hunt");
    root->Note("dialect", DialectName(state->request.dialect));
    root->Note("tenant", state->request.tenant);
    obs::TraceSpan* queue_span = root->AddChild("queue_wait");
    queue_span->SetWindow(state->submit_time, obs::TraceSpan::Clock::now());
  }
  auto result = ExecuteQuery(state->request, &state->cancel, state->deadline,
                             /*seed_filter=*/nullptr, root.get());
  if (result.ok()) {
    *response = std::move(result).value();
  } else {
    *status = result.status();
  }
  if (root != nullptr) {
    root->Note("status", StatusLabel(*status));
    root->Finish();
    if (state->request.profile) response->profile = root;
    if (slow != nullptr) {
      slow->MaybeLog(state->request.tenant,
                     DialectName(state->request.dialect), state->request.text,
                     StatusLabel(*status), MicrosSince(state->submit_time),
                     root.get());
    }
  }
}

Result<HuntResponse> HuntService::ExecuteQuery(
    const HuntRequest& req, const std::atomic<bool>* cancel,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const std::unordered_set<graphdb::NodeId>* seed_filter,
    obs::TraceSpan* trace) const {
  HuntResponse response;
  response.dialect = req.dialect;
  obs::TraceSpan* exec_span = obs::Child(trace, "execute");
  Stopwatch timer;
  switch (req.dialect) {
    case QueryDialect::kTbql: {
      engine::ExecOptions opts = req.exec;
      opts.cancel = cancel;
      opts.deadline = deadline;
      if (options_.mqo) {
        opts.sql_result_cache = &sql_cache_;
        opts.graph_result_cache = &graph_cache_;
      }
      opts.trace = exec_span;
      engine::TbqlExecutor executor(store_);
      auto report = executor.ExecuteText(req.text, opts);
      if (!report.ok()) {
        obs::Finish(exec_span);
        return report.status();
      }
      response.report = std::move(report).value();
      response.columns = response.report.results.columns;
      break;
    }
    case QueryDialect::kCypher: {
      graphdb::MatchOptions opts = store_->graph().options();
      opts.cancel = cancel;
      opts.deadline = deadline;
      opts.top_seed_filter = seed_filter;
      if (options_.mqo) opts.result_cache = &graph_cache_;
      opts.trace = exec_span;
      graphdb::MatchStats stats;
      auto rs = store_->graph().QueryBlocks(
          req.text, opts, exec_span != nullptr ? &stats : nullptr);
      if (!rs.ok()) {
        obs::Finish(exec_span);
        return rs.status();
      }
      stats.WriteSpan(exec_span);
      response.columns = std::move(rs.value().columns);
      response.rows = std::move(rs.value().rows);
      break;
    }
    case QueryDialect::kSql: {
      sql::SelectOptions opts = store_->relational().options();
      opts.cancel = cancel;
      opts.deadline = deadline;
      if (options_.mqo) opts.result_cache = &sql_cache_;
      opts.trace = exec_span;
      sql::ExecStats stats;
      auto rs = store_->relational().QueryBlocks(
          req.text, opts, exec_span != nullptr ? &stats : nullptr);
      if (!rs.ok()) {
        obs::Finish(exec_span);
        return rs.status();
      }
      // The executor itself adds its counters and the access-path notes
      // to exec_span (SelectOptions::trace); stats.WriteSpan re-sets the
      // scan counters to the same totals and adds rows and morsels.
      stats.WriteSpan(exec_span);
      response.columns = std::move(rs.value().columns);
      response.rows = std::move(rs.value().rows);
      break;
    }
  }
  obs::Finish(exec_span);
  // The storage executors poll the deadline amortized; catch an expiry
  // their final stride missed.
  if (deadline.has_value() && std::chrono::steady_clock::now() > *deadline) {
    return Status::Timeout("hunt deadline exceeded");
  }
  response.seconds = timer.ElapsedSeconds();
  return response;
}

namespace {

/// Per-part pattern radius: the farthest any node of the part can sit from
/// the part's seed (its first node), walking match edges. Varlen hops
/// count their maximum length (the unbounded cap when open-ended).
std::vector<size_t> PartRadii(const graphdb::CypherQuery& q,
                              const graphdb::MatchOptions& mopts) {
  std::vector<size_t> radii;
  radii.reserve(q.patterns.size());
  for (const graphdb::PatternPart& part : q.patterns) {
    size_t radius = 0;
    for (const graphdb::RelPattern& r : part.rels) {
      if (r.varlen) {
        radius += static_cast<size_t>(
            r.max_len >= 0 ? r.max_len : mopts.unbounded_varlen_cap);
      } else {
        ++radius;
      }
    }
    radii.push_back(radius);
  }
  return radii;
}

}  // namespace

bool HuntService::ExpandDirtyRegion(const std::vector<audit::EntityId>& dirty,
                                    size_t max_hops, double max_fraction,
                                    std::vector<graphdb::NodeId>* bfs_order,
                                    std::vector<size_t>* hop_boundary) const {
  const graphdb::PropertyGraph& g = store_->graph().graph();
  const size_t cap =
      static_cast<size_t>(max_fraction * static_cast<double>(g.node_count()));
  std::unordered_set<graphdb::NodeId> seen;
  std::vector<graphdb::NodeId> frontier;
  for (audit::EntityId e : dirty) {
    graphdb::NodeId n = store_->NodeForEntity(e);
    if (n == graphdb::kInvalidNode) continue;
    if (seen.insert(n).second) {
      bfs_order->push_back(n);
      frontier.push_back(n);
    }
  }
  if (seen.size() > cap) return false;
  hop_boundary->push_back(bfs_order->size());
  for (size_t hop = 0; hop < max_hops; ++hop) {
    std::vector<graphdb::NodeId> next;
    for (graphdb::NodeId n : frontier) {
      for (graphdb::EdgeId eid : g.OutEdges(n)) {
        graphdb::NodeId m = g.edge(eid).dst;
        if (seen.insert(m).second) {
          bfs_order->push_back(m);
          next.push_back(m);
        }
      }
      for (graphdb::EdgeId eid : g.InEdges(n)) {
        graphdb::NodeId m = g.edge(eid).src;
        if (seen.insert(m).second) {
          bfs_order->push_back(m);
          next.push_back(m);
        }
      }
      if (seen.size() > cap) return false;
    }
    frontier = std::move(next);
    hop_boundary->push_back(bfs_order->size());
  }
  return true;
}

bool HuntService::TryIncrementalCypher(
    StandingState& sub, const std::vector<audit::EntityId>& dirty,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::vector<HuntResponse>* responses, Status* status,
    obs::TraceSpan* trace) const {
  auto parsed = graphdb::ParseCypher(sub.request.text);
  if (!parsed.ok()) return false;
  graphdb::CypherQuery q = std::move(parsed).value();
  // Re-execution under a LIMIT is not monotone; full re-scan.
  if (q.patterns.empty() || q.limit >= 0) return false;

  std::vector<size_t> radii = PartRadii(q, store_->graph().options());
  size_t max_radius = *std::max_element(radii.begin(), radii.end());
  std::vector<graphdb::NodeId> order;
  std::vector<size_t> boundary;  // boundary[h] = nodes within h hops
  if (!ExpandDirtyRegion(dirty, max_radius, sub.options.max_dirty_fraction,
                         &order, &boundary)) {
    return false;
  }

  // One pass per pattern part: rotate part j to the front (the executor's
  // top_seed_filter restricts the FIRST part's seeds) and seed it from the
  // dirty region expanded by part j's own radius; the delta seen-set
  // unions the passes. Soundness: every new row contains a new edge in
  // some part j, whose endpoints are dirty — that part's seed then lies
  // within radii[j] hops of a dirty node, so pass j finds the row.
  for (size_t j = 0; j < q.patterns.size(); ++j) {
    size_t hops = std::min(radii[j], boundary.size() - 1);
    std::unordered_set<graphdb::NodeId> filter(
        order.begin(),
        order.begin() + static_cast<ptrdiff_t>(boundary[hops]));
    HuntRequest pass = sub.request;
    pass.text = q.ToString();
    obs::TraceSpan* pass_span =
        obs::Child(trace, "incremental_pass[" + std::to_string(j) + "]");
    obs::Set(pass_span, "seed_filter_nodes",
             static_cast<int64_t>(filter.size()));
    auto result = ExecuteQuery(pass, &sub.cancelled, deadline, &filter,
                               pass_span);
    obs::Finish(pass_span);
    if (!result.ok()) {
      *status = result.status();
      return true;  // eligible, but the pass failed: report, retry later
    }
    responses->push_back(std::move(result).value());
    std::rotate(q.patterns.begin(), q.patterns.begin() + 1, q.patterns.end());
  }
  return true;
}

bool HuntService::TryIncrementalTbql(
    StandingState& sub, const std::vector<audit::EntityId>& dirty,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::vector<HuntResponse>* responses, Status* status,
    obs::TraceSpan* trace) const {
  // Sound only after a full refresh matched every pattern: before that,
  // excessive-pattern tolerance joins over a pattern subset, and a pattern
  // that starts matching reshapes rows non-monotonically — only a full
  // execution can notice the transition.
  if (!sub.tbql_all_matched) return false;
  auto parsed = tbql::ParseTbql(sub.request.text);
  if (!parsed.ok()) return false;
  const tbql::TbqlQuery& q = parsed.value();
  if (q.patterns.empty()) return false;
  // Time windows are not monotone (a sliding "last N" drops rows as the
  // store advances); set semantics cannot retract.
  if (!q.global_windows.empty()) return false;
  for (const tbql::Pattern& p : q.patterns) {
    if (p.window.has_value()) return false;
  }
  // Every pattern must expose a joinable (non-network) entity variable to
  // constrain; an unconstrainable pattern would need a full scan anyway.
  for (const tbql::Pattern& p : q.patterns) {
    bool constrainable = (!p.subject.id.empty() &&
                          p.subject.type != audit::EntityType::kNetwork) ||
                         (!p.object.id.empty() &&
                          p.object.type != audit::EntityType::kNetwork);
    if (!constrainable) return false;
  }
  // Region guard, mirroring the Cypher fraction check: a dirty set
  // covering most of the store makes passes slower than one full run.
  double cap = sub.options.max_dirty_fraction *
               static_cast<double>(store_->entity_count());
  if (static_cast<double>(dirty.size()) > cap) return false;

  engine::EntitySet dirty_set;
  dirty_set.reserve(dirty.size());
  for (audit::EntityId e : dirty) {
    dirty_set.insert(static_cast<long long>(e));
  }

  // One pass per pattern: force pattern k first with its entity variables
  // pre-constrained to the dirty ids, and require every pattern to match
  // (under a restricted domain an empty pattern means "no new rows via
  // this pattern", not "excessive pattern"). Soundness: a new row needs a
  // new event in some pattern k, and a stored event's subject and object
  // are both recorded dirty — pass k's constrained domain contains them.
  for (size_t k = 0; k < q.patterns.size(); ++k) {
    const tbql::Pattern& p = q.patterns[k];
    engine::EntityConstraints constraints;
    if (!p.subject.id.empty() &&
        p.subject.type != audit::EntityType::kNetwork) {
      constraints[p.subject.id] = dirty_set;
    }
    if (!p.object.id.empty() &&
        p.object.type != audit::EntityType::kNetwork) {
      constraints[p.object.id] = dirty_set;
    }
    HuntRequest pass = sub.request;
    pass.exec.initial_constraints = &constraints;
    pass.exec.force_first_pattern = static_cast<int>(k);
    pass.exec.require_all_patterns = true;
    pass.exec.propagate_constraints = true;  // the passes' whole point
    obs::TraceSpan* pass_span =
        obs::Child(trace, "incremental_pass[" + std::to_string(k) + "]");
    obs::Set(pass_span, "dirty_entities",
             static_cast<int64_t>(dirty_set.size()));
    auto result = ExecuteQuery(pass, &sub.cancelled, deadline, nullptr,
                               pass_span);
    obs::Finish(pass_span);
    if (!result.ok()) {
      *status = result.status();
      return true;  // eligible, but the pass failed: report, retry later
    }
    responses->push_back(std::move(result).value());
  }
  return true;
}

void HuntService::RunStanding(const StandingPtr& sub) {
  // Snapshot the epoch window this refresh covers. The refresh occupies a
  // running_ slot, so no ingest can advance the store mid-refresh.
  uint64_t target = 0;
  std::vector<audit::EntityId> dirty;
  bool have_dirty = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = epoch_;
    if (sub->baseline_done && sub->last_epoch < target && !dirty_.empty() &&
        sub->last_epoch + 1 >= dirty_.front().epoch) {
      // Every epoch in (last_epoch, target] is still retained: the union
      // of their dirty sets bounds where new rows can seed.
      have_dirty = true;
      for (const DirtyEpoch& d : dirty_) {
        if (d.epoch > sub->last_epoch) {
          dirty.insert(dirty.end(), d.entities.begin(), d.entities.end());
        }
      }
    }
  }

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (sub->request.timeout_micros >= 0) {
    deadline = std::chrono::steady_clock::now() +
               ClampMicros(sub->request.timeout_micros);
  }
  Stopwatch timer;

  // Tracing mirrors the client-hunt path: rooted when the standing request
  // asked for a profile or a slow-hunt log is attached.
  std::shared_ptr<obs::SlowHuntLog> slow = SlowLogSnapshot();
  std::shared_ptr<obs::TraceSpan> root;
  if (sub->request.profile || slow != nullptr) {
    root = obs::TraceSpan::Root("standing_refresh");
    root->Note("dialect", DialectName(sub->request.dialect));
    root->Note("tenant", sub->request.tenant);
    root->Set("epoch", static_cast<int64_t>(target));
  }

  // Incremental dirty-seeded passes (per-part Cypher rotation, per-pattern
  // TBQL constraining); fall through to a full refresh when ineligible.
  std::vector<HuntResponse> responses;
  bool incremental = false;
  Status failure = Status::OK();
  if (have_dirty && sub->options.allow_incremental) {
    if (sub->request.dialect == QueryDialect::kCypher) {
      incremental = TryIncrementalCypher(*sub, dirty, deadline, &responses,
                                         &failure, root.get());
    } else if (sub->request.dialect == QueryDialect::kTbql) {
      incremental = TryIncrementalTbql(*sub, dirty, deadline, &responses,
                                       &failure, root.get());
    }
  }

  // Full refresh, deduplicated across structural twins (MQO layer 1): the
  // first subscription to claim the (canonical key, epoch) entry executes;
  // the rest reuse its response and pay only their own delta computation.
  std::shared_ptr<const HuntResponse> shared;
  if (!incremental && failure.ok()) {
    std::shared_ptr<SharedRefresh> entry;
    bool leader = true;
    if (options_.mqo && !sub->canonical_key.empty()) {
      std::string key = sub->canonical_key + '\x1f' + std::to_string(target);
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, fresh] = refresh_cache_.try_emplace(key);
      if (fresh) it->second = std::make_shared<SharedRefresh>();
      leader = fresh;
      entry = it->second;
    }
    if (leader) {
      obs::Note(root.get(), "mqo",
                entry != nullptr ? "leader" : "no_dedup");
      auto result = ExecuteQuery(sub->request, &sub->cancelled, deadline,
                                 nullptr, root.get());
      if (result.ok()) {
        shared =
            std::make_shared<const HuntResponse>(std::move(result).value());
      } else {
        failure = result.status();
      }
      if (entry != nullptr) {
        // Fill unconditionally — even on error or cancellation — so a
        // follower can never wait forever.
        {
          std::lock_guard<std::mutex> lock(entry->mu);
          entry->status = failure;
          entry->response = shared;
          entry->ready = true;
        }
        entry->cv.notify_all();
      }
    } else {
      // Follower: the leader is already running on another worker (it
      // claimed the entry while admitted), so this wait is bounded by one
      // query execution and holds no service lock.
      obs::ScopedSpan wait_span(root.get(), "dedup_wait");
      obs::Note(root.get(), "mqo", "follower");
      std::unique_lock<std::mutex> lock(entry->mu);
      entry->cv.wait(lock, [&] { return entry->ready; });
      failure = entry->status;
      shared = entry->response;
      lock.unlock();
      if (shared != nullptr) {
        std::lock_guard<std::mutex> service_lock(mu_);
        ++stats_.standing_dedup_hits;
      }
    }
  }

  if (!failure.ok()) {
    if (root != nullptr) {
      root->Note("status", StatusLabel(failure));
      root->Finish();
      if (slow != nullptr) {
        slow->MaybeLog(sub->request.tenant, DialectName(sub->request.dialect),
                       sub->request.text, StatusLabel(failure),
                       timer.ElapsedSeconds() * 1e6, root.get());
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sub->scheduled = false;  // the next epoch retries (window unchanged)
    }
    if (sub->sink.on_error != nullptr &&
        !sub->cancelled.load(std::memory_order_relaxed)) {
      sub->sink.on_error(failure);
    }
    // The attempt still counts as processing the epoch for WaitEpoch —
    // otherwise a persistently-failing query (bad syntax, per-refresh
    // deadline) would block waiters forever once no further epochs
    // arrive. last_epoch stays put, so a later successful refresh
    // re-covers the window and delivers anything missed here.
    {
      std::lock_guard<std::mutex> lock(sub->mu);
      if (target > sub->delivered_epoch) sub->delivered_epoch = target;
    }
    sub->cv.notify_all();
    return;
  }

  // The full TBQL refresh just proved that every pattern matches — which
  // is what licenses later per-pattern dirty passes (see
  // TryIncrementalTbql).
  if (!incremental && sub->request.dialect == QueryDialect::kTbql &&
      shared != nullptr && shared->report.unmatched_patterns.empty()) {
    sub->tbql_all_matched = true;
  }

  // Delta: rows never delivered before (set semantics). Incremental
  // passes and shared full refreshes alike produce a superset of the
  // genuinely-new rows plus re-found old ones; the seen-set removes the
  // latter (and unions the multi-pass results).
  StandingUpdate update;
  update.subscription_id = sub->id;
  update.epoch = target;
  update.incremental = incremental;
  auto add_row = [&](std::vector<sql::Value> row) {
    auto [it, fresh] = sub->seen.insert(std::move(row));
    if (fresh) update.delta.Push(std::vector<sql::Value>(*it));
  };
  auto add_response = [&](const HuntResponse& response) {
    if (update.columns.empty()) update.columns = response.columns;
    if (sub->request.dialect == QueryDialect::kTbql) {
      for (const std::vector<std::string>& row :
           response.report.results.rows) {
        std::vector<sql::Value> vrow;
        vrow.reserve(row.size());
        for (const std::string& cell : row) vrow.emplace_back(cell);
        add_row(std::move(vrow));
      }
    } else {
      auto cursor = response.cursor();
      while (const std::vector<sql::Value>* row = cursor.Next()) {
        add_row(*row);
      }
    }
  };
  if (shared != nullptr) add_response(*shared);
  for (const HuntResponse& response : responses) add_response(response);
  update.seconds = timer.ElapsedSeconds();
  if (root != nullptr) {
    root->Note("status", "ok");
    root->Note("incremental", incremental ? "true" : "false");
    root->Set("delta_rows", static_cast<int64_t>(update.delta.row_count()));
    root->Finish();
    if (sub->request.profile) update.profile = root;
    if (slow != nullptr) {
      slow->MaybeLog(sub->request.tenant, DialectName(sub->request.dialect),
                     sub->request.text, "ok", update.seconds * 1e6,
                     root.get());
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.standing_refreshes;
    if (update.incremental) ++stats_.standing_incremental;
    if (!update.delta.empty()) ++stats_.standing_alerts;
    sub->last_epoch = target;
    sub->baseline_done = true;
  }
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->total_rows += update.delta.row_count();
    update.total_rows = sub->total_rows;
  }
  if (!sub->cancelled.load(std::memory_order_relaxed)) {
    if (sub->sink.on_update != nullptr) sub->sink.on_update(update);
    if (!update.delta.empty() && sub->sink.on_alert != nullptr) {
      sub->sink.on_alert(update);
    }
  }
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->delivered_epoch = target;
  }
  sub->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    sub->scheduled = false;
  }
}

void HuntService::Finish(const StatePtr& state, Status status,
                         HuntResponse response) {
  // Count the outcome BEFORE the ticket becomes observable-done, so a
  // waiter that returns from Wait() reads up-to-date stats. Internal
  // standing refreshes are counted by RunStanding, not here.
  if (state->standing == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(state->request.tenant);
    TenantState* ts = it == tenants_.end() ? nullptr : &it->second;
    switch (status.code()) {
      case StatusCode::kOk:
        ++stats_.completed;
        if (ts != nullptr) ++ts->completed;
        hunt_latency_.Record(MicrosSince(state->submit_time));
        break;
      case StatusCode::kCancelled:
        ++stats_.cancelled;
        if (ts != nullptr) ++ts->cancelled;
        break;
      case StatusCode::kTimeout:
        ++stats_.timed_out;
        if (ts != nullptr) ++ts->timed_out;
        break;
      case StatusCode::kUnavailable: break;  // counted at rejection
      default:
        ++stats_.failed;
        if (ts != nullptr) ++ts->failed;
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = std::move(status);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.notify_all();
}

}  // namespace raptor::service
