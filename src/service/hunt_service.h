// HuntService: the asynchronous, multi-tenant query front door.
//
// The library-call API (ThreatRaptor::Hunt, TbqlExecutor::Execute) serves
// one analyst, one query at a time. Interactive hunting is a service
// problem — many concurrent investigations over one audit store — so this
// layer turns query execution into Submit()/HuntTicket:
//
//   service::HuntService svc(tr.store());
//   auto t1 = svc.Submit({.text = "proc p read file f return p, f"});
//   auto t2 = svc.Submit({.text = "MATCH (p:proc)-[e]->(f:file) RETURN f",
//                         .dialect = service::QueryDialect::kCypher});
//   t1.Wait();  // t2 ran concurrently on the admission workers
//
// Admission: up to max_concurrent read-only hunts execute at once (the
// PR-3 thread-safety contract — single-threaded mutation, race-free const
// queries — is what makes this sound); excess requests queue per tenant
// — each tenant bounded by a queue cap of max(1, max_queue / 8), so one
// flooding tenant can never fill the global queue against everyone else —
// and admit round-robin across tenants, one hunt per tenant turn. On top
// of the worker count, admission is cost-aware: each hunt is priced at
// dequeue time from the executors' plan-time estimators (EstimateCost —
// seed cardinalities × pattern radius, pure index statistics), normalized
// by store size, and a hunt only starts while the sum of running weights
// fits kAdmissionCostBudget (one full-store-scan-heavy hunt runs alone;
// cheap point hunts pack the full worker width). A hunt's one level of
// intra-query parallelism, the storage morsel fan-out, runs on the shared
// common/thread_pool.h pool, so total parallelism is bounded by the pool,
// not multiplied by it.
//
// Tickets are future-like handles: Wait()/WaitFor(), Cancel()
// (cooperative — polled by the engine at pattern boundaries and by both
// storage executors inside their scan loops), and a per-request deadline
// that expires queued or running hunts with Status::Timeout. Results
// stream through storage::RowCursor over chunked per-worker row blocks
// (zero-copy out of the parallel merges) instead of a materialized result
// set; the synchronous facade calls flatten a block result for
// compatibility.
//
// Epoch-coordinated ingest: the service is also the write gate for its
// store. Ingest() quiesces the admission workers (queued hunts stay
// queued, running ones drain), applies the caller's mutation, bumps the
// store epoch, and records the batch's touched entities as that epoch's
// dirty set — so ingestion and hunting interleave safely under the
// const-query thread-safety contract instead of refusing each other.
// Writer preference is bounded: at most kMaxConsecutiveIngests mutations
// admit in a row while hunts wait, then one queued hunt is guaranteed
// through before the next writer takes the gate — hunt latency stays
// finite under a firehose source instead of starving behind it.
//
// Standing hunts: SubmitStanding() registers a query that re-executes
// against every new epoch on the same admission workers (fair with
// one-shot hunts). Each refresh delivers the rows not previously seen as
// a RowBlocks delta to the subscriber's sink, plus an alert callback when
// the delta is non-empty. Cypher refreshes run incrementally, one pass per
// pattern part: the pass rotates that part to the front and restricts its
// seeds to the nodes within the part's pattern radius of the epochs' dirty
// entities (MatchOptions::top_seed_filter), falling back to a full re-scan
// when the dirty region grows past a configured fraction of the graph.
// TBQL refreshes run incrementally too, one pass per pattern: the pass
// forces that pattern first with its entity variables pre-constrained to
// the dirty ids (ExecOptions::initial_constraints), requiring every
// pattern to match. Standing hunts have set semantics — each distinct row
// is delivered once, in the first epoch it appears — so queries should be
// monotone (LIMIT interacts poorly with re-execution and disables the
// incremental path).
//
// Multi-query optimization (fleet scale): with hundreds of standing hunts
// — technique templates stamped once per tenant — most refreshes repeat
// work. Two layers remove it. (1) Refresh dedupe: full refreshes of
// structurally-identical hunts (equal huntlib canonical keys — variable
// renaming discounted, projection labels included) at the same epoch
// execute ONCE; followers reuse the leader's response and derive their own
// per-subscription deltas from it. (2) Shared subresults: the per-epoch
// storage::QueryResultCache handed to both storage executors lets
// identical compiled data queries (shared sub-patterns across hunts)
// execute once per epoch. Both caches invalidate on every epoch bump and
// whenever Exclusive() releases the gate (retention may rebuild the store
// without an epoch).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "persist/durability.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "storage/row_block.h"
#include "storage/store.h"
#include "storage/subresult_cache.h"

namespace raptor::service {

enum class QueryDialect {
  kTbql,    // TBQL text through engine::TbqlExecutor
  kCypher,  // raw Cypher against the graph backend
  kSql,     // raw SQL against the relational backend
};

struct HuntRequest {
  std::string text;
  QueryDialect dialect = QueryDialect::kTbql;
  /// Fairness bucket: queued requests admit round-robin across tenants.
  /// Empty is the (shared) default tenant.
  std::string tenant;
  /// Relative deadline applied from Submit() — covers queue wait AND
  /// execution; expiry yields Status::Timeout. Negative: none.
  long long timeout_micros = -1;
  /// EXPLAIN ANALYZE: build a span tree for this hunt (queue wait,
  /// per-pattern execution, storage shard scans) and attach it to
  /// HuntResponse::profile. Off (the default) costs one branch per hunt;
  /// result rows are byte-identical either way.
  bool profile = false;
  /// TBQL execution options. The service owns `cancel` and `deadline`
  /// (they are overwritten from the ticket); the scheduling toggles pass
  /// through.
  engine::ExecOptions exec;
};

/// A finished hunt. Cypher/SQL rows arrive as chunked per-worker blocks
/// (`rows`, stream with cursor()); TBQL hunts carry the full engine report
/// (materialized string rows plus match metadata) in `report`.
struct HuntResponse {
  QueryDialect dialect = QueryDialect::kTbql;
  std::vector<std::string> columns;
  storage::RowBlocks<std::vector<sql::Value>> rows;
  engine::ExecReport report;
  double seconds = 0;  // execution time (excludes queue wait)
  /// Span tree for the hunt (HuntRequest::profile, or a slow-hunt log is
  /// attached); null otherwise. Render with obs::RenderProfileText/Json.
  std::shared_ptr<const obs::TraceSpan> profile;

  storage::RowCursor<std::vector<sql::Value>> cursor() const {
    return storage::RowCursor<std::vector<sql::Value>>(&rows);
  }
};

class HuntService;

/// Back-pointer from outstanding tickets to their service, severed at
/// shutdown: lets HuntTicket::Cancel (and a Wait that sees a queued
/// deadline expire) reap the hunt out of the admission queue promptly —
/// releasing its slot — without the ticket outliving the service unsafely.
/// Defined in the .cc; tickets only hold a shared_ptr.
struct ServiceHook;

/// What one ingested batch did to the store; `touched_entities` (filled by
/// the mutation callback, e.g. from storage::AppendStats) becomes the new
/// epoch's dirty-entity set for incremental standing hunts.
struct IngestReport {
  std::vector<audit::EntityId> touched_entities;
};

/// One refresh of a standing hunt, delivered to its sink.
struct StandingUpdate {
  uint64_t subscription_id = 0;
  /// Store epoch this refresh reflects (deltas cover everything up to it).
  uint64_t epoch = 0;
  std::vector<std::string> columns;
  /// Rows that first appeared in this refresh (set semantics: a row is
  /// delivered once, in the first epoch its query produces it).
  storage::RowBlocks<std::vector<sql::Value>> delta;
  /// Part-0 seeds were restricted to the dirty region (vs full re-scan).
  bool incremental = false;
  size_t total_rows = 0;  // accumulated rows delivered so far (incl. delta)
  double seconds = 0;     // refresh execution time
  /// Span tree for this refresh (HuntRequest::profile on the standing
  /// request, or a slow-hunt log is attached); null otherwise.
  std::shared_ptr<const obs::TraceSpan> profile;

  storage::RowCursor<std::vector<sql::Value>> cursor() const {
    return storage::RowCursor<std::vector<sql::Value>>(&delta);
  }
};

/// Callbacks of a standing hunt. All fire on an admission worker thread,
/// never concurrently for one subscription; any may be null.
struct StandingSink {
  /// Every refresh, including empty deltas.
  std::function<void(const StandingUpdate&)> on_update;
  /// Refreshes whose delta is non-empty — new matching activity.
  std::function<void(const StandingUpdate&)> on_alert;
  /// A refresh failed (the subscription stays registered and retries on
  /// the next epoch).
  std::function<void(const Status&)> on_error;
};

struct StandingOptions {
  /// Allow dirty-seeded incremental refreshes (Cypher per-part rotation
  /// passes; TBQL per-pattern constrained passes); off forces a full
  /// re-scan every epoch.
  bool allow_incremental = true;
  /// Fall back to a full re-scan when the dirty seed region (after radius
  /// expansion; for TBQL, the raw dirty-entity count) exceeds this
  /// fraction of the graph's nodes (entities).
  double max_dirty_fraction = 0.25;
};

struct StandingState;

/// One deduplicated full-refresh execution (MQO layer 1): the leader fills
/// it, followers wait on it. Defined in the .cc.
struct SharedRefresh;

/// Handle to a standing hunt. Copyable (all copies share one state); a
/// default-constructed handle is invalid and inert.
class StandingHandle {
 public:
  StandingHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  /// Newest epoch a refresh has processed — delivered to the sink, or
  /// reported through on_error (a failed attempt still advances this so
  /// waiters are not stranded; the rows follow with the next successful
  /// refresh).
  uint64_t delivered_epoch() const;
  size_t total_rows() const;

  /// Block until refreshes covering `epoch` have been processed (or the
  /// subscription is cancelled / the service shuts down). True when the
  /// epoch was reached; with a non-negative timeout, false on expiry.
  bool WaitEpoch(uint64_t epoch, long long timeout_micros = -1) const;

  /// Unsubscribe: no new refreshes are scheduled; an in-flight refresh
  /// may still deliver one final update.
  void Cancel() const;

 private:
  friend class HuntService;
  explicit StandingHandle(std::shared_ptr<StandingState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<StandingState> state_;
};

/// Future-like handle to a submitted hunt. Copyable (all copies share one
/// state); valid tickets come from HuntService::Submit. A
/// default-constructed (invalid) ticket behaves as already-finished with
/// an InvalidArgument status — only response()/TakeResponse() require
/// validity (their precondition implies it).
class HuntTicket {
 public:
  HuntTicket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Block until the hunt finishes; returns its final status.
  const Status& Wait() const;

  /// Block up to `micros`; true if the hunt finished in time.
  bool WaitFor(long long micros) const;

  /// Block until the hunt leaves the admission queue (or finishes without
  /// running — rejected, cancelled, expired). Lets a client sequence
  /// against the scheduler: after this, the hunt holds a worker slot.
  void WaitStarted() const;

  bool done() const;

  /// Request cancellation: a still-queued hunt is reaped out of the
  /// admission queue immediately (its ticket finishes Cancelled and its
  /// queue slot frees without waiting for a worker); a running one stops
  /// cooperatively at the next poll point.
  void Cancel() const;

  /// Precondition: done().
  const Status& status() const;
  /// Precondition: done() && status().ok().
  const HuntResponse& response() const;
  /// Move the response out (the ticket keeps its status). Precondition:
  /// done() && status().ok().
  HuntResponse TakeResponse();

  uint64_t id() const;

 private:
  friend class HuntService;

  struct State {
    // Immutable after Submit().
    HuntRequest request;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point submit_time;
    uint64_t id = 0;
    /// Non-null: this is an internal standing-hunt refresh, not a client
    /// hunt (Process runs the refresh; stats count it separately).
    std::shared_ptr<StandingState> standing;
    /// Reap-back channel to the service for queued cancellation / queued
    /// deadline expiry; null on internal tickets.
    std::shared_ptr<ServiceHook> hook;

    std::atomic<bool> cancel{false};

    /// Estimated admission weight in full-store-scan units; computed
    /// lazily at dequeue time under the service mutex (< 0: uncomputed).
    double cost_weight = -1.0;

    std::mutex mu;
    std::condition_variable cv;
    bool started = false;  // dequeued onto an admission worker
    bool done = false;
    Status status;
    HuntResponse response;
  };

  explicit HuntTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  /// Pull a still-queued hunt out of the admission queue through the
  /// service hook, finishing it with `status`. A no-op once the hunt
  /// started, finished, or the service shut down.
  static void Reap(const std::shared_ptr<State>& state, Status status);

  std::shared_ptr<State> state_;
};

/// Floor for a hunt's normalized admission cost weight, so even point
/// lookups consume some budget and the effective width stays bounded by
/// kAdmissionCostBudget / kMinCostWeight.
constexpr double kMinCostWeight = 0.05;

/// Cost-aware admission: a dequeued hunt only starts while the sum of
/// running hunts' estimated weights (each in [kMinCostWeight, 1], 1 ≈ one
/// full scan of the store, from the executors' plan-time EstimateCost)
/// stays within this budget; a hunt always admits when nothing is running.
constexpr double kAdmissionCostBudget = 2.0;

/// Idle (no queued or running hunts) tenant entries retained for their
/// counters; least-recently-active entries beyond this are pruned so the
/// tenant map stays bounded however many tenant names pass through.
constexpr size_t kMaxIdleTenants = 64;

/// Bounded writer preference: at most this many consecutive gate
/// acquisitions (Ingest/Exclusive) admit while hunts sit queued; then one
/// hunt is guaranteed through before the next writer.
constexpr size_t kMaxConsecutiveIngests = 4;

/// Per-epoch dirty-entity sets retained for incremental standing hunts; a
/// subscriber further behind than this falls back to a full re-scan.
constexpr size_t kMaxDirtyEpochs = 64;

struct HuntServiceOptions {
  /// Concurrent hunts admitted at once (= admission worker threads).
  size_t max_concurrent = 4;
  /// Queued (not yet admitted) requests across all tenants; Submit beyond
  /// this finishes the ticket immediately with Status::Unavailable. Each
  /// tenant's own queue is capped at max(1, max_queue / 8): a tenant at
  /// its cap gets Status::Unavailable while other tenants keep admitting.
  size_t max_queue = 1024;
  /// Multi-query optimization, both layers. Refresh dedupe: full
  /// refreshes of structurally-identical standing hunts (equal huntlib
  /// canonical keys, typically the same technique template across
  /// tenants) at the same epoch execute once and fan the result out to
  /// every subscriber. Shared subresults: the service-owned per-epoch
  /// subresult caches go to the storage executors, so identical compiled
  /// data queries — common sub-patterns factored out across hunts —
  /// execute once per epoch. false is the per-hunt reference execution.
  bool mqo = true;
  /// Epoch counter start value. A restored service resumes at its
  /// snapshot's epoch so standing-hunt watermarks and checkpoint intervals
  /// keep their meaning across restarts.
  uint64_t initial_epoch = 0;
  /// Persistence configuration. The service is the write gate, so it is
  /// also where durability lives; the ThreatRaptor facade reads this to
  /// open a persist::Checkpointer and attach its WAL. An empty data_dir
  /// (the default) keeps the pre-durability in-memory behavior.
  persist::DurabilityOptions durability;
};

class HuntService {
 public:
  /// `store` must outlive the service and must not be mutated while hunts
  /// are queued or running (the const-query thread-safety contract).
  explicit HuntService(const storage::AuditStore* store,
                       HuntServiceOptions options = {});

  /// Shutdown() + joins the admission workers.
  ~HuntService();

  HuntService(const HuntService&) = delete;
  HuntService& operator=(const HuntService&) = delete;

  /// Stop admitting: queued hunts finish Cancelled("hunt service shut
  /// down"), running ones are requested to cancel, standing subscriptions
  /// detach, and later Submits are refused with the same status (counted
  /// as Stats::rejected_shutdown, not rejected). Idempotent; the
  /// destructor calls it and then joins the workers.
  void Shutdown();

  /// Enqueue a hunt; never blocks on execution. The returned ticket is
  /// already done() on admission rejection: Status::Unavailable when the
  /// global queue or the tenant's own cap is full, Status::Cancelled after
  /// Shutdown().
  HuntTicket Submit(HuntRequest request);

  /// Convenience synchronous path: Submit + Wait + TakeResponse.
  Result<HuntResponse> Run(HuntRequest request);

  /// Apply a store mutation under the epoch gate: holds off new hunt
  /// admissions, waits for running hunts to drain (queued hunts stay
  /// queued — nothing is refused), runs `mutate` on the calling thread,
  /// then bumps the store epoch, records the report's touched entities as
  /// the epoch's dirty set, and schedules a refresh of every standing
  /// hunt. Returns the new epoch. Concurrent Ingest calls serialize;
  /// admissions resume as soon as the mutation finishes. A failed
  /// mutation does not bump the epoch; the caller owns any partial-append
  /// cleanup.
  ///
  /// Write-ahead: a non-null `wal_record` is appended to the attached WAL
  /// under the gate BEFORE `mutate` runs, so an acknowledged mutation is
  /// always recoverable. A failed append fails the ingest without running
  /// the mutation (and without bumping the epoch). Without a record or an
  /// attached WAL nothing is logged.
  Result<uint64_t> Ingest(const std::function<Status(IngestReport*)>& mutate,
                          const persist::WalRecord* wal_record = nullptr);

  /// Run `fn` with the same exclusivity as a mutation — admissions held
  /// off, running hunts drained — but WITHOUT the epoch side effects: no
  /// epoch bump, no dirty set, no standing refreshes. This is the
  /// checkpoint/retention path: it must observe (and may rebuild) the
  /// store while nothing reads it, yet must not wake subscribers over a
  /// store whose visible contents did not change.
  Status Exclusive(const std::function<Status()>& fn);

  /// Attach (or detach, with nullptr) the write-ahead log appends go to.
  /// The writer is owned by the caller and must outlive the attachment.
  void AttachWal(persist::WalWriter* wal);

  /// Export every live standing hunt's delivered-row memory for a
  /// snapshot, keyed by subscription identity, rows sorted for
  /// deterministic bytes. Call under Exclusive() or the write gate.
  std::vector<persist::StandingSeen> ExportStandingSeen() const;

  /// Pre-arm standing subscriptions about to be resubmitted after a
  /// restore: when SubmitStanding sees a request whose identity matches a
  /// seed, the subscription starts with the seed's seen-set and
  /// accumulated total instead of empty — its baseline refresh then
  /// delivers only rows the pre-restart run never saw.
  void SeedStanding(std::vector<persist::StandingSeen> seeds);

  /// Store epochs applied so far (one per successful Ingest).
  uint64_t epoch() const;

  /// Register a standing hunt: `request` re-executes against every new
  /// epoch (an initial refresh against the current store runs
  /// immediately), streaming row deltas and alerts into `sink`. The
  /// request's deadline applies per refresh; its tenant takes part in
  /// admission fairness.
  StandingHandle SubmitStanding(HuntRequest request, StandingSink sink,
                                StandingOptions options = {});

  /// Lifetime counters.
  struct Stats {
    size_t submitted = 0;
    size_t completed = 0;   // finished OK
    size_t failed = 0;      // finished with a non-OK, non-cancel status
    size_t cancelled = 0;
    size_t timed_out = 0;
    size_t rejected = 0;    // admission rejections (global or tenant cap)
    size_t rejected_shutdown = 0;  // Submits refused after Shutdown()
    size_t tenants = 0;     // distinct tenants seen (survives map pruning)
    size_t ingests = 0;     // successful epoch-gated mutations
    size_t wal_records = 0; // mutations logged write-ahead
    size_t standing_refreshes = 0;    // standing executions completed
    size_t standing_incremental = 0;  // ... that ran dirty-seeded passes
    size_t standing_alerts = 0;       // ... that delivered a non-empty delta
    size_t standing_dedup_hits = 0;   // refreshes served from a structural
                                      // twin's execution (MQO layer 1)
    size_t subresult_hits = 0;        // shared-subresult cache hits across
                                      // both backends (MQO layer 2)
  };
  /// metrics().stats.
  Stats stats() const;

  /// Per-tenant slice of the metrics surface.
  struct TenantMetrics {
    std::string tenant;
    size_t queued = 0;
    size_t running = 0;
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t cancelled = 0;
    size_t timed_out = 0;
    size_t failed = 0;
    double qps = 0;  // submitted / service uptime
  };

  /// The one telemetry snapshot, taken under one lock: lifetime counters,
  /// queue/pool occupancy, admission cost state, tenant tracking, epoch
  /// lag (how far the slowest live standing hunt trails the store epoch),
  /// writer-gate contention, and hunt latency / queue wait distributions
  /// for executed client hunts. stats() and CollectMetrics() read it;
  /// ThreatRaptor::service_metrics() returns it.
  struct Metrics {
    Stats stats;
    size_t queue_depth = 0;
    size_t running = 0;
    size_t workers = 0;
    double running_cost = 0;      // of kAdmissionCostBudget
    size_t tracked_tenants = 0;   // live tenant map entries (bounded)
    uint64_t epoch = 0;
    uint64_t epoch_lag = 0;
    size_t standing = 0;          // registered (not cancelled) standing hunts
    size_t gate_acquires = 0;     // Ingest/Exclusive gate acquisitions
    double gate_wait_seconds_total = 0;
    double gate_wait_seconds_max = 0;
    size_t consecutive_ingests = 0;  // current writer-preference window
    size_t slow_hunts_logged = 0;    // by the attached slow-hunt log
    double uptime_seconds = 0;
    /// Microseconds; quantiles via Summarize() are bucket-resolution
    /// approximations (~±25%).
    obs::LogHistogram hunt_latency;  // Submit -> done, completed hunts
    obs::LogHistogram queue_wait;    // Submit -> worker admission
    std::vector<TenantMetrics> tenants;
  };
  Metrics metrics() const;

  /// Attach (or, with an empty path / negative threshold, detach) a
  /// structured slow-hunt log: every hunt or standing refresh whose
  /// execution latency reaches `threshold_micros` appends one JSONL record
  /// to `path` with the hunt's span tree inlined. While a log is attached,
  /// tracing is forced on for all hunts (span construction is O(workers)
  /// per hunt, never per row).
  void ConfigureSlowLog(const std::string& path, long long threshold_micros);

  /// Register this service's telemetry with `registry` under raptor_hunt_*
  /// names: lifecycle and admission counters, queue/cost/gate gauges,
  /// standing-hunt and MQO counters, latency histograms, and per-tenant
  /// labeled series. Populate-on-demand: call right before rendering.
  void CollectMetrics(obs::MetricsRegistry* registry) const;

 private:
  friend class HuntTicket;  // reap-back of queued tickets (Cancel/Wait)

  using StatePtr = std::shared_ptr<HuntTicket::State>;
  using StandingPtr = std::shared_ptr<StandingState>;

  /// Admission bookkeeping for one tenant. Entries are created on first
  /// Submit and pruned (keeping kMaxIdleTenants LRU survivors) once idle,
  /// so the map stays bounded; the distinct-tenant count lives in
  /// Stats::tenants instead. Guarded by mu_.
  struct TenantState {
    std::deque<StatePtr> queue;
    bool in_rr = false;  // listed in the round-robin ring
    size_t running = 0;
    uint64_t last_active = 0;  // activity sequence, for LRU pruning
    // Lifetime counters (lost if the idle entry is pruned; the aggregate
    // Stats counters are authoritative).
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t cancelled = 0;
    size_t timed_out = 0;
    size_t failed = 0;
  };

  void StartWorkersLocked();
  void WorkerLoop();
  /// Find-or-create the tenant entry, counting first sightings.
  /// Precondition: mu_ held.
  TenantState& TenantLocked(const std::string& tenant);
  /// Round-robin admission: pop the next affordable request across
  /// tenant queues, one per tenant turn, respecting the cost budget
  /// against running hunts. Null when every queue head is currently too
  /// expensive (the caller waits for capacity). Precondition: queued_ > 0, mu_ held, no
  /// mutation holds the store (the lazy cost estimate reads index stats).
  StatePtr AdmitLocked();
  /// `state`'s admission weight, estimated on first use (plan-time
  /// EstimateCost normalized by store size, clamped to
  /// [kMinCostWeight, 1]). Precondition: mu_ held, no mutation active.
  double CostWeightLocked(HuntTicket::State& state);
  /// A waiting writer currently outranks hunt admission (bounded
  /// preference not yet exhausted). Precondition: mu_ held.
  bool WriterPreferredLocked() const;
  /// Remove a still-queued `state` and finish it with `status` (ticket
  /// Cancel / queued-deadline expiry). False: not queued (already
  /// admitted, finished, or never enqueued).
  bool ReapQueued(const StatePtr& state, Status status);
  /// Drop least-recently-active idle tenant entries beyond
  /// kMaxIdleTenants. Precondition: mu_ held.
  void PruneIdleTenantsLocked();
  /// Enqueue `state` into its tenant's queue (creating the entry) and
  /// rotate the tenant into the round-robin ring. Precondition: mu_ held.
  void EnqueueLocked(const StatePtr& state);
  /// Queue a refresh of `sub` unless one is already queued or running.
  /// Precondition: mu_ held.
  void ScheduleStandingLocked(const StandingPtr& sub);
  void Process(const StatePtr& state, Status* status, HuntResponse* response);
  /// Shared execution path for client hunts and standing refreshes.
  /// `seed_filter` (Cypher only) restricts part-0 seeds for incremental
  /// standing refreshes. `trace` (nullable) roots the execution's span
  /// subtree (per-pattern, per-shard spans hang under it).
  Result<HuntResponse> ExecuteQuery(
      const HuntRequest& request, const std::atomic<bool>* cancel,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      const std::unordered_set<graphdb::NodeId>* seed_filter,
      obs::TraceSpan* trace) const;
  /// Copy of the attached slow-hunt log (null when detached), taken under
  /// mu_ so ConfigureSlowLog cannot destroy a log mid-write.
  std::shared_ptr<obs::SlowHuntLog> SlowLogSnapshot() const;
  /// Execute one standing refresh and deliver its update to the sink.
  void RunStanding(const StandingPtr& sub);
  /// Layered BFS from the dirty entities' graph nodes: `bfs_order` lists
  /// discovered nodes grouped by hop distance, `hop_boundary[h]` = how
  /// many of them lie within h hops, up to `max_hops`. False: the region
  /// outgrew `max_fraction` of the graph — do a full re-scan.
  bool ExpandDirtyRegion(const std::vector<audit::EntityId>& dirty,
                         size_t max_hops, double max_fraction,
                         std::vector<graphdb::NodeId>* bfs_order,
                         std::vector<size_t>* hop_boundary) const;
  /// Incremental Cypher refresh: one pass per pattern part, rotating that
  /// part to the front with its seeds restricted to the dirty region
  /// expanded by the part's own radius. True: the query was eligible and
  /// the passes ran (`status` carries any execution failure); false: not
  /// eligible (unparseable, LIMIT, region too large) — run a full refresh.
  bool TryIncrementalCypher(
      StandingState& sub, const std::vector<audit::EntityId>& dirty,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      std::vector<HuntResponse>* responses, Status* status,
      obs::TraceSpan* trace) const;
  /// Incremental TBQL refresh: one pass per pattern, forcing that pattern
  /// first with its entity variables pre-constrained to the dirty ids and
  /// every pattern required to match. Same contract as the Cypher variant;
  /// additionally ineligible with time windows (non-monotone) or before a
  /// full refresh has matched every pattern (excessive-pattern tolerance
  /// makes partial joins non-monotone).
  bool TryIncrementalTbql(
      StandingState& sub, const std::vector<audit::EntityId>& dirty,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      std::vector<HuntResponse>* responses, Status* status,
      obs::TraceSpan* trace) const;
  void Finish(const StatePtr& state, Status status, HuntResponse response);
  /// Acquire/release exclusive store access (writer-preferring: waiting
  /// here holds off new admissions until running hunts drain). Shared by
  /// Ingest and Exclusive.
  Status AcquireGate();
  void ReleaseGate();

  const storage::AuditStore* store_;
  HuntServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Wakes Ingest() waiters when the last running hunt drains.
  std::condition_variable ingest_cv_;
  /// Severed (service = nullptr, under hook_->mu) as the first step of
  /// Shutdown(); every client ticket holds a copy. Lock order:
  /// hook_->mu -> mu_ -> State::mu, never the reverse.
  std::shared_ptr<ServiceHook> hook_;
  std::map<std::string, TenantState, std::less<>> tenants_;
  std::deque<std::string> tenant_rr_;  // round-robin ring: tenants with
                                       // queued work
  std::vector<StatePtr> running_;
  double running_cost_ = 0;  // sum of running hunts' admission weights
  size_t queued_ = 0;
  uint64_t activity_seq_ = 0;
  uint64_t next_id_ = 1;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  Stats stats_;
  std::chrono::steady_clock::time_point start_time_;
  /// Latency distributions in microseconds (obs::LogHistogram, copied out
  /// by metrics()).
  obs::LogHistogram hunt_latency_;  // Submit -> done, completed client hunts
  obs::LogHistogram queue_wait_;    // Submit -> admission, client hunts
  /// Structured slow-hunt log; null when detached. The shared_ptr is
  /// copied out under mu_ so a concurrent ConfigureSlowLog cannot destroy
  /// a log a finishing hunt is writing to.
  std::shared_ptr<obs::SlowHuntLog> slow_log_;

  // --- epoch-coordinated ingest (guarded by mu_) ---
  uint64_t epoch_ = 0;
  bool ingest_active_ = false;    // a mutation holds the store
  size_t ingests_waiting_ = 0;    // writers queued for the gate
  size_t consecutive_ingests_ = 0;  // gate acquisitions since a hunt admitted
  size_t gate_acquires_ = 0;
  double gate_wait_total_ = 0;    // seconds writers spent blocked at the gate
  double gate_wait_max_ = 0;
  struct DirtyEpoch {
    uint64_t epoch = 0;
    std::vector<audit::EntityId> entities;
  };
  std::deque<DirtyEpoch> dirty_;  // newest at back, bounded

  // --- standing hunts (guarded by mu_) ---
  std::vector<StandingPtr> standing_;
  uint64_t next_standing_id_ = 1;
  /// Restored seen-sets waiting for their subscription to be resubmitted,
  /// keyed by subscription identity. Guarded by mu_.
  std::map<std::string, persist::StandingSeen> standing_seeds_;

  // --- multi-query optimization ---
  /// Layer 1: single-flight full refreshes, keyed by canonical query key +
  /// target epoch. Map guarded by mu_; each entry synchronizes itself.
  /// Cleared on every epoch bump and gate release.
  std::map<std::string, std::shared_ptr<SharedRefresh>> refresh_cache_;
  /// Layer 2: per-epoch shared-subresult caches handed to the storage
  /// executors for every dialect. Internally synchronized; mutable because
  /// the (logically const) query path populates them.
  mutable storage::QueryResultCache<graphdb::GraphBlockResult> graph_cache_;
  mutable storage::QueryResultCache<sql::BlockResultSet> sql_cache_;

  // --- durability (append serialized by the write gate) ---
  persist::WalWriter* wal_ = nullptr;
};

}  // namespace raptor::service
