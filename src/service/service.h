// In-process clustering service (DESIGN.md §10): admission control,
// deadlines and cancellation on top of the Engine.
//
// ClusterService turns the blocking one-shot entry points into a serving
// surface: submit() validates scalar parameters, enqueues the request
// into a *bounded* MPMC queue (a full queue rejects immediately with
// Error{kQueueFull} — backpressure instead of unbounded growth) and
// returns a std::future<Expected<Clustering, Error>>. N dispatcher
// threads drain the queue into runs on pooled warm engines
// (service/engine_pool.h): requests naming the same dataset id reuse one
// Engine — one BVH build per dataset — and serialize on it, while
// distinct datasets run concurrently.
//
// Deadlines and cancellation ride on exec/cancel.h: every request gets a
// CancelToken (caller-supplied or service-created), a watchdog thread
// raises it with kDeadlineExceeded when the request's deadline elapses
// (the deadline covers queue wait + run), and the runtime polls the
// token once per chunk — a cancelled request unwinds within one
// chunk-quantum, its engine stays warm and reusable, and the future
// resolves to Error{kCancelled | kDeadlineExceeded}.
//
// Sharded execution: ServiceConfig::shards (or the per-request
// RequestSpec::shards override) routes a request through a pooled
// ShardedEngine (shard/sharded_engine.h) instead of the single Engine —
// same dataset id, same warm-pool amortization, same deadline/cancel
// semantics (the request's token reaches every shard's kernels).
//
// Streaming sessions (DESIGN.md §14): open_session(dataset_id, points,
// spec) pins the dataset's pooled entry and returns a Session handle
// whose append()/expire()/query() enqueue *stateful* operations against
// a stream::StreamingEngine owned by the session. Session operations
// ride the same queue, dispatchers, watchdog, request ids and metrics as
// one-shot submits; per session they execute strictly in submission
// order (a ticket protocol across dispatchers), so a query observes
// exactly the mutations enqueued before it. Query parameters are pinned
// at open (that is what makes incremental maintenance sound); per-op
// deadlines and tokens still apply.
//
// Dispatch: every request runs on the dispatcher that dequeued it —
// engine lease, one-time scan, then the run's phases in sequence
// (fork-join). A sharded request's dispatcher coordinates its
// ShardedEngine's barrier waves (DESIGN.md §11) and blocks on them like
// on any other run.
//
// Knobs: FDBSCAN_SERVICE_QUEUE_CAP, FDBSCAN_SERVICE_DISPATCHERS,
// FDBSCAN_SERVICE_SHARDS, FDBSCAN_SERVICE_SESSION_CAP and
// FDBSCAN_SESSION_REBUILD_PCT seed ServiceConfig::from_env().
//
// Caveat: per-request Options::memory trackers are not thread-safe; do
// not share one MemoryTracker across requests that may run concurrently.
// A CancelToken, by contrast, is explicitly guarded: a submit whose
// caller-supplied token is already observing an in-flight request is
// rejected with kTokenBusy instead of racing the first request's
// deadline/cancel lifecycle (DESIGN.md §10).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/request.h"
#include "exec/cancel.h"
#include "obs/metrics.h"
#include "obs/request_id.h"
#include "service/engine_pool.h"
#include "shard/sharded_engine.h"
#include "stream/streaming_engine.h"

namespace fdbscan::service {

/// Sentinel for "no deadline" — one value shared with RequestSpec
/// (core/request.h), re-exported here for source compatibility.
using fdbscan::kNoDeadline;

struct ServiceConfig {
  /// Maximum queued (not yet dispatched) requests; a full queue rejects
  /// with kQueueFull. Env: FDBSCAN_SERVICE_QUEUE_CAP.
  std::int32_t queue_capacity = 64;
  /// Dispatcher threads draining the queue. Env:
  /// FDBSCAN_SERVICE_DISPATCHERS.
  std::int32_t dispatchers = 2;
  /// Engine-pool LRU capacity (warm datasets kept resident).
  std::int32_t engine_capacity = 8;
  /// Default shard count for requests that leave RequestSpec::shards
  /// at 0. 1 = single-engine execution; > 1 runs every request through a
  /// pooled ShardedEngine. Env: FDBSCAN_SERVICE_SHARDS.
  std::int32_t shards = 1;
  /// Maximum concurrently open streaming sessions; open_session beyond
  /// it rejects with kSessionLimit. Env: FDBSCAN_SERVICE_SESSION_CAP.
  std::int32_t session_capacity = 16;
  /// Session rebuild threshold as a percentage: a session's streaming
  /// engine compacts its storage when pending work (live delta points +
  /// retired slots) exceeds this percent of the live set. The index is
  /// rebuilt there only while the union-find is valid (append-only
  /// growth); after an expiry the next query's recluster builds it.
  /// Env: FDBSCAN_SESSION_REBUILD_PCT.
  std::int32_t session_rebuild_pct = 25;
  /// Always false: requests run fork-join on their dispatcher and there
  /// is no graph dispatch. Kept only because perfbench's `service_graph`
  /// run fact reads it.
  static constexpr bool graph = false;

  /// Defaults overridden by the FDBSCAN_SERVICE_* environment knobs.
  [[nodiscard]] static ServiceConfig from_env();
};

/// Log2-bucketed latency distribution. Bucket i counts samples whose
/// duration in microseconds lies in [2^(i-1), 2^i) (bucket 0: < 1 us;
/// the last bucket absorbs everything larger).
inline constexpr int kLatencyBuckets = 24;

struct LatencySummary {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  std::array<std::int64_t, kLatencyBuckets> buckets{};

  [[nodiscard]] double mean_ms() const {
    return count > 0 ? total_ms / static_cast<double>(count) : 0.0;
  }
};

/// Snapshot of the service counters. Terminal-state counts partition the
/// finished requests: every submitted request ends in exactly one of
/// completed / rejected / cancelled / deadline_exceeded / failed, so
/// after wait_idle() `submitted` equals their sum.
struct ServiceMetrics {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;           ///< kQueueFull/kTokenBusy at admission
  std::int64_t cancelled = 0;          ///< kCancelled (token or shutdown)
  std::int64_t deadline_exceeded = 0;  ///< kDeadlineExceeded
  std::int64_t failed = 0;             ///< validation or internal errors
  std::int64_t queued = 0;             ///< instantaneous queue depth
  std::int64_t active = 0;             ///< requests inside a dispatcher
  /// Streaming-session traffic (DESIGN.md §14). Session operations also
  /// count in the request totals above; these break them out, and
  /// session_rebuilds totals the Morton re-sort + BVH rebuilds their
  /// streaming engines performed.
  std::int64_t sessions_open = 0;      ///< instantaneous open sessions
  std::int64_t session_opened = 0;     ///< sessions ever opened
  std::int64_t session_appends = 0;    ///< append operations completed
  std::int64_t session_expires = 0;    ///< expire operations completed
  std::int64_t session_queries = 0;    ///< query operations completed
  std::int64_t session_rebuilds = 0;   ///< index rebuilds across sessions
  LatencySummary queue_wait;           ///< submit -> dispatch
  LatencySummary run_time;             ///< dispatch -> future resolved
};

/// One coherent view of a service for exposition (DESIGN.md §13):
/// configuration, the counter/histogram snapshot and the pool stats,
/// captured at one call. Serialize with to_prometheus_text()/to_json().
struct ServiceSnapshot {
  ServiceConfig config{};
  ServiceMetrics metrics{};
  EnginePoolStats pool{};
};

/// Rendered as the same fdbscan_service_* / fdbscan_pool_* families the
/// process-wide registry exposes, so a per-service scrape and a statusz
/// dump line up name-for-name.
[[nodiscard]] std::string to_prometheus_text(const ServiceSnapshot& snap);
[[nodiscard]] std::string to_json(const ServiceSnapshot& snap);

/// Legacy request shape, kept as a shim: submit(dataset, points, params,
/// SubmitOptions) folds into a RequestSpec (core/request.h) and forwards
/// to the spec overload — one validation path, one queue. New call sites
/// should pass a RequestSpec directly.
struct SubmitOptions {
  Options options{};
  Method method = Method::kAuto;
  /// See RequestSpec::deadline_ms.
  double deadline_ms = kNoDeadline;
  /// See RequestSpec::token.
  std::shared_ptr<exec::CancelToken> token{};
  /// See RequestSpec::shards (0 = ServiceConfig::shards).
  std::int32_t shards = 0;

  [[nodiscard]] RequestSpec to_spec(const Parameters& params) const {
    RequestSpec spec;
    spec.params = params;
    spec.options = options;
    spec.method = method;
    spec.shards = shards;
    spec.deadline_ms = deadline_ms;
    spec.token = token;
    return spec;
  }
};

using ServiceResult = Expected<Clustering, Error>;

/// What a session mutation (open/append/expire) reports back: where the
/// stream now stands. Sequence numbers are assigned in arrival order
/// starting at 0 (the initial point set of open_session occupies
/// [0, points.size())).
struct SessionDelta {
  std::uint64_t session = 0;     ///< owning session id
  std::int64_t first_seq = 0;    ///< first sequence number this op appended
  std::int64_t next_seq = 0;     ///< sequence the next append will start at
  std::int64_t live_points = 0;  ///< live (non-expired) points after the op
  std::int64_t expired = 0;      ///< points this op retired
  std::int64_t rebuilds = 0;     ///< cumulative index rebuilds of the session
};

using SessionResult = Expected<SessionDelta, Error>;

namespace detail {

/// Pool-entry payload: the engine plus the shared ownership of its
/// points (Engine borrows the vector — the holder is what keeps it
/// alive for the engine's whole pooled lifetime).
template <int DIM>
struct EngineHolder {
  /// Distinct shard counts kept warm per dataset. A ShardedEngine holds
  /// ghost replicas of the dataset, so caching one per shard count ever
  /// requested would grow without bound under adversarial traffic —
  /// bound it like the eps-plan LRU inside each executor.
  static constexpr std::size_t kShardedCapacity = 2;

  struct ShardedSlot {
    std::int32_t shards = 0;
    std::uint64_t last_used = 0;
    std::unique_ptr<shard::ShardedEngine<DIM>> engine;
  };

  std::shared_ptr<const std::vector<Point<DIM>>> points;
  Engine<DIM> engine;
  /// Warm sharded executors, LRU-bounded at kShardedCapacity. Mutated
  /// only under the pool entry's run-mutex (the Lease serializes runs
  /// per dataset), so no extra lock is needed.
  std::vector<ShardedSlot> sharded;
  std::uint64_t sharded_clock = 0;
  std::int64_t sharded_evictions = 0;
  /// Counters of evicted executors, folded in so dataset telemetry
  /// stays monotone across evictions.
  std::int64_t retired_runs = 0;
  std::int64_t retired_index_builds = 0;
  std::int64_t retired_workspace_reallocs = 0;

  explicit EngineHolder(std::shared_ptr<const std::vector<Point<DIM>>> pts)
      : points(std::move(pts)), engine(*points) {}

  shard::ShardedEngine<DIM>& sharded_for(std::int32_t shards) {
    for (auto& slot : sharded) {
      if (slot.shards == shards) {
        slot.last_used = ++sharded_clock;
        return *slot.engine;
      }
    }
    while (sharded.size() >= kShardedCapacity) {
      auto victim = sharded.begin();
      for (auto it = sharded.begin(); it != sharded.end(); ++it) {
        if (it->last_used < victim->last_used) victim = it;
      }
      const shard::ShardedCounters& sc = victim->engine->counters();
      retired_runs += sc.runs;
      retired_index_builds += sc.index_builds;
      retired_workspace_reallocs += sc.workspace_reallocs;
      ++sharded_evictions;
      sharded.erase(victim);
    }
    sharded.push_back(ShardedSlot{
        shards, ++sharded_clock,
        std::make_unique<shard::ShardedEngine<DIM>>(*points, shards)});
    return *sharded.back().engine;
  }
};

template <int DIM>
EngineCounters counters_typed(const void* holder) {
  const auto* h = static_cast<const EngineHolder<DIM>*>(holder);
  EngineCounters c = h->engine.counters();
  // Fold the sharded executors' amortization into the dataset's counters
  // so pool/dataset telemetry sees sharded traffic too — including the
  // retired tallies of evicted executors (keeps runs monotone).
  for (const auto& slot : h->sharded) {
    const shard::ShardedCounters& sc = slot.engine->counters();
    c.runs += sc.runs;
    c.index_builds += sc.index_builds;
    c.workspace_reallocs += sc.workspace_reallocs;
  }
  c.runs += h->retired_runs;
  c.index_builds += h->retired_index_builds;
  c.workspace_reallocs += h->retired_workspace_reallocs;
  c.sharded_evictions = h->sharded_evictions;
  return c;
}

template <int DIM>
std::optional<Error> scan_typed(const void* holder) {
  const auto* h = static_cast<const EngineHolder<DIM>*>(holder);
  const auto n = static_cast<std::int64_t>(h->points->size());
  const std::int64_t bad = fdbscan::detail::first_non_finite(*h->points);
  if (bad < n) {
    return Error{ErrorCode::kNonFinitePoint,
                 "point " + std::to_string(bad) +
                     " has a non-finite coordinate"};
  }
  return std::nullopt;
}

template <int DIM>
Clustering run_typed(void* holder, const Parameters& params,
                     const Options& options, Method method,
                     std::int32_t shards) {
  auto* h = static_cast<EngineHolder<DIM>*>(holder);
  if (shards > 1) {
    // Sharded execution is FDBSCAN's decomposition; `method` does not
    // apply (documented on SubmitOptions::shards).
    return h->sharded_for(shards).run(params, options).clustering;
  }
  switch (method) {
    case Method::kFdbscan: return h->engine.run(params, options);
    case Method::kDensebox: return h->engine.run_densebox(params, options);
    case Method::kAuto: break;
  }
  return fdbscan_auto(h->engine, params, options).clustering;
}

/// Strict parse of a FDBSCAN_SERVICE_* knob value: the whole string must
/// be a base-10 integer that fits in int and is > 0. Anything else —
/// empty, trailing junk, zero, negative, overflow — is rejected
/// (std::nullopt) and from_env() emits a "service.env_ignored" warning
/// (once per variable) on the structured log (obs/log.h; the default
/// sink keeps warnings on stderr) instead of silently falling back.
/// Exposed for tests.
[[nodiscard]] std::optional<int> parse_positive_env_int(const char* value);

/// One registered deadline in the watchdog heap. weak_ptr so an
/// already-resolved request cannot be kept alive (or touched) by a
/// stale deadline; the generation (captured at registration) makes
/// firing conditional — request_cancel_if() is a no-op on a token that
/// was reset() and reused for a later request, so a not-yet-due entry
/// from request A cannot cancel request B (DESIGN.md §10).
struct WatchdogEntry {
  std::int64_t due_ns = 0;
  std::weak_ptr<exec::CancelToken> token;
  std::uint32_t generation = 0;
};

/// Shared state of one streaming session. The service's session table
/// and every queued operation hold it by shared_ptr, so the streaming
/// engine (and the pool Pin keeping its dataset resident) outlives
/// close() until the last queued op resolves.
///
/// Concurrency: `next_ticket` is guarded by the service queue mutex
/// (tickets are assigned at enqueue, in queue order); `current` and
/// `abandoned` by `mutex` (the ticket turnstile — see SessionTurn in
/// service.cpp). Everything else is written only by the op that holds
/// the session's current ticket, so it needs no lock of its own.
struct SessionState {
  std::uint64_t id = 0;
  std::string dataset_id;
  int dim = 0;
  RequestSpec spec;  ///< pinned at open; per-op deadline/token override

  /// Type-erased stream::StreamingEngine<DIM> plus its accessors, set by
  /// the open operation (open_fn). Null until the open ran.
  std::shared_ptr<void> stream;
  Clustering (*query_fn)(void*) = nullptr;
  std::int64_t (*append_fn)(void*, const void* batch) = nullptr;
  std::int64_t (*expire_fn)(void*, std::int64_t before_seq) = nullptr;
  stream::StreamCounters (*counters_fn)(const void*) = nullptr;
  std::int64_t (*size_fn)(const void*) = nullptr;
  std::int64_t (*next_seq_fn)(const void*) = nullptr;
  /// O(n) coordinate scan of an append batch (same check submit()'s
  /// dispatcher scan applies to a dataset).
  std::optional<Error> (*batch_scan_fn)(const void* batch) = nullptr;
  /// Deferred open work (pin + scan + engine construction), built by the
  /// templated open_session and run on a dispatcher under ticket 0.
  std::function<std::optional<Error>(SessionState&)> open_fn;

  /// Keeps the dataset's pooled engine resident for the session's life.
  std::optional<EnginePool::Pin> pin;

  /// Ticket turnstile: ops execute in ticket order regardless of which
  /// dispatcher picked them up.
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t next_ticket = 0;  // guarded by the service queue mutex
  std::uint64_t current = 0;      // guarded by mutex
  std::set<std::uint64_t> abandoned;  // cancelled-before-turn tickets

  /// Set by the open op when it fails; every later op returns the error.
  bool failed = false;
  Error open_error{};
  /// index_rebuilds already folded into the service-wide counter.
  std::int64_t reported_rebuilds = 0;
};

}  // namespace detail

class ClusterService {
 public:
  explicit ClusterService(const ServiceConfig& config = ServiceConfig::from_env());
  ~ClusterService();

  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  /// Submit a clustering request against dataset `dataset_id`. The
  /// service shares ownership of `points` for as long as the dataset's
  /// engine stays pooled; all submits naming one id must pass the same
  /// points. The spec's scalar half is validated here via the shared
  /// validate_spec path (immediate error future); the O(n) coordinate
  /// scan runs on a dispatcher, once per pooled dataset. Never blocks on
  /// a full queue — it rejects.
  template <int DIM>
  [[nodiscard]] std::future<ServiceResult> submit(
      const std::string& dataset_id,
      std::shared_ptr<const std::vector<Point<DIM>>> points,
      RequestSpec spec) {
    std::promise<ServiceResult> promise;
    std::future<ServiceResult> future = promise.get_future();
    submitted_.fetch_add(1, std::memory_order_relaxed);
    obs_.submitted.inc();
    if (!points) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      obs_.failed.inc();
      promise.set_value(Error{ErrorCode::kInternal, "points must not be null"});
      return future;
    }
    if (auto error = validate_spec(spec)) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      obs_.failed.inc();
      promise.set_value(*std::move(error));
      return future;
    }
    Request req;
    req.id = obs::mint_request_id();
    req.dataset_id = dataset_id;
    req.dim = DIM;
    req.params = spec.params;
    req.options = spec.options;
    req.method = spec.method;
    req.shards = spec.shards != 0 ? spec.shards : config_.shards;
    req.token_private = (spec.token == nullptr);
    req.token = spec.token ? std::move(spec.token)
                           : std::make_shared<exec::CancelToken>();
    req.promise = std::move(promise);
    req.make_engine = [points]() -> std::shared_ptr<void> {
      return std::make_shared<detail::EngineHolder<DIM>>(points);
    };
    req.counters = &detail::counters_typed<DIM>;
    req.scan = &detail::scan_typed<DIM>;
    req.run = &detail::run_typed<DIM>;
    enqueue(std::move(req), spec.deadline_ms);
    return future;
  }

  /// Legacy submit shape; folds into a RequestSpec and forwards.
  template <int DIM>
  [[nodiscard]] std::future<ServiceResult> submit(
      const std::string& dataset_id,
      std::shared_ptr<const std::vector<Point<DIM>>> points,
      const Parameters& params, SubmitOptions submit_options = {}) {
    return submit<DIM>(dataset_id, std::move(points),
                       submit_options.to_spec(params));
  }

  /// Stateful handle to one streaming session (move-only). Obtained from
  /// open_session(); destroying it (or calling close()) closes the
  /// session — already-enqueued operations still run to completion, new
  /// ones reject with kInvalidSession.
  ///
  /// Lifetime: the handle holds a raw pointer to its ClusterService, so
  /// it must not outlive the service that created it — close() or
  /// destroy every handle before destroying the service. The service
  /// destructor drains queued session ops and releases the session
  /// table, but it cannot reach outstanding handles; a handle destroyed
  /// after its service calls close_session on a dangling pointer.
  class Session {
   public:
    Session() = default;
    Session(Session&& other) noexcept
        : service_(other.service_), id_(other.id_) {
      other.service_ = nullptr;
    }
    Session& operator=(Session&& other) noexcept {
      if (this != &other) {
        close();
        service_ = other.service_;
        id_ = other.id_;
        other.service_ = nullptr;
      }
      return *this;
    }
    ~Session() { close(); }

    [[nodiscard]] bool valid() const noexcept { return service_ != nullptr; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

    /// Append a batch to the stream. The future resolves with the first
    /// sequence number of the batch (SessionDelta::first_seq) once the
    /// dispatcher absorbed it — incrementally while the session's
    /// union-find is valid. DIM must match the session's dimension.
    template <int DIM>
    [[nodiscard]] std::future<SessionResult> append(
        std::shared_ptr<const std::vector<Point<DIM>>> points,
        double deadline_ms = kNoDeadline,
        std::shared_ptr<exec::CancelToken> token = {}) {
      if (service_ == nullptr) return invalid_handle();
      return service_->session_append<DIM>(id_, std::move(points), deadline_ms,
                                           std::move(token));
    }

    /// Retire every point with sequence number < before_seq.
    [[nodiscard]] std::future<SessionResult> expire(
        std::int64_t before_seq, double deadline_ms = kNoDeadline,
        std::shared_ptr<exec::CancelToken> token = {}) {
      if (service_ == nullptr) return invalid_handle();
      return service_->session_expire(id_, before_seq, deadline_ms,
                                      std::move(token));
    }

    /// Cluster the session's live point set under the spec pinned at
    /// open. Observes exactly the mutations enqueued before this call.
    [[nodiscard]] std::future<ServiceResult> query(
        double deadline_ms = kNoDeadline,
        std::shared_ptr<exec::CancelToken> token = {}) {
      if (service_ == nullptr) {
        std::promise<ServiceResult> p;
        p.set_value(Error{ErrorCode::kInvalidSession,
                          "session handle is empty or already closed"});
        return p.get_future();
      }
      return service_->session_query(id_, deadline_ms, std::move(token));
    }

    /// Close the session: new operations reject, queued ones finish, and
    /// the engine-pool Pin releases once the last queued op resolved.
    void close() {
      if (service_ != nullptr) {
        service_->close_session(id_);
        service_ = nullptr;
      }
    }

   private:
    friend class ClusterService;
    Session(ClusterService* service, std::uint64_t id)
        : service_(service), id_(id) {}

    [[nodiscard]] static std::future<SessionResult> invalid_handle() {
      std::promise<SessionResult> p;
      p.set_value(Error{ErrorCode::kInvalidSession,
                        "session handle is empty or already closed"});
      return p.get_future();
    }

    ClusterService* service_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// Open a streaming session on `dataset_id`, seeded with `points`
  /// (sequence numbers [0, points.size())). The spec — params, options,
  /// single-engine method — is pinned for the session's lifetime; its
  /// deadline/token govern the open operation itself. Scalar validation
  /// and the session-table capacity check happen here (immediate error);
  /// the O(n) scan, the pool pin and the streaming-engine construction
  /// run on a dispatcher, strictly before any of the session's other
  /// operations (ticket 0). An open failure surfaces on every subsequent
  /// operation of that session.
  template <int DIM>
  [[nodiscard]] Expected<Session, Error> open_session(
      const std::string& dataset_id,
      std::shared_ptr<const std::vector<Point<DIM>>> points,
      RequestSpec spec = {}) {
    if (!points) {
      return Error{ErrorCode::kInternal, "points must not be null"};
    }
    if (auto error = validate_spec(spec)) return *std::move(error);
    if (spec.shards > 1) {
      return Error{ErrorCode::kInvalidShards,
                   "streaming sessions are single-engine; shards must be 0 "
                   "or 1, got " + std::to_string(spec.shards)};
    }
    auto state = std::make_shared<detail::SessionState>();
    state->dataset_id = dataset_id;
    state->dim = DIM;
    state->spec = spec;
    const float rebuild_fraction =
        static_cast<float>(config_.session_rebuild_pct) / 100.0f;
    state->open_fn = [this, points, rebuild_fraction](
                         detail::SessionState& s) -> std::optional<Error> {
      // Pin first: the session's dataset must be resident (and stay so)
      // even though the streaming engine owns its own copy — one-shot
      // submits against the same id keep hitting a warm engine.
      s.pin.emplace(pool_.pin(
          s.dataset_id, DIM,
          [points]() -> std::shared_ptr<void> {
            return std::make_shared<detail::EngineHolder<DIM>>(points);
          },
          &detail::counters_typed<DIM>));
      const auto n = static_cast<std::int64_t>(points->size());
      const std::int64_t bad = fdbscan::detail::first_non_finite(*points);
      if (bad < n) {
        return Error{ErrorCode::kNonFinitePoint,
                     "point " + std::to_string(bad) +
                         " has a non-finite coordinate"};
      }
      stream::StreamConfig sc;
      sc.rebuild_fraction = rebuild_fraction;
      s.stream = std::make_shared<stream::StreamingEngine<DIM>>(
          *points, s.spec.params, s.spec.options, sc);
      s.query_fn = [](void* p) {
        return static_cast<stream::StreamingEngine<DIM>*>(p)->query();
      };
      s.append_fn = [](void* p, const void* batch) {
        return static_cast<stream::StreamingEngine<DIM>*>(p)->insert(
            *static_cast<const std::vector<Point<DIM>>*>(batch));
      };
      s.expire_fn = [](void* p, std::int64_t before_seq) {
        return static_cast<stream::StreamingEngine<DIM>*>(p)->expire(
            before_seq);
      };
      s.counters_fn = [](const void* p) {
        return static_cast<const stream::StreamingEngine<DIM>*>(p)->counters();
      };
      s.size_fn = [](const void* p) {
        return static_cast<const stream::StreamingEngine<DIM>*>(p)->size();
      };
      s.next_seq_fn = [](const void* p) {
        return static_cast<const stream::StreamingEngine<DIM>*>(p)
            ->next_seq();
      };
      s.batch_scan_fn = [](const void* batch) -> std::optional<Error> {
        const auto& pts =
            *static_cast<const std::vector<Point<DIM>>*>(batch);
        const auto k = static_cast<std::int64_t>(pts.size());
        const std::int64_t bad_at = fdbscan::detail::first_non_finite(pts);
        if (bad_at < k) {
          return Error{ErrorCode::kNonFinitePoint,
                       "batch point " + std::to_string(bad_at) +
                           " has a non-finite coordinate"};
        }
        return std::nullopt;
      };
      return std::nullopt;
    };
    return register_session(std::move(state), spec.deadline_ms,
                            std::move(spec.token));
  }

  /// Blocks until the queue is empty and no dispatcher is running a
  /// request. Does not stop the service.
  void wait_idle();

  [[nodiscard]] ServiceMetrics metrics() const;

  /// Coherent config + metrics + pool view for exposition; pair with
  /// service::to_prometheus_text() / service::to_json().
  [[nodiscard]] ServiceSnapshot snapshot() const;

  [[nodiscard]] EnginePoolStats pool_stats() const { return pool_.stats(); }
  [[nodiscard]] std::vector<DatasetStats> dataset_stats() {
    return pool_.dataset_stats();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  /// What a queued request does. kCluster and kSessionQuery resolve
  /// `promise` (a Clustering); the session mutations resolve
  /// `delta_promise` (a SessionDelta).
  enum class Op : std::uint8_t {
    kCluster,
    kSessionOpen,
    kSessionAppend,
    kSessionExpire,
    kSessionQuery,
  };

  struct Request {
    /// Correlation id minted at submit() (obs/request_id.h); carried by
    /// the dispatcher's trace spans and structured log lines.
    obs::RequestId id = 0;
    Op op = Op::kCluster;
    std::string dataset_id;
    int dim = 0;
    Parameters params{};
    Options options{};
    Method method = Method::kAuto;
    std::int32_t shards = 1;
    std::shared_ptr<exec::CancelToken> token;
    /// True when the service created the token itself. The deadline_ms
    /// <= 0 fast-fail may only raise private tokens: poisoning a
    /// caller's shared token would cancel the caller's other in-flight
    /// requests (DESIGN.md §10). Caller tokens are additionally
    /// registered busy for the request's lifetime (kTokenBusy).
    bool token_private = false;
    std::int64_t submit_ns = 0;
    std::promise<ServiceResult> promise;
    std::function<std::shared_ptr<void>()> make_engine;
    EngineCounters (*counters)(const void*) = nullptr;
    std::optional<Error> (*scan)(const void*) = nullptr;
    Clustering (*run)(void*, const Parameters&, const Options&, Method,
                      std::int32_t) = nullptr;
    /// Session-op fields (op != kCluster).
    std::shared_ptr<detail::SessionState> session;
    std::promise<SessionResult> delta_promise;
    std::shared_ptr<const void> payload;  ///< append batch (vector<Point>)
    std::int64_t expire_before = 0;
    std::uint64_t ticket = 0;  ///< position in the session's turnstile
  };

  struct AtomicHistogram {
    std::array<std::atomic<std::int64_t>, kLatencyBuckets> buckets{};
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::int64_t> max_ns{0};

    void add(std::int64_t ns) noexcept {
      const auto us = static_cast<std::uint64_t>(ns > 0 ? ns / 1000 : 0);
      const int idx = std::min(static_cast<int>(std::bit_width(us)),
                               kLatencyBuckets - 1);
      buckets[static_cast<std::size_t>(idx)].fetch_add(
          1, std::memory_order_relaxed);
      count.fetch_add(1, std::memory_order_relaxed);
      total_ns.fetch_add(ns, std::memory_order_relaxed);
      std::int64_t seen = max_ns.load(std::memory_order_relaxed);
      while (ns > seen && !max_ns.compare_exchange_weak(
                              seen, ns, std::memory_order_relaxed)) {
      }
    }

    [[nodiscard]] LatencySummary snapshot() const {
      LatencySummary s;
      s.count = count.load(std::memory_order_relaxed);
      s.total_ms =
          static_cast<double>(total_ns.load(std::memory_order_relaxed)) * 1e-6;
      s.max_ms =
          static_cast<double>(max_ns.load(std::memory_order_relaxed)) * 1e-6;
      for (int i = 0; i < kLatencyBuckets; ++i) {
        s.buckets[static_cast<std::size_t>(i)] =
            buckets[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
      }
      return s;
    }
  };

  template <int DIM>
  [[nodiscard]] std::future<SessionResult> session_append(
      std::uint64_t id,
      std::shared_ptr<const std::vector<Point<DIM>>> points,
      double deadline_ms, std::shared_ptr<exec::CancelToken> token) {
    auto state = find_session(id);
    if (!state) {
      return reject_session(Error{ErrorCode::kInvalidSession,
                                  "unknown or closed session " +
                                      std::to_string(id)});
    }
    if (!points) {
      return reject_session(
          Error{ErrorCode::kInternal, "points must not be null"});
    }
    if (state->dim != DIM) {
      return reject_session(Error{
          ErrorCode::kInvalidSession,
          "append dimension (" + std::to_string(DIM) +
              ") does not match the session's (" +
              std::to_string(state->dim) + ")"});
    }
    return enqueue_session_op(std::move(state), Op::kSessionAppend,
                              std::shared_ptr<const void>(std::move(points)),
                              0, deadline_ms, std::move(token));
  }

  /// Session-op plumbing (service.cpp): registration, turnstile enqueue,
  /// lookup, close.
  [[nodiscard]] Expected<Session, Error> register_session(
      std::shared_ptr<detail::SessionState> state, double deadline_ms,
      std::shared_ptr<exec::CancelToken> token);
  [[nodiscard]] std::shared_ptr<detail::SessionState> find_session(
      std::uint64_t id);
  [[nodiscard]] std::future<SessionResult> enqueue_session_op(
      std::shared_ptr<detail::SessionState> state, Op op,
      std::shared_ptr<const void> payload, std::int64_t expire_before,
      double deadline_ms, std::shared_ptr<exec::CancelToken> token);
  [[nodiscard]] std::future<SessionResult> session_expire(
      std::uint64_t id, std::int64_t before_seq, double deadline_ms,
      std::shared_ptr<exec::CancelToken> token);
  [[nodiscard]] std::future<ServiceResult> session_query(
      std::uint64_t id, double deadline_ms,
      std::shared_ptr<exec::CancelToken> token);
  [[nodiscard]] std::future<SessionResult> reject_session(Error error);
  void close_session(std::uint64_t id);

  static void reject_request(Request& req, Error error);
  void enqueue(Request req, double deadline_ms);
  void dispatcher_loop(int index);
  void watchdog_loop();
  void process(Request& req, std::int64_t& track_floor_ns);
  /// Terminal accounting: run-time histogram/span, busy-token release,
  /// outcome counters, request_done log line, promise resolution.
  /// Exactly one of result/delta is set.
  void finish_request(Request& req, std::optional<ServiceResult> result,
                      std::optional<SessionResult> delta,
                      std::int64_t start_ns, std::int64_t wait_ns);
  [[nodiscard]] ServiceResult run_request(Request& req);
  [[nodiscard]] SessionResult run_session_mutation(Request& req);
  /// Fold a session's not-yet-reported index rebuilds into the
  /// service-wide counter. Caller must hold the session's turn.
  void note_session_rebuilds(detail::SessionState& s);

  ServiceConfig config_;
  EnginePool pool_;

  mutable std::mutex queue_mutex_;
  std::condition_variable cv_queue_;
  std::condition_variable cv_idle_;
  std::deque<Request> queue_;
  int active_ = 0;       // guarded by queue_mutex_
  bool stopping_ = false;  // guarded by queue_mutex_
  /// Caller-supplied tokens with a request in flight (queued or
  /// running); a second submit sharing one rejects with kTokenBusy.
  /// Guarded by queue_mutex_.
  std::set<const exec::CancelToken*> busy_tokens_;
  /// Open sessions by id. Guarded by queue_mutex_ (ops look up their
  /// session here; close erases).
  std::map<std::uint64_t, std::shared_ptr<detail::SessionState>> sessions_;
  std::uint64_t next_session_id_ = 1;  // guarded by queue_mutex_

  // Deadline watchdog: min-heap of detail::WatchdogEntry (absolute
  // trace_now_ns deadline, token, token generation — see the struct doc
  // for the generation contract).
  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  std::vector<detail::WatchdogEntry> wd_heap_;  // guarded by wd_mutex_
  bool wd_stop_ = false;

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> session_opened_{0};
  std::atomic<std::int64_t> session_appends_{0};
  std::atomic<std::int64_t> session_expires_{0};
  std::atomic<std::int64_t> session_queries_{0};
  std::atomic<std::int64_t> session_rebuilds_{0};
  AtomicHistogram queue_wait_;
  AtomicHistogram run_time_;

  /// Registry mirrors (DESIGN.md §13): every site that bumps one of the
  /// atomics above bumps the same-named registry metric with the same
  /// value, so a registry delta over a window in which only this
  /// service ran is bit-equal to the ServiceMetrics delta
  /// (bench_compare.py --gate-obs cross-checks exactly that). The
  /// registry is process-wide: concurrent services share these.
  struct ObsMirror {
    obs::Counter& submitted =
        obs::counter("fdbscan_service_submitted_total");
    obs::Counter& completed =
        obs::counter("fdbscan_service_completed_total");
    obs::Counter& rejected = obs::counter("fdbscan_service_rejected_total");
    obs::Counter& cancelled =
        obs::counter("fdbscan_service_cancelled_total");
    obs::Counter& deadline_exceeded =
        obs::counter("fdbscan_service_deadline_exceeded_total");
    obs::Counter& failed = obs::counter("fdbscan_service_failed_total");
    obs::Gauge& queued = obs::gauge("fdbscan_service_queue_depth");
    obs::Gauge& active = obs::gauge("fdbscan_service_active_requests");
    obs::Gauge& sessions_open = obs::gauge("fdbscan_service_sessions_open");
    obs::Counter& session_opened =
        obs::counter("fdbscan_service_session_opened_total");
    obs::Counter& session_appends =
        obs::counter("fdbscan_service_session_append_total");
    obs::Counter& session_expires =
        obs::counter("fdbscan_service_session_expire_total");
    obs::Counter& session_queries =
        obs::counter("fdbscan_service_session_query_total");
    obs::Counter& session_rebuilds =
        obs::counter("fdbscan_service_session_rebuilds_total");
    obs::Histogram& queue_wait =
        obs::histogram("fdbscan_service_queue_wait");
    obs::Histogram& run_time = obs::histogram("fdbscan_service_run_time");
  };
  ObsMirror obs_;

  std::vector<std::thread> dispatchers_;
  std::thread watchdog_;
};

}  // namespace fdbscan::service
