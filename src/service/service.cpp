#include "service/service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#include "exec/trace.h"
#include "obs/log.h"

namespace fdbscan::service {

namespace detail {

std::optional<int> parse_positive_env_int(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (errno == ERANGE || end == value || *end != '\0') return std::nullopt;
  if (v <= 0 || v > std::numeric_limits<int>::max()) return std::nullopt;
  return static_cast<int>(v);
}

}  // namespace detail

namespace {

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  if (const auto v = detail::parse_positive_env_int(env)) return *v;
  // A set-but-unusable knob silently becoming the default is how typos
  // ship to production; warn once per variable. The warning rides the
  // structured log (obs/log.h) so it carries machine-readable fields
  // and honors FDBSCAN_LOG; the default sink keeps it on stderr.
  static std::mutex warned_mutex;
  static std::set<std::string> warned;
  std::lock_guard<std::mutex> lock(warned_mutex);
  if (warned.insert(name).second) {
    obs::log_event(obs::LogLevel::kWarn, "service.env_ignored",
                   {{"var", name},
                    {"value", env},
                    {"expected", "positive integer"},
                    {"fallback", fallback}});
  }
  return fallback;
}

// wd_heap_ comparator: std::push_heap/pop_heap build a max-heap, so
// "greater due_ns first" yields the earliest deadline at the front.
bool later_deadline(const detail::WatchdogEntry& a,
                    const detail::WatchdogEntry& b) {
  return a.due_ns > b.due_ns;
}

// The session ticket turnstile: operations of one session execute in
// ticket (enqueue) order even though any dispatcher may pick them up.
// The constructor blocks until the session's `current` reaches this
// op's ticket; the destructor advances `current` and wakes the waiters.
//
// A waiter whose CancelToken is raised must not park forever holding up
// its future: it registers its ticket as abandoned and unwinds (the
// CancelledError surfaces as the op's result). Whoever later advances
// `current` onto an abandoned ticket skips past it, so the turnstile
// never stalls on a ticket nobody will run. The wait polls at 1ms — the
// token has no wakeup hook — which bounds cancel latency for a parked
// session op at roughly the same chunk-quantum the kernels guarantee.
class SessionTurn {
 public:
  SessionTurn(const std::shared_ptr<detail::SessionState>& state,
              std::uint64_t ticket)
      : s_(state.get()) {
    std::unique_lock<std::mutex> lock(s_->mutex);
    for (;;) {
      if (s_->current == ticket) return;
      const exec::CancelToken* token = exec::active_cancel_token();
      if (token != nullptr && token->cancelled()) {
        // Not our turn (checked under the lock just above), so no one
        // depends on us advancing `current` — mark the ticket skippable.
        s_->abandoned.insert(ticket);
        s_ = nullptr;
        exec::throw_if_cancelled();
      }
      s_->cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  SessionTurn(const SessionTurn&) = delete;
  SessionTurn& operator=(const SessionTurn&) = delete;

  ~SessionTurn() {
    if (s_ == nullptr) return;
    std::lock_guard<std::mutex> lock(s_->mutex);
    ++s_->current;
    while (s_->abandoned.erase(s_->current) > 0) ++s_->current;
    s_->cv.notify_all();
  }

 private:
  detail::SessionState* s_;
};

}  // namespace

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig config;
  config.queue_capacity =
      env_int("FDBSCAN_SERVICE_QUEUE_CAP", config.queue_capacity);
  config.dispatchers =
      env_int("FDBSCAN_SERVICE_DISPATCHERS", config.dispatchers);
  config.shards = env_int("FDBSCAN_SERVICE_SHARDS", config.shards);
  config.session_capacity =
      env_int("FDBSCAN_SERVICE_SESSION_CAP", config.session_capacity);
  config.session_rebuild_pct =
      env_int("FDBSCAN_SESSION_REBUILD_PCT", config.session_rebuild_pct);
  return config;
}

ClusterService::ClusterService(const ServiceConfig& config)
    : config_(config), pool_(std::max<std::int32_t>(1, config.engine_capacity)) {
  config_.queue_capacity = std::max<std::int32_t>(1, config_.queue_capacity);
  config_.dispatchers = std::max<std::int32_t>(1, config_.dispatchers);
  config_.engine_capacity = std::max<std::int32_t>(1, config_.engine_capacity);
  config_.shards = std::max<std::int32_t>(1, config_.shards);
  config_.session_capacity =
      std::max<std::int32_t>(1, config_.session_capacity);
  config_.session_rebuild_pct =
      std::max<std::int32_t>(1, config_.session_rebuild_pct);
  dispatchers_.reserve(static_cast<std::size_t>(config_.dispatchers));
  for (int i = 0; i < config_.dispatchers; ++i) {
    dispatchers_.emplace_back([this, i] { dispatcher_loop(i); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  obs::log_event(obs::LogLevel::kInfo, "service.start",
                 {{"queue_capacity", config_.queue_capacity},
                  {"dispatchers", config_.dispatchers},
                  {"engine_capacity", config_.engine_capacity},
                  {"shards", config_.shards},
                  {"session_capacity", config_.session_capacity}});
}

ClusterService::~ClusterService() {
  std::deque<Request> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    leftover.swap(queue_);
  }
  cv_queue_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  {
    std::lock_guard<std::mutex> lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Requests still queued at shutdown never ran; their futures must not
  // dangle. They resolve to kCancelled after the dispatchers are gone.
  for (Request& req : leftover) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    obs_.cancelled.inc();
    obs_.queued.add(-1);
    Error error{ErrorCode::kCancelled,
                "service destroyed before the request ran"};
    if (req.op == Op::kCluster || req.op == Op::kSessionQuery) {
      req.promise.set_value(std::move(error));
    } else {
      req.delta_promise.set_value(std::move(error));
    }
  }
  // Sessions still open die with the service; keep the process-wide
  // open-sessions gauge honest (busy_tokens_ and the map simply go away
  // with us — no dispatcher can touch them anymore).
  obs_.sessions_open.add(-static_cast<std::int64_t>(sessions_.size()));
  sessions_.clear();
  obs::log_event(
      obs::LogLevel::kInfo, "service.stop",
      {{"submitted", submitted_.load(std::memory_order_relaxed)},
       {"completed", completed_.load(std::memory_order_relaxed)},
       {"cancelled", cancelled_.load(std::memory_order_relaxed)}});
}

// Resolve a request rejected at admission into whichever promise its op
// uses. A rejected session *open* additionally poisons the session so
// later ops report why (the open holds ticket 0, but rejection happens
// before ticket assignment, so the turnstile is unaffected; no other op
// of the session can exist yet — open_session has not returned its
// handle — which is what makes the unlocked `failed` write safe).
void ClusterService::reject_request(Request& req, Error error) {
  if (req.session != nullptr && req.op == Op::kSessionOpen) {
    req.session->failed = true;
    req.session->open_error = error;
  }
  if (req.op == Op::kCluster || req.op == Op::kSessionQuery) {
    req.promise.set_value(std::move(error));
  } else {
    req.delta_promise.set_value(std::move(error));
  }
}

void ClusterService::enqueue(Request req, double deadline_ms) {
  req.submit_ns = exec::trace_now_ns();
  if (deadline_ms <= 0.0) {
    // Fail fast: the deadline elapsed before the request existed. No
    // queue slot, no kernel launch. Only a service-private token may be
    // raised here — a caller-supplied token can be shared across that
    // caller's other requests, and poisoning it would cancel work this
    // rejection has nothing to do with (the future's error is the
    // caller's signal either way).
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    obs_.deadline_exceeded.inc();
    if (req.token_private) {
      req.token->request_cancel(exec::CancelReason::kDeadlineExceeded);
    }
    reject_request(req, Error{ErrorCode::kDeadlineExceeded,
                              "deadline_ms <= 0: deadline elapsed before "
                              "submission"});
    return;
  }
  const bool has_deadline = deadline_ms != kNoDeadline;
  const std::int64_t deadline_ns =
      has_deadline
          ? req.submit_ns + static_cast<std::int64_t>(deadline_ms * 1e6)
          : 0;
  std::weak_ptr<exec::CancelToken> wd_token = req.token;
  // Capture the generation BEFORE the request can run: a reset() after
  // completion bumps it, turning our not-yet-due heap entry into a
  // no-op instead of a stale cancel of the token's next user.
  const std::uint32_t wd_generation = req.token->generation();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs_.cancelled.inc();
      reject_request(req,
                     Error{ErrorCode::kCancelled, "service is shutting down"});
      return;
    }
    if (static_cast<std::int64_t>(queue_.size()) >= config_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs_.rejected.inc();
      reject_request(req, Error{ErrorCode::kQueueFull,
                                "request queue at capacity (" +
                                    std::to_string(config_.queue_capacity) +
                                    ")"});
      return;
    }
    // A caller-supplied token already observing an in-flight request
    // must not be shared with a second one: the two would race each
    // other's deadline registration and generation bump (DESIGN.md §10).
    // Registered here, released by process() when the request resolves.
    if (!req.token_private &&
        !busy_tokens_.insert(req.token.get()).second) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs_.rejected.inc();
      reject_request(req, Error{ErrorCode::kTokenBusy,
                                "CancelToken is already observing an "
                                "in-flight request"});
      return;
    }
    // Ticket assignment must be the last admission step and must happen
    // under the queue lock: tickets are dense (every assigned ticket is
    // eventually consumed by a dispatcher or the turnstile's abandoned
    // protocol) and ordered exactly like the queue.
    if (req.session != nullptr) req.ticket = req.session->next_ticket++;
    queue_.push_back(std::move(req));
    obs_.queued.add(1);
  }
  cv_queue_.notify_one();
  if (has_deadline) {
    bool new_front = false;
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      new_front = wd_heap_.empty() || deadline_ns < wd_heap_.front().due_ns;
      wd_heap_.push_back(detail::WatchdogEntry{deadline_ns,
                                               std::move(wd_token),
                                               wd_generation});
      std::push_heap(wd_heap_.begin(), wd_heap_.end(), later_deadline);
    }
    if (new_front) wd_cv_.notify_one();
  }
}

void ClusterService::dispatcher_loop(int index) {
  exec::trace_register_thread(
      ("service dispatcher " + std::to_string(index)).c_str());
  // Floor for this dispatcher's trace spans: a queue-wait span reaches
  // back to its request's submit time, which may overlap the previous
  // request's run on this track — clamp to keep per-track slices
  // non-overlapping (the metrics histograms record the true wait).
  std::int64_t track_floor_ns = exec::trace_now_ns();
  for (;;) {
    std::optional<Request> req;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      cv_queue_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      req.emplace(std::move(queue_.front()));
      queue_.pop_front();
      ++active_;
      obs_.queued.add(-1);
      obs_.active.add(1);
    }
    process(*req, track_floor_ns);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_;
      obs_.active.add(-1);
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ClusterService::process(Request& req, std::int64_t& track_floor_ns) {
  // Request-id context for the whole dispatch: the queue-wait and run
  // spans below, every span/log line emitted inside run_request (engine
  // lease, phase spans, shard waves) and the request_done event all
  // carry req.id, so the trace and the log join per request.
  obs::RequestScope rid_scope(req.id);
  const std::int64_t start_ns = exec::trace_now_ns();
  const std::int64_t wait_ns = start_ns - req.submit_ns;
  queue_wait_.add(wait_ns);
  obs_.queue_wait.observe_ns(wait_ns);
  if (exec::trace_enabled()) {
    exec::trace_record_span("service/queue-wait",
                            std::max(req.submit_ns, track_floor_ns), start_ns,
                            "service");
  }

  // Expected<> has no default construction; exactly one of these is
  // engaged per op (kCluster/kSessionQuery produce a Clustering, the
  // session mutations a SessionDelta) and resolves the matching promise.
  std::optional<ServiceResult> result;
  std::optional<SessionResult> delta;
  if (req.op == Op::kCluster || req.op == Op::kSessionQuery) {
    result.emplace(run_request(req));
  } else {
    delta.emplace(run_session_mutation(req));
  }
  finish_request(req, std::move(result), std::move(delta), start_ns, wait_ns);
  track_floor_ns = exec::trace_now_ns();
}

void ClusterService::finish_request(Request& req,
                                    std::optional<ServiceResult> result,
                                    std::optional<SessionResult> delta,
                                    std::int64_t start_ns,
                                    std::int64_t wait_ns) {
  const std::int64_t end_ns = exec::trace_now_ns();
  const std::int64_t run_ns = end_ns - start_ns;
  run_time_.add(run_ns);
  obs_.run_time.observe_ns(run_ns);
  if (exec::trace_enabled()) {
    exec::trace_record_span("service/run", start_ns, end_ns, "service");
  }

  // The caller token is free for its next request the moment its
  // current one reaches a terminal state — release before resolving the
  // promise so a caller that waits on the future never sees kTokenBusy
  // from an immediate resubmit.
  if (!req.token_private) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    busy_tokens_.erase(req.token.get());
  }

  const Error* error = nullptr;
  if (result.has_value() && !result->has_value()) error = &result->error();
  if (delta.has_value() && !delta->has_value()) error = &delta->error();
  const char* outcome = "ok";
  if (error == nullptr) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    obs_.completed.inc();
  } else {
    switch (error->code) {
      case ErrorCode::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        obs_.cancelled.inc();
        outcome = "cancelled";
        break;
      case ErrorCode::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        obs_.deadline_exceeded.inc();
        outcome = "deadline_exceeded";
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        obs_.failed.inc();
        outcome = "failed";
        break;
    }
  }
  if (obs::log_enabled(obs::LogLevel::kDebug)) {
    obs::log_event(obs::LogLevel::kDebug, "service.request_done",
                   {{"dataset", req.dataset_id},
                    {"outcome", outcome},
                    {"queue_wait_ms", static_cast<double>(wait_ns) * 1e-6},
                    {"run_ms", static_cast<double>(run_ns) * 1e-6}});
  }
  if (result.has_value()) {
    req.promise.set_value(*std::move(result));
  } else {
    req.delta_promise.set_value(*std::move(delta));
  }
}

ServiceResult ClusterService::run_request(Request& req) {
  try {
    // The token governs everything from here: engine construction, the
    // one-time coordinate scan and the run itself all dispatch kernels
    // under this scope, so a raised token unwinds out of any of them
    // within one chunk-quantum.
    exec::CancelScope scope(*req.token);
    if (req.op == Op::kSessionQuery) {
      // Take the turn BEFORE the queued-cancel check: the op owns a
      // turnstile ticket, and every exit path must consume it (the turn
      // constructor itself converts a raised token into an abandoned
      // ticket when it is not yet our turn).
      detail::SessionState& s = *req.session;
      SessionTurn turn(req.session, req.ticket);
      exec::throw_if_cancelled();  // raised while queued: skip all work
      if (s.failed) return s.open_error;
      if (s.stream == nullptr) {
        // Defense in depth (see run_session_mutation): never call
        // through null even if a failed open somehow left failed unset.
        return Error{ErrorCode::kInvalidSession,
                     "session open did not complete"};
      }
      Clustering result = s.query_fn(s.stream.get());
      session_queries_.fetch_add(1, std::memory_order_relaxed);
      obs_.session_queries.inc();
      note_session_rebuilds(s);
      return result;
    }
    exec::throw_if_cancelled();  // raised while queued: skip all work
    EnginePool::Lease lease =
        pool_.acquire(req.dataset_id, req.dim, req.make_engine, req.counters);
    if (!lease.validated()) {
      exec::throw_if_cancelled();
      if (auto error = req.scan(lease.engine())) return *std::move(error);
      lease.set_validated();
    }
    return req.run(lease.engine(), req.params, req.options, req.method,
                   req.shards);
  } catch (const exec::CancelledError& e) {
    const bool deadline =
        e.reason() == exec::CancelReason::kDeadlineExceeded;
    return Error{deadline ? ErrorCode::kDeadlineExceeded
                          : ErrorCode::kCancelled,
                 e.what()};
  } catch (const std::exception& e) {
    return Error{ErrorCode::kInternal,
                 std::string("dispatcher caught: ") + e.what()};
  }
}

SessionResult ClusterService::run_session_mutation(Request& req) {
  detail::SessionState& s = *req.session;
  try {
    exec::CancelScope scope(*req.token);
    // Turn first, cancel check second: the ticket must be consumed on
    // every exit path (see the kSessionQuery branch of run_request).
    SessionTurn turn(req.session, req.ticket);
    exec::throw_if_cancelled();  // raised while queued: skip all work
    SessionDelta delta;
    delta.session = s.id;
    if (req.op == Op::kSessionOpen) {
      if (auto error = s.open_fn(s)) {
        s.failed = true;
        s.open_error = *error;
        return *std::move(error);
      }
      s.open_fn = nullptr;  // releases the captured initial points
    } else if (s.failed) {
      return s.open_error;
    } else if (s.stream == nullptr) {
      // Defense in depth: the turnstile guarantees the open ran first,
      // and a failed open sets s.failed — but never call through null.
      return Error{ErrorCode::kInvalidSession,
                   "session open did not complete"};
    } else if (req.op == Op::kSessionAppend) {
      if (auto error = s.batch_scan_fn(req.payload.get())) {
        return *std::move(error);
      }
      delta.first_seq = s.append_fn(s.stream.get(), req.payload.get());
      session_appends_.fetch_add(1, std::memory_order_relaxed);
      obs_.session_appends.inc();
    } else {  // Op::kSessionExpire
      delta.expired = s.expire_fn(s.stream.get(), req.expire_before);
      session_expires_.fetch_add(1, std::memory_order_relaxed);
      obs_.session_expires.inc();
    }
    delta.next_seq = s.next_seq_fn(s.stream.get());
    delta.live_points = s.size_fn(s.stream.get());
    delta.rebuilds = s.counters_fn(s.stream.get()).index_rebuilds;
    note_session_rebuilds(s);
    return delta;
  } catch (const exec::CancelledError& e) {
    const bool deadline =
        e.reason() == exec::CancelReason::kDeadlineExceeded;
    Error error{deadline ? ErrorCode::kDeadlineExceeded
                         : ErrorCode::kCancelled,
                e.what()};
    // An open that unwinds (cancelled while queued, deadline mid-open,
    // engine construction throwing) leaves the session's stream and
    // function pointers null — poison it so later ops return this error
    // instead of calling through null.
    if (req.op == Op::kSessionOpen) {
      s.failed = true;
      s.open_error = error;
    }
    return error;
  } catch (const std::exception& e) {
    Error error{ErrorCode::kInternal,
                std::string("dispatcher caught: ") + e.what()};
    if (req.op == Op::kSessionOpen) {
      s.failed = true;
      s.open_error = error;
    }
    return error;
  }
}

Expected<ClusterService::Session, Error> ClusterService::register_session(
    std::shared_ptr<detail::SessionState> state, double deadline_ms,
    std::shared_ptr<exec::CancelToken> token) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      return Error{ErrorCode::kCancelled, "service is shutting down"};
    }
    if (static_cast<std::int64_t>(sessions_.size()) >=
        config_.session_capacity) {
      return Error{ErrorCode::kSessionLimit,
                   "session table at capacity (" +
                       std::to_string(config_.session_capacity) + ")"};
    }
    state->id = next_session_id_++;
    sessions_.emplace(state->id, state);
  }
  session_opened_.fetch_add(1, std::memory_order_relaxed);
  obs_.session_opened.inc();
  obs_.sessions_open.add(1);
  obs::log_event(obs::LogLevel::kInfo, "service.session_open",
                 {{"session", static_cast<std::int64_t>(state->id)},
                  {"dataset", state->dataset_id},
                  {"dim", state->dim}});
  // The spec's token belongs to the open operation, not the session:
  // per-op tokens are supplied per call, and retaining it here would
  // pin it busy for the session's whole life.
  state->spec.token = nullptr;
  const std::uint64_t id = state->id;
  // The open itself is the session's ticket-0 operation: pin + scan +
  // engine construction happen on a dispatcher, strictly before any
  // append/expire/query. Its outcome is observable on every later op
  // (and in the structured log); the future itself is not surfaced.
  std::future<SessionResult> open_done = enqueue_session_op(
      std::move(state), Op::kSessionOpen, nullptr, 0, deadline_ms,
      std::move(token));
  (void)open_done;
  return Session(this, id);
}

std::shared_ptr<detail::SessionState> ClusterService::find_session(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  const auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second : nullptr;
}

std::future<SessionResult> ClusterService::enqueue_session_op(
    std::shared_ptr<detail::SessionState> state, Op op,
    std::shared_ptr<const void> payload, std::int64_t expire_before,
    double deadline_ms, std::shared_ptr<exec::CancelToken> token) {
  std::promise<SessionResult> promise;
  std::future<SessionResult> future = promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs_.submitted.inc();
  Request req;
  req.id = obs::mint_request_id();
  req.op = op;
  req.dataset_id = state->dataset_id;
  req.dim = state->dim;
  req.token_private = (token == nullptr);
  req.token = token ? std::move(token) : std::make_shared<exec::CancelToken>();
  req.session = std::move(state);
  req.payload = std::move(payload);
  req.expire_before = expire_before;
  req.delta_promise = std::move(promise);
  enqueue(std::move(req), deadline_ms);
  return future;
}

std::future<SessionResult> ClusterService::session_expire(
    std::uint64_t id, std::int64_t before_seq, double deadline_ms,
    std::shared_ptr<exec::CancelToken> token) {
  auto state = find_session(id);
  if (!state) {
    return reject_session(Error{ErrorCode::kInvalidSession,
                                "unknown or closed session " +
                                    std::to_string(id)});
  }
  return enqueue_session_op(std::move(state), Op::kSessionExpire, nullptr,
                            before_seq, deadline_ms, std::move(token));
}

std::future<ServiceResult> ClusterService::session_query(
    std::uint64_t id, double deadline_ms,
    std::shared_ptr<exec::CancelToken> token) {
  std::promise<ServiceResult> promise;
  std::future<ServiceResult> future = promise.get_future();
  auto state = find_session(id);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs_.submitted.inc();
  if (!state) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    obs_.failed.inc();
    promise.set_value(Error{ErrorCode::kInvalidSession,
                            "unknown or closed session " +
                                std::to_string(id)});
    return future;
  }
  Request req;
  req.id = obs::mint_request_id();
  req.op = Op::kSessionQuery;
  req.dataset_id = state->dataset_id;
  req.dim = state->dim;
  req.token_private = (token == nullptr);
  req.token = token ? std::move(token) : std::make_shared<exec::CancelToken>();
  req.session = std::move(state);
  req.promise = std::move(promise);
  enqueue(std::move(req), deadline_ms);
  return future;
}

std::future<SessionResult> ClusterService::reject_session(Error error) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs_.submitted.inc();
  failed_.fetch_add(1, std::memory_order_relaxed);
  obs_.failed.inc();
  std::promise<SessionResult> promise;
  std::future<SessionResult> future = promise.get_future();
  promise.set_value(std::move(error));
  return future;
}

void ClusterService::close_session(std::uint64_t id) {
  std::shared_ptr<detail::SessionState> state;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    state = std::move(it->second);
    sessions_.erase(it);
  }
  // New ops now reject with kInvalidSession; ops already queued hold the
  // state by shared_ptr and run to completion. The streaming engine and
  // the pool Pin release when the last such reference drops.
  obs_.sessions_open.add(-1);
  obs::log_event(obs::LogLevel::kInfo, "service.session_close",
                 {{"session", static_cast<std::int64_t>(id)},
                  {"dataset", state->dataset_id}});
}

void ClusterService::note_session_rebuilds(detail::SessionState& s) {
  if (s.stream == nullptr) return;
  const std::int64_t total = s.counters_fn(s.stream.get()).index_rebuilds;
  if (total > s.reported_rebuilds) {
    const std::int64_t delta = total - s.reported_rebuilds;
    s.reported_rebuilds = total;
    session_rebuilds_.fetch_add(delta, std::memory_order_relaxed);
    obs_.session_rebuilds.inc(delta);
  }
}

void ClusterService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(wd_mutex_);
  for (;;) {
    if (wd_stop_) return;
    if (wd_heap_.empty()) {
      wd_cv_.wait(lock, [&] { return wd_stop_ || !wd_heap_.empty(); });
      continue;
    }
    const std::int64_t due_ns = wd_heap_.front().due_ns;
    const std::int64_t now_ns = exec::trace_now_ns();
    if (now_ns >= due_ns) {
      std::pop_heap(wd_heap_.begin(), wd_heap_.end(), later_deadline);
      detail::WatchdogEntry entry = std::move(wd_heap_.back());
      wd_heap_.pop_back();
      if (auto token = entry.token.lock()) {
        // Conditional raise: a no-op unless the token is still unraised
        // AND in the generation we registered against. A user cancel
        // that raced us keeps kCancelled; a reset() (token reused for a
        // later request) makes this stale deadline inert.
        token->request_cancel_if(entry.generation,
                                 exec::CancelReason::kDeadlineExceeded);
      }
      continue;
    }
    wd_cv_.wait_for(lock, std::chrono::nanoseconds(due_ns - now_ns));
  }
}

void ClusterService::wait_idle() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

ServiceMetrics ClusterService::metrics() const {
  ServiceMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  m.cancelled = cancelled_.load(std::memory_order_relaxed);
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.failed = failed_.load(std::memory_order_relaxed);
  m.session_opened = session_opened_.load(std::memory_order_relaxed);
  m.session_appends = session_appends_.load(std::memory_order_relaxed);
  m.session_expires = session_expires_.load(std::memory_order_relaxed);
  m.session_queries = session_queries_.load(std::memory_order_relaxed);
  m.session_rebuilds = session_rebuilds_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    m.queued = static_cast<std::int64_t>(queue_.size());
    m.active = active_;
    m.sessions_open = static_cast<std::int64_t>(sessions_.size());
  }
  m.queue_wait = queue_wait_.snapshot();
  m.run_time = run_time_.snapshot();
  return m;
}

ServiceSnapshot ClusterService::snapshot() const {
  ServiceSnapshot s;
  s.config = config_;
  s.metrics = metrics();
  s.pool = pool_.stats();
  return s;
}

namespace {

// Re-expresses a ServiceSnapshot in the registry's vocabulary so the
// obs serializers render it — a per-service scrape and a statusz dump
// then agree on names and formats by construction.
obs::HistogramSnapshot to_histogram(const LatencySummary& s) {
  obs::HistogramSnapshot h;
  h.count = s.count;
  h.total_ns = static_cast<std::int64_t>(s.total_ms * 1e6);
  h.max_ns = static_cast<std::int64_t>(s.max_ms * 1e6);
  static_assert(kLatencyBuckets == obs::kHistogramBuckets,
                "service latency buckets must mirror the registry's");
  for (int i = 0; i < kLatencyBuckets; ++i) {
    h.buckets[static_cast<std::size_t>(i)] =
        s.buckets[static_cast<std::size_t>(i)];
  }
  return h;
}

obs::MetricsSnapshot to_metrics(const ServiceSnapshot& snap) {
  obs::MetricsSnapshot m;
  const ServiceMetrics& sm = snap.metrics;
  m.counters = {
      {"fdbscan_pool_evictions_total", snap.pool.evictions},
      {"fdbscan_pool_hits_total", snap.pool.hits},
      {"fdbscan_pool_misses_total", snap.pool.misses},
      {"fdbscan_service_cancelled_total", sm.cancelled},
      {"fdbscan_service_completed_total", sm.completed},
      {"fdbscan_service_deadline_exceeded_total", sm.deadline_exceeded},
      {"fdbscan_service_failed_total", sm.failed},
      {"fdbscan_service_rejected_total", sm.rejected},
      {"fdbscan_service_session_append_total", sm.session_appends},
      {"fdbscan_service_session_expire_total", sm.session_expires},
      {"fdbscan_service_session_opened_total", sm.session_opened},
      {"fdbscan_service_session_query_total", sm.session_queries},
      {"fdbscan_service_session_rebuilds_total", sm.session_rebuilds},
      {"fdbscan_service_submitted_total", sm.submitted},
  };
  m.gauges = {
      {"fdbscan_pool_engines", snap.pool.engines},
      {"fdbscan_service_active_requests", sm.active},
      {"fdbscan_service_queue_depth", sm.queued},
      {"fdbscan_service_sessions_open", sm.sessions_open},
  };
  m.histograms = {
      {"fdbscan_service_queue_wait", to_histogram(sm.queue_wait)},
      {"fdbscan_service_run_time", to_histogram(sm.run_time)},
  };
  return m;
}

}  // namespace

std::string to_prometheus_text(const ServiceSnapshot& snap) {
  std::string out =
      "# fdbscan-service queue_capacity=" +
      std::to_string(snap.config.queue_capacity) +
      " dispatchers=" + std::to_string(snap.config.dispatchers) +
      " engine_capacity=" + std::to_string(snap.config.engine_capacity) +
      " shards=" + std::to_string(snap.config.shards) +
      " session_capacity=" + std::to_string(snap.config.session_capacity) +
      "\n";
  out += obs::to_prometheus_text(to_metrics(snap));
  return out;
}

std::string to_json(const ServiceSnapshot& snap) {
  std::string out = "{\"config\":{\"queue_capacity\":";
  out += std::to_string(snap.config.queue_capacity);
  out += ",\"dispatchers\":";
  out += std::to_string(snap.config.dispatchers);
  out += ",\"engine_capacity\":";
  out += std::to_string(snap.config.engine_capacity);
  out += ",\"shards\":";
  out += std::to_string(snap.config.shards);
  out += ",\"session_capacity\":";
  out += std::to_string(snap.config.session_capacity);
  out += "},\"metrics\":";
  out += obs::to_json(to_metrics(snap));
  out += "}";
  return out;
}

}  // namespace fdbscan::service
