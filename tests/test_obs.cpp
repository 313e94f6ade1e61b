// Observability plane (src/obs/, DESIGN.md §13): metrics registry
// semantics (monotone counters under contention, histogram identities,
// name stability, parented roll-up), per-service metrics rolling up into
// the registry (a registry delta equals the sum of the services' own
// ServiceMetrics), request-id propagation through trace
// spans, the structured JSONL log (levels, rate limiting, env-warning
// migration), statusz dumps, and the trace-flush-vs-recorder race the
// SIGUSR1 path depends on (swept under TSan via the `obs` label).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "exec/memory_tracker.h"
#include "exec/trace.h"
#include "obs/log.h"
#include "obs/request_id.h"
#include "obs/statusz.h"
#include "service/service.h"
#include "test_utils.h"

namespace fdbscan::obs {
namespace {

using testing::ScopedThreads;

std::shared_ptr<const std::vector<Point2>> shared_points(
    std::int64_t n, std::uint64_t seed) {
  return std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::clustered_points<2>(n, 6, 1.0f, 0.02f, seed));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (path.back() != '/') path += '/';
  path += stem;
  path += "." + std::to_string(::getpid());
  return path;
}

int count_lines_containing(const std::string& text, const std::string& sub,
                           const std::string& also = "") {
  int count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(sub) != std::string::npos &&
        (also.empty() || line.find(also) != std::string::npos)) {
      ++count;
    }
  }
  return count;
}

// --- Metrics registry ----------------------------------------------------

TEST(ObsMetrics, CounterMonotoneUnderConcurrentIncrements) {
  Counter& c = counter("test_obs_concurrent_total");
  const std::int64_t base = c.value();
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), base + kThreads * kIncs);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  Counter& a = counter("test_obs_stable_total");
  Counter& b = counter("test_obs_stable_total");
  EXPECT_EQ(&a, &b);
  // Force a registration wave; the earlier reference must survive it
  // (deque storage — no reallocation moves).
  for (int i = 0; i < 64; ++i) {
    (void)counter("test_obs_churn_" + std::to_string(i) + "_total");
  }
  Counter& c = counter("test_obs_stable_total");
  EXPECT_EQ(&a, &c);
}

TEST(ObsMetrics, KindMismatchAndBadNamesThrow) {
  (void)counter("test_obs_kind_total");
  EXPECT_THROW((void)gauge("test_obs_kind_total"), std::logic_error);
  EXPECT_THROW((void)histogram("test_obs_kind_total"), std::logic_error);
  EXPECT_THROW((void)counter(""), std::logic_error);
  EXPECT_THROW((void)counter("0starts_with_digit"), std::logic_error);
  EXPECT_THROW((void)counter("has space"), std::logic_error);
  EXPECT_THROW((void)counter("has-dash"), std::logic_error);
}

TEST(ObsMetrics, HistogramBucketSumEqualsCountAndPlacementIsLog2) {
  Histogram& h = histogram("test_obs_hist");
  const HistogramSnapshot before = h.snapshot();
  // 500 ns -> 0 us -> bucket 0; 1 us -> bucket 1; 1000 us -> bucket 10;
  // 1 hour -> clamped into the last bucket.
  h.observe_ns(500);
  h.observe_ns(1000);
  h.observe_ns(1000 * 1000);
  h.observe_ns(std::int64_t{3600} * 1000 * 1000 * 1000);
  const HistogramSnapshot after = h.snapshot();
  EXPECT_EQ(after.count - before.count, 4);
  EXPECT_EQ(after.buckets[0] - before.buckets[0], 1);
  EXPECT_EQ(after.buckets[1] - before.buckets[1], 1);
  EXPECT_EQ(after.buckets[10] - before.buckets[10], 1);
  EXPECT_EQ(after.buckets[kHistogramBuckets - 1] -
                before.buckets[kHistogramBuckets - 1],
            1);
  std::int64_t bucket_sum = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) bucket_sum += after.buckets[i];
  EXPECT_EQ(bucket_sum, after.count);
  EXPECT_EQ(after.total_ns - before.total_ns,
            500 + 1000 + 1000 * 1000 +
                std::int64_t{3600} * 1000 * 1000 * 1000);
  EXPECT_GE(after.max_ns, std::int64_t{3600} * 1000 * 1000 * 1000);
}

TEST(ObsMetrics, ParentedMetricsRollUpUnderConcurrentUpdates) {
  Counter& parent = counter("test_obs_rollup_total");
  Histogram& parent_hist = histogram("test_obs_rollup_hist");
  const std::int64_t base = parent.value();
  const HistogramSnapshot hist_base = parent_hist.snapshot();
  Counter a(&parent);
  Counter b(&parent);
  Histogram ha(&parent_hist);
  Histogram hb(&parent_hist);
  constexpr int kThreads = 4;
  constexpr int kIncs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter& c = t % 2 == 0 ? a : b;
      Histogram& h = t % 2 == 0 ? ha : hb;
      for (int i = 0; i < kIncs; ++i) {
        c.inc(1 + t);
        h.observe_ns(std::int64_t{1000} * (1 + (i + t) % 300));
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each instance holds only its own increments; the parent holds both.
  EXPECT_EQ(a.value(), kIncs * (1 + 3));
  EXPECT_EQ(b.value(), kIncs * (2 + 4));
  EXPECT_EQ(parent.value() - base, a.value() + b.value());
  const HistogramSnapshot sa = ha.snapshot();
  const HistogramSnapshot sb = hb.snapshot();
  const HistogramSnapshot sp = parent_hist.snapshot();
  EXPECT_EQ(sa.count, 2 * kIncs);
  EXPECT_EQ(sb.count, 2 * kIncs);
  EXPECT_EQ(sp.count - hist_base.count, sa.count + sb.count);
  EXPECT_EQ(sp.total_ns - hist_base.total_ns, sa.total_ns + sb.total_ns);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(sp.buckets[k] - hist_base.buckets[k],
              sa.buckets[k] + sb.buckets[k])
        << "bucket " << i;
  }
  EXPECT_GE(sp.max_ns, std::max(sa.max_ns, sb.max_ns));
}

TEST(ObsMetrics, DeltaSubtractsCountersAndHistograms) {
  Counter& c = counter("test_obs_delta_total");
  Histogram& h = histogram("test_obs_delta_hist");
  const MetricsSnapshot before = snapshot_metrics();
  c.inc(7);
  h.observe_ns(2500);
  h.observe_ns(2500);
  const MetricsSnapshot delta = metrics_delta(before, snapshot_metrics());
  std::int64_t c_delta = -1;
  for (const auto& v : delta.counters) {
    if (v.name == "test_obs_delta_total") c_delta = v.value;
  }
  EXPECT_EQ(c_delta, 7);
  bool found = false;
  for (const auto& hh : delta.histograms) {
    if (hh.name != "test_obs_delta_hist") continue;
    found = true;
    EXPECT_EQ(hh.data.count, 2);
    EXPECT_EQ(hh.data.total_ns, 5000);
    EXPECT_EQ(hh.data.buckets[2], 2);  // 2 us -> bit_width(2) = 2
  }
  EXPECT_TRUE(found);
}

TEST(ObsMetrics, DeltaZeroesMaxWhenWindowSawNoSamples) {
  Histogram& h = histogram("test_obs_delta_idle_hist");
  h.observe_ns(123456789);  // raises the process-lifetime max
  const MetricsSnapshot before = snapshot_metrics();
  const MetricsSnapshot delta = metrics_delta(before, snapshot_metrics());
  for (const auto& hh : delta.histograms) {
    if (hh.name != "test_obs_delta_idle_hist") continue;
    EXPECT_EQ(hh.data.count, 0);
    EXPECT_EQ(hh.data.max_ns, 0) << "idle window must not inherit the "
                                    "lifetime max";
  }
}

TEST(ObsMetrics, PrometheusTextGolden) {
  // Hand-built snapshot: the serializer's output is a stable format
  // contract (tools/fdbscan_statusz.py parses it line-by-line).
  MetricsSnapshot snap;
  snap.counters.push_back({"demo_total", 3});
  snap.gauges.push_back({"demo_gauge", -2});
  MetricsSnapshot::Hist h;
  h.name = "demo_hist";
  h.data.count = 2;
  h.data.total_ns = 3000;
  h.data.max_ns = 2000;
  h.data.buckets[1] = 1;  // 1 us
  h.data.buckets[2] = 1;  // 2 us
  snap.histograms.push_back(h);

  const std::string text = to_prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE demo_total counter\ndemo_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge\ndemo_gauge -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_hist histogram\n"), std::string::npos);
  // Cumulative buckets: le=1e-06 covers bucket 0 (empty), le=2e-06 adds
  // the 1 us sample, le=4e-06 adds the 2 us one; +Inf equals _count.
  EXPECT_NE(text.find("demo_hist_bucket{le=\"9.9999999999999995e-07\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_hist_bucket{le=\"1.9999999999999999e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_hist_bucket{le=\"3.9999999999999998e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_hist_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_hist_sum 3.0000000000000001e-06\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_hist_count 2\n"), std::string::npos);
}

TEST(ObsMetrics, JsonGolden) {
  MetricsSnapshot snap;
  snap.counters.push_back({"a_total", 1});
  snap.gauges.push_back({"g", 5});
  const std::string json = to_json(snap);
  EXPECT_EQ(json,
            "{\"counters\":{\"a_total\":1},\"gauges\":{\"g\":5},"
            "\"histograms\":{}}");
}

TEST(ObsMetrics, SnapshotNamesUniqueSortedAndStableAcrossWorkerCounts) {
  const auto points = shared_points(400, 11);
  // Touch the families that only register on their subsystem's first
  // use, so the promised-names check below is about naming, not about
  // which code paths this test happened to drive.
  {
    exec::MemoryTracker tracker;
    tracker.charge(1024);
    tracker.release(1024);
  }
  std::set<std::string> first_names;
  for (const int workers : {1, 2, 8}) {
    ScopedThreads scoped(workers);
    {
      service::ClusterService svc;
      auto result =
          svc.submit<2>("obs-names", points,
                        RequestSpec{.params = {0.05f, 5}}).get();
      ASSERT_TRUE(result.has_value());
      RequestSpec sharded{.params = {0.05f, 5}};
      sharded.shards = 2;
      auto sharded_result =
          svc.submit<2>("obs-names", points, sharded)
              .get();
      ASSERT_TRUE(sharded_result.has_value());
      svc.wait_idle();
    }
    const MetricsSnapshot snap = snapshot_metrics();
    std::vector<std::string> names;
    for (const auto& v : snap.counters) names.push_back(v.name);
    for (const auto& v : snap.gauges) names.push_back(v.name);
    for (const auto& h : snap.histograms) names.push_back(h.name);
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size())
        << "a name is registered under two kinds";
    EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                               [](const auto& a, const auto& b) {
                                 return a.name < b.name;
                               }));
    if (first_names.empty()) {
      first_names = unique;
    } else {
      EXPECT_EQ(first_names, unique)
          << "worker count " << workers
          << " registered a different metric set — names must not "
             "depend on parallelism";
    }
  }
  // The families the plane promises are all present after service use.
  for (const char* name :
       {"fdbscan_service_submitted_total", "fdbscan_service_completed_total",
        "fdbscan_service_queue_depth", "fdbscan_pool_hits_total",
        "fdbscan_exec_launches_total", "fdbscan_exec_inflight_launches",
        "fdbscan_memory_charged_bytes_total", "fdbscan_shard_runs_total"}) {
    EXPECT_TRUE(first_names.count(name) == 1) << "missing metric " << name;
  }
}

// --- Service roll-up ------------------------------------------------------

TEST(ObsServiceMirror, RegistryDeltaMatchesServiceMetricsUnderConcurrency) {
  const auto points = shared_points(500, 21);
  const MetricsSnapshot before = snapshot_metrics();
  service::ServiceMetrics final_metrics;
  {
    service::ServiceConfig config;
    config.dispatchers = 2;
    service::ClusterService svc(config);
    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 6;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&svc, &points, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Parameters params{0.05f, 5 + (t + i) % 3};
          auto f = svc.submit<2>("mirror", points,
                                 RequestSpec{.params = params});
          (void)f.get();
        }
      });
    }
    for (auto& t : submitters) t.join();
    svc.wait_idle();
    final_metrics = svc.metrics();
  }
  const MetricsSnapshot delta = metrics_delta(before, snapshot_metrics());
  const auto counter_delta = [&](const char* name) {
    for (const auto& c : delta.counters) {
      if (c.name == name) return c.value;
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(counter_delta("fdbscan_service_submitted_total"),
            final_metrics.submitted);
  EXPECT_EQ(counter_delta("fdbscan_service_completed_total"),
            final_metrics.completed);
  EXPECT_EQ(counter_delta("fdbscan_service_rejected_total"),
            final_metrics.rejected);
  EXPECT_EQ(counter_delta("fdbscan_service_cancelled_total"),
            final_metrics.cancelled);
  EXPECT_EQ(counter_delta("fdbscan_service_deadline_exceeded_total"),
            final_metrics.deadline_exceeded);
  EXPECT_EQ(counter_delta("fdbscan_service_failed_total"),
            final_metrics.failed);
  EXPECT_EQ(final_metrics.submitted, 24);
  // Terminal partition over the window.
  EXPECT_EQ(counter_delta("fdbscan_service_submitted_total"),
            counter_delta("fdbscan_service_completed_total") +
                counter_delta("fdbscan_service_rejected_total") +
                counter_delta("fdbscan_service_cancelled_total") +
                counter_delta("fdbscan_service_deadline_exceeded_total") +
                counter_delta("fdbscan_service_failed_total"));
  // Histogram mirrors: identical samples -> identical count / total /
  // buckets (the service feeds both sides the same nanoseconds).
  for (const auto& h : delta.histograms) {
    const service::LatencySummary* own = nullptr;
    if (h.name == "fdbscan_service_queue_wait") {
      own = &final_metrics.queue_wait;
    } else if (h.name == "fdbscan_service_run_time") {
      own = &final_metrics.run_time;
    }
    if (own == nullptr) continue;
    EXPECT_EQ(h.data.count, own->count) << h.name;
    EXPECT_EQ(static_cast<double>(h.data.total_ns) * 1e-6, own->total_ms)
        << h.name;
    std::int64_t bucket_sum = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      EXPECT_EQ(h.data.buckets[static_cast<std::size_t>(i)],
                own->buckets[static_cast<std::size_t>(i)])
          << h.name << " bucket " << i;
      bucket_sum += h.data.buckets[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(bucket_sum, h.data.count) << h.name;
  }
}

// Two services alive at once, each driven through every terminal
// outcome and every session op: each service's metrics() counts only its
// own traffic, and the registry family is their sum.
struct ScenarioCounts {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t failed = 0;
  std::int64_t session_rebuilds = 0;
};

// Runs `reps` of each outcome against `svc` (one dispatcher, queue
// capacity kCapacity) and returns what the futures reported.
ScenarioCounts drive_every_outcome(
    service::ClusterService& svc, int reps,
    const std::shared_ptr<const std::vector<Point2>>& big,
    const std::shared_ptr<const std::vector<Point2>>& tiny) {
  using service::ServiceResult;
  using service::SessionResult;
  ScenarioCounts n;
  const Parameters params{0.05f, 5};
  const auto settle = [&n](const auto& r) {
    if (r.has_value()) {
      ++n.completed;
      return;
    }
    switch (r.error().code) {
      case ErrorCode::kQueueFull: ++n.rejected; break;
      case ErrorCode::kCancelled: ++n.cancelled; break;
      case ErrorCode::kDeadlineExceeded: ++n.deadline_exceeded; break;
      default: ++n.failed; break;
    }
  };
  const auto submit = [&](const std::string& id,
                          const std::shared_ptr<const std::vector<Point2>>& pts,
                          RequestSpec spec) {
    ++n.submitted;
    return svc.submit<2>(id, pts, std::move(spec));
  };

  for (int r = 0; r < reps; ++r) {
    settle(submit("tiny", tiny, RequestSpec{.params = params}).get());
    settle(submit("tiny", tiny, RequestSpec{.params = {-1.0f, 5}}).get());
    RequestSpec expired{.params = params};
    expired.deadline_ms = 0.0;
    settle(submit("tiny", tiny, expired).get());
    RequestSpec cancelled{.params = params};
    cancelled.token = std::make_shared<exec::CancelToken>();
    cancelled.token->request_cancel();
    settle(submit("tiny", tiny, cancelled).get());
  }

  // Queue-full: hold the only dispatcher with a cancellable blocker, then
  // overfill the empty queue by `reps`.
  RequestSpec blocking{.params = params};
  blocking.token = std::make_shared<exec::CancelToken>();
  auto blocker = submit("blocker", big, blocking);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    const service::ServiceMetrics m = svc.metrics();
    if (m.active == 1 && m.queued == 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::vector<std::future<ServiceResult>> burst;
  for (int i = 0; i < svc.config().queue_capacity + reps; ++i) {
    burst.push_back(submit("tiny", tiny, RequestSpec{.params = params}));
  }
  blocking.token->request_cancel();
  settle(blocker.get());
  for (auto& f : burst) settle(f.get());

  // Sessions: open, query (the lazy index build), append, expire, query,
  // append. The last op is a mutation, so its delta carries the
  // session's final rebuild count.
  for (int r = 0; r < reps; ++r) {
    RequestSpec spec{.params = params};
    auto opened = svc.open_session<2>(
        "stream-" + std::to_string(r),
        std::make_shared<const std::vector<Point2>>(tiny->begin(),
                                                    tiny->begin() + 200),
        spec);
    EXPECT_TRUE(opened.has_value());
    if (!opened.has_value()) return n;
    service::ClusterService::Session session = std::move(*opened);
    const auto batch = std::make_shared<const std::vector<Point2>>(
        tiny->begin() + 200, tiny->end());
    n.submitted += 6;
    ++n.completed;  // the open; a failed one would fail every op below
    const ServiceResult q1 = session.query().get();
    const SessionResult a = session.append<2>(batch).get();
    const SessionResult e = session.expire(100).get();
    const ServiceResult q2 = session.query().get();
    const SessionResult last = session.append<2>(batch).get();
    for (const ServiceResult* q : {&q1, &q2}) {
      EXPECT_TRUE(q->has_value()) << q->error().message;
      settle(*q);
    }
    for (const SessionResult* d : {&a, &e, &last}) {
      EXPECT_TRUE(d->has_value()) << d->error().message;
      settle(*d);
    }
    if (last.has_value()) n.session_rebuilds += last->rebuilds;
    session.close();
  }
  svc.wait_idle();
  return n;
}

TEST(ObsServiceMirror, TwoServicesRollUpIntoTheRegistry) {
  const auto big = shared_points(150000, 41);
  const auto tiny = shared_points(400, 42);
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ScopedThreads scoped(workers);
    const MetricsSnapshot before = snapshot_metrics();
    service::ServiceConfig config;
    config.dispatchers = 1;
    config.queue_capacity = 2;
    service::ClusterService svc_a(config);
    service::ClusterService svc_b(config);
    ScenarioCounts want_a;
    ScenarioCounts want_b;
    std::thread thread_a(
        [&] { want_a = drive_every_outcome(svc_a, 1, big, tiny); });
    std::thread thread_b(
        [&] { want_b = drive_every_outcome(svc_b, 2, big, tiny); });
    thread_a.join();
    thread_b.join();
    const service::ServiceMetrics a = svc_a.metrics();
    const service::ServiceMetrics b = svc_b.metrics();
    const MetricsSnapshot delta = metrics_delta(before, snapshot_metrics());

    // Each service counts only its own requests.
    for (const auto& [m, want, reps] :
         {std::tuple{a, want_a, 1}, std::tuple{b, want_b, 2}}) {
      EXPECT_EQ(m.submitted, want.submitted);
      EXPECT_EQ(m.completed, want.completed);
      EXPECT_EQ(m.rejected, want.rejected);
      EXPECT_EQ(m.cancelled, want.cancelled);
      EXPECT_EQ(m.deadline_exceeded, want.deadline_exceeded);
      EXPECT_EQ(m.failed, want.failed);
      EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled +
                                 m.deadline_exceeded + m.failed);
      // Every outcome happened (the blocker may finish before its cancel,
      // so queue-full and cancellation are counted, not assumed).
      EXPECT_GE(m.completed, 1);
      EXPECT_GE(m.rejected, 1);
      EXPECT_GE(m.cancelled, reps);
      EXPECT_EQ(m.deadline_exceeded, reps);
      EXPECT_EQ(m.failed, reps);
      EXPECT_EQ(m.session_opened, reps);
      EXPECT_EQ(m.session_appends, 2 * reps);
      EXPECT_EQ(m.session_expires, reps);
      EXPECT_EQ(m.session_queries, 2 * reps);
      EXPECT_EQ(m.session_rebuilds, want.session_rebuilds);
      EXPECT_GE(m.session_rebuilds, reps);
      // Requests that reached a dispatcher; validation, fail-fast
      // deadlines and queue-full rejections never do.
      const std::int64_t dispatched =
          m.submitted - m.failed - m.deadline_exceeded - m.rejected;
      EXPECT_EQ(m.queue_wait.count, dispatched);
      EXPECT_EQ(m.run_time.count, dispatched);
    }

    // The registry family is the sum of the two services.
    const auto counter_delta = [&](const std::string& name) {
      for (const auto& c : delta.counters) {
        if (c.name == name) return c.value;
      }
      return std::int64_t{-1};
    };
    const std::pair<const char*, std::int64_t service::ServiceMetrics::*>
        counters[] = {
            {"submitted_total", &service::ServiceMetrics::submitted},
            {"completed_total", &service::ServiceMetrics::completed},
            {"rejected_total", &service::ServiceMetrics::rejected},
            {"cancelled_total", &service::ServiceMetrics::cancelled},
            {"deadline_exceeded_total",
             &service::ServiceMetrics::deadline_exceeded},
            {"failed_total", &service::ServiceMetrics::failed},
            {"session_opened_total", &service::ServiceMetrics::session_opened},
            {"session_append_total", &service::ServiceMetrics::session_appends},
            {"session_expire_total", &service::ServiceMetrics::session_expires},
            {"session_query_total", &service::ServiceMetrics::session_queries},
            {"session_rebuilds_total",
             &service::ServiceMetrics::session_rebuilds},
        };
    for (const auto& [suffix, field] : counters) {
      const std::string name = std::string("fdbscan_service_") + suffix;
      EXPECT_EQ(counter_delta(name), a.*field + b.*field) << name;
    }
    int histograms_checked = 0;
    for (const auto& h : delta.histograms) {
      service::LatencySummary service::ServiceMetrics::*field = nullptr;
      if (h.name == "fdbscan_service_queue_wait") {
        field = &service::ServiceMetrics::queue_wait;
      } else if (h.name == "fdbscan_service_run_time") {
        field = &service::ServiceMetrics::run_time;
      }
      if (field == nullptr) continue;
      ++histograms_checked;
      const service::LatencySummary& ha = a.*field;
      const service::LatencySummary& hb = b.*field;
      EXPECT_EQ(h.data.count, ha.count + hb.count) << h.name;
      EXPECT_DOUBLE_EQ(static_cast<double>(h.data.total_ns) * 1e-6,
                       ha.total_ms + hb.total_ms)
          << h.name;
      for (int i = 0; i < kHistogramBuckets; ++i) {
        const auto k = static_cast<std::size_t>(i);
        EXPECT_EQ(h.data.buckets[k], ha.buckets[k] + hb.buckets[k])
            << h.name << " bucket " << i;
      }
    }
    EXPECT_EQ(histograms_checked, 2);
  }
}

TEST(ObsServiceMirror, ServiceSnapshotSerializes) {
  const auto points = shared_points(300, 31);
  service::ClusterService svc;
  auto result = svc.submit<2>("snap", points,
                              RequestSpec{.params = {0.05f, 5}}).get();
  ASSERT_TRUE(result.has_value());
  svc.wait_idle();
  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.metrics.submitted, 1);
  EXPECT_EQ(snap.metrics.completed, 1);

  const std::string prom = service::to_prometheus_text(snap);
  EXPECT_EQ(prom.rfind("# fdbscan-service ", 0), 0u);
  EXPECT_NE(prom.find("fdbscan_service_submitted_total 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE fdbscan_service_queue_wait histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("fdbscan_pool_misses_total 1\n"), std::string::npos);

  const std::string json = service::to_json(snap);
  EXPECT_EQ(json.rfind("{\"config\":", 0), 0u);
  EXPECT_NE(json.find("\"fdbscan_service_completed_total\":1"),
            std::string::npos);
}

// --- Request ids ---------------------------------------------------------

TEST(ObsRequestId, MintedIdsAreUniqueAndNonZero) {
  std::set<RequestId> ids;
  for (int i = 0; i < 100; ++i) {
    const RequestId id = mint_request_id();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(ObsRequestId, ScopeNestsAndRestores) {
  EXPECT_EQ(current_request_id(), 0u);
  {
    RequestScope outer(5);
    EXPECT_EQ(current_request_id(), 5u);
    {
      RequestScope inner(7);
      EXPECT_EQ(current_request_id(), 7u);
    }
    EXPECT_EQ(current_request_id(), 5u);
  }
  EXPECT_EQ(current_request_id(), 0u);
}

TEST(ObsRequestId, ServiceSpansCarryRidInTrace) {
  exec::trace_start("");
  exec::trace_reset();
  ASSERT_TRUE(exec::trace_enabled());
  const auto points = shared_points(300, 41);
  {
    service::ClusterService svc;
    for (int i = 0; i < 3; ++i) {
      auto result =
          svc.submit<2>("rid", points,
                        RequestSpec{.params = {0.05f, 5 + i}}).get();
      ASSERT_TRUE(result.has_value());
    }
    svc.wait_idle();
  }
  const std::string json = exec::trace_flush();
  exec::trace_stop();
  std::set<std::string> rids;
  std::istringstream in(json);
  std::string line;
  int service_begins = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"B\"") == std::string::npos ||
        line.find("\"cat\":\"service\"") == std::string::npos) {
      continue;
    }
    ++service_begins;
    const std::size_t at = line.find("\"rid\":");
    ASSERT_NE(at, std::string::npos)
        << "service span without a request id: " << line;
    std::size_t end = at + 6;
    while (end < line.size() && std::isdigit(line[end]) != 0) ++end;
    rids.insert(line.substr(at + 6, end - (at + 6)));
  }
  // Two spans per request (queue-wait + run), three requests, three
  // distinct ids.
  EXPECT_EQ(service_begins, 6);
  EXPECT_EQ(rids.size(), 3u);
  EXPECT_EQ(rids.count("0"), 0u);
}

// --- Structured log ------------------------------------------------------

TEST(ObsLog, WritesJsonlWithFieldsAndRid) {
  const std::string path = temp_path("obs_log_basic");
  std::remove(path.c_str());
  log_init(path, LogLevel::kDebug);
  log_event(LogLevel::kInfo, "test.basic",
            {{"text", "a \"quoted\" value"},
             {"count", 42},
             {"ratio", 0.5},
             {"flag", true}});
  {
    RequestScope scope(99);
    log_event(LogLevel::kWarn, "test.with_rid", {{"k", "v"}});
  }
  log_init("stderr", LogLevel::kWarn);  // release the file sink
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines_containing(text, "\"event\":\"test.basic\""), 1);
  EXPECT_NE(text.find("\"text\":\"a \\\"quoted\\\" value\""),
            std::string::npos);
  EXPECT_NE(text.find("\"count\":42"), std::string::npos);
  EXPECT_NE(text.find("\"flag\":true"), std::string::npos);
  EXPECT_NE(text.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(text.find("\"ts_ns\":"), std::string::npos);
  // The rid rides along exactly when a RequestScope is installed.
  EXPECT_EQ(count_lines_containing(text, "\"rid\":99"), 1);
  const std::size_t basic = text.find("test.basic");
  const std::size_t rid = text.find("\"rid\":");
  EXPECT_GT(rid, basic) << "rid leaked onto the scope-free line";
  std::remove(path.c_str());
}

TEST(ObsLog, MinimumLevelSuppresses) {
  const std::string path = temp_path("obs_log_levels");
  std::remove(path.c_str());
  log_init(path, LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  log_event(LogLevel::kDebug, "test.suppressed");
  log_event(LogLevel::kInfo, "test.suppressed");
  log_event(LogLevel::kError, "test.emitted");
  log_init("stderr", LogLevel::kWarn);
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines_containing(text, "test.suppressed"), 0);
  EXPECT_EQ(count_lines_containing(text, "test.emitted"), 1);
  std::remove(path.c_str());
}

TEST(ObsLog, RateLimiterCapsPerEventEmission) {
  const std::string path = temp_path("obs_log_rate");
  std::remove(path.c_str());
  log_init(path, LogLevel::kInfo);
  const std::int64_t dropped_before = log_dropped_count();
  constexpr int kBurst = 3 * kLogRateLimitPerSec;
  for (int i = 0; i < kBurst; ++i) {
    log_event(LogLevel::kInfo, "test.hot_loop", {{"i", i}});
  }
  // A tight burst spans at most two 1 s windows.
  const std::string text = read_file(path);
  const int emitted = count_lines_containing(text, "test.hot_loop");
  EXPECT_LE(emitted, 2 * kLogRateLimitPerSec);
  EXPECT_LT(emitted, kBurst);
  EXPECT_GT(log_dropped_count(), dropped_before);
  // The next emission after the window reports what was dropped.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  log_event(LogLevel::kInfo, "test.hot_loop", {{"i", -1}});
  log_init("stderr", LogLevel::kWarn);
  const std::string after = read_file(path);
  EXPECT_EQ(count_lines_containing(after, "\"dropped\":"), 1);
  std::remove(path.c_str());
}

TEST(ObsLog, ServiceEnvWarningsLandOnTheStructuredLog) {
  const std::string path = temp_path("obs_log_env");
  std::remove(path.c_str());
  log_init(path, LogLevel::kDebug);
  ::setenv("FDBSCAN_SERVICE_QUEUE_CAP", "banana", 1);
  const service::ServiceConfig config = service::ServiceConfig::from_env();
  ::unsetenv("FDBSCAN_SERVICE_QUEUE_CAP");
  log_init("stderr", LogLevel::kWarn);
  EXPECT_EQ(config.queue_capacity, service::ServiceConfig{}.queue_capacity);
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines_containing(text, "service.env_ignored"), 1);
  EXPECT_NE(text.find("FDBSCAN_SERVICE_QUEUE_CAP"), std::string::npos);
  EXPECT_NE(text.find("banana"), std::string::npos);
  std::remove(path.c_str());
}

// --- statusz -------------------------------------------------------------

TEST(ObsStatusz, TextHasSentinelsAndIncrementsSeq) {
  counter("fdbscan_statusz_test_total").inc();
  const std::string first = statusz_text();
  EXPECT_EQ(first.rfind("# fdbscan-statusz seq=", 0), 0u);
  EXPECT_NE(first.find("\n# end fdbscan-statusz seq="), std::string::npos);
  EXPECT_NE(first.find("fdbscan_statusz_test_total"), std::string::npos);
  EXPECT_NE(first.find("fdbscan_statusz_dumps_total"), std::string::npos);
  const auto seq_of = [](const std::string& text) {
    return std::atoll(text.c_str() + std::string("# fdbscan-statusz seq=")
                                         .size());
  };
  const std::string second = statusz_text();
  EXPECT_EQ(seq_of(second), seq_of(first) + 1);
}

TEST(ObsStatusz, DumpWritesAtomicallyToConfiguredFile) {
  const std::string path = temp_path("obs_statusz_dump");
  std::remove(path.c_str());
  ::setenv("FDBSCAN_STATUSZ", path.c_str(), 1);
  const std::string sink = statusz_dump();
  ::unsetenv("FDBSCAN_STATUSZ");
  EXPECT_EQ(sink, path);
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("# fdbscan-statusz seq=", 0), 0u);
  EXPECT_NE(text.find("# end fdbscan-statusz"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- trace_flush vs live recorders (the SIGUSR1 dump path) ---------------

TEST(ObsTraceFlush, ConcurrentFlushAndRecordersDoNotRace) {
  exec::trace_start("");
  exec::trace_reset();
  ASSERT_TRUE(exec::trace_enabled());
  constexpr int kRecorders = 4;
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([t] {
      // Plain threads have no trace track until they register one.
      exec::trace_register_thread("flush-race");
      const char* name = exec::trace_intern(
          "obs/flush-race-" + std::to_string(t));
      for (int i = 0; i < 4000; ++i) {
        const std::int64_t begin = exec::trace_now_ns();
        exec::trace_record_span(name, begin, begin + 1000, "test");
      }
    });
  }
  // Flush concurrently with the writers, as the statusz writer thread
  // does when SIGUSR1 arrives mid-run. Claimed-but-uncommitted events
  // are skipped; nothing may tear or crash (swept under TSan).
  std::string last;
  for (int i = 0; i < 25; ++i) {
    last = exec::trace_flush();
    EXPECT_NE(last.find("traceEvents"), std::string::npos);
  }
  for (auto& t : recorders) t.join();
  const std::string final_flush = exec::trace_flush();
  exec::trace_stop();
  // Every committed span surfaces as a balanced B/E pair of its name.
  for (int t = 0; t < kRecorders; ++t) {
    const std::string name =
        "\"name\":\"obs/flush-race-" + std::to_string(t) + "\"";
    const int begins =
        count_lines_containing(final_flush, "\"ph\":\"B\"", name);
    const int ends = count_lines_containing(final_flush, "\"ph\":\"E\"", name);
    EXPECT_GT(begins, 0) << name;
    EXPECT_EQ(begins, ends) << name;
  }
}

}  // namespace
}  // namespace fdbscan::obs
