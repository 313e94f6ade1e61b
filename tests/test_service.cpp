// ClusterService (service/service.h): queue backpressure, engine-pool
// reuse and serialization, deadlines, cancellation through the service
// surface, metrics accounting, and the ErrorCode round-trip satellite.
#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/validate.h"
#include "exec/profile.h"
#include "test_utils.h"

namespace fdbscan::service {
namespace {

using exec::CancelToken;

std::shared_ptr<const std::vector<Point2>> shared_points(
    std::int64_t n, std::uint64_t seed, float sigma = 0.02f) {
  return std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::clustered_points<2>(n, 6, 1.0f, sigma, seed));
}

/// Polls the service until `pred(metrics())` holds (or a generous
/// timeout elapses — the assertion then fails loudly in the caller).
template <class Pred>
bool wait_until(const ClusterService& service, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(service.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// --- Satellite: every ErrorCode enumerator round-trips through its name --

TEST(ErrorCode, EveryEnumeratorHasADistinctName) {
  const ErrorCode all[] = {
      ErrorCode::kInvalidEps,       ErrorCode::kInvalidMinpts,
      ErrorCode::kNonFinitePoint,   ErrorCode::kInvalidCellWidthFactor,
      ErrorCode::kInvalidShards,    ErrorCode::kQueueFull,
      ErrorCode::kCancelled,        ErrorCode::kDeadlineExceeded,
      ErrorCode::kInternal,
  };
  std::set<std::string> names;
  for (ErrorCode code : all) {
    const std::string name = error_code_name(code);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "UnknownError") << "missing switch case";
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(all)) << "duplicate names";
}

TEST(ErrorCode, ServiceCodesSpellTheirCondition) {
  EXPECT_STREQ(error_code_name(ErrorCode::kQueueFull), "QueueFull");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "Cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "Internal");
}

// --- Configuration -------------------------------------------------------

TEST(ServiceConfig, StrictEnvParseRejectsEverythingButPositiveInts) {
  using detail::parse_positive_env_int;
  EXPECT_EQ(parse_positive_env_int("5"), 5);
  EXPECT_EQ(parse_positive_env_int("64"), 64);
  EXPECT_EQ(parse_positive_env_int("2147483647"),
            std::numeric_limits<int>::max());
  EXPECT_EQ(parse_positive_env_int(nullptr), std::nullopt);
  EXPECT_EQ(parse_positive_env_int(""), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("0"), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("-3"), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("banana"), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("12abc"), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("3.5"), std::nullopt);
  EXPECT_EQ(parse_positive_env_int("2147483648"), std::nullopt);  // > int
  EXPECT_EQ(parse_positive_env_int("99999999999999999999"), std::nullopt);
}

TEST(ServiceConfig, InvalidEnvValuesFallBackToDefaultsWithAWarning) {
  // Pre-fix these silently became the defaults via atoi(); the value
  // contract (defaults) is what we can assert — the once-per-variable
  // stderr warning is exercised but not captured here.
  ::setenv("FDBSCAN_SERVICE_QUEUE_CAP", "banana", 1);
  ::setenv("FDBSCAN_SERVICE_DISPATCHERS", "0", 1);
  ::setenv("FDBSCAN_SERVICE_SHARDS", "-2", 1);
  const ServiceConfig config = ServiceConfig::from_env();
  EXPECT_EQ(config.queue_capacity, ServiceConfig{}.queue_capacity);
  EXPECT_EQ(config.dispatchers, ServiceConfig{}.dispatchers);
  EXPECT_EQ(config.shards, ServiceConfig{}.shards);
  ::unsetenv("FDBSCAN_SERVICE_QUEUE_CAP");
  ::unsetenv("FDBSCAN_SERVICE_DISPATCHERS");
  ::unsetenv("FDBSCAN_SERVICE_SHARDS");
}

TEST(ServiceConfig, FromEnvReadsTheKnobs) {
  ::setenv("FDBSCAN_SERVICE_QUEUE_CAP", "5", 1);
  ::setenv("FDBSCAN_SERVICE_DISPATCHERS", "3", 1);
  const ServiceConfig config = ServiceConfig::from_env();
  EXPECT_EQ(config.queue_capacity, 5);
  EXPECT_EQ(config.dispatchers, 3);
  ::unsetenv("FDBSCAN_SERVICE_QUEUE_CAP");
  ::unsetenv("FDBSCAN_SERVICE_DISPATCHERS");
  const ServiceConfig defaults = ServiceConfig::from_env();
  EXPECT_EQ(defaults.queue_capacity, ServiceConfig{}.queue_capacity);
  EXPECT_EQ(defaults.dispatchers, ServiceConfig{}.dispatchers);
}

// --- Happy path ----------------------------------------------------------

TEST(ClusterService, SubmitMatchesDirectCluster) {
  const auto points = shared_points(5000, 17);
  const Parameters params{0.03f, 10};
  const auto expected = cluster(*points, params, {}, Method::kFdbscan);
  ASSERT_TRUE(expected.has_value());

  ClusterService service;
  RequestSpec submit{.params = params};
  submit.method = Method::kFdbscan;
  auto result = service.submit<2>("ds", points, submit).get();
  ASSERT_TRUE(result.has_value());
  // Parallel labelings may differ border-point-wise run to run (see
  // test_thread_invariance.cpp); core-ness and partition are invariant.
  const auto check = equivalent_clusterings(*points, params, *expected, *result);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result->is_core, expected->is_core);
  EXPECT_EQ(result->num_clusters, expected->num_clusters);
}

TEST(ClusterService, WarmEngineSharedAcrossConcurrentSubmits) {
  const auto points = shared_points(8000, 3);
  const Parameters params{0.03f, 10};
  ServiceConfig config;
  config.dispatchers = 4;
  config.queue_capacity = 32;
  ClusterService service(config);

  RequestSpec submit{.params = params};
  submit.method = Method::kFdbscan;  // point BVH: one build per dataset
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit<2>("shared", points, submit));
  }
  std::vector<Clustering> results;
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.has_value());
    results.push_back(*std::move(result));
  }
  for (const Clustering& c : results) {
    // Serialized on one engine, not racing: every run is a valid
    // clustering of the same dataset (labels may differ border-wise).
    EXPECT_EQ(c.is_core, results.front().is_core);
    EXPECT_EQ(c.num_clusters, results.front().num_clusters);
    const auto check =
        equivalent_clusterings(*points, params, results.front(), c);
    EXPECT_TRUE(check.ok) << check.message;
  }
  service.wait_idle();
  const auto stats = service.dataset_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].id, "shared");
  EXPECT_EQ(stats[0].runs, 8);
  EXPECT_EQ(stats[0].index_builds, 1) << "concurrent submits rebuilt the BVH";
}

TEST(ClusterService, DistinctDatasetsGetDistinctEngines) {
  const auto a = shared_points(3000, 1);
  const auto b = shared_points(3000, 2);
  const Parameters params{0.03f, 10};
  ClusterService service;
  auto fa = service.submit<2>("a", a, RequestSpec{.params = params});
  auto fb = service.submit<2>("b", b, RequestSpec{.params = params});
  EXPECT_TRUE(fa.get().has_value());
  EXPECT_TRUE(fb.get().has_value());
  service.wait_idle();
  EXPECT_EQ(service.dataset_stats().size(), 2u);
  const auto pool = service.pool_stats();
  EXPECT_EQ(pool.misses, 2);
  EXPECT_EQ(pool.engines, 2);
}

TEST(ClusterService, EnginePoolEvictsLeastRecentlyUsed) {
  const auto a = shared_points(2000, 4);
  const auto b = shared_points(2000, 5);
  const Parameters params{0.03f, 10};
  ServiceConfig config;
  config.engine_capacity = 1;
  ClusterService service(config);
  EXPECT_TRUE(service.submit<2>("a", a,
      RequestSpec{.params = params}).get().has_value());
  EXPECT_TRUE(service.submit<2>("b", b,
      RequestSpec{.params = params}).get().has_value());
  service.wait_idle();
  const auto pool = service.pool_stats();
  EXPECT_EQ(pool.engines, 1);
  EXPECT_GE(pool.evictions, 1);
  const auto stats = service.dataset_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].id, "b");  // "a" was the LRU victim
}

// --- Validation ----------------------------------------------------------

TEST(ClusterService, InvalidParametersFailAtSubmit) {
  const auto points = shared_points(100, 9);
  ClusterService service;
  auto future = service.submit<2>("ds", points,
                                  RequestSpec{.params = {0.0f, 10}});
  // The future is ready immediately: rejection happened on this thread.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto result = future.get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidEps);
  EXPECT_EQ(service.metrics().failed, 1);
}

TEST(ClusterService, NullPointsFailAtSubmit) {
  ClusterService service;
  auto result =
      service.submit<2>("ds", nullptr,
                        RequestSpec{.params = {0.01f, 10}}).get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInternal);
}

TEST(ClusterService, NonFinitePointsFailOnTheDispatcher) {
  auto bad = std::make_shared<std::vector<Point2>>(
      fdbscan::testing::random_points<2>(1000, 1.0f, 3));
  (*bad)[500][1] = std::numeric_limits<float>::quiet_NaN();
  ClusterService service;
  const std::shared_ptr<const std::vector<Point2>> frozen = bad;
  auto first = service.submit<2>("bad", frozen,
                                 RequestSpec{.params = {0.01f, 10}}).get();
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, ErrorCode::kNonFinitePoint);
  // The failed scan must not mark the dataset validated.
  auto second = service.submit<2>("bad", frozen,
                                  RequestSpec{.params = {0.01f, 10}}).get();
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::kNonFinitePoint);
  EXPECT_EQ(service.metrics().failed, 2);
}

// --- Backpressure --------------------------------------------------------

TEST(ClusterService, FullQueueRejectsDeterministically) {
  const auto big = shared_points(150000, 7);
  const auto tiny = shared_points(64, 8);
  const Parameters params{0.05f, 10};
  ServiceConfig config;
  config.dispatchers = 1;
  config.queue_capacity = 3;
  ClusterService service(config);

  // Occupy the single dispatcher with a long run we can cancel later.
  auto blocker_token = std::make_shared<CancelToken>();
  RequestSpec blocking{.params = params};
  blocking.token = blocker_token;
  auto blocker = service.submit<2>("blocker", big, blocking);
  ASSERT_TRUE(wait_until(service, [](const ServiceMetrics& m) {
    return m.active == 1 && m.queued == 0;
  })) << "blocker never reached a dispatcher";

  // With the dispatcher busy and the queue empty, cap + K submits admit
  // exactly cap and reject exactly K — no timing dependence.
  constexpr int kExtra = 5;
  std::vector<std::future<ServiceResult>> burst;
  for (int i = 0; i < config.queue_capacity + kExtra; ++i) {
    burst.push_back(service.submit<2>("tiny", tiny,
                                      RequestSpec{.params = params}));
  }
  int rejected = 0;
  int accepted = 0;
  for (auto& f : burst) {
    // Rejected futures are ready now; accepted ones resolve once the
    // blocker is cancelled below. Inspect readiness first.
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const auto result = f.get();
      ASSERT_FALSE(result.has_value());
      EXPECT_EQ(result.error().code, ErrorCode::kQueueFull);
      ++rejected;
    } else {
      ++accepted;
    }
  }
  EXPECT_EQ(rejected, kExtra);
  EXPECT_EQ(accepted, config.queue_capacity);
  EXPECT_EQ(service.metrics().rejected, kExtra);

  blocker_token->request_cancel();
  const auto blocked = blocker.get();
  ASSERT_FALSE(blocked.has_value());
  EXPECT_EQ(blocked.error().code, ErrorCode::kCancelled);
  service.wait_idle();
}

// --- Cancellation through the service ------------------------------------

TEST(ClusterService, CancelQueuedRequestNeverRuns) {
  const auto big = shared_points(150000, 11);
  const auto tiny = shared_points(64, 12);
  const Parameters params{0.05f, 10};
  ServiceConfig config;
  config.dispatchers = 1;
  ClusterService service(config);

  auto blocker_token = std::make_shared<CancelToken>();
  RequestSpec blocking{.params = params};
  blocking.token = blocker_token;
  auto blocker = service.submit<2>("blocker", big, blocking);
  ASSERT_TRUE(wait_until(
      service, [](const ServiceMetrics& m) { return m.active == 1; }));

  auto queued_token = std::make_shared<CancelToken>();
  RequestSpec cancellable{.params = params};
  cancellable.token = queued_token;
  auto queued = service.submit<2>("victim", tiny, cancellable);
  queued_token->request_cancel();
  blocker_token->request_cancel();

  const auto result = queued.get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
  service.wait_idle();
  // The cancelled request was dropped before touching the pool: no
  // engine was ever built for its dataset.
  for (const auto& d : service.dataset_stats()) {
    EXPECT_NE(d.id, "victim");
  }
}

TEST(ClusterService, CancelRunningRequestLeavesEngineReusable) {
  const auto points = shared_points(100000, 13);
  const Parameters params{0.05f, 10};
  const auto expected = cluster(*points, params, {}, Method::kFdbscan);
  ASSERT_TRUE(expected.has_value());

  ClusterService service;
  RequestSpec submit{.params = params};
  submit.method = Method::kFdbscan;
  submit.token = std::make_shared<CancelToken>();
  auto doomed = service.submit<2>("ds", points, submit);
  wait_until(service, [](const ServiceMetrics& m) { return m.active >= 1; });
  submit.token->request_cancel();
  const auto result = doomed.get();
  if (!result.has_value()) {
    EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
  }
  // Same dataset, fresh request: the pooled engine survived the unwind.
  RequestSpec fresh{.params = params};
  fresh.method = Method::kFdbscan;
  const auto again = service.submit<2>("ds", points, fresh).get();
  ASSERT_TRUE(again.has_value());
  const auto check = equivalent_clusterings(*points, params, *expected, *again);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(again->is_core, expected->is_core);
}

// --- Deadlines -----------------------------------------------------------

TEST(ClusterService, ZeroDeadlineFailsFastWithoutKernels) {
  const auto points = shared_points(10000, 14);
  ClusterService service;
  const exec::KernelProfileSnapshot before = exec::kernel_profile();
  RequestSpec strict{.params = {0.03f, 10}};
  strict.deadline_ms = 0.0;
  auto future = service.submit<2>("ds", points, strict);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto result = future.get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExceeded);
  const exec::KernelProfileSnapshot after = exec::kernel_profile();
  EXPECT_EQ(after.launches, before.launches) << "zero deadline ran kernels";
  EXPECT_EQ(service.metrics().deadline_exceeded, 1);
}

TEST(ClusterService, DeadlineExpiresMidRun) {
  const auto points = shared_points(200000, 15);
  ClusterService service;
  RequestSpec strict{.params = {0.05f, 10}};
  strict.deadline_ms = 2.0;  // far below this run's wall time
  const auto result =
      service.submit<2>("ds", points, strict).get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().deadline_exceeded, 1);
}

TEST(ClusterService, TokenReuseAfterDeadlineIsNotCancelledByStaleEntry) {
  // Regression: the watchdog heap keeps a request's deadline entry until
  // it comes due. A caller that completed well inside the deadline,
  // reset() the token, and resubmitted it used to get the new request
  // cancelled when the first request's (now stale) deadline fired. The
  // per-request generation captured at registration makes that firing a
  // no-op.
  const auto points = shared_points(2000, 22);
  const Parameters params{0.03f, 10};
  ClusterService service;
  auto token = std::make_shared<CancelToken>();
  RequestSpec with_deadline{.params = params};
  with_deadline.deadline_ms = 300.0;
  with_deadline.token = token;
  ASSERT_TRUE(
      service.submit<2>("ds", points, with_deadline).get().has_value());
  ASSERT_FALSE(token->cancelled());

  token->reset();
  // Let the first request's deadline come due while the token is armed
  // for its next use; the stale entry must not raise it.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(token->cancelled())
      << "stale watchdog deadline cancelled a reset token";

  RequestSpec reuse{.params = params};
  reuse.token = token;  // no deadline this time
  const auto result = service.submit<2>("ds", points, reuse).get();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(token->cancelled());
  service.wait_idle();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.deadline_exceeded, 0);
  EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled +
                             m.deadline_exceeded + m.failed);
}

TEST(ClusterService, ZeroDeadlineDoesNotPoisonCallersSharedToken) {
  // Regression: the deadline_ms <= 0 fast-fail used to raise the
  // request's token unconditionally. With a caller-supplied token shared
  // across requests, that rejection cancelled the caller's *other*
  // in-flight work. Only service-private tokens may be raised there.
  const auto points = shared_points(2000, 23);
  const Parameters params{0.03f, 10};
  ClusterService service;
  auto shared_token = std::make_shared<CancelToken>();

  RequestSpec expired{.params = params};
  expired.deadline_ms = 0.0;
  expired.token = shared_token;
  const auto rejected = service.submit<2>("ds", points, expired).get();
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(shared_token->cancelled())
      << "fast-fail poisoned a caller-owned token";

  // A sibling request sharing the token still completes.
  RequestSpec sibling{.params = params};
  sibling.token = shared_token;
  EXPECT_TRUE(service.submit<2>("ds", points, sibling).get().has_value());

  // The service-private case still fails fast the same way (nothing to
  // observe about the token; the error and the metrics are the contract).
  RequestSpec private_expired{.params = params};
  private_expired.deadline_ms = -1.0;
  const auto rejected2 =
      service.submit<2>("ds", points, private_expired).get();
  ASSERT_FALSE(rejected2.has_value());
  EXPECT_EQ(rejected2.error().code, ErrorCode::kDeadlineExceeded);

  service.wait_idle();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.deadline_exceeded, 2);
  EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled +
                             m.deadline_exceeded + m.failed);
}

TEST(ClusterService, ShardedExecutorCacheIsBoundedWithEvictionsCounted) {
  // Regression: EngineHolder::sharded grew one warm ShardedEngine (with
  // ghost replicas of the dataset) per distinct shard count, forever.
  // The holder now keeps an LRU of kShardedCapacity (2) and reports
  // evictions through DatasetStats.
  const auto points = shared_points(3000, 24);
  const Parameters params{0.03f, 10};
  ClusterService service;
  auto run_sharded = [&](std::int32_t shards) {
    RequestSpec submit{.params = params};
    submit.shards = shards;
    return service.submit<2>("ds", points, submit).get();
  };
  ASSERT_TRUE(run_sharded(2).has_value());
  ASSERT_TRUE(run_sharded(3).has_value());
  service.wait_idle();
  {
    const auto stats = service.dataset_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].sharded_evictions, 0);
    EXPECT_EQ(stats[0].runs, 2);
  }
  ASSERT_TRUE(run_sharded(4).has_value());  // third distinct count: evict
  service.wait_idle();
  {
    const auto stats = service.dataset_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].sharded_evictions, 1);
    EXPECT_EQ(stats[0].runs, 3) << "eviction lost retired run counts";
  }
  ASSERT_TRUE(run_sharded(2).has_value());  // evicted earlier: rebuild
  service.wait_idle();
  {
    const auto stats = service.dataset_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].sharded_evictions, 2);
    EXPECT_EQ(stats[0].runs, 4);
  }
}

TEST(ClusterService, GenerousDeadlineDoesNotFire) {
  const auto points = shared_points(2000, 16);
  ClusterService service;
  RequestSpec relaxed{.params = {0.03f, 10}};
  relaxed.deadline_ms = 60000.0;
  const auto result =
      service.submit<2>("ds", points, relaxed).get();
  EXPECT_TRUE(result.has_value());
  EXPECT_EQ(service.metrics().deadline_exceeded, 0);
}

// --- Shutdown ------------------------------------------------------------

TEST(ClusterService, ShutdownResolvesQueuedFuturesAsCancelled) {
  const auto big = shared_points(150000, 18);
  const auto tiny = shared_points(64, 19);
  const Parameters params{0.05f, 10};
  std::vector<std::future<ServiceResult>> queued;
  auto blocker_token = std::make_shared<CancelToken>();
  {
    ServiceConfig config;
    config.dispatchers = 1;
    ClusterService service(config);
    RequestSpec blocking{.params = params};
    blocking.token = blocker_token;
    queued.push_back(service.submit<2>("blocker", big, blocking));
    ASSERT_TRUE(wait_until(
        service, [](const ServiceMetrics& m) { return m.active == 1; }));
    queued.push_back(service.submit<2>("q1", tiny,
                                       RequestSpec{.params = params}));
    queued.push_back(service.submit<2>("q2", tiny,
                                       RequestSpec{.params = params}));
    blocker_token->request_cancel();  // let the dtor join promptly
  }
  // Destructor ran: every future must be resolved, queued ones cancelled.
  ASSERT_FALSE(queued[0].get().has_value());
  for (std::size_t i = 1; i < queued.size(); ++i) {
    const auto result = queued[i].get();
    ASSERT_FALSE(result.has_value()) << "queued request " << i;
    EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
  }
}

// --- Metrics -------------------------------------------------------------

TEST(ClusterService, TerminalCountsPartitionSubmitted) {
  const auto points = shared_points(2000, 20);
  const Parameters params{0.03f, 10};
  ClusterService service;
  EXPECT_TRUE(service.submit<2>("ds", points,
      RequestSpec{.params = params}).get().has_value());
  EXPECT_FALSE(
      service.submit<2>("ds", points,
                        RequestSpec{.params = {-1.0f, 10}}).get().has_value());
  RequestSpec strict{.params = params};
  strict.deadline_ms = 0.0;
  EXPECT_FALSE(service.submit<2>("ds", points, strict).get().has_value());
  service.wait_idle();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 3);
  EXPECT_EQ(m.queued, 0);
  EXPECT_EQ(m.active, 0);
  EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled +
                             m.deadline_exceeded + m.failed);
}

TEST(ClusterService, LatencyHistogramsCoverEveryDispatch) {
  const auto points = shared_points(2000, 21);
  const Parameters params{0.03f, 10};
  ClusterService service;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.submit<2>("ds", points,
        RequestSpec{.params = params}).get().has_value());
  }
  service.wait_idle();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.queue_wait.count, 4);
  EXPECT_EQ(m.run_time.count, 4);
  EXPECT_GT(m.run_time.total_ms, 0.0);
  EXPECT_GE(m.run_time.max_ms, m.run_time.total_ms / 4.0);
  std::int64_t bucket_sum = 0;
  for (std::int64_t b : m.run_time.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, m.run_time.count);
}

}  // namespace
}  // namespace fdbscan::service
