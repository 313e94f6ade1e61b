// Streaming sessions through ClusterService (service/service.h §14):
// open/append/expire/query ordering and equivalence, the pinned method's
// work on every query after an expiry, the engine-pool Pin
// under eviction pressure, per-op deadlines and cancellation, the
// kTokenBusy admission guard, RequestSpec validation, and the session
// capacity / invalid-session / failed-open error paths.
#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/fdbscan.h"
#include "core/validate.h"
#include "data/generators.h"
#include "data/sliding_window.h"
#include "test_utils.h"

namespace fdbscan::service {
namespace {

using exec::CancelToken;

std::shared_ptr<const std::vector<Point2>> shared_slice(
    const std::vector<Point2>& points, std::int64_t lo, std::int64_t hi) {
  return std::make_shared<const std::vector<Point2>>(
      points.begin() + static_cast<std::ptrdiff_t>(lo),
      points.begin() + static_cast<std::ptrdiff_t>(hi));
}

// --- RequestSpec validation ---------------------------------------------

TEST(RequestSpecSubmit, SharedValidationRejectsBadScalars) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(10, 1.0f, 1));
  RequestSpec spec;
  spec.params = Parameters{-1.0f, 5};
  const ServiceResult r = service.submit<2>("d", points, spec).get();
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidEps);
  RequestSpec bad_shards;
  bad_shards.params = Parameters{0.05f, 5};
  bad_shards.shards = -2;
  const ServiceResult s = service.submit<2>("d", points, bad_shards).get();
  ASSERT_FALSE(s.has_value());
  EXPECT_EQ(s.error().code, ErrorCode::kInvalidShards);
}

// --- kTokenBusy ----------------------------------------------------------

TEST(TokenBusy, SharedTokenWithAnInFlightRequestIsRejected) {
  // One dispatcher + a large dataset: the first submit is still queued
  // or running when the second arrives sharing its token.
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::clustered_points<2>(60000, 8, 1.0f, 0.01f, 7));
  auto token = std::make_shared<CancelToken>();
  RequestSpec spec;
  spec.params = Parameters{0.02f, 5};
  spec.token = token;
  auto first = service.submit<2>("big", points, spec);
  auto second = service.submit<2>("big", points, spec);
  const ServiceResult r2 = second.get();
  ASSERT_FALSE(r2.has_value());
  EXPECT_EQ(r2.error().code, ErrorCode::kTokenBusy);
  const ServiceResult r1 = first.get();
  EXPECT_TRUE(r1.has_value());
  // The token frees up once the first request resolved.
  auto third = service.submit<2>("big", points, spec);
  const ServiceResult r3 = third.get();
  EXPECT_TRUE(r3.has_value());
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.rejected, 1);
}

TEST(TokenBusy, ErrorCodeNamesRoundTrip) {
  EXPECT_STREQ(error_code_name(ErrorCode::kTokenBusy), "TokenBusy");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidSession), "InvalidSession");
  EXPECT_STREQ(error_code_name(ErrorCode::kSessionLimit), "SessionLimit");
}

// --- Session lifecycle and equivalence -----------------------------------

TEST(Session, SlidingWindowMatchesFromScratchThroughTheService) {
  ClusterService service(ServiceConfig{.dispatchers = 2});
  const auto arrivals = data::ngsim_like(2400, 5);
  const Parameters params{0.02f, 5};
  data::SlidingWindow<2> driver(arrivals, 900, 300);

  // Seed the session with the first batch.
  data::WindowStep<2> s0 = driver.next();
  RequestSpec spec;
  spec.params = params;
  auto opened = service.open_session<2>(
      "traj", std::make_shared<const std::vector<Point2>>(
                  s0.batch.begin(), s0.batch.end()),
      spec);
  ASSERT_TRUE(opened.has_value()) << opened.error().message;
  ClusterService::Session session = std::move(*opened);

  std::int64_t step = 0;
  while (!driver.done()) {
    const data::WindowStep<2> s = driver.next();
    auto expired = session.expire(s.expire_before);
    auto appended = session.append<2>(
        std::make_shared<const std::vector<Point2>>(s.batch.begin(),
                                                    s.batch.end()));
    auto queried = session.query();
    const SessionResult e = expired.get();
    ASSERT_TRUE(e.has_value()) << "step " << step << ": " << e.error().message;
    const SessionResult a = appended.get();
    ASSERT_TRUE(a.has_value()) << "step " << step << ": " << a.error().message;
    EXPECT_EQ(a->first_seq, s.first_seq);
    EXPECT_EQ(a->next_seq, s.first_seq + static_cast<std::int64_t>(
                                             s.batch.size()));
    EXPECT_EQ(a->live_points, s.live_count);
    const ServiceResult q = queried.get();
    ASSERT_TRUE(q.has_value()) << "step " << step << ": " << q.error().message;
    const std::vector<Point2> live = driver.live_points();
    const Clustering reference = fdbscan(live, params);
    const auto check = equivalent_clusterings(live, params, reference, *q);
    EXPECT_TRUE(check.ok) << "step " << step << ": " << check.message;
    ++step;
  }
  session.close();
  service.wait_idle();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.session_opened, 1);
  EXPECT_EQ(m.sessions_open, 0);
  EXPECT_EQ(m.session_appends, step);
  EXPECT_EQ(m.session_queries, step);
  EXPECT_GT(m.session_expires, 0);
  EXPECT_GT(m.session_rebuilds, 0);
}

TEST(Session, AppendsBelowThresholdReportZeroRebuilds) {
  ClusterService service(ServiceConfig{.dispatchers = 2});
  const auto points =
      fdbscan::testing::clustered_points<2>(4000, 6, 1.0f, 0.02f, 11);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 5};
  auto opened =
      service.open_session<2>("warm", shared_slice(points, 0, 3600), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  const ServiceResult first = session.query().get();
  ASSERT_TRUE(first.has_value()) << first.error().message;
  EXPECT_EQ(first->timings.index_rebuilds, 1);  // the lazy initial build
  for (std::int64_t lo = 3600; lo < 4000; lo += 100) {
    const SessionResult a =
        session.append<2>(shared_slice(points, lo, lo + 100)).get();
    ASSERT_TRUE(a.has_value()) << a.error().message;
    EXPECT_EQ(a->rebuilds, 1);  // still only the initial build
    const ServiceResult q = session.query().get();
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->timings.index_rebuilds, 0) << "append at " << lo;
  }
  session.close();
  service.wait_idle();
  EXPECT_EQ(service.metrics().session_rebuilds, 1);
}

TEST(Session, ExpiryQueriesDoTheWorkOfThePinnedMethod) {
  // A session pins spec.method: every query after an expiry reclusters
  // the window exactly like cluster(live, params, {}, method) — same
  // work counters, core flags and cluster count.
  ClusterService service(ServiceConfig{.dispatchers = 2});
  const auto points = data::ngsim_like(3000, 59);
  const Parameters params{0.02f, 5};
  for (const Method method :
       {Method::kFdbscan, Method::kDensebox, Method::kAuto}) {
    SCOPED_TRACE(static_cast<int>(method));
    RequestSpec spec;
    spec.params = params;
    spec.method = method;
    auto opened = service.open_session<2>(
        "method" + std::to_string(static_cast<int>(method)),
        shared_slice(points, 0, 2000), spec);
    ASSERT_TRUE(opened.has_value()) << opened.error().message;
    ClusterService::Session session = std::move(*opened);
    for (std::int64_t lo = 2000; lo < 3000; lo += 250) {
      auto appended = session.append<2>(shared_slice(points, lo, lo + 250));
      auto expired = session.expire(lo - 2000 + 250);
      const ServiceResult q = session.query().get();
      ASSERT_TRUE(appended.get().has_value());
      ASSERT_TRUE(expired.get().has_value());
      ASSERT_TRUE(q.has_value()) << q.error().message;
      const std::vector<Point2> live(points.begin() + (lo - 2000 + 250),
                                     points.begin() + lo + 250);
      const Clustering ref = *cluster(live, params, Options{}, method);
      EXPECT_EQ(q->distance_computations, ref.distance_computations)
          << "window ending at " << lo + 250;
      EXPECT_EQ(q->index_nodes_visited, ref.index_nodes_visited);
      EXPECT_EQ(q->is_core, ref.is_core);
      EXPECT_EQ(q->num_clusters, ref.num_clusters);
      EXPECT_TRUE(equivalent_clusterings(live, params, ref, *q).ok);
    }
    session.close();
  }
}

TEST(Session, QueryObservesExactlyThePrecedingMutations) {
  // Interleave without waiting: ops of one session must apply in
  // submission order even with several dispatchers racing to pick them
  // up, so each query sees a well-defined prefix of the mutation stream.
  ClusterService service(ServiceConfig{.dispatchers = 4});
  const auto points =
      fdbscan::testing::random_points<2>(1200, 1.0f, 13);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened =
      service.open_session<2>("order", shared_slice(points, 0, 400), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  std::vector<std::future<ServiceResult>> queries;
  std::vector<std::int64_t> expected_sizes;
  std::int64_t live = 400;
  for (std::int64_t lo = 400; lo < 1200; lo += 200) {
    auto appended = session.append<2>(shared_slice(points, lo, lo + 200));
    (void)appended;
    live += 200;
    expected_sizes.push_back(live);
    queries.push_back(session.query());
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ServiceResult q = queries[i].get();
    ASSERT_TRUE(q.has_value()) << q.error().message;
    EXPECT_EQ(static_cast<std::int64_t>(q->labels.size()), expected_sizes[i])
        << "query " << i;
  }
  session.close();
}

// --- Pin under eviction pressure -----------------------------------------

TEST(Session, PinKeepsTheEngineResidentUnderEvictionPressure) {
  ClusterService service(
      ServiceConfig{.dispatchers = 2, .engine_capacity = 1});
  const auto points =
      fdbscan::testing::clustered_points<2>(1500, 4, 1.0f, 0.02f, 17);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 5};
  auto opened = service.open_session<2>("pinned",
                                        shared_slice(points, 0, 1000), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  const ServiceResult before = session.query().get();
  ASSERT_TRUE(before.has_value()) << before.error().message;

  // Churn the capacity-1 pool with other datasets: without the Pin the
  // LRU would evict the session's entry.
  const auto churn = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(500, 1.0f, 19));
  for (int i = 0; i < 4; ++i) {
    RequestSpec one_shot;
    one_shot.params = Parameters{0.05f, 5};
    const ServiceResult r =
        service.submit<2>("churn-" + std::to_string(i), churn, one_shot)
            .get();
    ASSERT_TRUE(r.has_value());
  }
  const EnginePoolStats pressured = service.pool_stats();
  EXPECT_EQ(pressured.pinned, 1);
  EXPECT_GE(pressured.engines, 1);

  // The session keeps working and matches a from-scratch run.
  const SessionResult a =
      session.append<2>(shared_slice(points, 1000, 1500)).get();
  ASSERT_TRUE(a.has_value()) << a.error().message;
  const ServiceResult after = session.query().get();
  ASSERT_TRUE(after.has_value()) << after.error().message;
  const Parameters params{0.05f, 5};
  const Clustering reference = fdbscan(points, params);
  const auto check = equivalent_clusterings(points, params, reference, *after);
  EXPECT_TRUE(check.ok) << check.message;

  // Closing releases the Pin; the next churn shrinks the pool back. The
  // dispatcher drops its Request (and the last SessionState reference)
  // just after wait_idle() can return, so poll for the release.
  session.close();
  service.wait_idle();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.pool_stats().pinned != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RequestSpec one_shot;
  one_shot.params = Parameters{0.05f, 5};
  ASSERT_TRUE(service.submit<2>("churn-final", churn, one_shot).get()
                  .has_value());
  const EnginePoolStats released = service.pool_stats();
  EXPECT_EQ(released.pinned, 0);
  EXPECT_EQ(released.engines, 1);
}

// --- Deadlines and cancellation ------------------------------------------

TEST(Session, NonPositiveDeadlineFailsFastWithoutMutating) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points =
      fdbscan::testing::random_points<2>(600, 1.0f, 23);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened =
      service.open_session<2>("dl", shared_slice(points, 0, 300), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  const SessionResult a =
      session.append<2>(shared_slice(points, 300, 600), 0.0).get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kDeadlineExceeded);
  const ServiceResult q = session.query().get();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->labels.size(), 300u);  // the failed append mutated nothing
  session.close();
}

TEST(Session, RaisedTokenCancelsAQueuedOpAndTheSessionSurvives) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points =
      fdbscan::testing::random_points<2>(900, 1.0f, 29);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened =
      service.open_session<2>("cancel", shared_slice(points, 0, 300), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  auto token = std::make_shared<CancelToken>();
  token->request_cancel(exec::CancelReason::kCancelled);
  const SessionResult a = session
                              .append<2>(shared_slice(points, 300, 600),
                                         kNoDeadline, token)
                              .get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kCancelled);
  // The turnstile skipped the cancelled ticket: later ops still run.
  const SessionResult b =
      session.append<2>(shared_slice(points, 600, 900)).get();
  ASSERT_TRUE(b.has_value()) << b.error().message;
  EXPECT_EQ(b->live_points, 600);
  const ServiceResult q = session.query().get();
  ASSERT_TRUE(q.has_value()) << q.error().message;
  EXPECT_EQ(q->labels.size(), 600u);
  session.close();
}

TEST(Session, PerOpDeadlineAppliesToAppendMidFlight) {
  // A large append under a short deadline: the watchdog raises the op's
  // token while it is queued or during the eager index build its
  // compaction starts (which gives up quietly). Either the deadline
  // failed the append before it applied, or the append beat the clock;
  // both leave the session consistent, which the follow-up query proves.
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points =
      fdbscan::testing::clustered_points<2>(40000, 8, 1.0f, 0.01f, 31);
  RequestSpec spec;
  spec.params = Parameters{0.02f, 5};
  auto opened =
      service.open_session<2>("mid", shared_slice(points, 0, 4000), spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  ASSERT_TRUE(session.query().get().has_value());
  const SessionResult a =
      session.append<2>(shared_slice(points, 4000, 40000), 5.0).get();
  std::int64_t expected = 36000 + 4000;
  if (!a.has_value()) {
    EXPECT_EQ(a.error().code, ErrorCode::kDeadlineExceeded);
    expected = 4000;  // never applied
  }
  const ServiceResult q = session.query().get();
  ASSERT_TRUE(q.has_value()) << q.error().message;
  EXPECT_EQ(static_cast<std::int64_t>(q->labels.size()), expected);
  session.close();
}

// --- Error paths ---------------------------------------------------------

TEST(Session, CapacityLimitRejectsTheNextOpen) {
  ClusterService service(
      ServiceConfig{.dispatchers = 1, .session_capacity = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(100, 1.0f, 37));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto first = service.open_session<2>("a", points, spec);
  ASSERT_TRUE(first.has_value());
  auto second = service.open_session<2>("b", points, spec);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::kSessionLimit);
  first->close();
  auto third = service.open_session<2>("c", points, spec);
  EXPECT_TRUE(third.has_value());
}

TEST(Session, ClosedOrEmptyHandlesRejectWithInvalidSession) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(100, 1.0f, 41));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened = service.open_session<2>("x", points, spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  session.close();
  const SessionResult a = session.append<2>(points).get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kInvalidSession);
  ClusterService::Session empty;
  const ServiceResult q = empty.query().get();
  ASSERT_FALSE(q.has_value());
  EXPECT_EQ(q.error().code, ErrorCode::kInvalidSession);
}

TEST(Session, AppendDimensionMismatchIsRejected) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points2 = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(100, 1.0f, 43));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened = service.open_session<2>("dims", points2, spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  const auto points3 = std::make_shared<const std::vector<Point3>>(
      fdbscan::testing::random_points<3>(100, 1.0f, 43));
  const SessionResult a = session.append<3>(points3).get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kInvalidSession);
  session.close();
}

TEST(Session, ShardedSpecIsRejectedAtOpen) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(100, 1.0f, 47));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  spec.shards = 4;
  auto opened = service.open_session<2>("sharded", points, spec);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, ErrorCode::kInvalidShards);
}

TEST(Session, FailedOpenSurfacesOnEveryLaterOp) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  auto bad = std::make_shared<std::vector<Point2>>(
      fdbscan::testing::random_points<2>(100, 1.0f, 53));
  (*bad)[50][0] = std::numeric_limits<float>::quiet_NaN();
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened = service.open_session<2>(
      "bad", std::shared_ptr<const std::vector<Point2>>(bad), spec);
  ASSERT_TRUE(opened.has_value());  // failure surfaces asynchronously
  ClusterService::Session session = std::move(*opened);
  const ServiceResult q = session.query().get();
  ASSERT_FALSE(q.has_value());
  EXPECT_EQ(q.error().code, ErrorCode::kNonFinitePoint);
  const SessionResult a = session
                              .append<2>(std::make_shared<
                                         const std::vector<Point2>>(
                                  fdbscan::testing::random_points<2>(10, 1.0f,
                                                                     59)))
                              .get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kNonFinitePoint);
  session.close();
}

TEST(Session, CancelledOpenPoisonsTheSessionForEveryLaterOp) {
  // The spec's token governs the open op; pre-raising it makes the open
  // unwind by exception on the dispatcher, leaving the session's stream
  // and accessors null. Every later op must surface the open's error —
  // not call through the null pointers.
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(400, 1.0f, 61));
  auto token = std::make_shared<CancelToken>();
  token->request_cancel(exec::CancelReason::kCancelled);
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  spec.token = token;
  auto opened = service.open_session<2>("poisoned", points, spec);
  ASSERT_TRUE(opened.has_value());  // failure surfaces asynchronously
  ClusterService::Session session = std::move(*opened);
  const SessionResult a = session.append<2>(points).get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kCancelled);
  const SessionResult e = session.expire(100).get();
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, ErrorCode::kCancelled);
  const ServiceResult q = session.query().get();
  ASSERT_FALSE(q.has_value());
  EXPECT_EQ(q.error().code, ErrorCode::kCancelled);
  session.close();
}

TEST(Session, NonFiniteBatchIsRejectedWithoutMutating) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(200, 1.0f, 61));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened = service.open_session<2>("batch", points, spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  auto bad = std::make_shared<std::vector<Point2>>(
      fdbscan::testing::random_points<2>(50, 1.0f, 67));
  (*bad)[25][1] = std::numeric_limits<float>::infinity();
  const SessionResult a =
      session.append<2>(std::shared_ptr<const std::vector<Point2>>(bad))
          .get();
  ASSERT_FALSE(a.has_value());
  EXPECT_EQ(a.error().code, ErrorCode::kNonFinitePoint);
  const ServiceResult q = session.query().get();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->labels.size(), 200u);
  session.close();
}

// --- Telemetry -----------------------------------------------------------

TEST(Session, SnapshotSerializersCarryTheSessionFamilies) {
  ClusterService service(ServiceConfig{.dispatchers = 1});
  const auto points = std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::random_points<2>(200, 1.0f, 71));
  RequestSpec spec;
  spec.params = Parameters{0.05f, 3};
  auto opened = service.open_session<2>("telemetry", points, spec);
  ASSERT_TRUE(opened.has_value());
  ClusterService::Session session = std::move(*opened);
  ASSERT_TRUE(session.query().get().has_value());
  const ServiceSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.metrics.sessions_open, 1);
  EXPECT_EQ(snap.metrics.session_opened, 1);
  EXPECT_EQ(snap.metrics.session_queries, 1);
  const std::string prom = to_prometheus_text(snap);
  EXPECT_NE(prom.find("fdbscan_service_sessions_open"), std::string::npos);
  EXPECT_NE(prom.find("fdbscan_service_session_opened_total"),
            std::string::npos);
  EXPECT_NE(prom.find("session_capacity="), std::string::npos);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"session_capacity\":"), std::string::npos);
  session.close();
}

}  // namespace
}  // namespace fdbscan::service
