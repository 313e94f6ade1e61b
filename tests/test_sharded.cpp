// ShardedEngine (shard/sharded_engine.h): sharded-vs-single-engine
// equivalence across worker and shard counts, degenerate decompositions,
// plan/engine amortization, typed-error validation, and the sharded path
// through ClusterService including cancellation mid-shard.
#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "core/fdbscan.h"
#include "core/validate.h"
#include "distributed/distributed_dbscan.h"
#include "service/service.h"
#include "test_utils.h"

namespace fdbscan::shard {
namespace {

struct ShardCase {
  std::int32_t shards;
  std::int64_t n;
  float eps;
  std::int32_t minpts;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const ShardCase& c) {
    return os << c.shards << " shards n=" << c.n << " eps=" << c.eps
              << " minpts=" << c.minpts << " seed=" << c.seed;
  }
};

class ShardedGroundTruth : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardedGroundTruth, MatchesBruteForce) {
  const auto c = GetParam();
  auto points = testing::clustered_points<2>(c.n, 5, 1.0f, c.eps, c.seed);
  const Parameters params{c.eps, c.minpts};
  ShardedEngine<2> engine(points, c.shards);
  const auto result = engine.run(params);
  const auto check = matches_ground_truth(points, params, result.clustering);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedGroundTruth,
    ::testing::Values(ShardCase{1, 500, 0.02f, 5, 601},
                      ShardCase{2, 500, 0.02f, 5, 602},
                      ShardCase{4, 800, 0.03f, 8, 603},
                      ShardCase{5, 1000, 0.01f, 4, 604},
                      ShardCase{4, 600, 0.02f, 2, 605},   // FoF path
                      ShardCase{3, 600, 0.05f, 1, 606},   // minpts=1
                      ShardCase{4, 400, 0.5f, 10, 607},   // huge halos
                      ShardCase{8, 200, 0.02f, 5, 608}));  // tiny shards

// The tentpole's correctness gate in test form: sharded labels are
// equivalent to single-engine labels (up to cluster renumbering), with
// bit-identical core flags and cluster counts, at every (workers, shards)
// combination the issue names.
TEST(Sharded, AgreesWithSingleEngineAcrossWorkerAndShardCounts) {
  auto points = testing::clustered_points<2>(4000, 6, 1.0f, 0.02f, 611);
  const Parameters params{0.03f, 10};
  Engine<2> reference_engine(points);
  const Clustering reference = reference_engine.run(params);
  for (int workers : {1, 2, 8}) {
    testing::ScopedThreads threads(workers);
    for (std::int32_t shards : {1, 2, 4}) {
      ShardedEngine<2> engine(points, shards);
      const auto result = engine.run(params);
      const auto check = equivalent_clusterings(points, params, reference,
                                                result.clustering);
      EXPECT_TRUE(check.ok)
          << "workers=" << workers << " shards=" << shards << ": "
          << check.message;
      EXPECT_EQ(result.clustering.is_core, reference.is_core)
          << "workers=" << workers << " shards=" << shards;
      EXPECT_EQ(result.clustering.num_clusters, reference.num_clusters)
          << "workers=" << workers << " shards=" << shards;
    }
  }
}

// Work counters on the sharded path are real (non-zero) and, like the
// single-engine ones, invariant to the worker count — as are the core
// flags and the cluster count. minpts 2 takes the FoF path, which skips
// the preprocessing wave.
TEST(Sharded, WorkCountersReportedAndWorkerInvariant) {
  auto points = testing::clustered_points<2>(2000, 5, 1.0f, 0.02f, 612);
  for (std::int32_t minpts : {10, 2}) {
    const Parameters params{0.03f, minpts};
    std::optional<Clustering> first;
    for (int workers : {1, 2, 8}) {
      testing::ScopedThreads threads(workers);
      ShardedEngine<2> engine(points, 3);
      const auto result = engine.run(params);
      const Clustering& c = result.clustering;
      EXPECT_GT(c.distance_computations, 0);
      EXPECT_GT(c.index_nodes_visited, 0);
      if (!first) {
        first = c;
        continue;
      }
      EXPECT_EQ(c.distance_computations, first->distance_computations)
          << "minpts=" << minpts << " workers=" << workers;
      EXPECT_EQ(c.index_nodes_visited, first->index_nodes_visited)
          << "minpts=" << minpts << " workers=" << workers;
      EXPECT_EQ(c.is_core, first->is_core)
          << "minpts=" << minpts << " workers=" << workers;
      EXPECT_EQ(c.num_clusters, first->num_clusters)
          << "minpts=" << minpts << " workers=" << workers;
    }
  }
}

// Four well-separated Gaussian blobs plus isolated stragglers. Blob
// centers sit 0.5 apart with sigma 0.015, so at eps = 0.05 no point is
// within eps of core points of two different clusters: the border
// assignment is unique, which lets the tests below demand bit-identical
// labels across worker counts rather than equivalence up to border flips.
std::vector<Point2> separated_blobs(std::int64_t per_blob,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> gauss(0.0f, 0.015f);
  const float centers[4][2] = {
      {0.25f, 0.25f}, {0.75f, 0.25f}, {0.25f, 0.75f}, {0.75f, 0.75f}};
  std::vector<Point2> points;
  points.reserve(static_cast<std::size_t>(4 * per_blob + 3));
  for (const auto& c : centers) {
    for (std::int64_t i = 0; i < per_blob; ++i) {
      points.push_back(Point2{{c[0] + gauss(rng), c[1] + gauss(rng)}});
    }
  }
  points.push_back(Point2{{0.50f, 0.02f}});
  points.push_back(Point2{{0.02f, 0.50f}});
  points.push_back(Point2{{0.98f, 0.50f}});
  return points;
}

void expect_bit_identical(const Clustering& got, const Clustering& want,
                          const char* what) {
  EXPECT_EQ(got.labels, want.labels) << what;
  EXPECT_EQ(got.is_core, want.is_core) << what;
  EXPECT_EQ(got.num_clusters, want.num_clusters) << what;
  EXPECT_EQ(got.distance_computations, want.distance_computations) << what;
  EXPECT_EQ(got.index_nodes_visited, want.index_nodes_visited) << what;
  EXPECT_EQ(got.num_dense_cells, want.num_dense_cells) << what;
  EXPECT_EQ(got.points_in_dense_cells, want.points_in_dense_cells) << what;
}

// The barrier waves (index, pre, main per shard, then the stitch) give
// bit-identical labels, core flags, work counters and shard telemetry at
// 1, 2 and 8 workers: work counters use striped accumulators folded in
// slot order and the dataset admits a unique partition. The suite name
// dates from when the same check compared task-graph staging to the waves.
TEST(GraphEquivalence, ShardedBitIdenticalAcrossWorkers) {
  const auto points = separated_blobs(250, 904);
  const Parameters params{0.05f, 5};
  for (std::int32_t shards : {2, 3}) {
    ShardedEngine<2> engine(points, shards);
    std::optional<ShardedResult> first;
    for (int workers : {1, 2, 8}) {
      testing::ScopedThreads threads(workers);
      ShardedResult result = engine.run(params);
      if (!first) {
        first = std::move(result);
        continue;
      }
      const Clustering& c = result.clustering;
      const Clustering& want = first->clustering;
      expect_bit_identical(c, want, "sharded");
      EXPECT_EQ(c.num_shards, want.num_shards);
      EXPECT_EQ(c.shard_ghosts, want.shard_ghosts);
      EXPECT_EQ(c.shard_cross_edges, want.shard_cross_edges);
      EXPECT_EQ(c.shard_halo_bytes, want.shard_halo_bytes);
      ASSERT_EQ(result.shards.size(), first->shards.size());
      for (std::size_t s = 0; s < result.shards.size(); ++s) {
        EXPECT_EQ(result.shards[s].owned, first->shards[s].owned);
        EXPECT_EQ(result.shards[s].ghosts, first->shards[s].ghosts);
        EXPECT_EQ(result.shards[s].cross_edges, first->shards[s].cross_edges);
      }
    }
  }
}

// FoF fast path (minpts 2 skips the preprocessing wave): still
// bit-identical across worker counts.
TEST(GraphEquivalence, ShardedFofPathBitIdentical) {
  const auto points = separated_blobs(150, 905);
  const Parameters fof{0.05f, 2};
  ShardedEngine<2> engine(points, 3);
  std::optional<Clustering> first;
  for (int workers : {1, 8}) {
    testing::ScopedThreads threads(workers);
    Clustering c = engine.run(fof).clustering;
    if (!first) {
      first = std::move(c);
      continue;
    }
    expect_bit_identical(c, *first, "sharded fof");
  }
}

TEST(Sharded, StatsPartitionThePoints) {
  auto points = testing::random_points<2>(2000, 1.0f, 613);
  ShardedEngine<2> engine(points, 4);
  const auto result = engine.run(Parameters{0.05f, 5});
  ASSERT_EQ(result.shards.size(), 4u);
  std::int64_t owned = 0;
  for (const auto& s : result.shards) {
    owned += s.owned;
    EXPECT_GE(s.ghosts, 0);
    EXPECT_EQ(s.halo_bytes,
              static_cast<std::int64_t>(s.ghosts) *
                  static_cast<std::int64_t>(sizeof(Point2) +
                                            sizeof(std::int32_t) +
                                            sizeof(std::uint8_t)));
  }
  EXPECT_EQ(owned, 2000);
  EXPECT_GT(result.clustering.shard_ghosts, 0);
  EXPECT_EQ(result.clustering.num_shards, 4);
}

TEST(Sharded, OneShardHasNoGhostsOrCrossEdges) {
  auto points = testing::random_points<2>(1000, 1.0f, 614);
  ShardedEngine<2> engine(points, 1);
  const auto result = engine.run(Parameters{0.05f, 5});
  EXPECT_EQ(result.clustering.shard_ghosts, 0);
  EXPECT_EQ(result.clustering.shard_cross_edges, 0);
  EXPECT_EQ(result.clustering.shard_halo_bytes, 0);
  EXPECT_EQ(result.shards[0].owned, 1000);
}

// A cluster straddling the slab boundary must be stitched into one, with
// the boundary work visible in the stats.
TEST(Sharded, CrossShardClustersAreStitched) {
  std::vector<Point2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({{0.5f + 0.0005f * static_cast<float>(i - 100), 0.5f}});
  }
  points.push_back({{0.0f, 0.0f}});  // anchors: the split at x=0.5 cuts
  points.push_back({{1.0f, 1.0f}});  // the cluster
  const Parameters params{0.01f, 5};
  ShardedEngine<2> engine(points, 2);
  const auto result = engine.run(params);
  EXPECT_EQ(result.clustering.num_clusters, 1);
  EXPECT_GT(result.clustering.shard_cross_edges, 0);
  EXPECT_GT(result.clustering.shard_halo_bytes, 0);
  // Each wave is barrier-bounded, so its kernel profile is the launches
  // of that phase alone.
  const PhaseTimings& t = result.clustering.timings;
  EXPECT_GT(t.index_construction_profile.launches, 0);
  EXPECT_GT(t.preprocessing_profile.launches, 0);
  EXPECT_GT(t.main_profile.launches, 0);
}

// Heavy coordinate duplicates defeat even balanced cuts: two blobs at
// duplicated axis coordinates collapse the quantiles, ties all stay in
// the lowest covering shard, and the squeezed-out shards own nothing —
// yet with a wide-enough eps their zero-width slabs still receive ghosts
// (the all-ghost shard degenerate case).
TEST(Sharded, EmptyAndAllGhostShards) {
  std::vector<Point2> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back({{0.1f, 0.5f + 0.001f * static_cast<float>(i)}});
    points.push_back({{0.9f, 0.5f + 0.001f * static_cast<float>(i)}});
  }
  const Parameters params{0.3f, 5};
  ShardedEngine<2> engine(points, 4);
  const auto result = engine.run(params);
  bool saw_all_ghost = false;
  for (const auto& s : result.shards) {
    if (s.owned == 0) {
      EXPECT_EQ(s.cross_edges, 0);  // no owned points, no resolved edges
      if (s.ghosts > 0) saw_all_ghost = true;
    }
  }
  EXPECT_TRUE(saw_all_ghost) << "expected an owned-empty shard with ghosts";
  const auto check = matches_ground_truth(points, params, result.clustering);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result.clustering.num_clusters, 2);
}

// All points identical: the domain has zero width along every axis, so
// shard 0 owns everything and the others are empty. The empty shards'
// zero-width slabs all coincide with the points, so they still *report*
// every point as a ghost — a decomposition fact, not work: they own
// nothing, launch nothing, and resolve no edges.
TEST(Sharded, ZeroWidthDomain) {
  std::vector<Point2> points(10, Point2{{0.25f, 0.75f}});
  ShardedEngine<2> engine(points, 4);
  const auto result = engine.run(Parameters{0.1f, 5});
  EXPECT_EQ(result.shards[0].owned, 10);
  EXPECT_EQ(result.clustering.num_clusters, 1);
  for (std::int32_t r = 1; r < 4; ++r) {
    EXPECT_EQ(result.shards[static_cast<std::size_t>(r)].owned, 0);
    EXPECT_EQ(result.shards[static_cast<std::size_t>(r)].ghosts, 10);
    EXPECT_EQ(result.shards[static_cast<std::size_t>(r)].cross_edges, 0);
  }
}

TEST(Sharded, EmptyInput) {
  std::vector<Point2> points;
  ShardedEngine<2> engine(points, 3);
  const auto result = engine.run(Parameters{0.1f, 5});
  EXPECT_TRUE(result.clustering.labels.empty());
  EXPECT_EQ(result.shards.size(), 3u);
}

TEST(Sharded, RejectsNonPositiveShardCount) {
  auto points = testing::random_points<2>(10, 1.0f, 615);
  EXPECT_THROW(ShardedEngine<2>(points, 0), std::invalid_argument);
}

// Amortization: a repeat run at the same eps reuses the plan and every
// per-shard BVH; a new eps builds a new plan (new halos) but the old one
// stays cached.
TEST(Sharded, WarmShardEnginesAmortize) {
  auto points = testing::clustered_points<2>(3000, 5, 1.0f, 0.02f, 616);
  ShardedEngine<2> engine(points, 4);

  const auto first = engine.run(Parameters{0.03f, 10});
  EXPECT_GT(first.clustering.timings.index_rebuilds, 0);
  EXPECT_EQ(engine.counters().plans_built, 1);

  const auto warm = engine.run(Parameters{0.03f, 5});  // same eps, new minpts
  EXPECT_EQ(warm.clustering.timings.index_rebuilds, 0);
  EXPECT_EQ(warm.clustering.timings.workspace_reallocs, 0);
  EXPECT_EQ(engine.counters().plans_built, 1);
  EXPECT_EQ(engine.counters().plan_cache_hits, 1);

  const auto cold = engine.run(Parameters{0.05f, 10});  // new eps: new plan
  EXPECT_GT(cold.clustering.timings.index_rebuilds, 0);
  EXPECT_EQ(engine.counters().plans_built, 2);

  const auto back = engine.run(Parameters{0.03f, 10});  // still cached
  EXPECT_EQ(back.clustering.timings.index_rebuilds, 0);
  EXPECT_EQ(engine.counters().plans_built, 2);
  EXPECT_EQ(engine.counters().plan_cache_hits, 2);
}

// --- Typed-error validation (satellite) ----------------------------------

TEST(Sharded, ClusterShardedValidatesLikeClusterDoes) {
  auto points = testing::random_points<2>(100, 1.0f, 617);
  ShardedEngine<2> engine(points, 2);

  const auto bad_eps = cluster_sharded(engine, Parameters{-1.0f, 5});
  ASSERT_FALSE(bad_eps.has_value());
  EXPECT_EQ(bad_eps.error().code, ErrorCode::kInvalidEps);

  const auto bad_minpts = cluster_sharded(engine, Parameters{0.1f, 0});
  ASSERT_FALSE(bad_minpts.has_value());
  EXPECT_EQ(bad_minpts.error().code, ErrorCode::kInvalidMinpts);

  auto poisoned = points;
  poisoned[7][1] = std::nanf("");
  ShardedEngine<2> poisoned_engine(poisoned, 2);
  const auto bad_point = cluster_sharded(poisoned_engine, Parameters{0.1f, 5});
  ASSERT_FALSE(bad_point.has_value());
  EXPECT_EQ(bad_point.error().code, ErrorCode::kNonFinitePoint);

  const auto ok = cluster_sharded(engine, Parameters{0.05f, 5});
  ASSERT_TRUE(ok.has_value());
  const auto check =
      matches_ground_truth(points, Parameters{0.05f, 5}, ok->clustering);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(DistributedCluster, ValidatesLikeClusterDoes) {
  auto points = testing::random_points<2>(100, 1.0f, 618);
  fdbscan::distributed::DistributedConfig<2> config;
  config.ranks_per_dim[0] = 2;

  const auto bad_eps = fdbscan::distributed::distributed_cluster(
      points, Parameters{0.0f, 5}, config);
  ASSERT_FALSE(bad_eps.has_value());
  EXPECT_EQ(bad_eps.error().code, ErrorCode::kInvalidEps);

  fdbscan::distributed::DistributedConfig<2> bad_grid;
  bad_grid.ranks_per_dim[0] = 0;
  const auto bad_ranks = fdbscan::distributed::distributed_cluster(
      points, Parameters{0.1f, 5}, bad_grid);
  ASSERT_FALSE(bad_ranks.has_value());
  EXPECT_EQ(bad_ranks.error().code, ErrorCode::kInvalidShards);

  const auto ok =
      fdbscan::distributed::distributed_cluster(points, Parameters{0.05f, 5}, config);
  ASSERT_TRUE(ok.has_value());
  const auto check =
      matches_ground_truth(points, Parameters{0.05f, 5}, ok->clustering);
  EXPECT_TRUE(check.ok) << check.message;
}

// --- The service surface -------------------------------------------------

std::shared_ptr<const std::vector<Point2>> shared_points(std::int64_t n,
                                                         std::uint64_t seed) {
  return std::make_shared<const std::vector<Point2>>(
      fdbscan::testing::clustered_points<2>(n, 6, 1.0f, 0.02f, seed));
}

TEST(ServiceSharded, SubmitOverrideMatchesSingleEngine) {
  const auto points = shared_points(4000, 619);
  const Parameters params{0.03f, 10};
  const auto expected = cluster(*points, params, {}, Method::kFdbscan);
  ASSERT_TRUE(expected.has_value());

  service::ClusterService service;
  RequestSpec submit{.params = params};
  submit.shards = 4;
  auto result = service.submit<2>("ds", points, submit).get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_shards, 4);
  EXPECT_GT(result->shard_ghosts, 0);
  const auto check =
      equivalent_clusterings(*points, params, *expected, *result);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result->is_core, expected->is_core);
  EXPECT_EQ(result->num_clusters, expected->num_clusters);
}

TEST(ServiceSharded, ConfigDefaultAppliesWhenSubmitLeavesZero) {
  const auto points = shared_points(2000, 620);
  const Parameters params{0.03f, 10};
  service::ServiceConfig config;
  config.shards = 2;
  service::ClusterService service(config);
  auto result = service.submit<2>("ds", points,
                                  RequestSpec{.params = params}).get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_shards, 2);

  // An explicit shards=1 overrides the config back to single-engine.
  RequestSpec single{.params = params};
  single.shards = 1;
  auto direct = service.submit<2>("ds", points, single).get();
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->num_shards, 0);
}

TEST(ServiceSharded, NegativeShardsRejectedAtSubmit) {
  const auto points = shared_points(100, 621);
  service::ClusterService service;
  RequestSpec submit{.params = {0.05f, 5}};
  submit.shards = -1;
  auto result =
      service.submit<2>("ds", points, submit).get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidShards);
  EXPECT_GE(service.metrics().failed, 1);
}

TEST(ServiceSharded, FromEnvReadsTheShardsKnob) {
  ::setenv("FDBSCAN_SERVICE_SHARDS", "3", 1);
  EXPECT_EQ(service::ServiceConfig::from_env().shards, 3);
  ::unsetenv("FDBSCAN_SERVICE_SHARDS");
  EXPECT_EQ(service::ServiceConfig::from_env().shards,
            service::ServiceConfig{}.shards);
}

// Cancellation raised while the shards are mid-flight must unwind every
// shard, resolve the future with kCancelled, and leave the pooled
// ShardedEngine reusable: the resubmit completes with correct labels.
TEST(ServiceSharded, CancelMidShardLeavesPoolReusable) {
  const auto points = shared_points(60000, 622);
  const Parameters params{0.05f, 10};
  service::ClusterService service;

  auto token = std::make_shared<exec::CancelToken>();
  RequestSpec submit{.params = params};
  submit.shards = 4;
  submit.token = token;
  auto cancelled = service.submit<2>("ds", points, submit);
  // Let the request reach the dispatcher, then cancel mid-run. Even if
  // the cancel lands before the run starts, the request still resolves
  // to kCancelled and the engine stays reusable — the interesting
  // schedule (mid-wave cancel) is just the likeliest one.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  token->request_cancel();
  auto result = cancelled.get();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kCancelled);

  RequestSpec retry{.params = params};
  retry.shards = 4;
  auto good = service.submit<2>("ds", points, retry).get();
  ASSERT_TRUE(good.has_value());
  const auto expected = cluster(*points, params, {}, Method::kFdbscan);
  ASSERT_TRUE(expected.has_value());
  const auto check = equivalent_clusterings(*points, params, *expected, *good);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(good->is_core, expected->is_core);
}

// A deadline that expires mid-shard behaves like a cancel with the
// deadline reason.
TEST(ServiceSharded, DeadlineMidShardResolvesDeadlineExceeded) {
  const auto points = shared_points(60000, 623);
  service::ClusterService service;
  RequestSpec submit{.params = {0.05f, 10}};
  submit.shards = 4;
  submit.deadline_ms = 1.0;
  auto result =
      service.submit<2>("ds", points, submit).get();
  if (!result.has_value()) {
    EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExceeded);
  }
  // Pool must stay reusable either way.
  auto good =
      service.submit<2>("ds", points, RequestSpec{.params = {0.03f, 10}})
          .get();
  EXPECT_TRUE(good.has_value());
}

}  // namespace
}  // namespace fdbscan::shard
