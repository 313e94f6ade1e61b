// Direct DBSCAN-specification invariants, checked with O(n * query)
// index lookups instead of the O(n^2) brute force — this lets the
// property sweep run at sizes (10k+) where scheduling, chunking and
// union-find contention behave like production runs:
//   I1. x is core  <=>  |N_eps(x)| >= minpts;
//   I2. every core point is clustered (never noise);
//   I3. eps-close core points share a cluster;
//   I4. a clustered non-core (border) point has an eps-close core point
//       in its own cluster;
//   I5. a noise point has no eps-close core point at all.
#include <gtest/gtest.h>

#include "bvh/bvh.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "data/generators.h"
#include "distributed/distributed_dbscan.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

template <int DIM>
void check_invariants(const std::vector<Point<DIM>>& points,
                      const Parameters& params, const Clustering& c) {
  ASSERT_EQ(c.labels.size(), points.size());
  ASSERT_EQ(c.is_core.size(), points.size());
  const float eps2 = params.eps * params.eps;
  Bvh<DIM> bvh(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Gather neighborhood facts in one query.
    std::int32_t neighbor_count = 0;  // includes i itself
    bool core_neighbor = false;
    bool core_neighbor_same_cluster = false;
    bvh.for_each_near(
        points[i], eps2,
        [&](std::int32_t, std::int32_t j) -> TraversalControl {
          ++neighbor_count;
          if (static_cast<std::size_t>(j) != i &&
              c.is_core[static_cast<std::size_t>(j)] != 0) {
            core_neighbor = true;
            if (c.labels[static_cast<std::size_t>(j)] == c.labels[i]) {
              core_neighbor_same_cluster = true;
            }
            // I3 for this pair.
            if (c.is_core[i] != 0) {
              EXPECT_EQ(c.labels[i], c.labels[static_cast<std::size_t>(j)])
                  << "I3: eps-close core points " << i << " and " << j
                  << " in different clusters";
            }
          }
          return TraversalControl::kContinue;
        });
    if (::testing::Test::HasFailure()) return;
    const bool should_be_core = neighbor_count >= params.minpts;
    ASSERT_EQ(c.is_core[i] != 0, should_be_core) << "I1 at point " << i;
    if (should_be_core) {
      ASSERT_NE(c.labels[i], kNoise) << "I2 at point " << i;
    } else if (c.labels[i] != kNoise) {
      ASSERT_TRUE(core_neighbor_same_cluster) << "I4 at point " << i;
    } else {
      ASSERT_FALSE(core_neighbor) << "I5 at point " << i;
    }
  }
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct InvariantCase {
  InvariantCase(int dataset_, std::int64_t n_, float eps_,
                std::int32_t minpts_, int threads_)
      : dataset(dataset_), n(n_), eps(eps_), minpts(minpts_),
        threads(threads_) {}
  int dataset;  // 0 ngsim, 1 porto, 2 road
  std::uint32_t pad0 = 0;
  std::int64_t n;
  float eps;
  std::int32_t minpts;
  int threads;
  std::uint32_t pad1 = 0;
};
static_assert(sizeof(InvariantCase) == 32);

class LargeScaleInvariants : public ::testing::TestWithParam<InvariantCase> {
 protected:
  std::vector<Point2> make_points() const {
    const auto c = GetParam();
    switch (c.dataset) {
      case 0:
        return data::ngsim_like(c.n, 601);
      case 1:
        return data::porto_taxi_like(c.n, 602);
      default:
        return data::road_network_like(c.n, 603);
    }
  }
};

TEST_P(LargeScaleInvariants, Fdbscan) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  const auto points = make_points();
  const Parameters params{c.eps, c.minpts};
  check_invariants(points, params, fdbscan(points, params));
}

TEST_P(LargeScaleInvariants, DenseBox) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  const auto points = make_points();
  const Parameters params{c.eps, c.minpts};
  check_invariants(points, params, fdbscan_densebox(points, params));
}

TEST_P(LargeScaleInvariants, Distributed) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  const auto points = make_points();
  const Parameters params{c.eps, c.minpts};
  distributed::DistributedConfig<2> config;
  config.ranks_per_dim[0] = 2;
  config.ranks_per_dim[1] = 2;
  check_invariants(points, params,
                   distributed::distributed_dbscan(points, params, config)
                       .clustering);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LargeScaleInvariants,
    ::testing::Values(InvariantCase{0, 10000, 0.002f, 20, 8},
                      InvariantCase{1, 10000, 0.005f, 10, 8},
                      InvariantCase{2, 10000, 0.01f, 8, 8},
                      InvariantCase{1, 20000, 0.003f, 5, 4},
                      InvariantCase{2, 15000, 0.02f, 2, 8}));

TEST(LargeScaleInvariants3D, CosmologyFriendsOfFriends) {
  testing::ScopedThreads threads(8);
  data::CosmologyConfig config;
  config.box_size = 64.0f * std::cbrt(30000.0f / 16e6f);
  const auto points = data::hacc_like(30000, 604, config);
  const Parameters params{0.042f, 2};
  check_invariants(points, params, fdbscan(points, params));
  check_invariants(points, params, fdbscan_densebox(points, params));
}

}  // namespace
}  // namespace fdbscan
