#include "core/emst.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/fdbscan.h"
#include "core/validate.h"
#include "data/generators.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

// Prim's O(n^2) MST — the reference. The MST *weight* is unique for any
// graph (even with ties), so weights are the comparison target.
template <int DIM>
double prim_mst_weight(const std::vector<Point<DIM>>& pts,
                       std::int32_t mutual_k = 1) {
  const auto n = static_cast<std::int32_t>(pts.size());
  if (n <= 1) return 0.0;
  std::vector<float> core2;
  if (mutual_k > 1) {
    core2 = k_distances(pts, mutual_k);
    for (auto& c : core2) c = c * c;
  }
  auto metric2 = [&](std::int32_t a, std::int32_t b) {
    float m = squared_distance(pts[static_cast<std::size_t>(a)],
                               pts[static_cast<std::size_t>(b)]);
    if (!core2.empty()) {
      m = std::max({m, core2[static_cast<std::size_t>(a)],
                    core2[static_cast<std::size_t>(b)]});
    }
    return m;
  };
  std::vector<float> best(pts.size(), std::numeric_limits<float>::max());
  std::vector<std::uint8_t> in_tree(pts.size(), 0);
  best[0] = 0.0f;
  double total = 0.0;
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t next = -1;
    for (std::int32_t i = 0; i < n; ++i) {
      if (in_tree[static_cast<std::size_t>(i)] == 0 &&
          (next < 0 || best[static_cast<std::size_t>(i)] <
                           best[static_cast<std::size_t>(next)])) {
        next = i;
      }
    }
    in_tree[static_cast<std::size_t>(next)] = 1;
    total += std::sqrt(best[static_cast<std::size_t>(next)]);
    for (std::int32_t i = 0; i < n; ++i) {
      if (in_tree[static_cast<std::size_t>(i)] == 0) {
        best[static_cast<std::size_t>(i)] =
            std::min(best[static_cast<std::size_t>(i)], metric2(next, i));
      }
    }
  }
  return total;
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct EmstCase {
  EmstCase(std::int64_t n_, int threads_, std::uint64_t seed_, bool clustered_)
      : n(n_), threads(threads_), seed(seed_), clustered(clustered_) {}
  std::int64_t n;
  int threads;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
  bool clustered;
  std::uint8_t pad1[7] = {};
};
static_assert(sizeof(EmstCase) == 32);

class EmstGroundTruth : public ::testing::TestWithParam<EmstCase> {};

TEST_P(EmstGroundTruth, WeightMatchesPrim2D) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  auto pts = c.clustered
                 ? testing::clustered_points<2>(c.n, 5, 1.0f, 0.01f, c.seed)
                 : testing::random_points<2>(c.n, 1.0f, c.seed);
  const auto mst = euclidean_mst(pts);
  ASSERT_EQ(mst.size(), pts.size() - 1);
  EXPECT_NEAR(mst_weight(mst), prim_mst_weight(pts),
              1e-4 * prim_mst_weight(pts) + 1e-6);
}

TEST_P(EmstGroundTruth, WeightMatchesPrim3D) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  auto pts = testing::random_points<3>(c.n, 1.0f, c.seed + 50);
  const auto mst = euclidean_mst(pts);
  ASSERT_EQ(mst.size(), pts.size() - 1);
  EXPECT_NEAR(mst_weight(mst), prim_mst_weight(pts),
              1e-4 * prim_mst_weight(pts) + 1e-6);
}

TEST_P(EmstGroundTruth, MutualReachabilityWeightMatchesPrim) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  auto pts = testing::clustered_points<2>(c.n, 4, 1.0f, 0.02f, c.seed + 99);
  MstConfig config;
  config.mutual_reachability_k = 5;
  const auto mst = euclidean_mst(pts, config);
  ASSERT_EQ(mst.size(), pts.size() - 1);
  const double expected = prim_mst_weight(pts, 5);
  EXPECT_NEAR(mst_weight(mst), expected, 1e-4 * expected + 1e-6);
}

TEST_P(EmstGroundTruth, TreeSpansAllPoints) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  auto pts = testing::random_points<2>(c.n, 1.0f, c.seed + 7);
  const auto mst = euclidean_mst(pts);
  SequentialDSU dsu(static_cast<std::int32_t>(pts.size()));
  std::int32_t merges = 0;
  for (const auto& e : mst) merges += dsu.unite(e.a, e.b);
  EXPECT_EQ(merges, static_cast<std::int32_t>(pts.size()) - 1)
      << "edges must form a spanning tree (acyclic and connected)";
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmstGroundTruth,
                         ::testing::Values(EmstCase{2, 1, 1, false},
                                           EmstCase{50, 1, 2, false},
                                           EmstCase{300, 4, 3, false},
                                           EmstCase{300, 8, 4, true},
                                           EmstCase{1000, 8, 5, true}));

TEST(Emst, EmptyAndSingle) {
  EXPECT_TRUE(euclidean_mst(std::vector<Point2>{}).empty());
  EXPECT_TRUE(euclidean_mst(std::vector<Point2>{{{1.0f, 2.0f}}}).empty());
}

TEST(Emst, DuplicatePoints) {
  std::vector<Point2> pts(100, Point2{{0.5f, 0.5f}});
  const auto mst = euclidean_mst(pts);
  ASSERT_EQ(mst.size(), 99u);
  EXPECT_DOUBLE_EQ(mst_weight(mst), 0.0);
}

TEST(Emst, WeightIsDeterministicAcrossThreadCounts) {
  auto pts = testing::clustered_points<2>(800, 5, 1.0f, 0.01f, 11);
  testing::ScopedThreads one(1);
  const double serial = mst_weight(euclidean_mst(pts));
  testing::ScopedThreads many(8);
  const double parallel_weight = mst_weight(euclidean_mst(pts));
  EXPECT_NEAR(serial, parallel_weight, 1e-4 * serial + 1e-9);
}

// --- The HDBSCAN defining property: dendrogram cut == DBSCAN* -----------

struct CutCase {
  float eps;
  std::int32_t k;
};

class HdbscanCut : public ::testing::TestWithParam<CutCase> {};

TEST_P(HdbscanCut, EqualsDbscanStar) {
  const auto c = GetParam();
  testing::ScopedThreads threads(4);
  auto pts = testing::clustered_points<2>(700, 5, 1.0f, 0.015f, 21);
  MstConfig config;
  config.mutual_reachability_k = c.k;
  const auto mst = euclidean_mst(pts, config);
  const auto cut = hdbscan_cut(pts, mst, c.k, c.eps);

  Options options;
  options.variant = Variant::kDbscanStar;
  const Parameters params{c.eps, c.k};
  const auto star = fdbscan(pts, params, options);

  const auto check =
      equivalent_clusterings(pts, params, star, cut, Variant::kDbscanStar);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(EpsKGrid, HdbscanCut,
                         ::testing::Values(CutCase{0.01f, 4},
                                           CutCase{0.02f, 4},
                                           CutCase{0.02f, 8},
                                           CutCase{0.05f, 8},
                                           CutCase{0.005f, 3},
                                           CutCase{0.04f, 16}));

TEST(HdbscanCut, SingleMstServesEveryCut) {
  // The hierarchy pitch: one MST answers all eps values; cluster counts
  // are monotone along the cut only in the merge sense (components only
  // merge as eps grows), and noise shrinks monotonically.
  auto pts = testing::clustered_points<2>(600, 4, 1.0f, 0.02f, 31);
  MstConfig config;
  config.mutual_reachability_k = 5;
  const auto mst = euclidean_mst(pts, config);
  std::int64_t previous_noise = std::numeric_limits<std::int64_t>::max();
  for (float eps : {0.005f, 0.01f, 0.02f, 0.05f, 0.1f}) {
    const auto cut = hdbscan_cut(pts, mst, 5, eps);
    EXPECT_LE(cut.num_noise(), previous_noise) << "eps=" << eps;
    previous_noise = cut.num_noise();
  }
}

}  // namespace
}  // namespace fdbscan
