#include "core/fdbscan_densebox.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/fdbscan.h"
#include "core/validate.h"
#include "dbscan_test_cases.h"
#include "exec/simd.h"
#include "grid/dense_grid.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::DbscanCase;
using testing::make_dataset;
using testing::ScopedThreads;
using testing::standard_cases;

class DenseBoxGroundTruth : public ::testing::TestWithParam<DbscanCase> {};

TEST_P(DenseBoxGroundTruth, MatchesBruteForce) {
  const auto c = GetParam();
  ScopedThreads threads(c.threads);
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  const auto result = fdbscan_densebox(points, params);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST_P(DenseBoxGroundTruth, DbscanStarMatchesBruteForce) {
  const auto c = GetParam();
  ScopedThreads threads(c.threads);
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  Options options;
  options.variant = Variant::kDbscanStar;
  const auto result = fdbscan_densebox(points, params, options);
  const auto check =
      matches_ground_truth(points, params, result, Variant::kDbscanStar);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST_P(DenseBoxGroundTruth, AgreesWithFdbscan) {
  // The two proposed algorithms implement the same specification; they
  // must agree up to relabeling on every input.
  const auto c = GetParam();
  ScopedThreads threads(c.threads);
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  const auto a = fdbscan(points, params);
  const auto b = fdbscan_densebox(points, params);
  const auto check = equivalent_clusterings(points, params, a, b);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseBoxGroundTruth,
                         ::testing::ValuesIn(standard_cases()));

TEST(DenseBox, EmptyInput) {
  std::vector<Point2> points;
  const auto result = fdbscan_densebox(points, Parameters{0.1f, 5});
  EXPECT_TRUE(result.labels.empty());
}

TEST(DenseBox, ReportsDenseCellStatistics) {
  // All points piled into one spot: a single dense cell holding everyone.
  std::vector<Point2> points(100, Point2{{0.5f, 0.5f}});
  const auto result = fdbscan_densebox(points, Parameters{0.1f, 5});
  EXPECT_EQ(result.num_dense_cells, 1);
  EXPECT_EQ(result.points_in_dense_cells, 100);
  EXPECT_EQ(result.num_clusters, 1);
}

TEST(DenseBox, NoDenseCellsWhenSparse) {
  auto points = testing::random_points<2>(200, 100.0f, 61);
  const auto result = fdbscan_densebox(points, Parameters{0.1f, 5});
  EXPECT_EQ(result.num_dense_cells, 0);
  EXPECT_EQ(result.points_in_dense_cells, 0);
}

TEST(DenseBox, AdjacentDenseCellsMergeIntoOneCluster) {
  // Two dense blobs closer than eps must form a single cluster even
  // though they occupy different grid cells.
  std::vector<Point2> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({{0.001f * static_cast<float>(i % 7), 0.0f}});
    points.push_back(
        {{0.05f + 0.001f * static_cast<float>(i % 7), 0.0f}});
  }
  const Parameters params{0.06f, 5};
  const auto result = fdbscan_densebox(points, params);
  EXPECT_EQ(result.num_clusters, 1);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(DenseBox, FarApartDenseCellsStaySeparate) {
  std::vector<Point2> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({{0.001f * static_cast<float>(i % 7), 0.0f}});
    points.push_back({{5.0f + 0.001f * static_cast<float>(i % 7), 0.0f}});
  }
  const auto result = fdbscan_densebox(points, Parameters{0.06f, 5});
  EXPECT_EQ(result.num_clusters, 2);
}

TEST(DenseBox, BorderPointAttachesToDenseCellCluster) {
  // A dense cell (40 points at x=0 plus 5 bridge points at x=0.06, all
  // within one eps/sqrt(2) ~ 0.0707 cell) and a lone point at x=0.15:
  // the lone point reaches only the 5 bridge points + itself (6 < 20),
  // so it is a border point of the dense cell's cluster.
  std::vector<Point2> points(40, Point2{{0.0f, 0.0f}});
  points.insert(points.end(), 5, Point2{{0.06f, 0.0f}});
  points.push_back({{0.15f, 0.0f}});
  const Parameters params{0.1f, 20};
  const auto result = fdbscan_densebox(points, params);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_EQ(result.num_dense_cells, 1);
  EXPECT_EQ(result.labels.back(), result.labels.front());
  EXPECT_EQ(result.is_core.back(), 0);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(DenseBox, ThreeDimensionalCosmologySample) {
  ScopedThreads threads(4);
  auto points = data::hacc_like(1500, 71);
  const Parameters params{0.5f, 5};
  const auto result = fdbscan_densebox(points, params);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(DenseBox, MemoryIsLinearInN) {
  exec::MemoryTracker small_tracker, large_tracker;
  Options options;
  auto small = testing::clustered_points<2>(1000, 4, 1.0f, 0.01f, 72);
  auto large = testing::clustered_points<2>(8000, 4, 1.0f, 0.01f, 72);
  options.memory = &small_tracker;
  (void)fdbscan_densebox(small, Parameters{0.05f, 5}, options);
  options.memory = &large_tracker;
  (void)fdbscan_densebox(large, Parameters{0.05f, 5}, options);
  const double ratio = static_cast<double>(large_tracker.peak()) /
                       static_cast<double>(small_tracker.peak());
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(DenseBox, DenseFractionGrowsWithEps) {
  // §5.2's observation: larger eps -> larger cells -> more points in
  // dense cells.
  auto points = data::hacc_like(5000, 73);
  const auto small_eps = fdbscan_densebox(points, Parameters{0.2f, 5});
  const auto large_eps = fdbscan_densebox(points, Parameters{2.0f, 5});
  EXPECT_GT(large_eps.points_in_dense_cells,
            small_eps.points_in_dense_cells);
}

// --- Cell graph --------------------------------------------------------
// The main phase joins dense cells once per eps-close cell pair through
// members_within(), and only isolated points traverse. Every case below
// runs at 1, 2 and 8 workers with both kernel backends: labels must match
// brute force, core flags must equal fdbscan()'s, and dist_comps and
// nodes_visited must not move.

/// Restores the kernel backend selection on scope exit (the flag is
/// global).
class ScopedBackend {
 public:
  explicit ScopedBackend(bool on) : previous_(simd::enabled()) {
    simd::set_enabled(on);
  }
  ~ScopedBackend() { simd::set_enabled(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  bool previous_;
};

/// Runs the checks above and returns the (single) result.
template <int DIM>
Clustering expect_cell_graph_exact(const std::vector<Point<DIM>>& points,
                                   const Parameters& params,
                                   Variant variant = Variant::kDbscan) {
  Options options;
  options.variant = variant;
  const Clustering reference = fdbscan(points, params, options);
  std::optional<Clustering> first;
  for (const bool vector_kernels : {true, false}) {
    ScopedBackend backend(vector_kernels);
    for (const int threads : {1, 2, 8}) {
      ScopedThreads scoped(threads);
      Clustering result = fdbscan_densebox(points, params, options);
      const auto check = matches_ground_truth(points, params, result, variant);
      EXPECT_TRUE(check.ok) << check.message << " threads=" << threads
                            << " simd=" << vector_kernels;
      EXPECT_EQ(result.is_core, reference.is_core)
          << "threads=" << threads << " simd=" << vector_kernels;
      if (!first) {
        first = std::move(result);
        continue;
      }
      EXPECT_EQ(result.distance_computations, first->distance_computations)
          << "threads=" << threads << " simd=" << vector_kernels;
      EXPECT_EQ(result.index_nodes_visited, first->index_nodes_visited)
          << "threads=" << threads << " simd=" << vector_kernels;
    }
  }
  return *first;
}

/// `count` points on a small deterministic lattice (spacing 0.01 * w,
/// 5 x 5 positions) whose lower-left corner is `corner`.
std::vector<Point2> clump(Point2 corner, float w, int count) {
  std::vector<Point2> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({{corner[0] + 0.01f * w * static_cast<float>(i % 5),
                    corner[1] + 0.01f * w * static_cast<float>(i / 5 % 5)}});
  }
  return out;
}

void append(std::vector<Point2>& to, const std::vector<Point2>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

float min_pair_distance2(const std::vector<Point2>& a,
                         const std::vector<Point2>& b) {
  float best = std::numeric_limits<float>::infinity();
  for (const auto& p : a) {
    for (const auto& q : b) best = std::min(best, squared_distance(p, q));
  }
  return best;
}

TEST(DenseBoxCellGraph, BoxCloseButPointFarCellsStaySeparate) {
  // Two diagonal neighbor cells, each holding two large clumps on its
  // anti-diagonal: the cells' member bounds are 0.26 eps apart, but no
  // member pair is within eps. Only the closest-pair test can tell.
  const float eps = 1.0f;
  const float w = eps / std::sqrt(2.0f);  // the grid's cell width
  std::vector<Point2> a{{{0.0f, 0.0f}}};  // pins the grid origin
  append(a, clump({{0.95f * w, 0.05f * w}}, w, 200));
  append(a, clump({{0.05f * w, 0.95f * w}}, w, 200));
  std::vector<Point2> b = clump({{1.95f * w, 1.25f * w}}, w, 200);
  append(b, clump({{1.25f * w, 1.95f * w}}, w, 200));
  ASSERT_LE(squared_distance(bounds_of(a.data(), a.size()),
                             bounds_of(b.data(), b.size())),
            eps * eps);
  ASSERT_GT(min_pair_distance2(a, b), eps * eps);

  std::vector<Point2> points = a;
  append(points, b);
  const Clustering result = expect_cell_graph_exact(points, {eps, 20});
  EXPECT_EQ(result.num_dense_cells, 2);
  EXPECT_EQ(result.num_clusters, 2);
  // The test prunes by half bounds: far fewer member distance tests than
  // the 401 * 400 member pairs.
  EXPECT_LT(result.distance_computations, 401 * 400 / 10);
}

/// Dense cells at every other x cell, each a 30-point clump; link k
/// joins cell k and cell k+1 through exactly one member pair (a member
/// near each facing edge) — all other cross-cell pairs are > eps.
std::vector<Point2> cell_chain(float w, const std::vector<bool>& links) {
  std::vector<Point2> points{{{0.0f, 0.5f * w}}};  // pins the grid origin
  const auto cells = static_cast<int>(links.size()) + 1;
  for (int k = 0; k < cells; ++k) {
    const float x0 = static_cast<float>(2 * k) * w;
    for (int i = 0; i < 30; ++i) {
      points.push_back({{x0 + 0.5f * w + 0.01f * w * static_cast<float>(i % 5),
                         0.5f * w + 0.01f * w * static_cast<float>(i / 5)}});
    }
    if (k + 1 < cells && links[static_cast<std::size_t>(k)]) {
      points.push_back({{x0 + 0.97f * w, 0.5f * w}});
      points.push_back({{x0 + 2.03f * w, 0.5f * w}});
    }
  }
  return points;
}

TEST(DenseBoxCellGraph, RandomClumpedCellPairsMatchBruteForce) {
  // Two dense cells — side, diagonal or two-apart neighbors — each made
  // of 2-8 random 5-point clumps. Whether the cells connect often hangs
  // on one clump pair, and the nearer half of a split (by bounds) is not
  // always the one holding it: searching only the nearer half fails
  // here within the first 500 trials.
  const float eps = 1.0f;
  const float w = eps / std::sqrt(2.0f);
  const Point2 offsets[] = {{{1.0f, 0.0f}}, {{1.0f, 1.0f}}, {{2.0f, 0.0f}},
                            {{0.0f, 1.0f}}, {{2.0f, 1.0f}}};
  std::mt19937 rng(2024);
  std::uniform_real_distribution<float> coord(0.0f, 0.94f);
  std::int32_t joined = 0;
  std::int32_t separate = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Point2 b_cell = offsets[trial % 5];
    std::vector<Point2> points{{{0.0f, 0.0f}}};  // pins the grid origin
    for (const Point2 cell : {Point2{{0.0f, 0.0f}}, b_cell}) {
      const int clumps = 2 + static_cast<int>(rng() % 7);
      for (int c = 0; c < clumps; ++c) {
        append(points, clump({{(cell[0] + coord(rng)) * w,
                               (cell[1] + coord(rng)) * w}},
                             w, 5));
      }
    }
    const Parameters params{eps, 10};
    const Clustering result = fdbscan_densebox(points, params);
    ASSERT_EQ(result.num_dense_cells, 2) << "trial=" << trial;
    const auto check = matches_ground_truth(points, params, result);
    ASSERT_TRUE(check.ok) << check.message << " trial=" << trial;
    (result.num_clusters == 1 ? joined : separate) += 1;
  }
  // Both outcomes occur, so neither a test that always joins nor one
  // that never does could pass.
  EXPECT_GT(joined, 20);
  EXPECT_GT(separate, 20);
}

TEST(DenseBoxCellGraph, ChainLinkedThroughSingleMemberPairs) {
  const float eps = 1.0f;
  const float w = eps / std::sqrt(2.0f);
  // Links 0-1, 1-2 and 3-4; the 2-3 link is missing.
  const auto points = cell_chain(w, {true, true, false, true});
  const Clustering result = expect_cell_graph_exact(points, {eps, 20});
  EXPECT_EQ(result.num_dense_cells, 5);
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.num_noise(), 0);
}

TEST(DenseBoxCellGraph, FriendsOfFriends) {
  const float eps = 1.0f;
  const float w = eps / std::sqrt(2.0f);
  // minpts 2: every occupied cell with two points is dense, and an
  // isolated point is core iff it reaches anyone — the lone points here
  // reach a dense cell (which must mark them core from their own side),
  // another lone point, or no one.
  auto chain = cell_chain(w, {true, false, true});
  chain.push_back({{6.5f * w, 1.8f * w}});    // near the last cell's clump
  chain.push_back({{9.0f * w, 0.5f * w}});    // a lone pair ...
  chain.push_back({{9.0f * w, 1.5f * w}});    // ... in two cells
  chain.push_back({{14.0f * w, 0.5f * w}});   // noise
  const Clustering result = expect_cell_graph_exact(chain, {eps, 2});
  EXPECT_EQ(result.num_clusters, 3);
  EXPECT_EQ(result.num_noise(), 1);

  (void)expect_cell_graph_exact(
      testing::clustered_points<2>(1500, 6, 1.0f, 0.01f, 811), {0.01f, 2});
}

TEST(DenseBoxCellGraph, DbscanStar) {
  (void)expect_cell_graph_exact(
      testing::clustered_points<2>(1500, 6, 1.0f, 0.01f, 812), {0.01f, 8},
      Variant::kDbscanStar);
  const float eps = 1.0f;
  const float w = eps / std::sqrt(2.0f);
  (void)expect_cell_graph_exact(cell_chain(w, {true, false, true}),
                                {eps, 20}, Variant::kDbscanStar);
}

TEST(DenseBoxCellGraph, DuplicateCoordinates) {
  // eps 1: 50 copies each of P and Q (0.9 eps apart, different cells)
  // form two dense cells joined by an all-duplicate pair; 2 copies of S
  // (isolated, core through Q) and 3 of R (core through S) follow.
  std::vector<Point2> points;
  points.insert(points.end(), 50, Point2{{0.0f, 0.0f}});
  points.insert(points.end(), 50, Point2{{0.9f, 0.0f}});
  points.insert(points.end(), 2, Point2{{1.8f, 0.0f}});
  points.insert(points.end(), 3, Point2{{2.5f, 0.0f}});
  points.insert(points.end(), 4, Point2{{5.0f, 0.0f}});  // noise
  const Clustering result = expect_cell_graph_exact(points, {1.0f, 5});
  EXPECT_EQ(result.num_dense_cells, 2);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_EQ(result.num_noise(), 4);
  (void)expect_cell_graph_exact(points, {1.0f, 2});
}

TEST(DenseBoxCellGraph, BorderPointSharedByDenseCellAndIsolatedCore) {
  // eps 0.1, minpts 20. Dense cell: 40 points at x = 0 and 5 at 0.06.
  // Border b at 0.15 reaches the 5 members at 0.06 and the 10 isolated
  // points at 0.24 (16 neighbors with itself). Those are core through
  // the 15 points at 0.30 (cells 3 and 4, neither dense), and they are
  // 0.18 from the dense cell: two clusters share b.
  std::vector<Point2> points(40, Point2{{0.0f, 0.0f}});
  points.insert(points.end(), 5, Point2{{0.06f, 0.0f}});
  points.push_back({{0.15f, 0.0f}});
  const std::size_t b = points.size() - 1;
  points.insert(points.end(), 10, Point2{{0.24f, 0.0f}});
  points.insert(points.end(), 15, Point2{{0.30f, 0.0f}});
  const Clustering result = expect_cell_graph_exact(points, {0.1f, 20});
  EXPECT_EQ(result.num_dense_cells, 1);
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.is_core[b], 0);
  EXPECT_NE(result.labels[b], kNoise);
  EXPECT_EQ(result.is_core[b + 1], 1);

  const Clustering star =
      expect_cell_graph_exact(points, {0.1f, 20}, Variant::kDbscanStar);
  EXPECT_EQ(star.labels[b], kNoise);
}

TEST(DenseBoxCellGraph, MemberOutsideItsGridCellBox) {
  // floor() puts p = 1.34350288 into x cell 19 of an eps = 0.1 grid with
  // origin 0, yet that cell's float box starts at 1.343503: p lies
  // outside it. q is within eps of p, but more than eps from the grid
  // box. A dense-cell primitive built from the grid box would hide p
  // from q (q's core count and, at minpts 2, its only edge).
  const float eps = 0.1f;
  const Point2 p{{1.34350288f, 1.0f}};
  const Point2 q{{1.24350297f, 1.0f}};
  std::vector<Point2> points{{{0.0f, 0.0f}},  // pins the grid origin; noise
                             p,
                             {{1.37f, 1.0f}},
                             {{1.38f, 1.0f}},
                             q,
                             {{1.20f, 1.0f}}};
  const DenseGrid<2> grid(points, eps, 3);
  const Box2 grid_box = grid.spec().cell_box(grid.spec().cell_key(p));
  ASSERT_FALSE(grid_box.contains(p));
  ASSERT_TRUE(within(p, q, eps * eps));
  ASSERT_GT(squared_distance(q, grid_box), eps * eps);

  // minpts 3: q is core only by counting p; the point at 1.20 is q's
  // border point.
  const Clustering dbscan = expect_cell_graph_exact(points, {eps, 3});
  EXPECT_EQ(dbscan.num_dense_cells, 1);
  EXPECT_EQ(dbscan.is_core[4], 1);
  EXPECT_EQ(dbscan.num_clusters, 1);
  // minpts 2: q's edge to p is the only link between q and the cell.
  const Clustering fof = expect_cell_graph_exact(points, {eps, 2});
  EXPECT_EQ(fof.num_clusters, 1);
}

}  // namespace
}  // namespace fdbscan
