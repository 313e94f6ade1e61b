// Masked-traversal counter parity (§4.1). The half-traversal hides
// leaves below the query's own sorted position so each neighbor pair is
// discovered once; on datasets where every bounds test passes (all
// points mutually within eps) the tested set is symmetric, so the
// unmasked leaf-test total must equal exactly twice the masked total
// (each unordered pair tested from both sides) plus the n self-hits the
// mask removes:
//
//   unmasked_leaves_tested == 2 * masked_leaves_tested + n
//
// This pins down the counting discipline of both for_each_near paths
// (the n==1 fast path used to count masked leaves it never tested) and
// must hold bit-exactly at any worker count.
#include <gtest/gtest.h>

#include <vector>

#include "bvh/bvh.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::ScopedThreads;

/// Sums leaves_tested over one traversal per point, each masked at the
/// point's own sorted position + 1 (mask 0 = unmasked).
template <int DIM>
TraversalStats traversal_totals(const Bvh<DIM>& bvh,
                                const std::vector<Point<DIM>>& points,
                                float eps2, bool masked) {
  TraversalStats total;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto pos = bvh.position_of(static_cast<std::int32_t>(i));
    bvh.for_each_near(
        points[i], eps2, masked ? pos + 1 : 0,
        [](std::int32_t, std::int32_t) { return TraversalControl::kContinue; },
        &total);
  }
  return total;
}

template <int DIM>
void expect_bvh_parity(const std::vector<Point<DIM>>& points, float eps2) {
  Bvh<DIM> bvh(points);
  const auto n = static_cast<std::int64_t>(points.size());
  const auto unmasked = traversal_totals(bvh, points, eps2, false);
  const auto masked = traversal_totals(bvh, points, eps2, true);
  EXPECT_EQ(unmasked.leaves_tested, 2 * masked.leaves_tested + n)
      << "n=" << n;
}

TEST(BvhMaskParity, SingleLeafMaskedQueryCountsNothing) {
  const std::vector<Point2> points{{{0.5f, 0.5f}}};
  Bvh<2> bvh(points);
  TraversalStats stats;
  int hits = 0;
  bvh.for_each_near(
      points[0], 1.0f, /*min_sorted_pos=*/1,
      [&](std::int32_t, std::int32_t) {
        ++hits;
        return TraversalControl::kContinue;
      },
      &stats);
  EXPECT_EQ(stats.leaves_tested, 0);  // the only leaf is masked
  EXPECT_EQ(hits, 0);
}

TEST(BvhMaskParity, SingleLeafUnmaskedQueryCountsOneLeaf) {
  const std::vector<Point2> points{{{0.5f, 0.5f}}};
  Bvh<2> bvh(points);
  TraversalStats stats;
  int hits = 0;
  bvh.for_each_near(
      points[0], 1.0f, /*min_sorted_pos=*/0,
      [&](std::int32_t, std::int32_t) {
        ++hits;
        return TraversalControl::kContinue;
      },
      &stats);
  EXPECT_EQ(stats.leaves_tested, 1);
  EXPECT_EQ(hits, 1);
}

TEST(BvhMaskParity, UnmaskedEqualsTwiceMaskedPlusSelfHits) {
  // n = 1: 1 == 2*0 + 1.
  expect_bvh_parity<2>({{{0.25f, 0.75f}}}, 1.0f);
  // n = 2, both within eps: 4 == 2*1 + 2.
  expect_bvh_parity<2>({{{0.0f, 0.0f}}, {{0.3f, 0.0f}}}, 1.0f);
  // Duplicate coordinates (ties broken by index in the Karras build):
  // n^2 == 2 * n(n-1)/2 + n.
  std::vector<Point2> dups;
  for (int i = 0; i < 5; ++i) dups.push_back({{0.4f, 0.4f}});
  for (int i = 0; i < 3; ++i) dups.push_back({{0.6f, 0.4f}});
  expect_bvh_parity<2>(dups, 1.0f);
}

/// fdbscan at minpts = 2 (FoF path) does exactly one main-phase
/// traversal per point: dist_comps is the leaf-test total, so the parity
/// identity transfers to the public counter.
void expect_fdbscan_parity(const std::vector<Point2>& points, float eps) {
  const auto n = static_cast<std::int64_t>(points.size());
  const Parameters params{eps, 2};
  Options masked, unmasked;
  unmasked.masked_traversal = false;

  std::int64_t reference_masked = -1;
  for (int threads : {1, 2, 8}) {
    ScopedThreads scoped(threads);
    const auto with_mask = fdbscan(points, params, masked);
    const auto without_mask = fdbscan(points, params, unmasked);
    EXPECT_EQ(without_mask.distance_computations,
              2 * with_mask.distance_computations + n)
        << "n=" << n << " threads=" << threads;
    if (reference_masked < 0) {
      reference_masked = with_mask.distance_computations;
    } else {
      EXPECT_EQ(with_mask.distance_computations, reference_masked)
          << "threads=" << threads;
    }
  }
}

TEST(FdbscanMaskParity, SinglePoint) {
  expect_fdbscan_parity({{{0.1f, 0.2f}}}, 1.0f);
}

TEST(FdbscanMaskParity, TwoPointsWithinEps) {
  expect_fdbscan_parity({{{0.0f, 0.0f}}, {{0.3f, 0.0f}}}, 1.0f);
}

TEST(FdbscanMaskParity, DuplicateCoordinates) {
  std::vector<Point2> dups;
  for (int i = 0; i < 8; ++i) dups.push_back({{0.4f, 0.4f}});
  expect_fdbscan_parity(dups, 1.0f);
}

TEST(FdbscanMaskParity, MutuallyCloseSquare) {
  expect_fdbscan_parity(
      {{{0.0f, 0.0f}}, {{0.2f, 0.0f}}, {{0.0f, 0.2f}}, {{0.2f, 0.2f}}}, 1.0f);
}

/// With no dense cells, FDBSCAN-DenseBox's mixed-primitive BVH reduces
/// to the point BVH and its (always unmasked) main traversal must count
/// exactly what unmasked FDBSCAN counts — i.e. 2 * masked + n on
/// symmetric sets. Dense cells divert pairs to member scans, so the
/// dense configurations have their own expected counts.
TEST(DenseboxMaskParity, NoDenseCellsMatchesUnmaskedFdbscan) {
  // 5x5 unit lattice, eps below the spacing: every cell holds one point
  // (no dense cells at minpts = 2) and traversals prune identically in
  // both implementations.
  std::vector<Point2> lattice;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      lattice.push_back({{static_cast<float>(x), static_cast<float>(y)}});
    }
  }
  const Parameters params{0.8f, 2};
  Options unmasked;
  unmasked.masked_traversal = false;
  for (int threads : {1, 2, 8}) {
    ScopedThreads scoped(threads);
    const auto densebox = fdbscan_densebox(lattice, params);
    ASSERT_EQ(densebox.num_dense_cells, 0);
    const auto plain = fdbscan(lattice, params, unmasked);
    EXPECT_EQ(densebox.distance_computations, plain.distance_computations)
        << "threads=" << threads;
    EXPECT_GE(densebox.distance_computations,
              static_cast<std::int64_t>(lattice.size()));
  }
}

TEST(DenseboxMaskParity, TwoPointsSeparateCellsHoldParityIdentity) {
  // eps = 1 -> cell width 1/sqrt(2): the points land in different cells
  // (neither dense), yet are within eps of each other.
  const std::vector<Point2> points{{{0.0f, 0.0f}}, {{0.9f, 0.0f}}};
  const Parameters params{1.0f, 2};
  Options masked;
  for (int threads : {1, 2, 8}) {
    ScopedThreads scoped(threads);
    const auto densebox = fdbscan_densebox(points, params);
    ASSERT_EQ(densebox.num_dense_cells, 0);
    const auto with_mask = fdbscan(points, params, masked);
    EXPECT_EQ(densebox.distance_computations,
              2 * with_mask.distance_computations + 2)
        << "threads=" << threads;
  }
}

TEST(DenseboxMaskParity, DuplicateCoordinatesCollapseToOneDenseBoxTest) {
  // All duplicates share one dense cell: the BVH holds a single box
  // primitive (the n==1 fast path inside a clustering run). Dense
  // members never traverse, the lone cell's pair walk is masked past its
  // own leaf, there are no isolated points, and minpts 2 skips the
  // core count: the run performs no distance computation at all, at
  // every worker count.
  std::vector<Point2> dups;
  for (int i = 0; i < 8; ++i) dups.push_back({{0.4f, 0.4f}});
  const Parameters params{1.0f, 2};
  for (int threads : {1, 2, 8}) {
    ScopedThreads scoped(threads);
    const auto result = fdbscan_densebox(dups, params);
    ASSERT_EQ(result.num_dense_cells, 1);
    EXPECT_EQ(result.distance_computations, 0) << "threads=" << threads;
    EXPECT_EQ(result.index_nodes_visited, 0) << "threads=" << threads;
    EXPECT_EQ(result.num_clusters, 1);
  }
}

}  // namespace
}  // namespace fdbscan
