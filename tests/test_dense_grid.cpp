#include "grid/dense_grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "test_utils.h"

namespace fdbscan {
namespace {

TEST(GridSpec, CellWidthIsEpsOverSqrtD) {
  Box2 domain{{{0.0f, 0.0f}}, {{1.0f, 1.0f}}};
  const auto spec2 = GridSpec<2>::create(domain, 0.1f);
  EXPECT_FLOAT_EQ(spec2.cell_width, 0.1f / std::sqrt(2.0f));
  Box3 domain3{{{0.0f, 0.0f, 0.0f}}, {{1.0f, 1.0f, 1.0f}}};
  const auto spec3 = GridSpec<3>::create(domain3, 0.1f);
  EXPECT_FLOAT_EQ(spec3.cell_width, 0.1f / std::sqrt(3.0f));
}

TEST(GridSpec, CellDiameterDoesNotExceedEps) {
  // The defining invariant of §4.2: any two points of one cell are
  // within eps of each other.
  for (float eps : {0.01f, 0.37f, 2.0f}) {
    Box3 domain{{{0.0f, 0.0f, 0.0f}}, {{10.0f, 10.0f, 10.0f}}};
    const auto spec = GridSpec<3>::create(domain, eps);
    const float diameter = spec.cell_width * std::sqrt(3.0f);
    EXPECT_LE(diameter, eps * 1.000001f);
  }
}

TEST(GridSpec, ThrowsOnNonPositiveEps) {
  Box2 domain{{{0.0f, 0.0f}}, {{1.0f, 1.0f}}};
  EXPECT_THROW(GridSpec<2>::create(domain, 0.0f), std::invalid_argument);
  EXPECT_THROW(GridSpec<2>::create(domain, -1.0f), std::invalid_argument);
}

TEST(GridSpec, ThrowsOnCellIndexOverflow) {
  Box3 domain{{{0.0f, 0.0f, 0.0f}}, {{1e18f, 1e18f, 1e18f}}};
  EXPECT_THROW(GridSpec<3>::create(domain, 1e-4f), std::overflow_error);
}

TEST(GridSpec, SupportsBillionsOfCells) {
  // The paper's 3-D regime: >3.5e9 cells must be representable (§5.2).
  Box3 domain{{{0.0f, 0.0f, 0.0f}}, {{64.0f, 64.0f, 64.0f}}};
  const auto spec = GridSpec<3>::create(domain, 0.042f);
  EXPECT_GT(spec.total_cells, 3'500'000'000ULL);
}

TEST(GridSpec, KeyBoxRoundTrip) {
  Box2 domain{{{-1.0f, 2.0f}}, {{3.0f, 8.0f}}};
  const auto spec = GridSpec<2>::create(domain, 0.33f);
  auto pts = testing::random_points<2>(200, 1.0f, 5);
  for (auto p : pts) {
    p[0] = p[0] * 4.0f - 1.0f;
    p[1] = p[1] * 6.0f + 2.0f;
    const auto key = spec.cell_key(p);
    const auto box = spec.cell_box(key);
    // Allow for float rounding at cell faces.
    for (int d = 0; d < 2; ++d) {
      EXPECT_GE(p[d], box.min[d] - 1e-5f);
      EXPECT_LE(p[d], box.max[d] + 1e-5f);
    }
  }
}

TEST(GridSpec, DistinctCellsDistinctKeys) {
  Box2 domain{{{0.0f, 0.0f}}, {{1.0f, 1.0f}}};
  const auto spec = GridSpec<2>::create(domain, 0.2f);
  std::set<std::uint64_t> keys;
  std::int64_t c[2];
  for (c[0] = 0; c[0] < spec.dims[0]; ++c[0]) {
    for (c[1] = 0; c[1] < spec.dims[1]; ++c[1]) {
      EXPECT_TRUE(keys.insert(spec.linearize(c)).second);
    }
  }
}

TEST(DenseGrid, PermutationIsAPermutation) {
  auto pts = testing::clustered_points<2>(2000, 5, 1.0f, 0.01f, 42);
  DenseGrid<2> grid(pts, 0.05f, 10);
  std::set<std::int32_t> ids(grid.permutation().begin(),
                             grid.permutation().end());
  EXPECT_EQ(ids.size(), pts.size());
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), static_cast<std::int32_t>(pts.size()) - 1);
}

TEST(DenseGrid, DenseCellsMatchManualCount) {
  auto pts = testing::clustered_points<2>(3000, 4, 1.0f, 0.005f, 7);
  const std::int32_t minpts = 8;
  const float eps = 0.02f;
  DenseGrid<2> grid(pts, eps, minpts);
  // Manual histogram over cell keys.
  std::map<std::uint64_t, std::int32_t> histogram;
  for (const auto& p : pts) ++histogram[grid.spec().cell_key(p)];
  std::int32_t expected_dense = 0, expected_dense_points = 0;
  for (const auto& [key, count] : histogram) {
    if (count >= minpts) {
      ++expected_dense;
      expected_dense_points += count;
    }
  }
  EXPECT_EQ(grid.num_dense_cells(), expected_dense);
  EXPECT_EQ(grid.points_in_dense_cells(), expected_dense_points);
  EXPECT_EQ(static_cast<std::int32_t>(grid.cells().size()),
            static_cast<std::int32_t>(histogram.size()));
}

TEST(DenseGrid, CellsPartitionThePermutation) {
  auto pts = testing::random_points<2>(777, 1.0f, 3);
  DenseGrid<2> grid(pts, 0.1f, 5);
  std::int32_t cursor = 0;
  for (const auto& cell : grid.cells()) {
    EXPECT_EQ(cell.begin, cursor);
    EXPECT_GT(cell.count(), 0);
    cursor = cell.end;
    // All members of the cell share its key.
    for (std::int32_t k = cell.begin; k < cell.end; ++k) {
      const auto id = grid.permutation()[static_cast<std::size_t>(k)];
      EXPECT_EQ(grid.spec().cell_key(pts[static_cast<std::size_t>(id)]),
                cell.key);
    }
  }
  EXPECT_EQ(cursor, static_cast<std::int32_t>(pts.size()));
}

TEST(DenseGrid, DenseCellsComeFirst) {
  auto pts = testing::clustered_points<2>(2000, 3, 1.0f, 0.004f, 9);
  const std::int32_t minpts = 6;
  DenseGrid<2> grid(pts, 0.03f, minpts);
  for (std::size_t c = 0; c < grid.cells().size(); ++c) {
    const bool dense =
        grid.cells()[c].count() >= minpts;
    EXPECT_EQ(dense, static_cast<std::int32_t>(c) < grid.num_dense_cells());
  }
}

TEST(DenseGrid, DenseCellMembersAreKdOrdered) {
  // members_within() halves member ranges at their index midpoints; the
  // halves must be spatially separated on some axis, recursively, down
  // to kMemberLeaf members.
  auto pts = testing::clustered_points<2>(4000, 3, 1.0f, 0.01f, 23);
  pts.insert(pts.end(), 40, pts.front());  // duplicates: ties by id
  DenseGrid<2> grid(pts, 0.05f, 5);
  const auto axes = grid.member_axes();
  std::int32_t splits = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> ranges;
  for (std::int32_t c = 0; c < grid.num_dense_cells(); ++c) {
    const auto& cell = grid.cells()[static_cast<std::size_t>(c)];
    ranges.emplace_back(cell.begin, cell.end);
  }
  while (!ranges.empty()) {
    const auto [begin, end] = ranges.back();
    ranges.pop_back();
    if (end - begin <= kMemberLeaf) continue;
    const std::int32_t mid = begin + (end - begin) / 2;
    const Box2 lo = member_bounds<2>(axes, begin, mid);
    const Box2 hi = member_bounds<2>(axes, mid, end);
    bool separated = false;
    for (int d = 0; d < 2; ++d) {
      separated = separated || lo.max[d] <= hi.min[d];
    }
    EXPECT_TRUE(separated) << "range [" << begin << ", " << end << ")";
    ++splits;
    ranges.emplace_back(begin, mid);
    ranges.emplace_back(mid, end);
  }
  EXPECT_GT(splits, 50);
}

TEST(DenseGrid, AllPointsInDenseCellsAreMutuallyWithinEps) {
  // End-to-end check of the diameter invariant on real data.
  auto pts = testing::clustered_points<2>(1000, 2, 0.5f, 0.002f, 21);
  const float eps = 0.05f;
  DenseGrid<2> grid(pts, eps, 5);
  const float eps2 = eps * eps;
  for (std::int32_t c = 0; c < grid.num_dense_cells(); ++c) {
    const auto& cell = grid.cells()[static_cast<std::size_t>(c)];
    for (std::int32_t a = cell.begin; a < cell.end; ++a) {
      for (std::int32_t b = a + 1; b < cell.end; ++b) {
        const auto pa = grid.permutation()[static_cast<std::size_t>(a)];
        const auto pb = grid.permutation()[static_cast<std::size_t>(b)];
        ASSERT_TRUE(within(pts[static_cast<std::size_t>(pa)],
                           pts[static_cast<std::size_t>(pb)], eps2));
      }
    }
  }
}

TEST(DenseGrid, MinptsOneMakesEveryOccupiedCellDense) {
  auto pts = testing::random_points<2>(100, 1.0f, 55);
  DenseGrid<2> grid(pts, 0.2f, 1);
  EXPECT_EQ(grid.num_dense_cells(),
            static_cast<std::int32_t>(grid.cells().size()));
  EXPECT_EQ(grid.points_in_dense_cells(),
            static_cast<std::int32_t>(pts.size()));
}

TEST(DenseGrid, HugeMinptsMakesNoCellDense) {
  auto pts = testing::random_points<2>(100, 1.0f, 56);
  DenseGrid<2> grid(pts, 0.2f, 1000);
  EXPECT_EQ(grid.num_dense_cells(), 0);
  EXPECT_EQ(grid.points_in_dense_cells(), 0);
}

}  // namespace
}  // namespace fdbscan
