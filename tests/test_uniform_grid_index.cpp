#include "grid/uniform_grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_utils.h"

namespace fdbscan {
namespace {

template <int DIM>
std::vector<std::int32_t> brute_force_range(const std::vector<Point<DIM>>& pts,
                                            const Point<DIM>& q, float eps2) {
  std::vector<std::int32_t> result;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (within(q, pts[i], eps2)) result.push_back(static_cast<std::int32_t>(i));
  }
  return result;
}

TEST(UniformGridIndex, IncludesSelf) {
  auto pts = testing::random_points<2>(100, 1.0f, 1);
  UniformGridIndex<2> index(pts, 0.05f);
  std::vector<std::int32_t> out;
  index.neighbors(pts[10], out);
  EXPECT_NE(std::find(out.begin(), out.end(), 10), out.end());
}

TEST(UniformGridIndex, SinglePoint) {
  std::vector<Point2> pts{{{0.3f, 0.4f}}};
  UniformGridIndex<2> index(pts, 0.1f);
  std::vector<std::int32_t> out;
  index.neighbors(pts[0], out);
  EXPECT_EQ(out, std::vector<std::int32_t>{0});
}

TEST(UniformGridIndex, BytesUsedPositive) {
  auto pts = testing::random_points<2>(100, 1.0f, 3);
  UniformGridIndex<2> index(pts, 0.05f);
  EXPECT_GT(index.bytes_used(), 0u);
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct GridIndexParam {
  GridIndexParam(std::int64_t n_, float eps_, std::uint64_t seed_)
      : n(n_), eps(eps_), seed(seed_) {}
  std::int64_t n;
  float eps;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
};
static_assert(sizeof(GridIndexParam) == 24);

class UniformGridIndexQuery : public ::testing::TestWithParam<GridIndexParam> {};

TEST_P(UniformGridIndexQuery, MatchesBruteForce2D) {
  const auto param = GetParam();
  auto pts = testing::random_points<2>(param.n, 1.0f, param.seed);
  UniformGridIndex<2> index(pts, param.eps);
  const float eps2 = param.eps * param.eps;
  std::vector<std::int32_t> out;
  for (std::size_t q = 0; q < pts.size(); q += 9) {
    index.neighbors(pts[q], out);
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out, brute_force_range(pts, pts[q], eps2)) << "query " << q;
  }
}

TEST_P(UniformGridIndexQuery, MatchesBruteForce3D) {
  const auto param = GetParam();
  auto pts = testing::random_points<3>(param.n, 1.0f, param.seed + 7);
  UniformGridIndex<3> index(pts, param.eps);
  const float eps2 = param.eps * param.eps;
  std::vector<std::int32_t> out;
  for (std::size_t q = 0; q < pts.size(); q += 13) {
    index.neighbors(pts[q], out);
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out, brute_force_range(pts, pts[q], eps2)) << "query " << q;
  }
}

TEST_P(UniformGridIndexQuery, BoundaryQueriesStayInGrid) {
  // Queries at the domain corners must not step outside the cell grid.
  const auto param = GetParam();
  auto pts = testing::random_points<2>(param.n, 1.0f, param.seed + 11);
  UniformGridIndex<2> index(pts, param.eps);
  const float eps2 = param.eps * param.eps;
  std::vector<std::int32_t> out;
  for (Point2 corner : {Point2{{0.0f, 0.0f}}, Point2{{1.0f, 1.0f}},
                        Point2{{0.0f, 1.0f}}, Point2{{1.0f, 0.0f}}}) {
    index.neighbors(corner, out);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, brute_force_range(pts, corner, eps2));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UniformGridIndexQuery,
                         ::testing::Values(GridIndexParam{64, 0.2f, 41},
                                           GridIndexParam{500, 0.07f, 42},
                                           GridIndexParam{2000, 0.03f, 43},
                                           GridIndexParam{300, 1.5f, 44}));

}  // namespace
}  // namespace fdbscan
