#include "kdtree/kdtree.h"

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

TEST(KdTree, EmptyTree) {
  std::vector<Point2> pts;
  KdTree<2> tree(pts);
  int hits = 0;
  tree.for_each_near(Point2{{0.0f, 0.0f}}, 1.0f, [&](std::int32_t) {
    ++hits;
    return KdTree<2>::TraversalControlKd::kContinue;
  });
  EXPECT_EQ(hits, 0);
}

TEST(KdTree, SinglePoint) {
  std::vector<Point2> pts{{{2.0f, 3.0f}}};
  KdTree<2> tree(pts);
  std::vector<std::int32_t> found;
  tree.for_each_near(Point2{{2.0f, 3.1f}}, 0.02f, [&](std::int32_t id) {
    found.push_back(id);
    return KdTree<2>::TraversalControlKd::kContinue;
  });
  EXPECT_EQ(found, std::vector<std::int32_t>{0});
}

TEST(KdTree, LeafBucketBoundary) {
  // Exactly kLeafSize and kLeafSize+1 points exercise the split boundary.
  for (std::int32_t n : {KdTree<2>::kLeafSize, KdTree<2>::kLeafSize + 1}) {
    auto pts = testing::random_points<2>(n, 1.0f, 21);
    KdTree<2> tree(pts);
    int hits = 0;
    tree.for_each_near(Point2{{0.5f, 0.5f}}, 10.0f, [&](std::int32_t) {
      ++hits;
      return KdTree<2>::TraversalControlKd::kContinue;
    });
    EXPECT_EQ(hits, n);
  }
}

TEST(KdTree, DuplicatePoints) {
  std::vector<Point2> pts(200, Point2{{1.0f, 1.0f}});
  KdTree<2> tree(pts);
  int hits = 0;
  tree.for_each_near(Point2{{1.0f, 1.0f}}, 0.01f, [&](std::int32_t) {
    ++hits;
    return KdTree<2>::TraversalControlKd::kContinue;
  });
  EXPECT_EQ(hits, 200);
}

TEST(KdTree, EarlyTermination) {
  auto pts = testing::random_points<2>(500, 0.1f, 9);
  KdTree<2> tree(pts);
  int hits = 0;
  tree.for_each_near(Point2{{0.05f, 0.05f}}, 1.0f, [&](std::int32_t) {
    ++hits;
    return hits >= 7 ? KdTree<2>::TraversalControlKd::kTerminate
                     : KdTree<2>::TraversalControlKd::kContinue;
  });
  EXPECT_EQ(hits, 7);
}

TEST(KdTree, BytesUsedPositive) {
  auto pts = testing::random_points<2>(100, 1.0f, 1);
  KdTree<2> tree(pts);
  EXPECT_GT(tree.bytes_used(), 0u);
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct KdParam {
  KdParam(std::int64_t n_, float eps_, std::uint64_t seed_)
      : n(n_), eps(eps_), seed(seed_) {}
  std::int64_t n;
  float eps;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
};
static_assert(sizeof(KdParam) == 24);

class KdTreeRangeQuery : public ::testing::TestWithParam<KdParam> {};

TEST_P(KdTreeRangeQuery, MatchesBruteForce2D) {
  const auto param = GetParam();
  auto pts = testing::random_points<2>(param.n, 1.0f, param.seed);
  KdTree<2> tree(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 11) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    tree.for_each_near(pts[q], eps2, [&](std::int32_t id) {
      found.push_back(id);
      return KdTree<2>::TraversalControlKd::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

TEST_P(KdTreeRangeQuery, MatchesBruteForce3D) {
  const auto param = GetParam();
  auto pts = testing::random_points<3>(param.n, 1.0f, param.seed + 100);
  KdTree<3> tree(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 17) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    tree.for_each_near(pts[q], eps2, [&](std::int32_t id) {
      found.push_back(id);
      return KdTree<3>::TraversalControlKd::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KdTreeRangeQuery,
                         ::testing::Values(KdParam{50, 0.2f, 31},
                                           KdParam{400, 0.1f, 32},
                                           KdParam{2000, 0.05f, 33},
                                           KdParam{1000, 3.0f, 34}));

}  // namespace
}  // namespace fdbscan
