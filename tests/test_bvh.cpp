#include "bvh/bvh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"
#include "geometry/morton.h"
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

TEST(Bvh, EmptyTreeHasNoHits) {
  Bvh<2> bvh(std::vector<Point2>{});
  EXPECT_EQ(bvh.size(), 0);
  int hits = 0;
  bvh.for_each_near(Point2{{0.0f, 0.0f}}, 1.0f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 0);
}

TEST(Bvh, SingleLeaf) {
  Bvh<2> bvh(std::vector<Point2>{{{1.0f, 1.0f}}});
  EXPECT_EQ(bvh.size(), 1);
  std::vector<std::int32_t> found;
  bvh.for_each_near(Point2{{1.0f, 1.2f}}, 0.05f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(found, std::vector<std::int32_t>{0});
  found.clear();
  bvh.for_each_near(Point2{{9.0f, 9.0f}}, 0.05f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_TRUE(found.empty());
}

TEST(Bvh, TwoLeaves) {
  std::vector<Point2> pts{{{0.0f, 0.0f}}, {{10.0f, 10.0f}}};
  Bvh<2> bvh(pts);
  std::vector<std::int32_t> found;
  bvh.for_each_near(Point2{{0.1f, 0.0f}}, 0.25f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(found, std::vector<std::int32_t>{0});
}

TEST(Bvh, HandlesAllIdenticalPoints) {
  // Every Morton code equal: the index-tiebreak path of the hierarchy
  // construction must still produce a valid tree.
  std::vector<Point2> pts(100, Point2{{0.5f, 0.5f}});
  Bvh<2> bvh(pts);
  int hits = 0;
  bvh.for_each_near(Point2{{0.5f, 0.5f}}, 0.01f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 100);
}

TEST(Bvh, SortedPositionsAreAPermutation) {
  auto pts = testing::random_points<2>(1000, 1.0f, 17);
  Bvh<2> bvh(pts);
  std::set<std::int32_t> ids;
  for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
    ids.insert(bvh.primitive_at(pos));
    EXPECT_EQ(bvh.position_of(bvh.primitive_at(pos)), pos);
  }
  EXPECT_EQ(ids.size(), pts.size());
}

TEST(Bvh, SceneBoundsCoverAllPrimitives) {
  auto pts = testing::random_points<3>(500, 4.0f, 3);
  Bvh<3> bvh(pts);
  for (const auto& p : pts) EXPECT_TRUE(bvh.scene_bounds().contains(p));
}

TEST(Bvh, BytesUsedIsPositiveAndLinear) {
  auto small = testing::random_points<2>(100, 1.0f, 5);
  auto large = testing::random_points<2>(1000, 1.0f, 5);
  Bvh<2> a(small), b(large);
  EXPECT_GT(a.bytes_used(), 0u);
  EXPECT_GT(b.bytes_used(), 5 * a.bytes_used());
  EXPECT_LT(b.bytes_used(), 20 * a.bytes_used());
}

TEST(Bvh, EarlyTerminationStopsTraversal) {
  std::vector<Point2> pts(50, Point2{{0.0f, 0.0f}});
  Bvh<2> bvh(pts);
  int hits = 0;
  bvh.for_each_near(Point2{{0.0f, 0.0f}}, 1.0f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return hits >= 5 ? TraversalControl::kTerminate : TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 5);
}

TEST(Bvh, MixedBoxAndPointPrimitives) {
  // A fat box next to isolated points — the FDBSCAN-DenseBox setup.
  std::vector<Box2> prims;
  prims.push_back(Box2{{{0.0f, 0.0f}}, {{1.0f, 1.0f}}});  // box primitive
  prims.push_back(Box2{{{5.0f, 5.0f}}, {{5.0f, 5.0f}}});  // point primitive
  prims.push_back(Box2{{{1.4f, 0.5f}}, {{1.4f, 0.5f}}});
  Bvh<2> bvh(prims);
  std::vector<std::int32_t> found;
  // Query at (1.5, 0.5) with radius 0.5: touches the box (distance 0.5)
  // and the point at distance 0.1; misses (5,5).
  bvh.for_each_near(Point2{{1.5f, 0.5f}}, 0.25f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<std::int32_t>{0, 2}));
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct RangeQueryParam {
  RangeQueryParam(std::int64_t n_, float extent_, float eps_,
                  std::uint64_t seed_, bool clustered_)
      : n(n_), extent(extent_), eps(eps_), seed(seed_), clustered(clustered_) {}
  std::int64_t n;
  float extent;
  float eps;
  std::uint64_t seed;
  bool clustered;
  std::uint8_t pad0[7] = {};
};
static_assert(sizeof(RangeQueryParam) == 32);

class BvhRangeQuery : public ::testing::TestWithParam<RangeQueryParam> {};

TEST_P(BvhRangeQuery, MatchesBruteForce2D) {
  const auto param = GetParam();
  auto pts = param.clustered
                 ? testing::clustered_points<2>(param.n, 10, param.extent,
                                                param.eps, param.seed)
                 : testing::random_points<2>(param.n, param.extent, param.seed);
  Bvh<2> bvh(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 7) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    bvh.for_each_near(pts[q], eps2, [&](std::int32_t, std::int32_t id) {
      found.push_back(id);
      return TraversalControl::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

TEST_P(BvhRangeQuery, MatchesBruteForce3D) {
  const auto param = GetParam();
  auto pts = testing::random_points<3>(param.n, param.extent, param.seed);
  Bvh<3> bvh(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 13) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    bvh.for_each_near(pts[q], eps2, [&](std::int32_t, std::int32_t id) {
      found.push_back(id);
      return TraversalControl::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

TEST_P(BvhRangeQuery, MaskedTraversalVisitsEachPairExactlyOnce) {
  // The §4.1 half-traversal invariant: iterating all threads with mask
  // pos+1 enumerates each eps-close (i, j) pair exactly once, and the
  // union over threads equals the full pair set.
  const auto param = GetParam();
  auto pts = testing::random_points<2>(param.n, param.extent, param.seed);
  Bvh<2> bvh(pts);
  const float eps2 = param.eps * param.eps;
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
    const std::int32_t x = bvh.primitive_at(pos);
    bvh.for_each_near(pts[static_cast<std::size_t>(x)], eps2, pos + 1,
                      [&](std::int32_t jpos, std::int32_t y) {
                        EXPECT_GT(jpos, pos);
                        auto key = std::minmax(x, y);
                        auto [it, fresh] = seen.insert({key.first, key.second});
                        EXPECT_TRUE(fresh)
                            << "pair (" << x << "," << y << ") seen twice";
                        return TraversalControl::kContinue;
                      });
  }
  // Reference pair set.
  std::size_t expected_pairs = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      expected_pairs += within(pts[i], pts[j], eps2);
    }
  }
  EXPECT_EQ(seen.size(), expected_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BvhRangeQuery,
    ::testing::Values(RangeQueryParam{2, 1.0f, 0.2f, 11, false},
                      RangeQueryParam{64, 1.0f, 0.1f, 12, false},
                      RangeQueryParam{500, 1.0f, 0.08f, 13, false},
                      RangeQueryParam{500, 1.0f, 0.02f, 14, true},
                      RangeQueryParam{1500, 2.0f, 0.05f, 15, false},
                      RangeQueryParam{1000, 1.0f, 2.5f, 16, false}));  // all-pairs

TEST(Bvh, ParallelBatchedQueriesAreSafe) {
  testing::ScopedThreads threads(8);
  auto pts = testing::random_points<2>(3000, 1.0f, 77);
  Bvh<2> bvh(pts);
  const float eps2 = 0.05f * 0.05f;
  std::vector<std::int32_t> counts(pts.size(), 0);
  exec::parallel_for(static_cast<std::int64_t>(pts.size()), [&](std::int64_t i) {
    std::int32_t c = 0;
    bvh.for_each_near(pts[static_cast<std::size_t>(i)], eps2,
                      [&](std::int32_t, std::int32_t) {
                        ++c;
                        return TraversalControl::kContinue;
                      });
    counts[static_cast<std::size_t>(i)] = c;
  });
  // Spot-check against brute force.
  for (std::size_t q = 0; q < pts.size(); q += 97) {
    EXPECT_EQ(counts[q],
              static_cast<std::int32_t>(
                  brute_force_range(pts, pts[q], eps2).size()));
  }
}

TEST(Bvh, BuildUnderConcurrencyIsDeterministic) {
  auto pts = testing::random_points<2>(5000, 1.0f, 123);
  testing::ScopedThreads single(1);
  Bvh<2> serial(pts);
  std::vector<std::int32_t> order_serial(static_cast<std::size_t>(serial.size()));
  for (std::int32_t i = 0; i < serial.size(); ++i) {
    order_serial[static_cast<std::size_t>(i)] = serial.primitive_at(i);
  }
  testing::ScopedThreads many(8);
  Bvh<2> parallel_tree(pts);
  for (std::int32_t i = 0; i < parallel_tree.size(); ++i) {
    ASSERT_EQ(parallel_tree.primitive_at(i),
              order_serial[static_cast<std::size_t>(i)]);
  }
}

// Reference for the wide-node layout: the recursive depth-first collapse,
// run over a binary radix tree built top-down from the tree's own sorted
// Morton codes. Bvh builds the same radix tree bottom-up (Karras) and
// collapses it level-synchronously; the two node arrays must agree byte
// for byte, which pins traversal order and every work counter.
template <int DIM>
class SerialCollapse {
 public:
  using WideNode = typename Bvh<DIM>::WideNode;
  static constexpr int kArity = Bvh<DIM>::kArity;

  explicit SerialCollapse(const Bvh<DIM>& bvh) : bvh_(bvh) {
    codes_.resize(static_cast<std::size_t>(bvh.size()));
    for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
      codes_[static_cast<std::size_t>(pos)] =
          morton_code(bvh.leaf_bounds(pos).center(), bvh.scene_bounds());
    }
    if (bvh.size() >= 2) {
      (void)build(0, bvh.size() - 1);
      (void)collapse(0);
    }
  }

  [[nodiscard]] const std::vector<WideNode>& nodes() const { return wide_; }

 private:
  struct Node {
    Box<DIM> bounds;
    std::int32_t left;   // >= 0: node index; < 0: leaf ~pos
    std::int32_t right;
    std::int32_t first;  // sorted leaf range
    std::int32_t last;
  };

  // Common prefix of the (code, position) keys at positions i and j.
  [[nodiscard]] int delta(std::int32_t i, std::int32_t j) const {
    const std::uint64_t a = codes_[static_cast<std::size_t>(i)];
    const std::uint64_t b = codes_[static_cast<std::size_t>(j)];
    if (a != b) return std::countl_zero(a ^ b);
    return 64 + std::countl_zero(static_cast<std::uint32_t>(i) ^
                                 static_cast<std::uint32_t>(j));
  }

  // Karras's findSplit: the last position sharing more than the range's
  // common prefix with `first`.
  [[nodiscard]] std::int32_t find_split(std::int32_t first,
                                        std::int32_t last) const {
    const int common = delta(first, last);
    std::int32_t split = first;
    std::int32_t step = last - first;
    do {
      step = (step + 1) / 2;
      const std::int32_t candidate = split + step;
      if (candidate < last && delta(first, candidate) > common) {
        split = candidate;
      }
    } while (step > 1);
    return split;
  }

  [[nodiscard]] Box<DIM> bounds(std::int32_t c) const {
    return c < 0 ? bvh_.leaf_bounds(~c)
                 : tree_[static_cast<std::size_t>(c)].bounds;
  }

  std::int32_t build(std::int32_t first, std::int32_t last) {
    if (first == last) return ~first;
    const std::int32_t split = find_split(first, last);
    const auto index = static_cast<std::int32_t>(tree_.size());
    tree_.emplace_back();
    const std::int32_t left = build(first, split);
    const std::int32_t right = build(split + 1, last);
    Box<DIM> b = bounds(left);
    b.expand(bounds(right));
    tree_[static_cast<std::size_t>(index)] = Node{b, left, right, first, last};
    return index;
  }

  // One wide node per call, numbered in DFS preorder: expand the widest
  // entry (leftmost on ties) until kArity entries or all leaves remain.
  std::int32_t collapse(std::int32_t root) {
    std::int32_t entry[kArity];
    int size = 0;
    entry[size++] = tree_[static_cast<std::size_t>(root)].left;
    entry[size++] = tree_[static_cast<std::size_t>(root)].right;
    while (size < kArity) {
      int pick = -1;
      std::int32_t best_span = 0;
      for (int k = 0; k < size; ++k) {
        if (entry[k] < 0) continue;
        const Node& nd = tree_[static_cast<std::size_t>(entry[k])];
        if (nd.last - nd.first + 1 > best_span) {
          best_span = nd.last - nd.first + 1;
          pick = k;
        }
      }
      if (pick < 0) break;
      const Node& nd = tree_[static_cast<std::size_t>(entry[pick])];
      const std::int32_t left = nd.left;
      const std::int32_t right = nd.right;
      for (int k = size; k > pick + 1; --k) entry[k] = entry[k - 1];
      entry[pick] = left;
      entry[pick + 1] = right;
      ++size;
    }

    const auto wi = static_cast<std::int32_t>(wide_.size());
    wide_.emplace_back();
    WideNode w{};
    w.count = size;
    for (int l = 0; l < kArity; ++l) {
      w.child[l] = -1;
      w.range_end[l] = -1;
      for (int d = 0; d < DIM; ++d) {
        w.lo[d][l] = std::numeric_limits<float>::infinity();
        w.hi[d][l] = -std::numeric_limits<float>::infinity();
      }
    }
    for (int k = 0; k < size; ++k) {
      const std::int32_t c = entry[k];
      const Box<DIM> b = bounds(c);
      if (c < 0) {
        w.child[k] = c;
        w.range_end[k] = ~c;
      } else {
        w.range_end[k] = tree_[static_cast<std::size_t>(c)].last;
        w.child[k] = collapse(c);
      }
      for (int d = 0; d < DIM; ++d) {
        w.lo[d][k] = b.min[d];
        w.hi[d][k] = b.max[d];
      }
    }
    wide_[static_cast<std::size_t>(wi)] = w;
    return wi;
  }

  const Bvh<DIM>& bvh_;
  std::vector<std::uint64_t> codes_;
  std::vector<Node> tree_;
  std::vector<WideNode> wide_;
};

template <int DIM>
void expect_serial_layout(const Bvh<DIM>& bvh, const std::string& what) {
  const SerialCollapse<DIM> reference(bvh);
  const auto got = bvh.nodes();
  const auto& want = reference.nodes();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(want[i])), 0)
        << what << ": wide node " << i << " differs";
  }
}

// DenseBox-style primitive set: every fourth primitive is a box, the
// rest are points.
std::vector<Box2> mixed_primitives(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(0.0f, 1.0f);
  std::uniform_real_distribution<float> side(0.0f, 0.05f);
  std::vector<Box2> prims(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < prims.size(); ++i) {
    const Point2 p{{coord(rng), coord(rng)}};
    prims[i] = Box2{p, p};
    if (i % 4 == 0) {
      prims[i].max[0] += side(rng);
      prims[i].max[1] += side(rng);
    }
  }
  return prims;
}

constexpr std::int64_t kCollapseSizes[] = {2, 3, 8, 9, 65, 1000, 100000};

TEST(BvhCollapse, PointTreesMatchSerialCollapse) {
  for (int workers : {1, 2, 8}) {
    testing::ScopedThreads threads(workers);
    for (const std::int64_t n : kCollapseSizes) {
      const auto seed = static_cast<std::uint64_t>(n) + 7;
      const std::string tag =
          "workers=" + std::to_string(workers) + " n=" + std::to_string(n);
      expect_serial_layout(
          Bvh<2>(testing::clustered_points<2>(n, 5, 1.0f, 0.01f, seed)),
          "2-D " + tag);
      expect_serial_layout(
          Bvh<3>(testing::random_points<3>(n, 1.0f, seed)), "3-D " + tag);
    }
  }
}

TEST(BvhCollapse, MixedBoxTreesMatchSerialCollapse) {
  for (int workers : {1, 2, 8}) {
    testing::ScopedThreads threads(workers);
    for (const std::int64_t n : kCollapseSizes) {
      expect_serial_layout(
          Bvh<2>(mixed_primitives(n, static_cast<std::uint64_t>(n))),
          "mixed workers=" + std::to_string(workers) +
              " n=" + std::to_string(n));
    }
  }
}

TEST(BvhCollapse, IdenticalPointsMatchSerialCollapse) {
  for (int workers : {1, 2, 8}) {
    testing::ScopedThreads threads(workers);
    for (const std::int64_t n : kCollapseSizes) {
      expect_serial_layout(
          Bvh<3>(std::vector<Point3>(static_cast<std::size_t>(n),
                                     Point3{{0.5f, 0.25f, 0.75f}})),
          "identical workers=" + std::to_string(workers) +
              " n=" + std::to_string(n));
    }
  }
}

TEST(BvhCollapse, TrivialTreesHaveNoWideNodes) {
  EXPECT_TRUE(Bvh<2>(std::vector<Point2>{}).nodes().empty());
  EXPECT_TRUE(Bvh<2>(std::vector<Point2>{{{1.0f, 2.0f}}}).nodes().empty());
}

}  // namespace
}  // namespace fdbscan
