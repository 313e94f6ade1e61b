#include "unionfind/union_find.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

TEST(SequentialDSU, SingletonsInitially) {
  SequentialDSU dsu(5);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(dsu.find(i), i);
}

TEST(SequentialDSU, UniteReportsNovelty) {
  SequentialDSU dsu(4);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));  // already together
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_TRUE(dsu.unite(0, 3));
  EXPECT_EQ(dsu.find(1), dsu.find(2));
}

TEST(UnionFindView, InitSingletons) {
  std::vector<std::int32_t> labels(10);
  init_singletons(labels);
  for (std::int32_t i = 0; i < 10; ++i) EXPECT_EQ(labels[static_cast<std::size_t>(i)], i);
}

TEST(UnionFindView, MergeJoinsSets) {
  std::vector<std::int32_t> labels(6);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 6);
  uf.merge(0, 5);
  uf.merge(2, 3);
  EXPECT_EQ(uf.representative(0), uf.representative(5));
  EXPECT_EQ(uf.representative(2), uf.representative(3));
  EXPECT_NE(uf.representative(0), uf.representative(2));
  uf.merge(5, 3);
  EXPECT_EQ(uf.representative(0), uf.representative(2));
}

TEST(UnionFindView, MergeIsIdempotent) {
  std::vector<std::int32_t> labels(4);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 4);
  uf.merge(1, 2);
  const auto r = uf.representative(1);
  uf.merge(1, 2);
  uf.merge(2, 1);
  EXPECT_EQ(uf.representative(1), r);
  EXPECT_EQ(uf.representative(2), r);
}

TEST(UnionFindView, HooksLargerUnderSmaller) {
  // The decreasing-parent invariant underpins lock-freedom: check the
  // root of any merged set is the minimum element ever merged into it
  // (true for sequences of merges without interleaved claims).
  std::vector<std::int32_t> labels(100);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 100);
  uf.merge(99, 98);
  uf.merge(98, 3);
  uf.merge(50, 99);
  EXPECT_EQ(uf.representative(50), 3);
}

TEST(UnionFindView, ClaimWinsOnlyOnce) {
  std::vector<std::int32_t> labels(5);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 5);
  EXPECT_TRUE(uf.unassigned(3));
  EXPECT_TRUE(uf.claim(3, 0));
  EXPECT_FALSE(uf.unassigned(3));
  EXPECT_FALSE(uf.claim(3, 1));  // second cluster must not steal it
  EXPECT_EQ(uf.representative(3), 0);
}

TEST(UnionFindView, ClaimedPointFollowsLaterRootMerges) {
  std::vector<std::int32_t> labels(6);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 6);
  EXPECT_TRUE(uf.claim(4, 2));  // border point 4 joins cluster of 2
  uf.merge(2, 0);               // cluster of 2 later merges under 0
  flatten(labels);
  EXPECT_EQ(labels[4], 0);
}

TEST(UnionFindView, FlattenMakesLabelsDirect) {
  std::vector<std::int32_t> labels(64);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 64);
  for (std::int32_t i = 1; i < 64; ++i) uf.merge(i - 1, i);  // long chain
  flatten(labels);
  for (std::int32_t i = 0; i < 64; ++i) EXPECT_EQ(labels[static_cast<std::size_t>(i)], 0);
}

TEST(UnionFindView, FlattenIsIdempotent) {
  std::vector<std::int32_t> labels(32);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 32);
  uf.merge(5, 17);
  uf.merge(17, 30);
  flatten(labels);
  auto snapshot = labels;
  flatten(labels);
  EXPECT_EQ(labels, snapshot);
}

// --- Concurrent stress: random edge list, compare against sequential ---
// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct StressParam {
  StressParam(int threads_, std::int32_t n_, std::int32_t edges_,
              std::uint64_t seed_)
      : threads(threads_), n(n_), edges(edges_), seed(seed_) {}
  int threads;
  std::int32_t n;
  std::int32_t edges;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
};
static_assert(sizeof(StressParam) == 24);

class UnionFindStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(UnionFindStress, MatchesSequentialPartition) {
  const auto param = GetParam();
  testing::ScopedThreads threads(param.threads);
  std::mt19937_64 rng(param.seed);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges(
      static_cast<std::size_t>(param.edges));
  for (auto& [u, v] : edges) {
    u = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(param.n));
    v = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(param.n));
  }

  std::vector<std::int32_t> labels(static_cast<std::size_t>(param.n));
  init_singletons(labels);
  UnionFindView uf(labels.data(), param.n);
  exec::parallel_for(param.edges, [&](std::int64_t e) {
    const auto& [u, v] = edges[static_cast<std::size_t>(e)];
    uf.merge(u, v);
  });
  flatten(labels);

  SequentialDSU dsu(param.n);
  for (const auto& [u, v] : edges) dsu.unite(u, v);

  // Same partition: labels agree iff dsu roots agree.
  for (std::int32_t i = 0; i < param.n; ++i) {
    for (std::int32_t j : {std::int32_t{0}, i / 2, param.n - 1}) {
      const bool same_ref = dsu.find(i) == dsu.find(j);
      const bool same_cand = labels[static_cast<std::size_t>(i)] ==
                             labels[static_cast<std::size_t>(j)];
      ASSERT_EQ(same_ref, same_cand) << "points " << i << ", " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnionFindStress,
    ::testing::Values(StressParam{1, 1000, 500, 1},
                      StressParam{4, 1000, 500, 2},
                      StressParam{8, 5000, 20000, 3},
                      StressParam{8, 100, 5000, 4},   // heavy contention
                      StressParam{3, 20000, 19999, 5},
                      StressParam{8, 50000, 400000, 6}));

TEST(UnionFindConcurrent, ParallelClaimsHaveUniqueWinners) {
  testing::ScopedThreads threads(8);
  constexpr std::int32_t kN = 1000;
  std::vector<std::int32_t> labels(kN);
  init_singletons(labels);
  UnionFindView uf(labels.data(), kN);
  // 999 threads all try to claim point 0 for their own cluster.
  std::int64_t winners = 0;
  exec::parallel_for(kN - 1, [&](std::int64_t i) {
    if (uf.claim(0, static_cast<std::int32_t>(i) + 1)) {
      exec::atomic_fetch_add(winners, std::int64_t{1});
    }
  });
  EXPECT_EQ(winners, 1);
}

}  // namespace
}  // namespace fdbscan
