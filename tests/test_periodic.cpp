#include "core/fdbscan_periodic.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/fdbscan.h"
#include "data/generators.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

template <int DIM>
Box<DIM> unit_box(float extent) {
  Box<DIM> b;
  for (int d = 0; d < DIM; ++d) {
    b.min[d] = 0.0f;
    b.max[d] = extent;
  }
  return b;
}

// Periodic-metric analogue of equivalent_clusterings: identical core and
// noise flags, bijective core partition, and border points witnessed by
// a min-image-eps-close core point of the same cluster.
template <int DIM>
::testing::AssertionResult periodic_equivalent(
    const std::vector<Point<DIM>>& points, const Parameters& params,
    const Box<DIM>& domain, const Clustering& reference,
    const Clustering& candidate) {
  const float eps2 = params.eps * params.eps;
  if (candidate.labels.size() != points.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (reference.is_core[i] != candidate.is_core[i]) {
      return ::testing::AssertionFailure() << "core mismatch at " << i;
    }
    if ((reference.labels[i] == kNoise) != (candidate.labels[i] == kNoise)) {
      return ::testing::AssertionFailure() << "noise mismatch at " << i;
    }
  }
  std::unordered_map<std::int64_t, std::int32_t> fwd, bwd;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (reference.is_core[i] == 0) continue;
    auto [it1, fresh1] = fwd.try_emplace(reference.labels[i], candidate.labels[i]);
    if (!fresh1 && it1->second != candidate.labels[i]) {
      return ::testing::AssertionFailure() << "split cluster at core " << i;
    }
    auto [it2, fresh2] = bwd.try_emplace(candidate.labels[i], reference.labels[i]);
    if (!fresh2 && it2->second != reference.labels[i]) {
      return ::testing::AssertionFailure() << "merged clusters at core " << i;
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (candidate.is_core[i] != 0 || candidate.labels[i] == kNoise) continue;
    bool witnessed = false;
    for (std::size_t j = 0; j < points.size() && !witnessed; ++j) {
      witnessed = candidate.is_core[j] != 0 &&
                  candidate.labels[j] == candidate.labels[i] &&
                  detail::periodic_squared_distance(points[i], points[j],
                                                    domain) <= eps2;
    }
    if (!witnessed) {
      return ::testing::AssertionFailure() << "unwitnessed border " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Periodic, MinimumImageDistance) {
  const auto box = unit_box<2>(10.0f);
  Point2 a{{0.5f, 5.0f}}, b{{9.5f, 5.0f}};
  EXPECT_FLOAT_EQ(detail::periodic_squared_distance(a, b, box), 1.0f);
  EXPECT_FLOAT_EQ(squared_distance(a, b), 81.0f);  // Euclidean, for contrast
  Point2 c{{0.5f, 0.5f}}, d{{9.5f, 9.5f}};
  EXPECT_FLOAT_EQ(detail::periodic_squared_distance(c, d, box), 2.0f);
}

TEST(Periodic, ImageEnumeration) {
  const auto box = unit_box<2>(10.0f);
  int images = 0;
  detail::for_each_periodic_image(Point2{{5.0f, 5.0f}}, box, 1.0f,
                                  [&](const Point2&) { ++images; });
  EXPECT_EQ(images, 0);  // interior point: no images
  images = 0;
  detail::for_each_periodic_image(Point2{{0.5f, 5.0f}}, box, 1.0f,
                                  [&](const Point2&) { ++images; });
  EXPECT_EQ(images, 1);  // near one face
  images = 0;
  detail::for_each_periodic_image(Point2{{0.5f, 9.7f}}, box, 1.0f,
                                  [&](const Point2&) { ++images; });
  EXPECT_EQ(images, 3);  // corner: two faces + diagonal image
}

TEST(Periodic, ClusterWrappingAcrossOneFaceIsStitched) {
  // A chain hugging the x-boundary: Euclidean DBSCAN splits it in two,
  // periodic DBSCAN keeps one cluster.
  std::vector<Point2> points;
  for (int i = 0; i < 40; ++i) {
    const float x = 9.0f + 0.05f * static_cast<float>(i);  // 9.0 .. 10.95
    points.push_back({{x < 10.0f ? x : x - 10.0f, 5.0f}});
  }
  const auto box = unit_box<2>(10.0f);
  const Parameters params{0.1f, 3};
  const auto euclidean = fdbscan(points, params);
  const auto periodic = fdbscan_periodic(points, params, box);
  EXPECT_EQ(euclidean.num_clusters, 2);
  EXPECT_EQ(periodic.num_clusters, 1);
}

TEST(Periodic, CornerWrappingCluster) {
  // Points at all four corners of the box form one periodic cluster.
  std::vector<Point2> points;
  for (float dx : {0.1f, 9.9f}) {
    for (float dy : {0.1f, 9.9f}) {
      for (int i = 0; i < 5; ++i) {
        points.push_back({{dx + 0.001f * static_cast<float>(i), dy}});
      }
    }
  }
  const auto box = unit_box<2>(10.0f);
  const auto result = fdbscan_periodic(points, Parameters{0.5f, 3}, box);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_EQ(result.num_noise(), 0);
}

// gtest names each case by the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: uninitialised padding would put stack
// garbage into the test name and change it from build to build.
struct PeriodicCase {
  PeriodicCase(std::int64_t n_, float eps_, std::int32_t minpts_, int threads_,
               std::uint64_t seed_)
      : n(n_), eps(eps_), minpts(minpts_), threads(threads_), seed(seed_) {}
  std::int64_t n;
  float eps;
  std::int32_t minpts;
  int threads;
  std::uint32_t pad0 = 0;
  std::uint64_t seed;
};
static_assert(sizeof(PeriodicCase) == 32);

class PeriodicGroundTruth : public ::testing::TestWithParam<PeriodicCase> {};

TEST_P(PeriodicGroundTruth, MatchesPeriodicBruteForce) {
  const auto c = GetParam();
  testing::ScopedThreads threads(c.threads);
  // Uniform points over the whole box: plenty of boundary activity.
  auto points = testing::random_points<2>(c.n, 1.0f, c.seed);
  const auto box = unit_box<2>(1.0f);
  const Parameters params{c.eps, c.minpts};
  const auto reference = brute_force_periodic_dbscan(points, params, box);
  const auto result = fdbscan_periodic(points, params, box);
  EXPECT_TRUE(periodic_equivalent(points, params, box, reference, result));
  EXPECT_EQ(reference.num_clusters, result.num_clusters);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeriodicGroundTruth,
    ::testing::Values(PeriodicCase{400, 0.05f, 5, 1, 1101},
                      PeriodicCase{400, 0.05f, 2, 4, 1102},
                      PeriodicCase{600, 0.03f, 4, 8, 1103},
                      PeriodicCase{500, 0.08f, 10, 4, 1104},
                      PeriodicCase{300, 0.02f, 3, 2, 1105}));

TEST(Periodic, ThreeDimensionalCosmologyBox) {
  testing::ScopedThreads threads(4);
  data::CosmologyConfig config;
  config.box_size = 64.0f * std::cbrt(3000.0f / 16e6f);
  auto points = data::hacc_like(3000, 1106, config);
  Box3 box;
  for (int d = 0; d < 3; ++d) {
    box.min[d] = 0.0f;
    box.max[d] = config.box_size;
  }
  const Parameters params{0.5f, 2};
  const auto reference = brute_force_periodic_dbscan(points, params, box);
  const auto result = fdbscan_periodic(points, params, box);
  EXPECT_TRUE(periodic_equivalent(points, params, box, reference, result));
  // Periodic FoF can only merge clusters relative to Euclidean FoF.
  const auto euclidean = fdbscan(points, params);
  EXPECT_LE(result.num_clusters, euclidean.num_clusters);
}

TEST(Periodic, RejectsBoxNarrowerThanTwoEps) {
  auto points = testing::random_points<2>(10, 1.0f, 1107);
  const auto box = unit_box<2>(1.0f);
  EXPECT_THROW(
      (void)fdbscan_periodic(points, Parameters{0.6f, 2}, box),
      std::invalid_argument);
}

TEST(Periodic, InteriorDataMatchesEuclidean) {
  // All points far from the faces: periodic == Euclidean clustering.
  auto points = testing::clustered_points<2>(500, 4, 0.4f, 0.01f, 1108);
  for (auto& p : points) {
    p[0] += 0.3f;  // keep inside [0.3, 0.7]
    p[1] += 0.3f;
  }
  const auto box = unit_box<2>(1.0f);
  const Parameters params{0.02f, 5};
  const auto periodic = fdbscan_periodic(points, params, box);
  const auto euclidean = fdbscan(points, params);
  EXPECT_EQ(periodic.num_clusters, euclidean.num_clusters);
  EXPECT_EQ(periodic.is_core, euclidean.is_core);
}

}  // namespace
}  // namespace fdbscan
