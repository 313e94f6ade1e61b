// Engine contract tests (core/engine.h, DESIGN.md §9): bit-identity with
// the one-shot path across worker counts, index/grid-cache amortization
// counters, zero heap growth after warmup, and the validated cluster()
// entry point's typed errors.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/auto_select.h"
#include "core/cluster.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "data/generators.h"
#include "exec/trace.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::clustered_points;
using testing::ScopedThreads;

// Bit-identity, not merely equivalence-up-to-relabeling: the engine runs
// the exact kernels of the free function in the same order, so labels
// must match element for element at any worker count.
TEST(Engine, BitIdenticalToFreeFunctionAcrossSweepAndThreads) {
  const auto points = clustered_points<2>(2000, 5, 1.0f, 0.01f, 91);
  const Parameters sweep[] = {
      {0.01f, 2}, {0.01f, 5}, {0.02f, 5}, {0.02f, 20}, {0.05f, 10},
  };
  for (int workers : {1, 2, 8}) {
    ScopedThreads threads(workers);
    Engine<2> engine(points);
    for (const Parameters& params : sweep) {
      const auto expected = fdbscan(points, params);
      const auto got = engine.run(params);
      EXPECT_EQ(got.labels, expected.labels)
          << "workers=" << workers << " eps=" << params.eps
          << " minpts=" << params.minpts;
      EXPECT_EQ(got.is_core, expected.is_core);
      EXPECT_EQ(got.num_clusters, expected.num_clusters);
      EXPECT_EQ(got.distance_computations, expected.distance_computations);
      EXPECT_EQ(got.index_nodes_visited, expected.index_nodes_visited);
    }
  }
}

TEST(Engine, DenseboxBitIdenticalToFreeFunctionAcrossThreads) {
  const auto points = clustered_points<2>(2000, 4, 1.0f, 0.01f, 92);
  const Parameters sweep[] = {{0.02f, 5}, {0.02f, 10}, {0.05f, 5}};
  for (int workers : {1, 2, 8}) {
    ScopedThreads threads(workers);
    Engine<2> engine(points);
    for (const Parameters& params : sweep) {
      const auto expected = fdbscan_densebox(points, params);
      const auto got = engine.run_densebox(params);
      EXPECT_EQ(got.labels, expected.labels)
          << "workers=" << workers << " eps=" << params.eps
          << " minpts=" << params.minpts;
      EXPECT_EQ(got.is_core, expected.is_core);
      EXPECT_EQ(got.num_dense_cells, expected.num_dense_cells);
      EXPECT_EQ(got.distance_computations, expected.distance_computations);
    }
  }
}

TEST(Engine, SweepMatchesPerCallRuns) {
  ScopedThreads threads(4);
  const auto points = clustered_points<2>(1500, 5, 1.0f, 0.01f, 93);
  const std::vector<Parameters> sweep = {
      {0.02f, 2}, {0.02f, 5}, {0.02f, 10}, {0.02f, 32}};
  Engine<2> engine(points);
  const auto results = engine.sweep(sweep);
  ASSERT_EQ(results.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto expected = fdbscan(points, sweep[i]);
    EXPECT_EQ(results[i].labels, expected.labels) << "i=" << i;
  }
  // One index build serves the whole sweep; only the first run grows the
  // workspace.
  EXPECT_EQ(engine.counters().index_builds, 1);
  EXPECT_EQ(results[0].timings.index_rebuilds, 1);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].timings.engine_run);
    EXPECT_EQ(results[i].timings.index_rebuilds, 0) << "i=" << i;
    EXPECT_EQ(results[i].timings.workspace_reallocs, 0) << "i=" << i;
  }
}

TEST(Engine, PointIndexIsBuiltLazilyAndOnce) {
  const auto points = clustered_points<2>(800, 3, 1.0f, 0.02f, 94);
  Engine<2> engine(points);
  EXPECT_FALSE(engine.index_built());
  EXPECT_EQ(engine.counters().index_builds, 0);
  (void)engine.run({0.02f, 5});
  EXPECT_TRUE(engine.index_built());
  (void)engine.run({0.05f, 8});
  (void)engine.run({0.01f, 2});
  EXPECT_EQ(engine.counters().index_builds, 1);
  EXPECT_EQ(engine.counters().runs, 3);
}

TEST(Engine, GridCacheHitsAndMisses) {
  const auto points = clustered_points<2>(1000, 4, 1.0f, 0.01f, 95);
  const Parameters a{0.02f, 5};
  const Parameters b{0.04f, 5};
  Engine<2> engine(points);
  EXPECT_FALSE(engine.grid_cached(a));

  (void)engine.run_densebox(a);  // miss: first build
  EXPECT_TRUE(engine.grid_cached(a));
  EXPECT_EQ(engine.counters().grid_builds, 1);
  EXPECT_EQ(engine.counters().grid_cache_hits, 0);

  const auto warm = engine.run_densebox(a);  // hit
  EXPECT_EQ(engine.counters().grid_cache_hits, 1);
  EXPECT_EQ(warm.timings.grid_cache_hits, 1);
  EXPECT_EQ(warm.timings.index_rebuilds, 0);

  (void)engine.run_densebox(b);  // different eps: miss
  EXPECT_EQ(engine.counters().grid_builds, 2);
  EXPECT_TRUE(engine.grid_cached(a));  // still cached (capacity 4)
  EXPECT_TRUE(engine.grid_cached(b));

  // minpts feeds the key through max(minpts, 1): 5 vs 7 are distinct
  // grids (different dense-cell thresholds), 2 never collapses below 1.
  EXPECT_FALSE(engine.grid_cached(Parameters{a.eps, 7}));
  // Cell width factor is part of the key too.
  Options narrow;
  narrow.densebox_cell_width_factor = 0.5f;
  EXPECT_FALSE(engine.grid_cached(a, narrow));
}

TEST(Engine, GridCacheEvictsLeastRecentlyUsed) {
  const auto points = clustered_points<2>(800, 4, 1.0f, 0.01f, 96);
  EngineConfig config;
  config.grid_cache_capacity = 2;
  Engine<2> engine(points, config);
  const Parameters a{0.01f, 5}, b{0.02f, 5}, c{0.03f, 5};
  (void)engine.run_densebox(a);
  (void)engine.run_densebox(b);
  (void)engine.run_densebox(a);  // refresh a: b becomes LRU
  (void)engine.run_densebox(c);  // evicts b
  EXPECT_EQ(engine.counters().grid_cache_evictions, 1);
  EXPECT_TRUE(engine.grid_cached(a));
  EXPECT_FALSE(engine.grid_cached(b));
  EXPECT_TRUE(engine.grid_cached(c));
}

TEST(Engine, ZeroHeapGrowthAfterWarmup) {
  ScopedThreads threads(4);
  const auto points = clustered_points<2>(1200, 4, 1.0f, 0.01f, 97);
  exec::MemoryTracker tracker;
  EngineConfig config;
  config.memory = &tracker;
  Engine<2> engine(points, config);

  (void)engine.run({0.02f, 5});
  (void)engine.run_densebox({0.02f, 5});
  const std::size_t warm_bytes = tracker.current();
  const std::int64_t warm_reallocs = engine.counters().workspace_reallocs;
  ASSERT_GT(warm_bytes, 0u);
  ASSERT_GT(warm_reallocs, 0);

  // Warmed: repeat runs must not grow engine-owned memory at all — no
  // workspace growth, no new index, no new grid bundle.
  for (int i = 0; i < 3; ++i) {
    const auto r1 = engine.run({0.02f, 5});
    const auto r2 = engine.run_densebox({0.02f, 5});
    EXPECT_EQ(r1.timings.workspace_reallocs, 0);
    EXPECT_EQ(r1.timings.index_rebuilds, 0);
    EXPECT_EQ(r2.timings.workspace_reallocs, 0);
    EXPECT_EQ(r2.timings.index_rebuilds, 0);
  }
  EXPECT_EQ(tracker.current(), warm_bytes);
  EXPECT_EQ(engine.counters().workspace_reallocs, warm_reallocs);
}

TEST(Engine, ReleasesTrackedMemoryOnDestruction) {
  const auto points = clustered_points<2>(600, 3, 1.0f, 0.02f, 98);
  exec::MemoryTracker tracker;
  {
    EngineConfig config;
    config.memory = &tracker;
    Engine<2> engine(points, config);
    (void)engine.run({0.03f, 5});
    (void)engine.run_densebox({0.03f, 5});
    EXPECT_GT(tracker.current(), 0u);
  }
  EXPECT_EQ(tracker.current(), 0u);
}

TEST(Engine, AutoSelectRoutesThroughEngine) {
  ScopedThreads threads(4);
  const auto points = clustered_points<2>(1500, 4, 1.0f, 0.005f, 99);
  const Parameters params{0.02f, 5};
  Engine<2> engine(points);
  const auto via_engine = fdbscan_auto(engine, params);
  const auto one_shot = fdbscan_auto(points, params);
  EXPECT_EQ(via_engine.used_densebox, one_shot.used_densebox);
  EXPECT_DOUBLE_EQ(via_engine.estimated_dense_fraction,
                   one_shot.estimated_dense_fraction);
  EXPECT_EQ(via_engine.clustering.labels, one_shot.clustering.labels);
  EXPECT_GE(engine.counters().runs, 1);
}

// Launch order and query-point source are free to change; the work is
// not. These values were recorded before the pre phase moved to sorted
// leaf positions and the collapse became level-synchronous.
TEST(Engine, HaccLikeCoreFlagsAndCountersArePinned) {
  data::CosmologyConfig config;
  config.box_size = 16.0f;
  const auto points = data::hacc_like(20000, 17, config);
  for (int workers : {1, 2, 8}) {
    ScopedThreads threads(workers);
    Engine<3> engine(points);
    const Clustering result = engine.run({0.1f, 5});
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over core flags
    std::int64_t cores = 0;
    for (const std::uint8_t c : result.is_core) {
      hash = (hash ^ c) * 1099511628211ull;
      cores += c;
    }
    EXPECT_EQ(cores, 2617) << "workers=" << workers;
    EXPECT_EQ(hash, 8086973873222166570ull) << "workers=" << workers;
    EXPECT_EQ(result.num_clusters, 161) << "workers=" << workers;
    EXPECT_EQ(result.distance_computations, 243192) << "workers=" << workers;
    EXPECT_EQ(result.index_nodes_visited, 1107390) << "workers=" << workers;
  }
}

// Every step of the index phase is a named kernel, the wide-BVH collapse
// included, so a trace attributes the phase's time.
TEST(Engine, IndexPhaseLaunchesNamedCollapseKernels) {
  const auto points = clustered_points<2>(5000, 5, 1.0f, 0.01f, 100);
  exec::trace_start("");
  const exec::TraceCursor cursor = exec::trace_cursor();
  Engine<2> engine(points);
  const Clustering result = engine.run({0.02f, 5});
  const auto kernels = exec::trace_kernel_aggregates(cursor);
  exec::trace_stop();
  EXPECT_GT(result.timings.index_construction_profile.launches, 0);
  for (const char* name :
       {"fdbscan/index/pack-soa", "bvh/build/collapse/expand",
        "bvh/build/collapse/compact", "bvh/build/collapse/sizes",
        "bvh/build/collapse/preorder", "bvh/build/collapse/write"}) {
    EXPECT_TRUE(std::any_of(kernels.begin(), kernels.end(),
                            [&](const auto& k) { return k.name == name; }))
        << "missing kernel " << name;
  }
}

TEST(Engine, EmptyInputRunsReportNothing) {
  const std::vector<Point2> points;
  Engine<2> engine(points);
  EXPECT_TRUE(engine.run({0.1f, 5}).labels.empty());
  EXPECT_TRUE(engine.run_densebox({0.1f, 5}).labels.empty());
  EXPECT_EQ(engine.counters().index_builds, 0);
}

// --- cluster(): the validated entry point --------------------------------

TEST(Cluster, RejectsInvalidEps) {
  const auto points = clustered_points<2>(100, 2, 1.0f, 0.05f, 100);
  for (float eps : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    const auto result = cluster(points, Parameters{eps, 5});
    ASSERT_FALSE(result.has_value()) << "eps=" << eps;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidEps);
    EXPECT_FALSE(result.error().message.empty());
  }
}

TEST(Cluster, RejectsInvalidMinpts) {
  const auto points = clustered_points<2>(100, 2, 1.0f, 0.05f, 100);
  const auto result = cluster(points, Parameters{0.1f, 0});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidMinpts);
}

TEST(Cluster, RejectsInvalidCellWidthFactor) {
  const auto points = clustered_points<2>(100, 2, 1.0f, 0.05f, 100);
  for (float factor : {0.0f, -0.5f, 1.5f,
                       std::numeric_limits<float>::quiet_NaN()}) {
    Options options;
    options.densebox_cell_width_factor = factor;
    const auto result = cluster(points, Parameters{0.1f, 5}, options);
    ASSERT_FALSE(result.has_value()) << "factor=" << factor;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidCellWidthFactor);
  }
}

TEST(Cluster, RejectsNonFinitePointAndNamesTheFirst) {
  ScopedThreads threads(4);
  auto points = clustered_points<2>(500, 2, 1.0f, 0.05f, 101);
  points[123][1] = std::numeric_limits<float>::quiet_NaN();
  points[400][0] = std::numeric_limits<float>::infinity();
  const auto result = cluster(points, Parameters{0.1f, 5});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kNonFinitePoint);
  // Deterministic min-reduction: the FIRST offender is reported, at any
  // worker count.
  EXPECT_NE(result.error().message.find("123"), std::string::npos)
      << result.error().message;
}

TEST(Cluster, ValueThrowsOnError) {
  const std::vector<Point2> points(10);
  const auto result = cluster(points, Parameters{-1.0f, 5});
  EXPECT_FALSE(static_cast<bool>(result));
  EXPECT_THROW((void)result.value(), std::logic_error);
}

TEST(Cluster, ValidInputMatchesUncheckedPath) {
  ScopedThreads threads(4);
  const auto points = clustered_points<2>(1000, 4, 1.0f, 0.01f, 102);
  const Parameters params{0.02f, 5};
  const auto checked = cluster(points, params, {}, Method::kFdbscan);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(checked->labels, fdbscan(points, params).labels);

  const auto densebox = cluster(points, params, {}, Method::kDensebox);
  ASSERT_TRUE(densebox.has_value());
  EXPECT_EQ(densebox->labels, fdbscan_densebox(points, params).labels);

  const auto automatic = cluster(points, params);
  ASSERT_TRUE(automatic.has_value());
  EXPECT_EQ(automatic->num_clusters, checked->num_clusters);
}

TEST(Cluster, EngineOverloadValidatesAndRuns) {
  const auto points = clustered_points<2>(500, 3, 1.0f, 0.02f, 103);
  Engine<2> engine(points);
  const auto bad = cluster(engine, Parameters{0.1f, -3});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidMinpts);
  EXPECT_EQ(engine.counters().runs, 0);  // rejected before any kernel ran

  const auto good = cluster(engine, Parameters{0.03f, 5}, {},
                            Method::kFdbscan);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->labels, fdbscan(points, Parameters{0.03f, 5}).labels);
}

TEST(Cluster, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidEps), "InvalidEps");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidMinpts), "InvalidMinpts");
  EXPECT_STREQ(error_code_name(ErrorCode::kNonFinitePoint), "NonFinitePoint");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidCellWidthFactor),
               "InvalidCellWidthFactor");
}

}  // namespace
}  // namespace fdbscan
