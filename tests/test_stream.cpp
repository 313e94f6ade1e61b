// StreamingEngine (stream/streaming_engine.h): label equivalence of both
// query paths (recluster after an expiry, absorb after appends) against
// from-scratch runs on the same logical point set, recluster work equal
// to cluster(live, params, options, method) for every method, absorbs
// against the DenseBox index, the large-append recluster rule, rebuild
// amortization (appends below the threshold leave index_rebuilds at
// zero), lazy expiry, sequence-number stability across compactions, and
// cancellation.
#include "stream/streaming_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "core/validate.h"
#include "data/generators.h"
#include "data/sliding_window.h"
#include "exec/cancel.h"
#include "exec/profile.h"
#include "test_utils.h"

namespace fdbscan::stream {
namespace {

using fdbscan::testing::ScopedBackend;
using fdbscan::testing::ScopedThreads;

constexpr Method kMethods[] = {Method::kFdbscan, Method::kDensebox,
                               Method::kAuto};

const char* method_name(Method method) {
  switch (method) {
    case Method::kFdbscan:
      return "fdbscan";
    case Method::kDensebox:
      return "densebox";
    case Method::kAuto:
      break;
  }
  return "auto";
}

/// Checks one streaming query against BOTH from-scratch algorithms on
/// the same live point set. Core flags are algorithm-independent, so
/// the streaming result must be equivalent to each (bit-identical core
/// flags, bijective core partition, witnessed borders).
template <int DIM>
void expect_equivalent(const std::vector<Point<DIM>>& live,
                       const Parameters& params, const Options& options,
                       const Clustering& streamed, const char* where) {
  const Clustering ref_fd = fdbscan(live, params, options);
  const auto check_fd =
      equivalent_clusterings(live, params, ref_fd, streamed, options.variant);
  EXPECT_TRUE(check_fd.ok) << where << " vs fdbscan: " << check_fd.message;
  const Clustering ref_db = fdbscan_densebox(live, params, options);
  const auto check_db =
      equivalent_clusterings(live, params, ref_db, streamed, options.variant);
  EXPECT_TRUE(check_db.ok) << where << " vs densebox: " << check_db.message;
}

/// Replays a sliding window through a StreamingEngine pinned to each
/// method in turn, checking every step's query for equivalence. Returns
/// the final counters of the kAuto replay (the last).
template <int DIM>
StreamCounters replay_and_check(const std::vector<Point<DIM>>& arrivals,
                                std::int64_t window, std::int64_t batch,
                                const Parameters& params,
                                const Options& options) {
  StreamCounters counters;
  for (const Method method : kMethods) {
    SCOPED_TRACE(method_name(method));
    data::SlidingWindow<DIM> driver(arrivals, window, batch);
    StreamingEngine<DIM> engine(params, options, method);
    std::int64_t step = 0;
    while (!driver.done()) {
      const data::WindowStep<DIM> s = driver.next();
      (void)engine.expire(s.expire_before);
      const std::int64_t first = engine.insert(s.batch);
      EXPECT_EQ(first, s.first_seq) << "step " << step;
      EXPECT_EQ(engine.size(), s.live_count) << "step " << step;
      EXPECT_EQ(engine.first_live_seq(), s.expire_before) << "step " << step;
      const std::vector<Point<DIM>> live = driver.live_points();
      const Clustering streamed = engine.query();
      const std::string where = "step " + std::to_string(step);
      expect_equivalent(live, params, options, streamed, where.c_str());
      ++step;
    }
    counters = engine.counters();
  }
  return counters;
}

// --- Equivalence sweep: worker counts x dimensions x variants ------------

class StreamEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StreamEquivalence, SlidingWindow2dMatchesFromScratch) {
  ScopedThreads threads(GetParam());
  const auto arrivals = data::ngsim_like(2400, 7);
  const StreamCounters c = replay_and_check<2>(
      arrivals, /*window=*/900, /*batch=*/300, Parameters{0.02f, 5}, {});
  EXPECT_GT(c.inserts, 0);
  EXPECT_GT(c.expires, 0);
}

TEST_P(StreamEquivalence, SlidingWindow3dMatchesFromScratch) {
  ScopedThreads threads(GetParam());
  const auto arrivals = data::hacc_like(1600, 11);
  const StreamCounters c = replay_and_check<3>(
      arrivals, /*window=*/700, /*batch=*/200, Parameters{0.035f, 4}, {});
  EXPECT_GT(c.inserts, 0);
  EXPECT_GT(c.expires, 0);
}

TEST_P(StreamEquivalence, AppendOnlyGrowthMatchesFromScratch) {
  // No expiry: every insert is absorbed incrementally once the first
  // query establishes the union-find, so this sweep exercises the
  // three-pass absorb (count / flip / resolve) at every worker count.
  ScopedThreads threads(GetParam());
  for (const Method method : kMethods) {
    SCOPED_TRACE(method_name(method));
    const auto arrivals =
        fdbscan::testing::clustered_points<2>(2000, 6, 1.0f, 0.02f, 21);
    Parameters params{0.05f, 5};
    StreamingEngine<2> engine(
        std::vector<Point2>(arrivals.begin(), arrivals.begin() + 800), params,
        Options{}, method);
    (void)engine.query();  // establishes incremental state
    std::vector<Point2> live(arrivals.begin(), arrivals.begin() + 800);
    std::int64_t cursor = 800;
    while (cursor < static_cast<std::int64_t>(arrivals.size())) {
      const std::int64_t k =
          std::min<std::int64_t>(150, arrivals.size() - cursor);
      const std::span<const Point2> batch(arrivals.data() + cursor,
                                          static_cast<std::size_t>(k));
      (void)engine.insert(batch);
      live.insert(live.end(), batch.begin(), batch.end());
      cursor += k;
      const Clustering streamed = engine.query();
      expect_equivalent(live, params, Options{}, streamed, "append-only");
    }
    EXPECT_GT(engine.counters().incremental_inserts, 0);
    EXPECT_GT(engine.counters().refinalized_queries, 0);
  }
}

TEST_P(StreamEquivalence, ReclusteredUnionFindAbsorbsLaterAppends) {
  // A sliding window, then append-only growth: the union-find the last
  // recluster rebuilt from its run's labels must absorb the later
  // batches and stay equivalent. The final window opens with a chain
  // whose lowest-id member b is a border point, so that cluster's root
  // must be a higher-id core member; a later append makes b core.
  ScopedThreads threads(GetParam());
  for (const Method method : kMethods) {
    SCOPED_TRACE(method_name(method));
    const Parameters params{0.05f, 3};
    const auto noise = fdbscan::testing::random_points<2>(300, 1.0f, 43);
    const auto grow =
        fdbscan::testing::clustered_points<2>(1000, 5, 1.0f, 0.02f, 47);
    // b at 2.000 sees only c1 (border); c1 and c2 see three each (core);
    // c3 sees only c2 (border).
    std::vector<Point2> window = {
        {{2.000f, 2.0f}}, {{2.045f, 2.0f}}, {{2.075f, 2.0f}}, {{2.105f, 2.0f}}};
    window.insert(window.end(), grow.begin(), grow.begin() + 300);
    StreamingEngine<2> engine(params, Options{}, method);
    (void)engine.insert(noise);
    (void)engine.query();
    (void)engine.insert(window);
    EXPECT_EQ(engine.expire(300), 300);
    const Clustering slid = engine.query();
    ASSERT_EQ(slid.is_core[0], 0);  // b: border, and in a cluster
    ASSERT_NE(slid.labels[0], kNoise);
    ASSERT_EQ(slid.is_core[1], 1);
    expect_equivalent(window, params, Options{}, slid, "slid");
    const StreamCounters before = engine.counters();

    std::vector<Point2> live = window;
    // The first batch turns b core: (1.960, 2.0) is within eps of b only.
    std::vector<Point2> batch = {{{1.960f, 2.0f}}};
    batch.insert(batch.end(), grow.begin() + 300, grow.begin() + 450);
    std::int64_t cursor = 450;
    for (int i = 0; i < 5; ++i) {
      (void)engine.insert(batch);
      live.insert(live.end(), batch.begin(), batch.end());
      if (i % 2 == 1) {  // two batches absorbed by one query
        const Clustering q = engine.query();
        expect_equivalent(live, params, Options{}, q, "append-only");
        if (i == 1) {
          EXPECT_EQ(q.is_core[0], 1);  // b flipped to core
        }
      }
      batch.assign(grow.begin() + cursor, grow.begin() + cursor + 100);
      cursor += 100;
    }
    expect_equivalent(live, params, Options{}, engine.query(), "final");
    const StreamCounters after = engine.counters();
    EXPECT_EQ(after.incremental_inserts - before.incremental_inserts, 5);
    EXPECT_EQ(after.refinalized_queries - before.refinalized_queries, 3);
    EXPECT_EQ(after.full_refreshes, before.full_refreshes);
  }
}

TEST_P(StreamEquivalence, CancelledReclusterLeavesTheWindowCompacted) {
  // A query cancelled inside the recluster, then a clean query: the
  // clean query must be equivalent and reuse the compaction the
  // cancelled one already made.
  ScopedThreads threads(GetParam());
  const auto points =
      fdbscan::testing::clustered_points<2>(32000, 6, 1.0f, 0.02f, 53);
  const Parameters params{0.02f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 30000), params);
  (void)engine.query();
  (void)engine.insert(std::span<const Point2>(points.data() + 30000, 2000));
  (void)engine.expire(2000);  // below the threshold: nothing compacted yet
  const StreamCounters before = engine.counters();

  // Raise the token once the query's kernels make progress; retry on
  // the (unlikely) race where the query completes first.
  bool cancelled = false;
  for (int attempt = 0; attempt < 10 && !cancelled; ++attempt) {
    exec::CancelToken token;
    std::atomic<bool> stop{false};
    const std::int64_t chunks = exec::kernel_profile().chunks;
    std::thread watcher([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (exec::kernel_profile().chunks > chunks) {
          token.request_cancel();
          return;
        }
        std::this_thread::yield();
      }
    });
    {
      exec::CancelScope scope(token);
      try {
        (void)engine.query();
      } catch (const exec::CancelledError&) {
        cancelled = true;
      }
    }
    stop.store(true, std::memory_order_relaxed);
    watcher.join();
    if (!cancelled) (void)engine.expire(engine.first_live_seq() + 1);
  }
  ASSERT_TRUE(cancelled);
  const StreamCounters mid = engine.counters();
  EXPECT_GT(mid.compactions, before.compactions);
  EXPECT_EQ(mid.full_refreshes, before.full_refreshes);

  const Clustering q = engine.query();
  const StreamCounters after = engine.counters();
  EXPECT_EQ(after.compactions, mid.compactions);  // no second compaction
  EXPECT_EQ(after.full_refreshes, mid.full_refreshes + 1);
  expect_equivalent(engine.live_points(), params, Options{}, q,
                    "after cancelled recluster");
}

TEST_P(StreamEquivalence, AppendExpireQueryDoesNoAbsorbWork) {
  // A query after an expiry is exactly a from-scratch run over the
  // compacted window, for each pinned method: no absorb work, and the
  // work counters, core flags and cluster count of
  // cluster(live, params, {}, method).
  ScopedThreads threads(GetParam());
  const auto points = data::ngsim_like(3000, 59);
  const Parameters params{0.02f, 5};
  for (const Method method : kMethods) {
    SCOPED_TRACE(method_name(method));
    StreamingEngine<2> engine(
        std::vector<Point2>(points.begin(), points.begin() + 2000), params,
        Options{}, method);
    (void)engine.query();
    for (std::int64_t lo = 2000; lo < 3000; lo += 250) {
      const StreamCounters before = engine.counters();
      (void)engine.insert(std::span<const Point2>(points.data() + lo, 250));
      (void)engine.expire(engine.first_live_seq() + 250);
      const Clustering q = engine.query();
      const std::vector<Point2> live = engine.live_points();
      const Clustering ref = *cluster(live, params, Options{}, method);
      const StreamCounters after = engine.counters();
      EXPECT_EQ(after.incremental_inserts, before.incremental_inserts);
      EXPECT_EQ(after.full_refreshes, before.full_refreshes + 1);
      EXPECT_EQ(q.distance_computations, ref.distance_computations);
      EXPECT_EQ(q.index_nodes_visited, ref.index_nodes_visited);
      EXPECT_EQ(q.is_core, ref.is_core);
      EXPECT_EQ(q.num_clusters, ref.num_clusters);
      EXPECT_EQ(q.num_dense_cells, ref.num_dense_cells);
      expect_equivalent(live, params, Options{}, q, "append-expire-query");
    }
    const StreamCounters c = engine.counters();
    if (method == Method::kFdbscan) {
      EXPECT_EQ(c.densebox_reclusters, 0);
    }
    if (method == Method::kDensebox) {
      EXPECT_EQ(c.densebox_reclusters, c.full_refreshes);
    }
  }
}

TEST_P(StreamEquivalence, AppendOnlyAbsorbAgainstTheDenseBoxIndex) {
  // After a DenseBox recluster, appends absorb against its mixed BVH:
  // dense cells are scanned member by member, isolated points are leaf
  // primitives. Each batch carries more cluster points plus points next
  // to old non-core points, so old points cross minpts and flip. Every
  // query must match both from-scratch algorithms, and no append may
  // build an index (the batches stay below the rebuild threshold).
  ScopedThreads threads(GetParam());
  const auto dense = data::gaussian_mixture2(2400, 5, 1.0f, 0.01f, 61);
  const auto noise = fdbscan::testing::random_points<2>(400, 1.0f, 67);
  struct Case {
    std::int32_t minpts;
    Variant variant;
  };
  for (const bool simd_on : {true, false}) {
    ScopedBackend backend(simd_on);
    for (const Case c : {Case{2, Variant::kDbscan}, Case{5, Variant::kDbscan},
                         Case{5, Variant::kDbscanStar}}) {
      SCOPED_TRACE("simd " + std::to_string(simd_on) + " minpts " +
                   std::to_string(c.minpts) + " variant " +
                   std::to_string(static_cast<int>(c.variant)));
      const Parameters params{0.02f, c.minpts};
      Options options;
      options.variant = c.variant;
      std::vector<Point2> live(dense.begin(), dense.begin() + 1600);
      live.insert(live.end(), noise.begin(), noise.begin() + 300);
      StreamingEngine<2> engine(live, params, options, Method::kDensebox);
      Clustering last = engine.query();
      ASSERT_EQ(engine.counters().densebox_reclusters, 1);
      ASSERT_GT(last.num_dense_cells, 0);
      std::int64_t flips = 0;
      for (int b = 0; b < 4; ++b) {
        std::vector<Point2> batch(dense.begin() + 1600 + b * 60,
                                  dense.begin() + 1660 + b * 60);
        batch.insert(batch.end(), noise.begin() + 300 + b * 15,
                     noise.begin() + 315 + b * 15);
        // Crossings: minpts - 1 points beside each of a few old
        // non-core points make it core.
        std::int32_t placed = 0;
        for (std::size_t i = 0; i < last.is_core.size() && placed < 6; ++i) {
          if (last.is_core[i] != 0 || (i + static_cast<std::size_t>(b)) % 3 != 0) {
            continue;
          }
          for (std::int32_t k = 1; k < c.minpts; ++k) {
            batch.push_back(Point2{{live[i][0] + 0.004f * static_cast<float>(k),
                                    live[i][1]}});
          }
          ++placed;
        }
        (void)engine.insert(batch);
        live.insert(live.end(), batch.begin(), batch.end());
        const Clustering q = engine.query();
        EXPECT_EQ(q.timings.index_rebuilds, 0) << "batch " << b;
        for (std::size_t i = 0; i < last.is_core.size(); ++i) {
          flips += last.is_core[i] == 0 && q.is_core[i] != 0;
        }
        expect_equivalent(live, params, options, q, "densebox absorb");
        last = q;
      }
      EXPECT_GT(flips, 0);
      const StreamCounters after = engine.counters();
      EXPECT_EQ(after.incremental_inserts, 4);
      EXPECT_EQ(after.refinalized_queries, 4);
      EXPECT_EQ(after.full_refreshes, 1);
      EXPECT_EQ(after.index_rebuilds, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, StreamEquivalence,
                         ::testing::Values(1, 2, 8));

// --- Variants and parameter edge cases -----------------------------------

TEST(StreamingEngine, DbscanStarVariantMatchesFromScratch) {
  const auto arrivals = data::porto_taxi_like(1500, 3);
  Options options;
  options.variant = Variant::kDbscanStar;
  (void)replay_and_check<2>(arrivals, 600, 200, Parameters{0.02f, 5},
                            options);
}

TEST(StreamingEngine, MinptsOneAllCore) {
  const auto arrivals =
      fdbscan::testing::random_points<2>(600, 1.0f, 5);
  const StreamCounters c = replay_and_check<2>(arrivals, 250, 100,
                                               Parameters{0.05f, 1}, {});
  EXPECT_GT(c.queries, 0);
}

TEST(StreamingEngine, MinptsTwoIncrementalFlips) {
  // minpts == 2 exercises the no-reprocess flip shortcut: a point that
  // crosses the threshold owes all its edges to the batch itself.
  const auto arrivals =
      fdbscan::testing::clustered_points<2>(1200, 5, 1.0f, 0.02f, 9);
  const StreamCounters c = replay_and_check<2>(arrivals, 500, 150,
                                               Parameters{0.04f, 2}, {});
  EXPECT_GT(c.queries, 0);
}

TEST(StreamingEngine, EarlyExitDisabledMatches) {
  const auto arrivals = data::road_network_like(1200, 13);
  Options options;
  options.early_exit = false;
  (void)replay_and_check<2>(arrivals, 500, 150, Parameters{0.02f, 4},
                            options);
}

// --- Rebuild amortization ------------------------------------------------

/// Sub-threshold appends after the first query: every query absorbs
/// against the index the initial recluster built, and none builds one.
/// Returns the final counters.
StreamCounters expect_appends_never_rebuild(const std::vector<Point2>& points,
                                            const Parameters& params,
                                            Method method) {
  SCOPED_TRACE(method_name(method));
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 3600), params,
      Options{}, method);
  Clustering first = engine.query();
  EXPECT_EQ(first.timings.index_rebuilds, 1);  // the lazy initial build
  std::int64_t cursor = 3600;
  while (cursor < 4000) {  // 400 appended points < 25% of 3600
    const std::span<const Point2> batch(points.data() + cursor, 50);
    (void)engine.insert(batch);
    cursor += 50;
    const Clustering q = engine.query();
    EXPECT_EQ(q.timings.index_rebuilds, 0) << "cursor " << cursor;
  }
  const StreamCounters c = engine.counters();
  EXPECT_EQ(c.index_rebuilds, 1);
  EXPECT_EQ(c.incremental_inserts, 8);
  EXPECT_EQ(c.full_refreshes, 1);
  EXPECT_EQ(c.refinalized_queries, 8);
  expect_equivalent(engine.live_points(), params, Options{}, engine.query(),
                    "after appends");
  return c;
}

TEST(StreamingEngine, AppendsBelowThresholdNeverRebuild) {
  const auto points =
      fdbscan::testing::clustered_points<2>(4000, 6, 1.0f, 0.02f, 17);
  for (const Method method : kMethods) {
    (void)expect_appends_never_rebuild(points, Parameters{0.05f, 5}, method);
  }
}

TEST(StreamingEngine, AppendsBelowThresholdNeverRebuildOnDenseSeeds) {
  // warm_append's data shape: nearly every point sits in a dense cell,
  // so the default kAuto reclusters with DenseBox and the appends absorb
  // against its cached bundle.
  const auto points = data::gaussian_mixture2(4000, 5, 1.0f, 0.01f, 21);
  const StreamCounters c =
      expect_appends_never_rebuild(points, Parameters{0.05f, 5}, Method::kAuto);
  EXPECT_EQ(c.densebox_reclusters, 1);
}

TEST(StreamingEngine, LargeAppendReclustersInsteadOfAbsorbing) {
  // 26000 points appended to a 4000-point window outnumber the absorbed
  // set, so the query reclusters: the same work as cluster(live).
  const auto points =
      fdbscan::testing::clustered_points<2>(30000, 6, 1.0f, 0.02f, 41);
  const Parameters params{0.02f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 4000), params);
  (void)engine.query();
  const StreamCounters before = engine.counters();
  (void)engine.insert(std::span<const Point2>(points.data() + 4000, 26000));
  const Clustering q = engine.query();
  const StreamCounters after = engine.counters();
  EXPECT_EQ(after.full_refreshes, before.full_refreshes + 1);
  EXPECT_EQ(after.incremental_inserts, before.incremental_inserts);
  EXPECT_EQ(after.refinalized_queries, before.refinalized_queries);
  // The compaction at insert built nothing: the recluster's index is the
  // only build.
  EXPECT_EQ(q.timings.index_rebuilds, 1);
  const Clustering ref = *cluster(points, params);
  EXPECT_EQ(q.distance_computations, ref.distance_computations);
  EXPECT_EQ(q.index_nodes_visited, ref.index_nodes_visited);
  EXPECT_EQ(q.is_core, ref.is_core);
  EXPECT_EQ(q.num_clusters, ref.num_clusters);
  expect_equivalent(points, params, Options{}, q, "large append");

  // A following append below the absorbed count absorbs again.
  (void)engine.insert(std::span<const Point2>(points.data(), 100));
  (void)engine.query();
  EXPECT_EQ(engine.counters().incremental_inserts,
            before.incremental_inserts + 1);
}

TEST(StreamingEngine, CrossingTheThresholdRebuildsOnce) {
  const auto points =
      fdbscan::testing::clustered_points<2>(2000, 4, 1.0f, 0.02f, 19);
  Parameters params{0.05f, 5};
  StreamConfig config;
  config.rebuild_fraction = 0.25f;
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 1000), params,
      Options{}, Method::kAuto, config);
  (void)engine.query();
  // One batch of 400 > 25% of the 1000 live points: rebuild at insert.
  (void)engine.insert(
      std::span<const Point2>(points.data() + 1000, 400));
  EXPECT_EQ(engine.counters().index_rebuilds, 2);
  const Clustering q = engine.query();
  EXPECT_EQ(q.timings.index_rebuilds, 1);
  // The rebuild folded the delta into the base; ids survived, so the
  // query after a pure-insert rebuild is still a cheap re-finalize.
  EXPECT_EQ(engine.counters().refinalized_queries, 1);
  // A refinalized query reports the probe work of the inserts it serves.
  EXPECT_GT(q.distance_computations, 0);
  expect_equivalent(
      std::vector<Point2>(points.begin(), points.begin() + 1400), params,
      Options{}, q, "post-rebuild");
}

TEST(StreamingEngine, ExpireInvalidatesIncrementalState) {
  const auto points =
      fdbscan::testing::clustered_points<2>(1500, 4, 1.0f, 0.02f, 23);
  Parameters params{0.05f, 5};
  StreamingEngine<2> engine(std::vector<Point2>(points), params);
  (void)engine.query();
  EXPECT_EQ(engine.expire(100), 100);  // below threshold: lazy, no rebuild
  EXPECT_EQ(engine.counters().index_rebuilds, 1);
  EXPECT_EQ(engine.first_live_seq(), 100);
  const Clustering q = engine.query();
  expect_equivalent(
      std::vector<Point2>(points.begin() + 100, points.end()), params,
      Options{}, q, "post-expire");
  EXPECT_EQ(engine.counters().full_refreshes, 2);  // expiry forced a refresh
  // Expiring most of the stream trips the threshold: dead prefix > 25%.
  (void)engine.expire(1200);
  EXPECT_EQ(engine.counters().index_rebuilds, 2);
  EXPECT_EQ(engine.size(), 300);
  expect_equivalent(
      std::vector<Point2>(points.begin() + 1200, points.end()), params,
      Options{}, engine.query(), "post-rebuild-expire");
}

// --- Sequence-number bookkeeping -----------------------------------------

TEST(StreamingEngine, SequenceNumbersSurviveRebuilds) {
  const auto points =
      fdbscan::testing::random_points<2>(900, 1.0f, 29);
  StreamingEngine<2> engine(Parameters{0.05f, 3});
  EXPECT_EQ(engine.next_seq(), 0);
  EXPECT_EQ(engine.insert(
                std::span<const Point2>(points.data(), 300)),
            0);
  EXPECT_EQ(engine.next_seq(), 300);
  EXPECT_EQ(engine.expire(250), 250);  // forces a rebuild (dead > 25%)
  EXPECT_EQ(engine.first_live_seq(), 250);
  EXPECT_EQ(engine.next_seq(), 300);
  EXPECT_EQ(engine.insert(
                std::span<const Point2>(points.data() + 300, 300)),
            300);
  EXPECT_EQ(engine.next_seq(), 600);
  EXPECT_EQ(engine.size(), 350);
  // Retiring below the live horizon is a no-op.
  EXPECT_EQ(engine.expire(100), 0);
  EXPECT_EQ(engine.first_live_seq(), 250);
}

TEST(StreamingEngine, DrainToEmptyAndRefill) {
  const auto points =
      fdbscan::testing::random_points<2>(400, 1.0f, 31);
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 200),
      Parameters{0.05f, 3});
  (void)engine.query();
  EXPECT_EQ(engine.expire(200), 200);
  EXPECT_EQ(engine.size(), 0);
  const Clustering empty = engine.query();
  EXPECT_EQ(empty.labels.size(), 0u);
  EXPECT_EQ(empty.num_clusters, 0);
  EXPECT_EQ(engine.insert(std::span<const Point2>(points.data() + 200, 200)),
            200);
  EXPECT_EQ(engine.size(), 200);
  expect_equivalent(
      std::vector<Point2>(points.begin() + 200, points.end()),
      Parameters{0.05f, 3}, Options{}, engine.query(), "refill");
}

// --- Cancellation --------------------------------------------------------

TEST(StreamingEngine, RaisedTokenRejectsMutationsAtEntry) {
  const auto points =
      fdbscan::testing::random_points<2>(300, 1.0f, 37);
  StreamingEngine<2> engine(std::vector<Point2>(points),
                            Parameters{0.05f, 3});
  exec::CancelToken token;
  token.request_cancel(exec::CancelReason::kCancelled);
  exec::CancelScope scope(token);
  EXPECT_THROW((void)engine.insert(points), exec::CancelledError);
  EXPECT_THROW((void)engine.expire(10), exec::CancelledError);
  EXPECT_THROW((void)engine.query(), exec::CancelledError);
  EXPECT_EQ(engine.size(), 300);  // logical point set unchanged
  EXPECT_EQ(engine.first_live_seq(), 0);
}

TEST(StreamingEngine, CancelledInsertRollsTheBatchBack) {
  // Raise the token from a second thread while a large batch is being
  // inserted (the batch trips the threshold, so the insert compacts; it
  // outnumbers the absorbed points, so no eager index build follows and
  // the next query reclusters). Whichever way the race lands —
  // cancelled at entry or completed first — the logical point set must
  // be exactly the pre-insert or post-insert set, and the next query
  // (under a fresh scope) must match a from-scratch run of whichever it
  // is.
  const auto points =
      fdbscan::testing::clustered_points<2>(30000, 6, 1.0f, 0.02f, 41);
  Parameters params{0.02f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 4000), params);
  (void)engine.query();
  const std::vector<Point2> batch(points.begin() + 4000, points.end());
  auto token = std::make_shared<exec::CancelToken>();
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token->request_cancel(exec::CancelReason::kCancelled);
  });
  bool cancelled = false;
  {
    exec::CancelScope scope(*token);
    try {
      (void)engine.insert(batch);
    } catch (const exec::CancelledError&) {
      cancelled = true;
    }
  }
  canceller.join();
  const std::int64_t n = engine.size();
  const StreamCounters c = engine.counters();
  if (cancelled) {
    EXPECT_EQ(n, 4000) << "rollback must restore the pre-insert set";
    // A rolled-back insert is not part of the logical stream and must
    // not be counted.
    EXPECT_EQ(c.inserts, 0);
    EXPECT_EQ(c.points_inserted, 0);
  } else {
    EXPECT_EQ(n, 30000);
    EXPECT_EQ(c.inserts, 1);
    EXPECT_EQ(c.points_inserted, 26000);
  }
  const std::vector<Point2> live(points.begin(),
                                 points.begin() + static_cast<std::ptrdiff_t>(n));
  expect_equivalent(live, params, Options{}, engine.query(),
                    cancelled ? "rolled-back" : "completed");
}

}  // namespace
}  // namespace fdbscan::stream
