// Cooperative cancellation (exec/cancel.h): token semantics, the
// chunk-granularity checks inside parallel_for/reduce/scan, the
// top-level-only throw contract, and the engine-level guarantee that a
// cancelled run leaves the engine reusable with bit-identical results.
#include "exec/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/validate.h"
#include "exec/atomic.h"
#include "exec/parallel.h"
#include "exec/profile.h"
#include "test_utils.h"

namespace fdbscan::exec {
namespace {

TEST(CancelToken, StartsUnraisedAndRaisesOnce) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_TRUE(token.request_cancel());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  // Second raise (any reason) is a no-op: the first reason wins.
  EXPECT_FALSE(token.request_cancel(CancelReason::kDeadlineExceeded));
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, FirstReasonWinsForDeadline) {
  CancelToken token;
  EXPECT_TRUE(token.request_cancel(CancelReason::kDeadlineExceeded));
  EXPECT_FALSE(token.request_cancel(CancelReason::kCancelled));
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
}

TEST(CancelToken, ResetRearms) {
  CancelToken token;
  token.request_cancel();
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.request_cancel(CancelReason::kDeadlineExceeded));
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
}

TEST(CancelToken, ResetAdvancesTheGeneration) {
  CancelToken token;
  EXPECT_EQ(token.generation(), 0u);
  token.reset();
  EXPECT_EQ(token.generation(), 1u);
  token.request_cancel();
  token.reset();  // clears the reason AND bumps the generation
  EXPECT_EQ(token.generation(), 2u);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, ConditionalRaiseIsInertAcrossAReset) {
  // The watchdog pattern (service/service.h): capture the generation at
  // registration; a reset() before the deadline fires must turn the
  // raise into a no-op on the token's next user.
  CancelToken token;
  const std::uint32_t stale = token.generation();
  token.reset();
  EXPECT_FALSE(token.request_cancel_if(stale, CancelReason::kDeadlineExceeded));
  EXPECT_FALSE(token.cancelled());
  // With the current generation it fires normally...
  EXPECT_TRUE(token.request_cancel_if(token.generation(),
                                      CancelReason::kDeadlineExceeded));
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
  // ...and never overrides a reason that is already set.
  EXPECT_FALSE(token.request_cancel_if(token.generation(),
                                       CancelReason::kCancelled));
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
}

TEST(CancelScope, InstallsAndRestoresNested) {
  EXPECT_EQ(active_cancel_token(), nullptr);
  CancelToken outer, inner;
  {
    CancelScope a(outer);
    EXPECT_EQ(active_cancel_token(), &outer);
    {
      CancelScope b(inner);
      EXPECT_EQ(active_cancel_token(), &inner);
    }
    EXPECT_EQ(active_cancel_token(), &outer);
  }
  EXPECT_EQ(active_cancel_token(), nullptr);
}

TEST(CancelScope, ThrowIfCancelledNeedsARaisedToken) {
  EXPECT_NO_THROW(throw_if_cancelled());  // no token installed
  CancelToken token;
  CancelScope scope(token);
  EXPECT_NO_THROW(throw_if_cancelled());  // installed but not raised
  token.request_cancel(CancelReason::kDeadlineExceeded);
  try {
    throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadlineExceeded);
  }
}

class CancelWithThreads : public ::testing::TestWithParam<int> {
 protected:
  testing::ScopedThreads threads_{GetParam()};
};

TEST_P(CancelWithThreads, UncancelledTokenDoesNotPerturbResults) {
  constexpr std::int64_t kN = 40001;
  auto sum_under = [&](bool with_scope) {
    CancelToken token;
    std::optional<CancelScope> scope;
    if (with_scope) scope.emplace(token);
    return parallel_reduce(
        kN, 0.0, [](std::int64_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  // Bit-identical: the token polls must not change chunking or merge order.
  EXPECT_EQ(sum_under(false), sum_under(true));
}

TEST_P(CancelWithThreads, PreCancelledForRunsNothingAndThrows) {
  CancelToken token;
  token.request_cancel();
  CancelScope scope(token);
  std::int64_t visited = 0;
  EXPECT_THROW(
      parallel_for(100000, [&](std::int64_t) {
        atomic_fetch_add(visited, std::int64_t{1});
      }),
      CancelledError);
  EXPECT_EQ(visited, 0);
}

TEST_P(CancelWithThreads, CancelFromInsideTheFunctorStopsWithinChunks) {
  constexpr std::int64_t kN = 1 << 20;
  CancelToken token;
  CancelScope scope(token);
  std::int64_t visited = 0;
  try {
    parallel_for(kN, [&](std::int64_t) {
      token.request_cancel();
      atomic_fetch_add(visited, std::int64_t{1});
    });
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
  // Every participant finishes at most the chunk it was executing when
  // the token was raised, so nearly all of the index space is skipped.
  EXPECT_GT(visited, 0);
  EXPECT_LT(visited, kN / 2);
}

TEST_P(CancelWithThreads, ReduceCancelThrows) {
  constexpr std::int64_t kN = 1 << 20;
  CancelToken token;
  CancelScope scope(token);
  EXPECT_THROW(
      (void)parallel_reduce(
          kN, std::int64_t{0},
          [&](std::int64_t i) {
            token.request_cancel();
            return i;
          },
          [](std::int64_t a, std::int64_t b) { return a + b; }),
      CancelledError);
}

TEST_P(CancelWithThreads, NestedLaunchUnwindsOnlyAtTopLevel) {
  constexpr std::int64_t kN = 1 << 18;
  CancelToken token;
  CancelScope scope(token);
  std::int64_t inner_iterations = 0;
  EXPECT_THROW(
      parallel_for(kN, [&](std::int64_t) {
        // The nested launch observes the raised token and stops claiming
        // chunks — it must NOT throw from a worker (that would
        // std::terminate). Only the outer dispatch throws.
        token.request_cancel();
        parallel_for(1024, [&](std::int64_t) {
          atomic_fetch_add(inner_iterations, std::int64_t{1});
        });
      }),
      CancelledError);
}

TEST_P(CancelWithThreads, ScanSerialFastPathChecksToken) {
  // n < 4096 takes exclusive_scan's serial path, which bypasses the
  // pool; it must still honor a pre-raised token without touching data.
  CancelToken token;
  token.request_cancel(CancelReason::kDeadlineExceeded);
  CancelScope scope(token);
  std::vector<std::int64_t> data(100, 7);
  try {
    (void)exclusive_scan(data.data(), static_cast<std::int64_t>(data.size()));
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadlineExceeded);
  }
  for (std::int64_t v : data) EXPECT_EQ(v, 7);  // untouched
}

TEST_P(CancelWithThreads, ScanParallelPathChecksToken) {
  CancelToken token;
  token.request_cancel();
  CancelScope scope(token);
  std::vector<std::int64_t> data(100000, 1);
  EXPECT_THROW(
      (void)exclusive_scan(data.data(), static_cast<std::int64_t>(data.size())),
      CancelledError);
}

TEST_P(CancelWithThreads, PoolStaysUsableAfterCancellation) {
  CancelToken token;
  {
    CancelScope scope(token);
    token.request_cancel();
    EXPECT_THROW(parallel_for(1 << 20, [](std::int64_t) {}), CancelledError);
  }
  // Out of scope: the next launch runs to completion.
  std::int64_t visited = 0;
  parallel_for(12345, [&](std::int64_t) {
    atomic_fetch_add(visited, std::int64_t{1});
  });
  EXPECT_EQ(visited, 12345);
}

// --- Engine-level cancellation safety ------------------------------------

TEST_P(CancelWithThreads, PreCancelledEngineRunLaunchesNoKernels) {
  const auto points = testing::clustered_points<2>(2000, 5, 1.0f, 0.02f, 11);
  Engine<2> engine(points);
  CancelToken token;
  token.request_cancel();
  CancelScope scope(token);
  const KernelProfileSnapshot before = kernel_profile();
  EXPECT_THROW((void)engine.run({0.05f, 10}), CancelledError);
  const KernelProfileSnapshot after = kernel_profile();
  EXPECT_EQ(after.launches, before.launches);  // begin_run fails first
  EXPECT_FALSE(engine.index_built());
}

TEST_P(CancelWithThreads, CancelledIndexBuildLeavesNoPartialPack) {
  // index() has no entry check, so a raised token cancels its first
  // kernel, the SoA pack, before any chunk runs. The next build must
  // pack again rather than build over the empty store.
  const auto points = testing::clustered_points<2>(3000, 5, 1.0f, 0.02f, 13);
  const Parameters params{0.02f, 5};
  Engine<2> reference(points);
  const Clustering expected = reference.run(params);
  Engine<2> engine(points);
  {
    CancelToken token;
    token.request_cancel();
    CancelScope scope(token);
    EXPECT_THROW((void)engine.index(), CancelledError);
  }
  EXPECT_FALSE(engine.index_built());
  const Clustering fresh = engine.run(params);
  EXPECT_EQ(fresh.is_core, expected.is_core);
  EXPECT_EQ(fresh.distance_computations, expected.distance_computations);
  const auto check = equivalent_clusterings(points, params, expected, fresh);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST_P(CancelWithThreads, EngineBitIdenticalAfterMidRunCancel) {
  const std::int64_t n = 30000;
  const auto points = testing::clustered_points<2>(n, 8, 1.0f, 0.02f, 23);
  const Parameters params{0.03f, 10};

  Engine<2> reference(points);
  const Clustering expected = reference.run(params);

  Engine<2> engine(points);
  CancelToken token;
  // Raise the token from a second thread once kernels start making
  // progress, so the cancellation lands mid-run (if the run wins the
  // race and completes, the test still verifies the reuse contract).
  std::atomic<bool> stop_watcher{false};
  const std::int64_t chunk_baseline = kernel_profile().chunks;
  std::thread watcher([&] {
    while (!stop_watcher.load(std::memory_order_relaxed)) {
      if (kernel_profile().chunks > chunk_baseline + 4) {
        token.request_cancel();
        return;
      }
      std::this_thread::yield();
    }
  });
  bool cancelled = false;
  {
    CancelScope scope(token);
    try {
      (void)engine.run(params);  // run may win the race and complete
    } catch (const CancelledError&) {
      cancelled = true;
    }
  }
  stop_watcher.store(true, std::memory_order_relaxed);
  watcher.join();

  // The same engine, uncancelled, must now produce a correct clustering:
  // the union-find/compact scratch is rewritten from scratch each run and
  // the caches only ever publish fully-built indexes. Parallel labelings
  // may differ in the legitimate border-point sense (see
  // test_thread_invariance.cpp); serially the output is bit-identical.
  const Clustering fresh = engine.run(params);
  const auto check = equivalent_clusterings(points, params, expected, fresh);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(fresh.is_core, expected.is_core);
  EXPECT_EQ(fresh.num_clusters, expected.num_clusters);
  if (GetParam() == 1) {
    EXPECT_EQ(fresh.labels, expected.labels);
  }
  // And the engine keeps amortizing afterwards.
  const Clustering again = engine.run(params);
  EXPECT_EQ(again.num_clusters, expected.num_clusters);
  EXPECT_EQ(again.timings.index_rebuilds, 0);
  (void)cancelled;  // either race outcome is a valid test
}

TEST_P(CancelWithThreads, DenseboxEngineReusableAfterCancel) {
  const auto points = testing::clustered_points<2>(20000, 6, 1.0f, 0.01f, 5);
  const Parameters params{0.02f, 10};

  Engine<2> reference(points);
  const Clustering expected = reference.run_densebox(params);

  Engine<2> engine(points);
  CancelToken token;
  std::atomic<bool> stop_watcher{false};
  const std::int64_t chunk_baseline = kernel_profile().chunks;
  std::thread watcher([&] {
    while (!stop_watcher.load(std::memory_order_relaxed)) {
      if (kernel_profile().chunks > chunk_baseline + 4) {
        token.request_cancel();
        return;
      }
      std::this_thread::yield();
    }
  });
  {
    CancelScope scope(token);
    try {
      (void)engine.run_densebox(params);
    } catch (const CancelledError&) {
    }
  }
  stop_watcher.store(true, std::memory_order_relaxed);
  watcher.join();

  const Clustering fresh = engine.run_densebox(params);
  const auto check = equivalent_clusterings(points, params, expected, fresh);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(fresh.is_core, expected.is_core);
  EXPECT_EQ(fresh.num_clusters, expected.num_clusters);
  if (GetParam() == 1) {
    EXPECT_EQ(fresh.labels, expected.labels);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, CancelWithThreads,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace fdbscan::exec
