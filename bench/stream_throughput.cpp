// StreamingEngine benchmarks (DESIGN.md §14): the streaming-session
// claims that are gateable, each as one deterministic single-shot entry.
//
//   sliding_window/{ngsim,porto,hacc}  a sliding window replayed over a
//                generator stream: every step expires the oldest prefix,
//                inserts the next batch and queries; each query's labels
//                must be equivalent to a from-scratch run over the live
//                set (stream_equiv_failures == 0), and every query that
//                follows an expiry must do exactly the work of that
//                from-scratch run — it reclusters the compacted window
//                with Engine::run (expiry_queries > 0,
//                expiry_work_mismatches == 0).
//   warm_append  the zero-rebuild amortization claim: after the lazy
//                initial build, sub-threshold appends are absorbed into
//                the incremental union-find against the side buffer and
//                every query reports timings.index_rebuilds == 0
//                (warm_query_rebuilds == 0).
//
// The equivalence verdicts, work counters and rebuild counts derive from
// the bit-deterministic core flags and traversals
// (test_thread_invariance), so they are worker-count invariant and
// gateable at 0%: tools/bench_compare.py --gate-stream enforces the
// invariants, and a run in which no entry carries the counters is
// itself a gate failure (vacuous != passing).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/fdbscan.h"
#include "core/validate.h"
#include "data/generators.h"
#include "data/sliding_window.h"
#include "stream/streaming_engine.h"

namespace {

using namespace fdbscan;
using namespace fdbscan::bench;

/// Replays `arrivals` through a SlidingWindow-driven StreamingEngine and
/// stages the gate counters: every step's query is checked against a
/// from-scratch fdbscan() over the live set, and every query that
/// follows an expiry must match that run's distance computations.
template <int DIM>
void run_sliding_window(benchmark::State& state,
                        const std::vector<Point<DIM>>& arrivals,
                        Parameters params, std::int64_t window,
                        std::int64_t batch) {
  std::int64_t failures = 0;
  std::int64_t steps = 0;
  std::int64_t expiry_queries = 0;
  std::int64_t work_mismatches = 0;
  stream::StreamingEngine<DIM> engine(params);
  data::SlidingWindow<DIM> driver(arrivals, window, batch);
  while (!driver.done()) {
    const data::WindowStep<DIM> step = driver.next();
    const bool expired = engine.expire(step.expire_before) > 0;
    engine.insert(step.batch);
    const Clustering streamed = engine.query();
    const std::vector<Point<DIM>> live = driver.live_points();
    const Clustering reference = fdbscan::fdbscan(live, params);
    if (!equivalent_clusterings(live, params, reference, streamed).ok) {
      ++failures;
    }
    if (expired) {
      ++expiry_queries;
      if (streamed.distance_computations != reference.distance_computations) {
        ++work_mismatches;
      }
    }
    ++steps;
  }
  const stream::StreamCounters c = engine.counters();
  state.counters["stream_steps"] = static_cast<double>(steps);
  state.counters["stream_equiv_checked"] = static_cast<double>(steps);
  state.counters["stream_equiv_failures"] = static_cast<double>(failures);
  state.counters["expiry_queries"] = static_cast<double>(expiry_queries);
  state.counters["expiry_work_mismatches"] =
      static_cast<double>(work_mismatches);
  state.counters["stream_rebuilds"] = static_cast<double>(c.index_rebuilds);
  state.counters["points_inserted"] = static_cast<double>(c.points_inserted);
  state.counters["points_expired"] = static_cast<double>(c.points_expired);
  state.counters["incremental_inserts"] =
      static_cast<double>(c.incremental_inserts);
  state.counters["refinalized_queries"] =
      static_cast<double>(c.refinalized_queries);
  state.counters["full_refreshes"] = static_cast<double>(c.full_refreshes);
}

void register_all() {
  // Floors keep the window geometry meaningful at tiny smoke scales.
  const std::int64_t n = std::max<std::int64_t>(scaled(4800), 480);
  const std::int64_t batch = std::max<std::int64_t>(n / 48, 10);
  const std::int64_t window = 20 * batch;

  register_custom(
      "stream_throughput/sliding_window/ngsim/n=" + std::to_string(n),
      RunMeta{"ngsim-like", "stream", n}, [=](benchmark::State& state) {
        run_sliding_window<2>(state, data::ngsim_like(n, 5),
                              Parameters{0.02f, 5}, window, batch);
      });

  register_custom(
      "stream_throughput/sliding_window/porto/n=" + std::to_string(n),
      RunMeta{"porto-like", "stream", n}, [=](benchmark::State& state) {
        run_sliding_window<2>(state, data::porto_taxi_like(n, 9),
                              Parameters{0.03f, 5}, window, batch);
      });

  register_custom(
      "stream_throughput/sliding_window/hacc/n=" + std::to_string(n),
      RunMeta{"hacc-like", "stream", n}, [=](benchmark::State& state) {
        run_sliding_window<3>(state, data::hacc_like(n, 13),
                              Parameters{0.035f, 4}, window, batch);
      });

  // --- Zero-rebuild warm appends ------------------------------------------
  register_custom(
      "stream_throughput/warm_append/n=" + std::to_string(n),
      RunMeta{"gaussian", "stream", n}, [=](benchmark::State& state) {
        const Parameters params{0.05f, 5};
        constexpr std::int64_t kAppends = 8;
        // Total appended volume stays under rebuild_fraction * seed, so
        // the side buffer absorbs every batch without a rebuild.
        const std::int64_t b = std::max<std::int64_t>(n / 64, 4);
        const auto seed = data::gaussian_mixture2(n, 5, 1.0f, 0.01f, 21);
        const auto extra = data::gaussian_mixture2(kAppends * b, 5, 1.0f,
                                                   0.01f, 22);
        stream::StreamingEngine<2> engine(seed, params);
        const Clustering first = engine.query();  // pays the lazy build
        std::int64_t warm_checked = 0;
        std::int64_t warm_rebuilds = first.timings.index_rebuilds - 1;
        std::int64_t failures = 0;
        for (std::int64_t i = 0; i < kAppends; ++i) {
          engine.insert(std::span<const Point2>(extra.data() +
                                                    static_cast<std::size_t>(
                                                        i * b),
                                                static_cast<std::size_t>(b)));
          const Clustering streamed = engine.query();
          ++warm_checked;
          warm_rebuilds += streamed.timings.index_rebuilds;
          const std::vector<Point2> live = engine.live_points();
          const Clustering reference = fdbscan::fdbscan(live, params);
          if (!equivalent_clusterings(live, params, reference, streamed).ok) {
            ++failures;
          }
        }
        const stream::StreamCounters c = engine.counters();
        state.counters["stream_equiv_checked"] =
            static_cast<double>(warm_checked);
        state.counters["stream_equiv_failures"] =
            static_cast<double>(failures);
        state.counters["warm_queries_checked"] =
            static_cast<double>(warm_checked);
        state.counters["warm_query_rebuilds"] =
            static_cast<double>(warm_rebuilds);
        state.counters["stream_rebuilds"] =
            static_cast<double>(c.index_rebuilds);
        state.counters["stream_rebuild_bound"] = 1.0;  // the lazy build only
        state.counters["incremental_inserts"] =
            static_cast<double>(c.incremental_inserts);
        state.counters["refinalized_queries"] =
            static_cast<double>(c.refinalized_queries);
      });
}

const bool registered = (register_all(), true);

}  // namespace
