// Reusable clustering engine — index builds and workspace allocations
// amortized across runs (DESIGN.md §9).
//
// The free functions fdbscan() / fdbscan_densebox() rebuild the BVH and
// every O(n) scratch buffer per call. That is the right shape for one-shot
// clustering and exactly the wrong one for the workloads the benches model:
// parameter sweeps (fig4_eps, fig4_minpts) and repeated traffic re-cluster
// the *same* points, yet pay index construction and full reallocation
// every iteration. An Engine is constructed once from a point set and
// owns, across runs:
//
//   * the point BVH — eps-independent (eps is a query parameter, §4.1),
//     so a whole (eps, minpts) sweep needs exactly one build;
//   * a small LRU cache of DenseBox index bundles (DenseGrid + mixed-
//     primitive BVH + isolated ids), keyed by (eps, cell_width_factor,
//     max(minpts, 1)) — the grid IS eps/minpts-dependent (§4.2), so only
//     repeats hit, but a hit skips the entire index phase;
//   * a grow-only workspace (exec/workspace.h) for the union-find parents
//     and the finalization rank scratch, so a warmed run performs zero
//     heap allocations beyond the result vectors it hands to the caller.
//
// run()/run_densebox()/sweep() execute the exact kernels of the free
// functions — same launches, same order — so labels are bit-identical to
// the one-shot path at any worker count (tests/test_engine.cpp). The free
// functions are thin wrappers constructing a one-shot Engine.
//
// Thread-safety: one engine = one concurrent run. Runs mutate the cache,
// the counters and the workspace; clustering different parameter sets in
// parallel takes one Engine per thread (they can share the points).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bvh/bvh.h"
#include "core/clustering.h"
#include "exec/cancel.h"
#include "exec/graph/task_graph.h"
#include "exec/per_thread.h"
#include "exec/profile.h"
#include "exec/simd.h"
#include "exec/workspace.h"
#include "geometry/point.h"
#include "geometry/points_view.h"
#include "grid/dense_grid.h"

namespace fdbscan {

/// A clustering run decomposed into its dependency-ordered phases
/// (index → pre → main → finalize). Executing the phases in order —
/// serially (Engine::run does exactly this) or as a task-graph chain
/// (exec/graph) — performs the identical kernel launches in the
/// identical order, so labels and work counters are bit-identical
/// between the two paths at any worker count. The phase closures share
/// ownership of all intermediate state; `result` holds the clustering
/// once the last phase has run. The engine must outlive the phases
/// (runs still serialize per engine: one staged run at a time).
struct StagedRun {
  std::vector<exec::graph::Phase> phases;
  std::shared_ptr<Clustering> result;
};

struct EngineConfig {
  /// Maximum number of DenseBox index bundles kept alive (LRU evicted).
  std::int32_t grid_cache_capacity = 4;
  /// Optional device-memory accounting for everything the engine owns:
  /// the point BVH, the cached grid bundles and the workspace arena.
  /// Charged when built/grown, released on eviction/destruction.
  exec::MemoryTracker* memory = nullptr;
};

/// Cumulative amortization counters since engine construction.
struct EngineCounters {
  std::int64_t runs = 0;             ///< clustering runs executed
  std::int64_t index_builds = 0;     ///< BVH constructions (point or mixed)
  std::int64_t grid_builds = 0;      ///< DenseBox bundle builds (cache misses)
  std::int64_t grid_cache_hits = 0;  ///< DenseBox bundle reuses
  std::int64_t grid_cache_evictions = 0;
  std::int64_t workspace_reallocs = 0;  ///< workspace arena growths
  /// Sharded executors dropped by the service holder's per-dataset LRU
  /// (service/service.h). Always 0 for a standalone Engine — the field
  /// lives here so pool/dataset telemetry folds it like the others.
  std::int64_t sharded_evictions = 0;
};

template <int DIM>
class Engine {
 public:
  /// The engine borrows `points`: the caller keeps ownership and must
  /// keep the vector alive and unmodified for the engine's lifetime
  /// (points are immutable input — re-clustering new data is a new
  /// engine, there is no invalidation path). Mutable point sets layer on
  /// top rather than in here: stream/streaming_engine.h pairs an Engine
  /// over a frozen base with a side delta buffer and replaces the engine
  /// wholesale at rebuild, keeping this immutability contract intact.
  explicit Engine(const std::vector<Point<DIM>>& points,
                  EngineConfig config = {})
      : points_(&points),
        config_(config),
        workspace_(kNumSlots, config.memory) {}

  /// Same, with a pre-packed SoA mirror of `points` (e.g. the sharded
  /// gather fills both layouts in one pass). The store feeds the index
  /// build and is released afterwards; it must match `points`
  /// element-for-element.
  Engine(const std::vector<Point<DIM>>& points, PointsStore<DIM>&& soa,
         EngineConfig config = {})
      : points_(&points),
        config_(config),
        workspace_(kNumSlots, config.memory),
        pending_soa_(std::move(soa)) {}

  ~Engine() {
    if (config_.memory) {
      if (bvh_) config_.memory->release(bvh_bytes_);
      for (const auto& entry : grid_cache_) {
        config_.memory->release(entry->tracked_bytes);
      }
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return points_->size(); }
  [[nodiscard]] const std::vector<Point<DIM>>& points() const noexcept {
    return *points_;
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }

  /// True once the point BVH exists (a subsequent run() rebuilds nothing).
  [[nodiscard]] bool index_built() const noexcept { return bvh_ != nullptr; }

  /// True when a run_densebox(params, options) would hit the bundle cache.
  [[nodiscard]] bool grid_cached(const Parameters& params,
                                 const Options& options = {}) const noexcept {
    return find_grid(params, options) != nullptr;
  }

  /// The engine's point BVH, built on first use (counted in
  /// counters().index_builds exactly like a run()'s index phase). The
  /// sharded executor (shard/sharded_engine.h) drives the two-phase
  /// kernels itself over per-shard engines and needs the raw index; the
  /// returned reference stays valid for the engine's lifetime.
  [[nodiscard]] const Bvh<DIM>& index() { return ensure_bvh(); }

  /// FDBSCAN (§4.1) over the engine's points. Bit-identical to
  /// fdbscan(points, params, options) at any worker count; the index
  /// phase is ~free on every run after the first. Implemented as the
  /// serial execution of stage(): one code path for fork-join and graph.
  [[nodiscard]] Clustering run(const Parameters& params,
                               const Options& options = {}) {
    StagedRun staged = stage(params, options);
    for (exec::graph::Phase& phase : staged.phases) phase.fn();
    return std::move(*staged.result);
  }

  /// FDBSCAN decomposed into its four phases for the task-graph runtime
  /// (DESIGN.md §15). Counts as a run (begin_run() happens here, so a
  /// pre-cancelled token fast-fails before any node is queued); the
  /// phase closures perform the exact kernels of the one-shot path.
  [[nodiscard]] StagedRun stage(const Parameters& params,
                                const Options& options = {}) {
    StagedRun staged;
    staged.result = std::make_shared<Clustering>();
    const auto n = static_cast<std::int64_t>(points_->size());
    if (n == 0) return staged;  // empty phases; *result is already {}
    auto st = std::make_shared<StageState>();
    st->params = params;
    st->options = options;
    st->n = n;
    st->eps2 = params.eps * params.eps;
    st->snap = begin_run();

    staged.phases.push_back(exec::graph::Phase{"fdbscan/index", [this, st] {
      // The result vectors (labels + core flags) are the caller's
      // product; charge them to the per-run tracker like the one-shot
      // path always did. Engine-owned state is charged to config.memory.
      // Charge and profiler start here — not at stage time — so queue
      // wait ahead of the first node never counts as index time.
      st->charge.emplace(
          st->options.memory,
          points_->size() * (sizeof(std::int32_t) + sizeof(std::uint8_t)));
      st->timer.emplace();
      st->bvh = &ensure_bvh();
      st->timings.index_construction = st->timer->lap(
          "fdbscan/index", &st->timings.index_construction_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{"fdbscan/pre", [this, st] {
      // --- Preprocessing: determine core points ---------------------------
      // Work counters accumulate into striped per-thread slots: a shared
      // atomic here would serialize every traversal thread on one cache
      // line.
      const auto& points = *points_;
      const Bvh<DIM>& bvh = *st->bvh;
      const Parameters params = st->params;
      const Options& options = st->options;
      const float eps2 = st->eps2;
      st->is_core.assign(points.size(), 0);
      auto& is_core = st->is_core;
      if (params.minpts <= 1) {
        // Degenerate density threshold: every point is core.
        exec::parallel_for("fdbscan/pre/all-core", st->n, [&](std::int64_t i) {
          is_core[static_cast<std::size_t>(i)] = 1;
        });
      } else if (params.minpts > 2) {
        // Launched over sorted leaf positions, like the main phase: the
        // §3.2 batched launch, where neighboring threads query neighboring
        // points. The query point is read from the sorted leaf array (a
        // point's leaf box is {p, p}), so consecutive threads read
        // consecutive memory instead of gathering points[x].
        exec::parallel_for("fdbscan/pre/core-count", st->n,
                           [&](std::int64_t pos) {
          const auto sorted_pos = static_cast<std::int32_t>(pos);
          const std::int32_t x = bvh.primitive_at(sorted_pos);
          std::int32_t count = 0;  // the traversal finds x itself at distance 0
          TraversalStats stats;  // stack-local: increments stay in registers
          bvh.for_each_near(
              bvh.leaf_bounds(sorted_pos).min, eps2, 0,
              [&](std::int32_t, std::int32_t) {
                ++count;
                return (options.early_exit && count >= params.minpts)
                           ? TraversalControl::kTerminate
                           : TraversalControl::kContinue;
              },
              &stats);
          if (count >= params.minpts) is_core[static_cast<std::size_t>(x)] = 1;
          st->work.local() += stats;
        });
      }
      st->timings.preprocessing =
          st->timer->lap("fdbscan/pre", &st->timings.preprocessing_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{"fdbscan/main", [this, st] {
      // --- Main phase: fused traversal + union-find -----------------------
      const auto& points = *points_;
      const Bvh<DIM>& bvh = *st->bvh;
      const Options& options = st->options;
      const float eps2 = st->eps2;
      auto& is_core = st->is_core;
      st->labels = workspace_.acquire<std::int32_t>(kUnionFind, points.size());
      init_singletons(st->labels.data(), static_cast<std::int32_t>(st->n));
      UnionFindView uf(st->labels.data(), static_cast<std::int32_t>(st->n));
      const bool fof = st->params.minpts == 2;  // Friends-of-Friends fast path

      exec::parallel_for("fdbscan/main/traverse-union", st->n,
                         [&](std::int64_t pos) {
        // Threads are assigned sorted leaf positions (not raw ids) so that
        // neighboring threads touch neighboring memory — the batched, low
        // data-divergence launch of §3.2. The query point comes from the
        // sorted leaf array, as in the pre phase.
        const auto sorted_pos = static_cast<std::int32_t>(pos);
        const std::int32_t x = bvh.primitive_at(sorted_pos);
        const Point<DIM>& px = bvh.leaf_bounds(sorted_pos).min;
        const std::int32_t mask = options.masked_traversal ? sorted_pos + 1 : 0;
        TraversalStats stats;
        bvh.for_each_near(
            px, eps2, mask,
            [&](std::int32_t, std::int32_t y) {
              if (y != x) {
                if (fof) {
                  // Any eps-close pair consists of two core points (|N| >= 2).
                  exec::atomic_store_relaxed(
                      is_core[static_cast<std::size_t>(x)], std::uint8_t{1});
                  exec::atomic_store_relaxed(
                      is_core[static_cast<std::size_t>(y)], std::uint8_t{1});
                  uf.merge(x, y);
                } else {
                  detail::resolve_pair(uf, is_core, x, y, options.variant);
                }
              }
              return TraversalControl::kContinue;
            },
            &stats);
        st->work.local() += stats;
      });
      st->timings.main = st->timer->lap("fdbscan/main", &st->timings.main_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{
        "fdbscan/finalize", [this, st, result = staged.result] {
      // --- Finalization ---------------------------------------------------
      flatten(st->labels.data(), static_cast<std::int32_t>(st->n));
      std::span<std::int32_t> compact =
          workspace_.acquire<std::int32_t>(kCompact, points_->size());
      Clustering out = detail::finalize_labels_with_scratch(
          st->labels.data(), st->n, std::move(st->is_core), compact.data());
      st->timings.finalization = st->timer->lap(
          "fdbscan/finalize", &st->timings.finalization_profile);
      out.timings = st->timings;
      const TraversalStats total_work = st->work.combine();
      out.distance_computations = total_work.leaves_tested;
      out.index_nodes_visited = total_work.nodes_visited;
      end_run(st->snap, out, st->options);
      // Release the per-run tracker charge here, not when the StageState
      // dies with the GraphRun: the caller may destroy its per-request
      // Options::memory tracker as soon as the result future resolves,
      // and the deferred release would then touch a dead tracker.
      st->charge.reset();
      *result = std::move(out);
    }});
    return staged;
  }

  /// FDBSCAN-DenseBox (§4.2) over the engine's points. The grid + mixed
  /// BVH bundle is cached by (eps, cell_width_factor, max(minpts, 1)):
  /// re-running a cached configuration skips the entire index phase.
  /// Like run(), the serial execution of stage_densebox().
  [[nodiscard]] Clustering run_densebox(const Parameters& params,
                                        const Options& options = {}) {
    StagedRun staged = stage_densebox(params, options);
    for (exec::graph::Phase& phase : staged.phases) phase.fn();
    return std::move(*staged.result);
  }

  /// FDBSCAN-DenseBox decomposed into its four phases for the task-graph
  /// runtime (DESIGN.md §15); see stage().
  [[nodiscard]] StagedRun stage_densebox(const Parameters& params,
                                         const Options& options = {}) {
    StagedRun staged;
    staged.result = std::make_shared<Clustering>();
    const auto n = static_cast<std::int64_t>(points_->size());
    if (n == 0) return staged;  // empty phases; *result is already {}
    auto st = std::make_shared<StageState>();
    st->params = params;
    st->options = options;
    st->n = n;
    st->eps2 = params.eps * params.eps;
    st->snap = begin_run();

    staged.phases.push_back(exec::graph::Phase{"densebox/index", [this, st] {
      st->charge.emplace(
          st->options.memory,
          points_->size() * (sizeof(std::int32_t) + sizeof(std::uint8_t)));
      st->timer.emplace();
      // --- Index: grid + BVH over mixed primitives, cached ----------------
      // The entry pointer stays valid through the run: one run at a time
      // per engine, and ensure_grid is only called from index phases.
      st->grid = &ensure_grid(st->params, st->options);
      st->timings.index_construction = st->timer->lap(
          "densebox/index", &st->timings.index_construction_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{"densebox/pre", [this, st] {
      const auto& points = *points_;
      const GridEntry& entry = *st->grid;
      const DenseGrid<DIM>& grid = entry.grid;
      const Bvh<DIM>& bvh = entry.bvh;
      const std::vector<std::int32_t>& isolated_ids = entry.isolated_ids;
      const std::int32_t num_cells = grid.num_dense_cells();
      const auto& cells = grid.cells();
      const auto& perm = grid.permutation();
      const std::int32_t dense_points = grid.points_in_dense_cells();
      const auto num_isolated =
          static_cast<std::int32_t>(st->n) - dense_points;  // outside cells
      const Parameters params = st->params;
      const Options& options = st->options;
      const float eps2 = st->eps2;
      auto& is_core = st->is_core;

      // --- Preprocessing ---------------------------------------------------
      // Work accounting: explicit within() scans over dense-cell members
      // plus every leaf-primitive bounds test (exact for point primitives,
      // a box-distance test for dense-box primitives) count as distance
      // computations; internal node tests count as index work. Tallies go
      // into striped per-thread slots (leaves_tested absorbs the member
      // scans) — never a shared atomic in the traversal loop.
      is_core.assign(points.size(), 0);
      exec::parallel_for("densebox/pre/dense-core", dense_points,
                         [&](std::int64_t k) {
        is_core[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])] =
            1;
      });
      if (params.minpts <= 1) {
        exec::parallel_for("densebox/pre/all-core", st->n,
                           [&](std::int64_t i) {
          is_core[static_cast<std::size_t>(i)] = 1;
        });
      } else if (params.minpts > 2) {
        const auto member_axes = grid.member_axes();
        exec::parallel_for("densebox/pre/core-count", num_isolated,
                           [&](std::int64_t k) {
          const std::int32_t x = isolated_ids[static_cast<std::size_t>(k)];
          const auto& px = points[static_cast<std::size_t>(x)];
          std::int32_t count = 0;  // includes x itself (found as a primitive)
          std::int64_t scans = 0;
          TraversalStats stats;  // stack-local: increments stay in registers
          bvh.for_each_near(
              px, eps2, 0,
              [&](std::int32_t, std::int32_t pid) {
                if (pid < num_cells) {
                  // Lane-group membership scan over the cell's SoA span;
                  // `scans` advances group-granularly (exec/simd.h), and
                  // the early stop lands on the same cell as a per-member
                  // scan would (the threshold is reached at the group
                  // holding the minpts-th neighbor).
                  const CellRange& cell = cells[static_cast<std::size_t>(pid)];
                  count += simd::count_within<DIM>(
                      member_axes, cell.begin, cell.end, px, eps2,
                      options.early_exit ? params.minpts - count
                                         : std::int32_t{0},
                      scans);
                  if (options.early_exit && count >= params.minpts) {
                    return TraversalControl::kTerminate;
                  }
                } else {
                  ++count;  // point primitive: bounds test already was exact
                  if (options.early_exit && count >= params.minpts) {
                    return TraversalControl::kTerminate;
                  }
                }
                return TraversalControl::kContinue;
              },
              &stats);
          if (count >= params.minpts) is_core[static_cast<std::size_t>(x)] = 1;
          stats.leaves_tested += scans;
          st->work.local() += stats;
        });
      }
      st->timings.preprocessing =
          st->timer->lap("densebox/pre", &st->timings.preprocessing_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{"densebox/main", [this, st] {
      const auto& points = *points_;
      const GridEntry& entry = *st->grid;
      const DenseGrid<DIM>& grid = entry.grid;
      const Bvh<DIM>& bvh = entry.bvh;
      const std::vector<std::int32_t>& isolated_ids = entry.isolated_ids;
      const std::int32_t num_cells = grid.num_dense_cells();
      const auto& cells = grid.cells();
      const auto& perm = grid.permutation();
      const auto num_isolated = static_cast<std::int32_t>(
          isolated_ids.size());
      const Parameters params = st->params;
      const Options& options = st->options;
      const float eps2 = st->eps2;
      auto& is_core = st->is_core;

      // --- Main phase -------------------------------------------------------
      st->labels = workspace_.acquire<std::int32_t>(kUnionFind, points.size());
      init_singletons(st->labels.data(), static_cast<std::int32_t>(st->n));
      UnionFindView uf(st->labels.data(), static_cast<std::int32_t>(st->n));
      const bool fof = params.minpts == 2;

      // Union every dense cell internally (all members are one cluster).
      exec::parallel_for("densebox/main/cell-union", num_cells,
                         [&](std::int64_t c) {
        const CellRange& cell = cells[static_cast<std::size_t>(c)];
        const std::int32_t first = perm[static_cast<std::size_t>(cell.begin)];
        for (std::int32_t m = cell.begin + 1; m < cell.end; ++m) {
          uf.merge(first, perm[static_cast<std::size_t>(m)]);
        }
      });

      // Cell graph: every dense cell walks the tree with its member
      // bounds, masked to the leaves after its own, so each pair of
      // eps-close boxes is visited once, from the cell whose leaf comes
      // first. One eps-close member pair (members_within, the early-exit
      // closest-pair test) joins the two cells — both are all core.
      const auto member_axes = grid.member_axes();
      exec::parallel_for("densebox/main/cell-pairs", num_cells,
                         [&](std::int64_t c) {
        const CellRange& a = cells[static_cast<std::size_t>(c)];
        const std::int32_t pos = bvh.position_of(static_cast<std::int32_t>(c));
        const Box<DIM>& a_box = bvh.leaf_bounds(pos);
        std::int64_t scans = 0;
        TraversalStats stats;
        bvh.for_each_near(
            a_box, eps2, pos + 1,
            [&](std::int32_t other_pos, std::int32_t pid) {
              if (pid < num_cells) {
                const CellRange& b = cells[static_cast<std::size_t>(pid)];
                if (members_within<DIM>(member_axes, a.begin, a.end, a_box,
                                        b.begin, b.end,
                                        bvh.leaf_bounds(other_pos), eps2,
                                        scans, stats.nodes_visited)) {
                  uf.merge(perm[static_cast<std::size_t>(a.begin)],
                           perm[static_cast<std::size_t>(b.begin)]);
                }
              }
              return TraversalControl::kContinue;
            },
            &stats);
        stats.leaves_tested += scans;
        st->work.local() += stats;
      });

      // Tree search for the isolated points only, in grid order (the
      // permutation tail lists them by cell). An isolated point resolves
      // each of its edges to a dense cell from its own side: it merges
      // if core, is claimed if not (DBSCAN), and under FoF any eps-close
      // member makes it core. Dense members therefore never traverse.
      exec::parallel_for("densebox/main/traverse-union", num_isolated,
                         [&](std::int64_t k) {
        const std::int32_t x = isolated_ids[static_cast<std::size_t>(k)];
        const auto& px = points[static_cast<std::size_t>(x)];
        // Atomic: in the FoF path other threads set is_core[x] concurrently.
        const bool xc =
            exec::atomic_load_relaxed(is_core[static_cast<std::size_t>(x)]) !=
            0;
        std::int64_t scans = 0;
        TraversalStats stats;
        bvh.for_each_near(
            px, eps2, 0,
            [&](std::int32_t, std::int32_t pid) {
          if (pid < num_cells) {
            const CellRange& cell = cells[static_cast<std::size_t>(pid)];
            // One eps-close witness connects x to the whole (core) cell.
            // The lane-group scan returns the lowest-index witness — the
            // same member a sequential scan finds — so merge targets are
            // unchanged; `scans` advances group-granularly (exec/simd.h).
            const std::int32_t m = simd::first_within<DIM>(
                member_axes, cell.begin, cell.end, px, eps2, scans);
            if (m >= 0) {
              const std::int32_t y = perm[static_cast<std::size_t>(m)];
              if (fof) {
                exec::atomic_store_relaxed(
                    is_core[static_cast<std::size_t>(x)], std::uint8_t{1});
                uf.merge(x, y);
              } else if (xc) {
                uf.merge(x, y);
              } else if (options.variant == Variant::kDbscan) {
                uf.claim(x, y);
              }
            }
          } else {
            const std::int32_t y =
                isolated_ids[static_cast<std::size_t>(pid - num_cells)];
            if (y != x) {
              if (fof) {
                exec::atomic_store_relaxed(
                    is_core[static_cast<std::size_t>(x)], std::uint8_t{1});
                exec::atomic_store_relaxed(
                    is_core[static_cast<std::size_t>(y)], std::uint8_t{1});
                uf.merge(x, y);
              } else {
                detail::resolve_pair(uf, is_core, x, y, options.variant);
              }
            }
          }
          return TraversalControl::kContinue;
            },
            &stats);
        stats.leaves_tested += scans;
        st->work.local() += stats;
      });
      st->timings.main =
          st->timer->lap("densebox/main", &st->timings.main_profile);
    }});

    staged.phases.push_back(exec::graph::Phase{
        "densebox/finalize", [this, st, result = staged.result] {
      // --- Finalization ---------------------------------------------------
      flatten(st->labels.data(), static_cast<std::int32_t>(st->n));
      std::span<std::int32_t> compact =
          workspace_.acquire<std::int32_t>(kCompact, points_->size());
      Clustering out = detail::finalize_labels_with_scratch(
          st->labels.data(), st->n, std::move(st->is_core), compact.data());
      st->timings.finalization = st->timer->lap(
          "densebox/finalize", &st->timings.finalization_profile);
      out.timings = st->timings;
      const DenseGrid<DIM>& grid = st->grid->grid;
      out.num_dense_cells = grid.num_dense_cells();
      out.points_in_dense_cells = grid.points_in_dense_cells();
      const TraversalStats total_work = st->work.combine();
      out.distance_computations = total_work.leaves_tested;
      out.index_nodes_visited = total_work.nodes_visited;
      end_run(st->snap, out, st->options);
      st->charge.reset();  // see stage(): tracker must be idle once published
      *result = std::move(out);
    }});
    return staged;
  }

  /// Batched sweep: one clustering per parameter set, in order, sharing
  /// the index and workspace (the fig4 sweeps as one call — exactly one
  /// index build for the FDBSCAN algorithm, zero reallocations after the
  /// first run). `densebox` selects FDBSCAN-DenseBox for every run.
  [[nodiscard]] std::vector<Clustering> sweep(
      std::span<const Parameters> params_sweep, const Options& options = {},
      bool densebox = false) {
    std::vector<Clustering> results;
    results.reserve(params_sweep.size());
    for (const Parameters& params : params_sweep) {
      results.push_back(densebox ? run_densebox(params, options)
                                 : run(params, options));
    }
    return results;
  }

 private:
  // Workspace slots: union-find parents and the finalization rank array.
  // Both are raw scratch fully overwritten by every run.
  enum Slot : int { kUnionFind = 0, kCompact, kNumSlots };

  struct GridEntry {
    float eps;
    float width_factor;
    std::int32_t minpts;      // dense-cell threshold: max(params.minpts, 1)
    std::uint64_t last_use;   // LRU stamp
    DenseGrid<DIM> grid;
    Bvh<DIM> bvh;             // over dense-cell boxes + isolated points
    std::vector<std::int32_t> isolated_ids;
    std::size_t tracked_bytes;
  };

  struct RunSnapshot {
    std::int64_t index_builds;
    std::int64_t grid_cache_hits;
    std::int64_t workspace_reallocs;
  };

  /// Everything a staged run carries between its phases. Owned by a
  /// shared_ptr captured in every phase closure; destroyed with the
  /// StagedRun after the finalize phase has moved the result out.
  struct StageState {
    Parameters params;
    Options options;
    std::int64_t n = 0;
    float eps2 = 0.0f;
    RunSnapshot snap{};
    std::optional<exec::ScopedCharge> charge;  // released with the state
    std::optional<exec::PhaseProfiler> timer;  // starts in the index phase
    PhaseTimings timings;
    exec::PerThread<TraversalStats> work;
    std::vector<std::uint8_t> is_core;
    std::span<std::int32_t> labels;      // workspace slot, set by main
    const Bvh<DIM>* bvh = nullptr;       // fdbscan index
    const GridEntry* grid = nullptr;     // densebox index bundle
  };

  RunSnapshot begin_run() {
    // Fast-fail for requests whose token is already raised (pre-cancelled
    // submits, zero deadlines): no kernel launches, no index work. A
    // cancellation mid-run is safe for the engine — the union-find and
    // compact scratch are workspace slots whose contents are unspecified
    // between acquires and fully rewritten by every run, and the
    // index/grid caches only publish fully-built entries — so a cancelled
    // engine produces bit-identical results on its next run.
    exec::throw_if_cancelled();
    ++counters_.runs;
    return {counters_.index_builds, counters_.grid_cache_hits,
            workspace_.reallocs()};
  }

  void end_run(const RunSnapshot& snap, Clustering& result,
               const Options& options) {
    counters_.workspace_reallocs = workspace_.reallocs();
    result.timings.engine_run = true;
    result.timings.index_rebuilds =
        static_cast<std::int32_t>(counters_.index_builds - snap.index_builds);
    result.timings.grid_cache_hits = static_cast<std::int32_t>(
        counters_.grid_cache_hits - snap.grid_cache_hits);
    result.timings.workspace_reallocs = static_cast<std::int32_t>(
        workspace_.reallocs() - snap.workspace_reallocs);
    if (options.memory) {
      result.peak_memory_bytes = options.memory->peak();
    } else if (config_.memory) {
      result.peak_memory_bytes = config_.memory->peak();
    }
  }

  const Bvh<DIM>& ensure_bvh() {
    if (!bvh_) {
      // The build runs over the SoA layout (lane-group Morton encoding);
      // the store is build-only scratch — traversal reads the wide
      // nodes' lane boxes, never the raw coordinates — so it is packed
      // here (unless a caller supplied one) and freed right after.
      const auto n = static_cast<std::int64_t>(points_->size());
      if (pending_soa_.size() != n) {
        // Packed into a local and published only once complete: a pack
        // cancelled midway must not leave a partial store that the next
        // build would take as packed.
        PointsStore<DIM> soa;
        soa.resize(n);
        exec::parallel_for("fdbscan/index/pack-soa", n, [&](std::int64_t i) {
          soa.set(i, (*points_)[static_cast<std::size_t>(i)]);
        });
        pending_soa_ = std::move(soa);
      }
      bvh_ = std::make_unique<Bvh<DIM>>(pending_soa_.view());
      pending_soa_ = PointsStore<DIM>{};
      ++counters_.index_builds;
      bvh_bytes_ = bvh_->bytes_used();
      if (config_.memory) {
        try {
          config_.memory->charge(bvh_bytes_);
        } catch (...) {
          bvh_.reset();  // over budget: unwind like a failed cudaMalloc
          throw;
        }
      }
    }
    return *bvh_;
  }

  [[nodiscard]] const GridEntry* find_grid(
      const Parameters& params, const Options& options) const noexcept {
    const std::int32_t minpts_for_dense =
        std::max(params.minpts, std::int32_t{1});
    for (const auto& entry : grid_cache_) {
      if (entry->eps == params.eps &&
          entry->width_factor == options.densebox_cell_width_factor &&
          entry->minpts == minpts_for_dense) {
        return entry.get();
      }
    }
    return nullptr;
  }

  const GridEntry& ensure_grid(const Parameters& params,
                               const Options& options) {
    const std::int32_t minpts_for_dense =
        std::max(params.minpts, std::int32_t{1});
    for (auto& entry : grid_cache_) {
      if (entry->eps == params.eps &&
          entry->width_factor == options.densebox_cell_width_factor &&
          entry->minpts == minpts_for_dense) {
        ++counters_.grid_cache_hits;
        entry->last_use = ++use_clock_;
        return *entry;
      }
    }

    // Miss: build the bundle — the index phase of the one-shot path.
    const auto& points = *points_;
    const auto n = static_cast<std::int64_t>(points.size());
    DenseGrid<DIM> grid(points,
                        GridSpec<DIM>::create(
                            scene_bounds(), params.eps,
                            options.densebox_cell_width_factor),
                        minpts_for_dense);
    const std::int32_t num_cells = grid.num_dense_cells();
    const auto& cells = grid.cells();
    const auto& perm = grid.permutation();
    const std::int32_t dense_points = grid.points_in_dense_cells();
    const auto num_isolated = static_cast<std::int32_t>(n) - dense_points;

    // Primitives: [0, num_cells) dense-cell boxes, then isolated points.
    // A cell's box is the tight bounds of its members, not its grid box:
    // float rounding can floor a point into a cell whose box misses it,
    // and a box test must never reject a cell holding an eps-close
    // member. The box array only feeds the BVH build, so it is a
    // temporary — the cached bundle keeps just the grid, the tree and
    // the id remap.
    std::vector<Box<DIM>> primitives(
        static_cast<std::size_t>(num_cells + num_isolated));
    const auto member_axes = grid.member_axes();
    exec::parallel_for("densebox/index/cell-boxes", num_cells,
                       [&](std::int64_t c) {
      const CellRange& cell = cells[static_cast<std::size_t>(c)];
      primitives[static_cast<std::size_t>(c)] =
          member_bounds<DIM>(member_axes, cell.begin, cell.end);
    });
    std::vector<std::int32_t> isolated_ids(
        static_cast<std::size_t>(num_isolated));
    exec::parallel_for("densebox/index/isolated-points", num_isolated,
                       [&](std::int64_t k) {
      const std::int32_t id = perm[static_cast<std::size_t>(dense_points + k)];
      isolated_ids[static_cast<std::size_t>(k)] = id;
      const auto& p = points[static_cast<std::size_t>(id)];
      primitives[static_cast<std::size_t>(num_cells + k)] = Box<DIM>{p, p};
    });
    Bvh<DIM> bvh(primitives);
    ++counters_.index_builds;
    ++counters_.grid_builds;

    const std::size_t tracked_bytes =
        perm.size() * sizeof(std::int32_t) +
        cells.size() * sizeof(CellRange) +
        grid.soa_bytes() +
        bvh.bytes_used() + isolated_ids.size() * sizeof(std::int32_t);
    if (config_.memory) config_.memory->charge(tracked_bytes);

    // Evict least-recently-used bundles down to capacity before inserting.
    while (static_cast<std::int32_t>(grid_cache_.size()) >=
           std::max(config_.grid_cache_capacity, std::int32_t{1})) {
      auto lru = grid_cache_.begin();
      for (auto it = grid_cache_.begin(); it != grid_cache_.end(); ++it) {
        if ((*it)->last_use < (*lru)->last_use) lru = it;
      }
      if (config_.memory) config_.memory->release((*lru)->tracked_bytes);
      ++counters_.grid_cache_evictions;
      grid_cache_.erase(lru);
    }

    grid_cache_.push_back(std::make_unique<GridEntry>(GridEntry{
        params.eps, options.densebox_cell_width_factor, minpts_for_dense,
        ++use_clock_, std::move(grid), std::move(bvh),
        std::move(isolated_ids), tracked_bytes}));
    return *grid_cache_.back();
  }

  /// Scene bounds of the (immutable) points, computed once.
  const Box<DIM>& scene_bounds() {
    if (!bounds_valid_) {
      bounds_ = bounds_of(points_->data(), points_->size());
      bounds_valid_ = true;
    }
    return bounds_;
  }

  const std::vector<Point<DIM>>* points_;
  EngineConfig config_;
  exec::Workspace workspace_;
  PointsStore<DIM> pending_soa_;   // build-only scratch, freed after use
  std::unique_ptr<Bvh<DIM>> bvh_;  // lazily built: the first run pays it
  std::size_t bvh_bytes_ = 0;
  std::vector<std::unique_ptr<GridEntry>> grid_cache_;
  std::uint64_t use_clock_ = 0;
  Box<DIM> bounds_ = Box<DIM>::empty();
  bool bounds_valid_ = false;
  EngineCounters counters_;
};

}  // namespace fdbscan
