// Sharded execution of the two-phase local algorithm — the real
// incarnation of the PDSDBSCAN-style decomposition that
// distributed/distributed_dbscan.h only simulates rank-by-rank
// (DESIGN.md §11).
//
// A ShardedEngine partitions its dataset into K slabs along the widest
// domain axis, with cut coordinates balanced by point count (quantiles
// of the sorted axis coordinates) so skewed datasets still get
// near-equal owned work per shard. It materializes each shard's
// eps-halo (ghost copies of every remote point within eps of the slab —
// exactly the set needed to answer any eps-range query about an owned
// point locally), and keeps one warm Engine per shard so repeated runs
// at the same eps rebuild nothing. A run executes three
// barrier-separated waves, each wave running all K shards
// *concurrently*: every shard is driven by its own persistent team
// thread, whose kernel launches are independent top-level launches on the
// shared pool (the runtime serializes them at whole-kernel granularity —
// the legal concurrency shape; nothing here nests launches):
//
//   wave 1  per-shard BVH build/reuse         (index_construction)
//   wave 2  per-shard core determination      (preprocessing)
//   -- barrier: stands in for the ghost core-flag exchange --
//   wave 3  per-shard traversal + global union-find  (main)
//   coordinator: flatten + finalize           (finalization)
//
// The FoF fast path (minpts == 2) skips wave 2. The barriers are the
// whole schedule. Finer per-shard dependencies would let shard r start
// traversing before shard r+1 finishes building, but top-level kernels
// serialize on the pool launch mutex, so only the serial glue between
// kernels could overlap; DESIGN.md §11 measures that as no gain. The
// barriers also let each phase snapshot the process kernel profile.
//
// Cross-shard density connections resolve through a single global
// union-find over a shared label array: each eps-close pair is processed
// exactly once, by the shard owning its lower-global-id endpoint (which
// always holds both endpoints thanks to the halo invariant). The merged
// clustering is therefore the same edge set a single Engine resolves —
// labels agree up to cluster renumbering, core flags and cluster count
// agree exactly (tests/test_sharded.cpp).
//
// Cancellation: the coordinator's active CancelToken is re-installed on
// every team thread for each wave, so a raised token stops all shards
// within one chunk-quantum; the coordinator joins the wave, then rethrows
// CancelledError. Engines and plans only publish fully-built state, so a
// cancelled ShardedEngine stays valid for the next run.
//
// Thread-safety: one ShardedEngine = one concurrent run (same contract as
// Engine).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "exec/cancel.h"
#include "exec/per_thread.h"
#include "exec/profile.h"
#include "exec/trace.h"
#include "exec/workspace.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "obs/metrics.h"
#include "obs/request_id.h"
#include "unionfind/union_find.h"

namespace fdbscan::shard {

/// Per-shard decomposition statistics — the communication volume a real
/// exchange would ship for this shard plus its share of the boundary
/// stitching work.
struct ShardStats {
  std::int32_t owned = 0;
  std::int32_t ghosts = 0;        ///< halo points received from peers
  std::int64_t cross_edges = 0;   ///< pair-once edges with a ghost endpoint
  std::int64_t halo_bytes = 0;    ///< coords + global id in, core flag back
};

/// A sharded run's product: the merged clustering (its Clustering carries
/// the num_shards/shard_* totals) plus the per-shard breakdown.
struct ShardedResult {
  Clustering clustering;
  std::vector<ShardStats> shards;
};

/// Cumulative amortization counters since ShardedEngine construction.
struct ShardedCounters {
  std::int64_t runs = 0;
  std::int64_t plans_built = 0;       ///< eps-plan constructions (cache misses)
  std::int64_t plan_cache_hits = 0;   ///< eps-plan reuses
  std::int64_t plan_cache_evictions = 0;
  std::int64_t index_builds = 0;      ///< per-shard BVH constructions
  std::int64_t workspace_reallocs = 0;
};

namespace detail {

/// Registry mirrors (DESIGN.md §13): process-wide sharded-execution
/// totals across every ShardedEngine.
struct ShardMetrics {
  obs::Counter& runs = obs::counter("fdbscan_shard_runs_total");
  obs::Counter& waves = obs::counter("fdbscan_shard_waves_total");
};

inline ShardMetrics& shard_metrics() {
  static ShardMetrics m;
  return m;
}

/// K persistent threads, one per shard. run(fn, token) executes fn(s) on
/// member s for every shard concurrently and returns after all members
/// finish (the wave barrier). Members are plain std::threads, so their
/// kernel launches are ordinary top-level launches; each member installs
/// `token` for the duration of its wave so cancellation reaches every
/// shard's chunks. Exceptions are collected per member and rethrown on
/// the coordinator after the barrier, preferring CancelledError so a
/// cancel racing an unrelated failure reports the cancel.
class ShardTeam {
 public:
  explicit ShardTeam(std::int32_t size)
      : errors_(static_cast<std::size_t>(size)) {
    members_.reserve(static_cast<std::size_t>(size));
    for (std::int32_t s = 0; s < size; ++s) {
      members_.emplace_back([this, s] { member_loop(s); });
    }
  }

  ~ShardTeam() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : members_) t.join();
  }

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  void run(const std::function<void(std::int32_t)>& fn,
           const exec::CancelToken* token) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      fn_ = &fn;
      token_ = token;
      // Members inherit the coordinator's request id for the wave, so
      // their spans/log lines attribute to the request being served.
      rid_ = exec::trace_request_id();
      for (auto& e : errors_) e = nullptr;
      pending_ = static_cast<std::int32_t>(members_.size());
      ++generation_;
      cv_work_.notify_all();
      cv_done_.wait(lock, [&] { return pending_ == 0; });
      fn_ = nullptr;
      token_ = nullptr;
    }
    std::exception_ptr cancelled;
    std::exception_ptr other;
    for (const auto& e : errors_) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const exec::CancelledError&) {
        if (!cancelled) cancelled = e;
      } catch (...) {
        if (!other) other = e;
      }
    }
    if (cancelled) std::rethrow_exception(cancelled);
    if (other) std::rethrow_exception(other);
  }

 private:
  void member_loop(std::int32_t member) {
    exec::trace_register_thread(
        ("shard-" + std::to_string(member)).c_str());
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::int32_t)>* fn = nullptr;
      const exec::CancelToken* token = nullptr;
      std::uint64_t rid = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
        token = token_;
        rid = rid_;
      }
      try {
        obs::RequestScope rid_scope(rid);
        std::optional<exec::CancelScope> scope;
        if (token) scope.emplace(*token);
        (*fn)(member);
      } catch (...) {
        // Published to the coordinator via the pending_ decrement below
        // (mutex release/acquire orders the write).
        errors_[static_cast<std::size_t>(member)] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::int32_t)>* fn_ = nullptr;
  const exec::CancelToken* token_ = nullptr;
  std::uint64_t rid_ = 0;  // coordinator's request id for this wave
  std::uint64_t generation_ = 0;
  std::int32_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> members_;
};

}  // namespace detail

template <int DIM>
class ShardedEngine {
 public:
  /// Borrows `points` like Engine does: the caller keeps the vector alive
  /// and unmodified for the ShardedEngine's lifetime. Throws
  /// std::invalid_argument when num_shards < 1 (the checked front door,
  /// cluster_sharded() below, rejects that as ErrorCode::kInvalidShards
  /// before reaching this).
  explicit ShardedEngine(const std::vector<Point<DIM>>& points,
                         std::int32_t num_shards)
      : points_(&points),
        num_shards_(num_shards),
        workspace_(kNumSlots) {
    if (num_shards < 1) {
      throw std::invalid_argument("ShardedEngine: num_shards must be >= 1");
    }
    if (num_shards > 1) {
      team_ = std::make_unique<detail::ShardTeam>(num_shards);
    }
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return points_->size(); }
  [[nodiscard]] const std::vector<Point<DIM>>& points() const noexcept {
    return *points_;
  }
  [[nodiscard]] std::int32_t num_shards() const noexcept { return num_shards_; }
  [[nodiscard]] const ShardedCounters& counters() const noexcept {
    return counters_;
  }

  /// FDBSCAN over the engine's points, decomposed across the shards.
  /// Labels are equivalent to a single Engine::run (same edge set through
  /// the union-find; cluster ids may be permuted), and is_core /
  /// num_clusters agree exactly. The eps-halo plan and the per-shard
  /// BVHs are cached, so repeated runs at the same eps rebuild nothing.
  /// Note: the pair-once rule replaces the masked-traversal optimization
  /// (it needs global-id order, not leaf order), so
  /// options.masked_traversal is ignored on this path. Runs the barrier
  /// waves of the header comment; ClusterService's sharded requests come
  /// through here.
  [[nodiscard]] ShardedResult run(const Parameters& params,
                                  const Options& options = {}) {
    const auto n = static_cast<std::int64_t>(points_->size());
    ShardedResult result;
    result.shards.resize(static_cast<std::size_t>(num_shards_));
    if (n == 0) return result;
    exec::throw_if_cancelled();
    ++counters_.runs;
    detail::shard_metrics().runs.inc();
    const std::int64_t ws0 = workspace_.reallocs();
    const float eps2 = params.eps * params.eps;
    exec::PhaseProfiler timer;
    PhaseTimings timings;

    Plan& plan = ensure_plan(params.eps);

    // --- Wave 1: per-shard index build/reuse -----------------------------
    std::int32_t rebuilds = 0;
    for (const auto& s : plan.shards) {
      if (s.engine && !s.engine->index_built()) ++rebuilds;
    }
    for_each_shard([&](std::int32_t r) {
      Shard& s = plan.shards[static_cast<std::size_t>(r)];
      if (s.engine) (void)s.engine->index();
    });
    timings.index_construction =
        timer.lap("shard/index", &timings.index_construction_profile);

    // --- Wave 2: per-shard core determination ----------------------------
    // Each shard writes only its owned points' flags, so there are no
    // write races; ghost flags become visible to wave 3 through the wave
    // barrier — the stand-in for the ghost core-flag exchange.
    std::vector<std::uint8_t> is_core(points_->size(), 0);
    std::vector<TraversalStats> shard_work(
        static_cast<std::size_t>(num_shards_));
    const bool fof = params.minpts == 2;  // Friends-of-Friends fast path
    if (!fof) {
      for_each_shard([&](std::int32_t r) {
        Shard& s = plan.shards[static_cast<std::size_t>(r)];
        if (s.owned == 0) return;
        if (params.minpts <= 1) {
          exec::parallel_for("shard/pre/all-core", s.owned,
                             [&](std::int64_t k) {
            is_core[static_cast<std::size_t>(
                s.ids[static_cast<std::size_t>(k)])] = 1;
          });
          return;
        }
        shard_work[static_cast<std::size_t>(r)] +=
            count_cores(s, params, options, eps2, is_core);
      });
    }
    timings.preprocessing =
        timer.lap("shard/pre", &timings.preprocessing_profile);

    // --- Wave 3: per-shard traversal + global union-find -----------------
    // Pair-once rule: the shard owning the globally-smaller id resolves
    // the edge — it always holds both endpoints thanks to the halo. The
    // UnionFindView is lock-free, so concurrent shards merging into the
    // shared parents array is exactly the single-engine main phase's
    // concurrency shape.
    std::span<std::int32_t> labels =
        workspace_.acquire<std::int32_t>(kUnionFind, points_->size());
    init_singletons(labels.data(), static_cast<std::int32_t>(n));
    UnionFindView uf(labels.data(), static_cast<std::int32_t>(n));
    std::vector<std::int64_t> shard_cross(
        static_cast<std::size_t>(num_shards_), 0);
    for_each_shard([&](std::int32_t r) {
      Shard& s = plan.shards[static_cast<std::size_t>(r)];
      if (s.owned == 0) return;
      const Bvh<DIM>& bvh = s.engine->index();
      exec::PerThread<TraversalStats> work;
      exec::PerThread<std::int64_t> cross;
      exec::parallel_for("shard/main/traverse-union", s.owned,
                         [&](std::int64_t k) {
        const std::int32_t x = s.ids[static_cast<std::size_t>(k)];
        const auto& p = s.local_points[static_cast<std::size_t>(k)];
        std::int64_t local_cross = 0;
        TraversalStats stats;
        bvh.for_each_near(
            p, eps2, 0,
            [&](std::int32_t, std::int32_t local_y) {
              const std::int32_t y =
                  s.ids[static_cast<std::size_t>(local_y)];
              if (y > x) {
                if (local_y >= s.owned) ++local_cross;  // ghost endpoint
                if (fof) {
                  // Any eps-close pair consists of two core points. The
                  // ghost's flag is also set by its owner — atomic
                  // because two shards may store concurrently.
                  exec::atomic_store_relaxed(
                      is_core[static_cast<std::size_t>(x)], std::uint8_t{1});
                  exec::atomic_store_relaxed(
                      is_core[static_cast<std::size_t>(y)], std::uint8_t{1});
                  uf.merge(x, y);
                } else {
                  fdbscan::detail::resolve_pair(uf, is_core, x, y,
                                                options.variant);
                }
              }
              return TraversalControl::kContinue;
            },
            &stats);
        work.local() += stats;
        if (local_cross > 0) cross.local() += local_cross;
      });
      shard_work[static_cast<std::size_t>(r)] += work.combine();
      shard_cross[static_cast<std::size_t>(r)] = cross.combine();
    });
    timings.main = timer.lap("shard/main", &timings.main_profile);

    // --- Finalization: global flatten + relabel on the coordinator -------
    flatten(labels.data(), static_cast<std::int32_t>(n));
    std::span<std::int32_t> compact =
        workspace_.acquire<std::int32_t>(kCompact, points_->size());
    result.clustering = fdbscan::detail::finalize_labels_with_scratch(
        labels.data(), n, std::move(is_core), compact.data());
    timings.finalization =
        timer.lap("shard/finalize", &timings.finalization_profile);

    counters_.index_builds += rebuilds;
    counters_.workspace_reallocs = workspace_.reallocs();
    timings.engine_run = true;
    timings.index_rebuilds = rebuilds;
    timings.workspace_reallocs =
        static_cast<std::int32_t>(workspace_.reallocs() - ws0);
    result.clustering.timings = timings;

    TraversalStats total_work;
    for (const auto& w : shard_work) total_work += w;
    result.clustering.distance_computations = total_work.leaves_tested;
    result.clustering.index_nodes_visited = total_work.nodes_visited;

    result.clustering.num_shards = num_shards_;
    std::int64_t cross_total = 0;
    for (std::int32_t r = 0; r < num_shards_; ++r) {
      const Shard& s = plan.shards[static_cast<std::size_t>(r)];
      ShardStats& st = result.shards[static_cast<std::size_t>(r)];
      st.owned = s.owned;
      st.ghosts = static_cast<std::int32_t>(s.ids.size()) - s.owned;
      st.cross_edges = shard_cross[static_cast<std::size_t>(r)];
      st.halo_bytes = static_cast<std::int64_t>(st.ghosts) * kBytesPerGhost;
      result.clustering.shard_ghosts += st.ghosts;
      result.clustering.shard_halo_bytes += st.halo_bytes;
      cross_total += st.cross_edges;
    }
    result.clustering.shard_cross_edges = cross_total;
    return result;
  }

 private:
  // Workspace slots: global union-find parents + finalization ranks.
  enum Slot : int { kUnionFind = 0, kCompact, kNumSlots };

  /// What a real exchange ships per ghost: its coordinates and global id
  /// on the way in, its owner's core flag on the way back.
  static constexpr std::int64_t kBytesPerGhost =
      static_cast<std::int64_t>(sizeof(Point<DIM>)) +
      static_cast<std::int64_t>(sizeof(std::int32_t)) +
      static_cast<std::int64_t>(sizeof(std::uint8_t));

  struct Shard {
    /// Global ids of this shard's local points: owned first, ghosts after
    /// (so `ids[k]` for k < owned are the owned points, mirroring the
    /// local_points layout the per-shard Engine indexes).
    std::vector<std::int32_t> ids;
    std::int32_t owned = 0;
    /// Gathered local coordinates — the address-stable backing store the
    /// per-shard Engine borrows (never resized once the engine exists).
    std::vector<Point<DIM>> local_points;
    std::unique_ptr<Engine<DIM>> engine;  // null when owned == 0
  };

  /// An eps-keyed decomposition: the ghost sets (and therefore the local
  /// point sets and their BVHs) depend on eps, so plans are cached like
  /// the Engine's DenseBox bundles — a small LRU keyed by eps.
  struct Plan {
    float eps = 0.0f;
    std::uint64_t last_use = 0;  // LRU stamp
    std::vector<Shard> shards;
  };

  static constexpr std::int32_t kPlanCapacity = 2;

  /// Per-shard core determination (wave 2): sets the core flags
  /// of the shard's owned points and returns the traversal work. Launched
  /// over the shard index's sorted leaf positions — the §3.2 batched
  /// launch, as in Engine's pre phase — with the query point read from
  /// the sorted leaf array. Ghost positions return before any traversal,
  /// so the work counters are those of walking the owned ids.
  static TraversalStats count_cores(const Shard& s, const Parameters& params,
                                    const Options& options, float eps2,
                                    std::vector<std::uint8_t>& is_core) {
    const Bvh<DIM>& bvh = s.engine->index();
    exec::PerThread<TraversalStats> work;
    exec::parallel_for("shard/pre/core-count", bvh.size(),
                       [&](std::int64_t pos) {
      const auto sorted_pos = static_cast<std::int32_t>(pos);
      const std::int32_t k = bvh.primitive_at(sorted_pos);
      if (k >= s.owned) return;  // ghost: its owner decides its flag
      std::int32_t count = 0;  // the traversal finds the point itself
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
      if (count >= params.minpts) {
        is_core[static_cast<std::size_t>(s.ids[static_cast<std::size_t>(k)])] =
            1;
      }
      work.local() += stats;
    });
    return work.combine();
  }

  /// Runs fn(r) for every shard: concurrently on the team when K > 1
  /// (re-installing the coordinator's active token on every member for
  /// the wave), inline when K == 1.
  template <class Fn>
  void for_each_shard(Fn&& fn) {
    detail::shard_metrics().waves.inc();
    if (!team_) {
      for (std::int32_t r = 0; r < num_shards_; ++r) fn(r);
      return;
    }
    const std::function<void(std::int32_t)> body = std::forward<Fn>(fn);
    team_->run(body, exec::active_cancel_token());
  }

  /// Eps-independent half of the decomposition: slab axis, cost-balanced
  /// cut coordinates, and the owner of every point, computed once. Cuts
  /// are point-count quantiles along the widest domain axis — shard r
  /// owns the points whose axis coordinate lands in (cuts[r-1], cuts[r]]
  /// — so a skewed dataset gets near-equal owned counts per shard where
  /// equal-width slabs would pile most of the work onto a few of them.
  /// Coordinate ties all stay in the lowest shard whose cut covers them
  /// (the cut is inclusive), so heavy duplicates — or n < K — leave some
  /// shards owning nothing; a zero-width domain (all points identical
  /// along every axis) degenerates to shard 0 owning all, as before.
  void ensure_decomposition() {
    if (decomposition_valid_) return;
    const auto n = static_cast<std::int64_t>(points_->size());
    domain_ = bounds_of(points_->data(), points_->size());
    axis_ = 0;
    for (int d = 1; d < DIM; ++d) {
      if (domain_.max[d] - domain_.min[d] >
          domain_.max[axis_] - domain_.min[axis_]) {
        axis_ = d;
      }
    }
    std::vector<float> coords(points_->size());
    exec::parallel_for("shard/plan/axis-gather", n, [&](std::int64_t i) {
      coords[static_cast<std::size_t>(i)] =
          (*points_)[static_cast<std::size_t>(i)][axis_];
    });
    std::sort(coords.begin(), coords.end());
    cuts_.assign(static_cast<std::size_t>(num_shards_ - 1), 0.0f);
    for (std::int32_t r = 0; n > 0 && r + 1 < num_shards_; ++r) {
      // The coordinate of shard r's last owned rank at perfect balance.
      // Ranks over the sorted copy are non-decreasing, so cuts are too.
      const std::int64_t rank = std::clamp<std::int64_t>(
          (static_cast<std::int64_t>(r) + 1) * n / num_shards_ - 1, 0, n - 1);
      cuts_[static_cast<std::size_t>(r)] =
          coords[static_cast<std::size_t>(rank)];
    }
    owner_.resize(points_->size());
    exec::parallel_for("shard/plan/owner", n, [&](std::int64_t i) {
      const float c = (*points_)[static_cast<std::size_t>(i)][axis_];
      owner_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          std::lower_bound(cuts_.begin(), cuts_.end(), c) - cuts_.begin());
    });
    decomposition_valid_ = true;
  }

  /// Shard r's slab between its balanced cuts. An owned point satisfies
  /// cuts[r-1] < coord <= cuts[r], so it always lies inside its closed
  /// box and the halo invariant holds. The last slab's upper face is
  /// pinned to the exact domain bound (every coordinate above the last
  /// cut must land inside it — no rounding slack).
  [[nodiscard]] Box<DIM> shard_box(std::int32_t r) const noexcept {
    Box<DIM> box = domain_;
    if (r > 0) box.min[axis_] = cuts_[static_cast<std::size_t>(r - 1)];
    box.max[axis_] = (r + 1 == num_shards_)
                         ? domain_.max[axis_]
                         : cuts_[static_cast<std::size_t>(r)];
    return box;
  }

  Plan& ensure_plan(float eps) {
    ensure_decomposition();
    for (auto& plan : plans_) {
      if (plan->eps == eps) {
        ++counters_.plan_cache_hits;
        plan->last_use = ++use_clock_;
        return *plan;
      }
    }

    // Miss: build the decomposition for this eps — the halo exchange.
    while (static_cast<std::int32_t>(plans_.size()) >= kPlanCapacity) {
      auto lru = plans_.begin();
      for (auto it = plans_.begin(); it != plans_.end(); ++it) {
        if ((*it)->last_use < (*lru)->last_use) lru = it;
      }
      ++counters_.plan_cache_evictions;
      plans_.erase(lru);
    }

    const auto& points = *points_;
    const auto n = static_cast<std::int64_t>(points.size());
    const float eps2 = eps * eps;
    auto plan = std::make_unique<Plan>();
    plan->eps = eps;
    plan->last_use = ++use_clock_;
    // Shards are filled in place and never resized afterwards: each
    // Engine borrows its shard's local_points by address.
    plan->shards.resize(static_cast<std::size_t>(num_shards_));
    for (std::int32_t r = 0; r < num_shards_; ++r) {
      Shard& s = plan->shards[static_cast<std::size_t>(r)];
      const Box<DIM> box = shard_box(r);
      for (std::int32_t i = 0; i < n; ++i) {
        if (owner_[static_cast<std::size_t>(i)] == r) s.ids.push_back(i);
      }
      s.owned = static_cast<std::int32_t>(s.ids.size());
      for (std::int32_t i = 0; i < n; ++i) {
        if (owner_[static_cast<std::size_t>(i)] != r &&
            squared_distance(points[static_cast<std::size_t>(i)], box) <=
                eps2) {
          s.ids.push_back(i);  // ghost
        }
      }
      // A shard with no owned points answers no queries: it keeps its
      // ghost tally for the stats but builds neither points nor engine.
      if (s.owned > 0) {
        // One gather fills both layouts: the AoS copy the engine borrows
        // by address, and the SoA mirror its index build consumes
        // (released by the engine after the build).
        s.local_points.resize(s.ids.size());
        PointsStore<DIM> soa;
        soa.resize(static_cast<std::int64_t>(s.ids.size()));
        exec::parallel_for("shard/plan/gather",
                           static_cast<std::int64_t>(s.ids.size()),
                           [&](std::int64_t k) {
          const auto& p = points[static_cast<std::size_t>(
              s.ids[static_cast<std::size_t>(k)])];
          s.local_points[static_cast<std::size_t>(k)] = p;
          soa.set(k, p);
        });
        s.engine =
            std::make_unique<Engine<DIM>>(s.local_points, std::move(soa));
      }
    }
    ++counters_.plans_built;
    plans_.push_back(std::move(plan));
    return *plans_.back();
  }

  const std::vector<Point<DIM>>* points_;
  std::int32_t num_shards_;
  exec::Workspace workspace_;
  std::unique_ptr<detail::ShardTeam> team_;  // null when num_shards_ == 1
  std::vector<std::unique_ptr<Plan>> plans_;
  std::uint64_t use_clock_ = 0;
  Box<DIM> domain_ = Box<DIM>::empty();
  int axis_ = 0;
  std::vector<float> cuts_;  // K-1 non-decreasing slab boundaries
  std::vector<std::int32_t> owner_;
  bool decomposition_valid_ = false;
  ShardedCounters counters_;
};

/// Checked sharded clustering: the same typed-error validation as
/// cluster() (core/cluster.h), so sharded requests reject malformed input
/// with the same ErrorCodes as single-engine ones.
template <int DIM>
[[nodiscard]] Expected<ShardedResult> cluster_sharded(
    ShardedEngine<DIM>& engine, const Parameters& params,
    const Options& options = {}) {
  if (auto error = validate_shard_count(engine.num_shards())) {
    return *std::move(error);
  }
  if (auto error = validate_input(engine.points(), params, options)) {
    return *std::move(error);
  }
  return engine.run(params, options);
}

/// RequestSpec front door: validate_spec (the shared path of
/// core/request.h) plus the coordinate scan. spec.method is ignored —
/// sharded execution is FDBSCAN's decomposition — and spec.shards, when
/// nonzero, must match the engine's shard count.
template <int DIM>
[[nodiscard]] Expected<ShardedResult> cluster_sharded(
    ShardedEngine<DIM>& engine, const RequestSpec& spec) {
  if (auto error = validate_spec(spec)) return *std::move(error);
  if (spec.shards != 0 && spec.shards != engine.num_shards()) {
    return Error{ErrorCode::kInvalidShards,
                 "spec.shards (" + std::to_string(spec.shards) +
                     ") does not match the engine's shard count (" +
                     std::to_string(engine.num_shards()) + ")"};
  }
  return cluster_sharded(engine, spec.params, spec.options);
}

}  // namespace fdbscan::shard
