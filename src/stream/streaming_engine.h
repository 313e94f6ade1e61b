// Streaming clustering sessions: append/expire/query on a mutable
// point set (DESIGN.md §14).
//
// A StreamingEngine owns a *mutable logical point set* ordered by
// arrival: every inserted point gets a monotone sequence number, and
// expire(before_seq) retires the oldest prefix (the sliding-window
// pattern of trajectory workloads). The structures:
//
//   * base_   — points covered by the index of an inner Engine
//     (core/engine.h), in sequence order; never mutated in place.
//   * delta_  — the side buffer: points appended since the last
//     compaction, mirrored into a padded SoA so membership probes run
//     through the exec/simd.h lane-group kernel (for_each_within).
//   * live_begin_ — lazy expiry. Sequence numbers are assigned in slot
//     order (base first, then delta), so the retired set is always a
//     slot *prefix*: expire just advances one cursor.
//
// Mutations do no clustering work: insert() appends to the delta and
// expire() advances the cursor. A query does one of two things:
//
//   * Recluster (first query, any expiry since the last query, a
//     cancelled query, or more unabsorbed than absorbed points): compact
//     the live set into the base unless it already is exactly the base,
//     and cluster it with the method pinned at construction, dispatched
//     like cluster(): kFdbscan runs Engine::run, kDensebox
//     Engine::run_densebox, and kAuto resolves per recluster through
//     fdbscan_auto on the compacted base (same estimator, same
//     threshold). Labels, core flags and work counters are therefore
//     those of cluster(live_points(), params, options, method). The
//     session state (core flags, a union-find rooted at core members) is
//     rebuilt from that result, and the stream remembers which index the
//     recluster used.
//   * Absorb (append-only growth since the last query): the
//     Wang/Gu/Shun-style incremental union-find. Every batch appended
//     since the last query is folded into the persistent union-find in
//     one pass over the new logical ids: counts of existing neighbors
//     are bumped atomically, points whose count crosses minpts flip to
//     core and get their edge lists reprocessed, then flatten + finalize.
//     Probes are the union of a walk of the last recluster's base index
//     and a lane-group scan of the delta. The base index is the point
//     BVH after an FDBSCAN recluster; after a DenseBox one it is the
//     cached mixed BVH, whose dense cells are scanned member by member
//     over the grid's SoA span (exec/simd.h for_each_within).
//
// Large appends: absorbing costs a full neighbor enumeration per new
// point, so once the unabsorbed points outnumber the absorbed ones the
// query reclusters instead — a fixed rule, not a knob.
//
// Rebuild policy: a mutation that leaves pending work (live delta +
// retired prefix) above StreamConfig::rebuild_fraction of the live set
// compacts storage. Where the next query absorbs, the index build of the
// last recluster's kind is paid there too, so appends keep absorbing
// against a warm index; otherwise the next query's recluster builds it.
//
// Either way labels are equivalent (up to cluster renumbering and the
// usual border-claim freedom) and core flags are bit-identical to
// re-clustering the same points from scratch — at any worker count,
// under both SIMD and scalar backends (tests/test_stream.cpp).
//
// Thread-safety: like Engine — one streaming engine, one concurrent
// operation (the service session layer serializes per session). A
// cancelled query leaves the union-find stale, so the next query
// reclusters; the logical point set is never affected.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "bvh/bvh.h"
#include "core/auto_select.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "core/request.h"
#include "exec/cancel.h"
#include "exec/per_thread.h"
#include "exec/profile.h"
#include "exec/simd.h"
#include "geometry/point.h"
#include "geometry/points_view.h"
#include "unionfind/union_find.h"

namespace fdbscan::stream {

struct StreamConfig {
  /// Rebuild threshold: a mutation compacts storage (and, where the next
  /// query absorbs, pays the build of the last recluster's index) when
  /// (live delta points + retired slots) exceeds this fraction of the
  /// live point count. Env (service sessions):
  /// FDBSCAN_SESSION_REBUILD_PCT.
  float rebuild_fraction = 0.25f;
  /// Forwarded to the inner Engine (grid cache capacity, memory).
  EngineConfig engine{};
};

/// Cumulative counters since construction (the streaming analogue of
/// EngineCounters).
struct StreamCounters {
  std::int64_t inserts = 0;          ///< insert() batches
  std::int64_t points_inserted = 0;
  std::int64_t expires = 0;          ///< expire() calls retiring >= 1 point
  std::int64_t points_expired = 0;
  std::int64_t queries = 0;
  /// Index constructions (point BVH or DenseBox bundle): one per
  /// reclustering query over a freshly compacted base, plus every eager
  /// build of an append-only compaction.
  std::int64_t index_rebuilds = 0;
  std::int64_t compactions = 0;  ///< live set moved into a fresh base
  /// Batches absorbed into a valid union-find at query time.
  std::int64_t incremental_inserts = 0;
  std::int64_t full_refreshes = 0;   ///< reclustering queries
  /// Reclustering queries that ran FDBSCAN-DenseBox (kDensebox, or kAuto
  /// resolved to it).
  std::int64_t densebox_reclusters = 0;
  std::int64_t refinalized_queries = 0;  ///< queries served by absorb + finalize
};

template <int DIM>
class StreamingEngine {
 public:
  /// Query parameters and method are pinned per streaming engine: the
  /// incremental union-find state is only meaningful for one (eps,
  /// minpts, variant), and every recluster dispatches `method` like
  /// cluster() does.
  StreamingEngine(Parameters params, Options options = {},
                  Method method = Method::kAuto, StreamConfig config = {})
      : params_(params), options_(options), method_(method),
        config_(config) {
    reset_engine();
  }

  /// Seeds the stream with an initial point set (sequence numbers
  /// 0..initial.size()-1, already "inserted").
  StreamingEngine(std::vector<Point<DIM>> initial, Parameters params,
                  Options options = {}, Method method = Method::kAuto,
                  StreamConfig config = {})
      : params_(params), options_(options), method_(method),
        config_(config), base_(std::move(initial)) {
    reset_engine();
  }

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  [[nodiscard]] const Parameters& params() const noexcept { return params_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  /// Live (non-retired) point count.
  [[nodiscard]] std::int64_t size() const noexcept {
    return total_slots() - live_begin_;
  }
  /// Sequence number the next inserted point will get.
  [[nodiscard]] std::int64_t next_seq() const noexcept {
    return seq0_ + total_slots();
  }
  /// Sequence number of the oldest live point (== next_seq when empty).
  [[nodiscard]] std::int64_t first_live_seq() const noexcept {
    return seq0_ + live_begin_;
  }

  [[nodiscard]] StreamCounters counters() const noexcept {
    StreamCounters c = counters_;
    c.index_rebuilds = total_index_builds();
    return c;
  }

  /// The live logical point set in sequence order — exactly the vector a
  /// from-scratch equivalence reference must cluster.
  [[nodiscard]] std::vector<Point<DIM>> live_points() const {
    std::vector<Point<DIM>> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (std::int64_t s = live_base_begin(); s < base_n(); ++s) {
      out.push_back(base_[static_cast<std::size_t>(s)]);
    }
    for (std::int64_t j = delta_live_begin(); j < delta_n(); ++j) {
      out.push_back(delta_[static_cast<std::size_t>(j)]);
    }
    return out;
  }

  /// Appends `points` to the stream; returns the sequence number of the
  /// first appended point. No clustering work happens here: the next
  /// query absorbs the batch (or reclusters, after an expiry).
  std::int64_t insert(std::span<const Point<DIM>> points) {
    exec::throw_if_cancelled();
    const std::int64_t first = next_seq();
    if (points.empty()) return first;
    append_to_delta(points);
    ++counters_.inserts;
    ++unabsorbed_batches_;
    counters_.points_inserted += static_cast<std::int64_t>(points.size());
    maybe_rebuild();
    return first;
  }

  std::int64_t insert(const std::vector<Point<DIM>>& points) {
    return insert(std::span<const Point<DIM>>(points.data(), points.size()));
  }

  /// Retires every point with sequence number < before_seq (a no-op for
  /// already-retired prefixes). Lazy: the dead prefix stays in storage
  /// until a compaction. Removals can split clusters, so the union-find
  /// goes stale and the next query reclusters. Returns the number of
  /// points retired by this call.
  std::int64_t expire(std::int64_t before_seq) {
    exec::throw_if_cancelled();
    const std::int64_t target =
        std::clamp<std::int64_t>(before_seq - seq0_, live_begin_,
                                 total_slots());
    const std::int64_t expired = target - live_begin_;
    if (expired > 0) {
      live_begin_ = target;
      uf_valid_ = false;
      ++counters_.expires;
      counters_.points_expired += expired;
      maybe_rebuild();
    }
    return expired;
  }

  /// Clusters the live point set under the pinned parameters. Labels are
  /// indexed in sequence order over the live set (live_points() order).
  /// timings.index_rebuilds reports the index builds since the previous
  /// query — 0 for an append-only query whose preceding appends stayed
  /// below the rebuild threshold.
  [[nodiscard]] Clustering query() {
    exec::throw_if_cancelled();
    ++counters_.queries;
    Clustering result;
    if (size() == 0) {
      result.timings.engine_run = true;
    } else if (absorbs()) {
      result = absorb_and_finalize();
      ++counters_.refinalized_queries;
    } else {
      result = recluster();
      ++counters_.full_refreshes;
    }
    result.timings.index_rebuilds = take_rebuilds_since_last_query();
    return result;
  }

 private:
  // ---- slot-space geometry ------------------------------------------------
  [[nodiscard]] std::int64_t base_n() const noexcept {
    return static_cast<std::int64_t>(base_.size());
  }
  [[nodiscard]] std::int64_t delta_n() const noexcept {
    return static_cast<std::int64_t>(delta_.size());
  }
  [[nodiscard]] std::int64_t total_slots() const noexcept {
    return base_n() + delta_n();
  }
  [[nodiscard]] std::int64_t live_base_begin() const noexcept {
    return std::min(live_begin_, base_n());
  }
  [[nodiscard]] std::int64_t delta_live_begin() const noexcept {
    return std::max<std::int64_t>(0, live_begin_ - base_n());
  }

  /// True when the next query absorbs: the union-find is valid and the
  /// unabsorbed points do not outnumber the absorbed ones (beyond that,
  /// absorbing enumerates more neighborhoods than reclustering does).
  [[nodiscard]] bool absorbs() const noexcept {
    const auto absorbed = static_cast<std::int64_t>(uf_.size());
    return uf_valid_ && size() - absorbed <= absorbed;
  }

  /// Point of logical id i. Only called while the union-find is valid,
  /// when no slot is retired (live_begin_ == 0).
  [[nodiscard]] const Point<DIM>& logical_point(std::int64_t i) const noexcept {
    return i < base_n() ? base_[static_cast<std::size_t>(i)]
                        : delta_[static_cast<std::size_t>(i - base_n())];
  }

  // ---- delta side buffer --------------------------------------------------
  void append_to_delta(std::span<const Point<DIM>> points) {
    const auto k = static_cast<std::int64_t>(points.size());
    const std::int64_t n = delta_n();
    for (int d = 0; d < DIM; ++d) {
      auto& axis = delta_axes_[static_cast<std::size_t>(d)];
      axis.resize(static_cast<std::size_t>(n + k + kSoaPadding),
                  std::numeric_limits<float>::infinity());
      for (std::int64_t j = 0; j < k; ++j) {
        axis[static_cast<std::size_t>(n + j)] =
            points[static_cast<std::size_t>(j)][d];
      }
    }
    delta_.insert(delta_.end(), points.begin(), points.end());
  }

  /// The base index an absorb probes: the kind the last recluster
  /// clustered over (both null for an empty base).
  struct BaseIndex {
    const Bvh<DIM>* points = nullptr;
    const DenseBoxIndex<DIM>* densebox = nullptr;
  };

  /// The last recluster's kind of index over the current base, built on
  /// first use (counted in the inner engine's index_builds).
  [[nodiscard]] BaseIndex base_index() {
    if (base_.empty()) return {};
    if (densebox_) return {nullptr, &engine_->densebox_index(params_, options_)};
    return {&engine_->index(), nullptr};
  }

  /// Invokes f(logical_id) for every live point within eps of `p`
  /// (including `p` itself when it is a member): a walk of the base
  /// index plus a lane-group scan of the delta. A DenseBox dense-cell
  /// leaf is resolved by a lane-group scan of its members, mapped to ids
  /// through the grid permutation. Never early-stops: callers need the
  /// complete edge set.
  template <class F>
  void for_each_neighbor(const BaseIndex& index, const Point<DIM>& p,
                         float eps2, TraversalStats& stats,
                         std::int64_t& scans, F&& f) const {
    if (index.points != nullptr) {
      index.points->for_each_near(
          p, eps2, 0,
          [&](std::int32_t, std::int32_t id) {
            f(id);
            return TraversalControl::kContinue;
          },
          &stats);
    } else if (index.densebox != nullptr) {
      const DenseBoxIndex<DIM>& db = *index.densebox;
      const std::int32_t num_cells = db.grid.num_dense_cells();
      const auto& cells = db.grid.cells();
      const auto& perm = db.grid.permutation();
      const auto member_axes = db.grid.member_axes();
      db.bvh.for_each_near(
          p, eps2, 0,
          [&](std::int32_t, std::int32_t pid) {
            if (pid < num_cells) {
              const CellRange& cell = cells[static_cast<std::size_t>(pid)];
              simd::for_each_within<DIM>(
                  member_axes, cell.begin, cell.end, p, eps2, scans,
                  [&](std::int32_t m) { f(perm[static_cast<std::size_t>(m)]); });
            } else {
              f(db.isolated_ids[static_cast<std::size_t>(pid - num_cells)]);
            }
            return TraversalControl::kContinue;
          },
          &stats);
    }
    std::array<const float*, DIM> axes{};
    for (int d = 0; d < DIM; ++d) {
      axes[static_cast<std::size_t>(d)] =
          delta_axes_[static_cast<std::size_t>(d)].data();
    }
    const auto nb = static_cast<std::int32_t>(base_n());
    simd::for_each_within<DIM>(axes, 0, static_cast<std::int32_t>(delta_n()),
                               p, eps2, scans,
                               [&](std::int32_t m) { f(nb + m); });
  }

  // ---- recluster (stale union-find or large append) -----------------------
  /// Compacts the live set into the base unless it already is exactly
  /// the base, then clusters it with the pinned method. The session state is
  /// rebuilt from the result: core flags verbatim, and a union-find with
  /// every cluster rooted at its lowest-id *core* member — a non-core
  /// root would read as unclaimed to resolve_pair and finalize. Neighbor
  /// counts are not kept; the next absorb recomputes the ones it needs.
  [[nodiscard]] Clustering recluster() {
    if (live_begin_ > 0 || delta_n() > 0) compact();
    Clustering result = run_method();
    const std::size_t n = result.labels.size();
    std::vector<std::int32_t> root(
        static_cast<std::size_t>(result.num_clusters));
    for (std::size_t i = n; i-- > 0;) {  // downwards: the lowest id wins
      if (result.is_core[i] != 0) {
        root[static_cast<std::size_t>(result.labels[i])] =
            static_cast<std::int32_t>(i);
      }
    }
    uf_.resize(n);
    exec::parallel_for("stream/recluster/adopt", static_cast<std::int64_t>(n),
                       [&](std::int64_t i) {
      const std::int32_t label = result.labels[static_cast<std::size_t>(i)];
      uf_[static_cast<std::size_t>(i)] =
          label == kNoise ? static_cast<std::int32_t>(i)
                          : root[static_cast<std::size_t>(label)];
    });
    is_core_ = result.is_core;
    counts_.clear();
    unabsorbed_batches_ = 0;
    uf_valid_ = true;
    return result;
  }

  /// cluster()'s dispatch over the compacted base; records which index
  /// the run clustered over for the absorbs that follow.
  [[nodiscard]] Clustering run_method() {
    Clustering result;
    bool densebox = method_ == Method::kDensebox;
    if (method_ == Method::kAuto) {
      AutoSelection<DIM> pick = fdbscan_auto(*engine_, params_, options_);
      densebox = pick.used_densebox;
      result = std::move(pick.clustering);
    } else {
      result = densebox ? engine_->run_densebox(params_, options_)
                        : engine_->run(params_, options_);
    }
    densebox_ = densebox;
    if (densebox) ++counters_.densebox_reclusters;
    return result;
  }

  // ---- absorb (valid union-find) ------------------------------------------
  /// Folds every point appended since the last query (logical ids
  /// [uf_.size(), size())) into the valid union-find, then flattens and
  /// finalizes.
  [[nodiscard]] Clustering absorb_and_finalize() {
    const std::int64_t n = size();
    exec::ScopedCharge charge(
        options_.memory,
        static_cast<std::size_t>(n) *
            (sizeof(std::int32_t) + sizeof(std::uint8_t)));
    exec::PhaseProfiler timer;
    PhaseTimings timings;
    timings.engine_run = true;
    // Free unless the eager build of an append-only compaction was
    // cancelled: then this query pays it.
    const BaseIndex index = base_index();
    timings.index_construction =
        timer.lap("stream/index", &timings.index_construction_profile);

    exec::PerThread<TraversalStats> work;
    const auto n_old = static_cast<std::int64_t>(uf_.size());
    if (n_old < n) {
      uf_valid_ = false;  // torn on cancellation, until fully absorbed
      absorb_batch(index, n_old, n - n_old, timer, timings, work);
      counters_.incremental_inserts += unabsorbed_batches_;
      unabsorbed_batches_ = 0;
      uf_valid_ = true;
    } else {
      timings.preprocessing =
          timer.lap("stream/pre", &timings.preprocessing_profile);
      timings.main = timer.lap("stream/main", &timings.main_profile);
    }

    // Finalization: flatten in place (idempotent), finalize over a copy
    // of the core flags — the persistent flags feed future absorbs.
    flatten(uf_.data(), static_cast<std::int32_t>(n));
    std::vector<std::uint8_t> core_copy(is_core_.begin(), is_core_.end());
    std::vector<std::int32_t> compact(static_cast<std::size_t>(n));
    Clustering result = fdbscan::detail::finalize_labels_with_scratch(
        uf_.data(), n, std::move(core_copy), compact.data());
    timings.finalization =
        timer.lap("stream/finalize", &timings.finalization_profile);
    result.timings = timings;
    const TraversalStats total = work.combine();
    result.distance_computations = total.leaves_tested;
    result.index_nodes_visited = total.nodes_visited;
    if (options_.memory) result.peak_memory_bytes = options_.memory->peak();
    return result;
  }

  /// Absorbs logical ids [n_old, n_old + k). Three passes so every edge
  /// is resolved with the *post-batch* core flags, like a from-scratch
  /// run: count, flip, resolve.
  void absorb_batch(const BaseIndex& index, std::int64_t n_old, std::int64_t k,
                    exec::PhaseProfiler& timer, PhaseTimings& timings,
                    exec::PerThread<TraversalStats>& work) {
    assert(live_begin_ == 0);  // a valid union-find has seen no expiry
    const float eps2 = params_.eps * params_.eps;
    const std::int64_t n_new = n_old + k;
    std::vector<std::int32_t> flipped;
    if (params_.minpts > 1) {
      if (counts_.size() != static_cast<std::size_t>(n_old)) {
        // First absorb since a recluster, which kept only core flags.
        // Core points saturate at minpts (a bump never reports them as
        // crossing); non-core points need their exact count over the
        // old set, which never reaches minpts, so no early exit is lost.
        counts_.assign(static_cast<std::size_t>(n_old), params_.minpts);
        exec::parallel_for("stream/absorb/recount", n_old,
                           [&](std::int64_t i) {
          if (is_core_[static_cast<std::size_t>(i)] != 0) return;
          TraversalStats stats;
          std::int64_t scans = 0;
          std::int32_t count = 0;
          for_each_neighbor(index, logical_point(i), eps2, stats, scans,
                            [&](std::int32_t y) { count += y < n_old; });
          counts_[static_cast<std::size_t>(i)] = count;
          stats.leaves_tested += scans;
          work.local() += stats;
        });
      }
      counts_.resize(static_cast<std::size_t>(n_new), 0);
      // Pass 1: full neighbor enumeration of each new point — its own
      // exact count, plus an atomic bump for every *existing* neighbor
      // (batch-batch contributions are symmetric: each endpoint counts
      // the other in its own enumeration). A bump whose previous value
      // was minpts - 1 crossed the threshold exactly once.
      std::mutex flip_mutex;
      exec::parallel_for("stream/absorb/count", k, [&](std::int64_t j) {
        const std::int64_t q = n_old + j;
        TraversalStats stats;
        std::int64_t scans = 0;
        std::int32_t count = 0;
        for_each_neighbor(
            index, logical_point(q), eps2, stats, scans, [&](std::int32_t y) {
              ++count;  // includes q itself and batch members
              if (y < n_old) {
                const std::int32_t prev = exec::atomic_fetch_add(
                    counts_[static_cast<std::size_t>(y)], std::int32_t{1});
                if (prev == params_.minpts - 1) {
                  std::lock_guard<std::mutex> lock(flip_mutex);
                  flipped.push_back(y);
                }
              }
            });
        counts_[static_cast<std::size_t>(q)] = count;
        stats.leaves_tested += scans;
        work.local() += stats;
      });
    }
    // Pass 2: core flags with the post-batch counts.
    is_core_.resize(static_cast<std::size_t>(n_new), 0);
    for (std::int64_t q = n_old; q < n_new; ++q) {
      if (params_.minpts <= 1 ||
          counts_[static_cast<std::size_t>(q)] >= params_.minpts) {
        is_core_[static_cast<std::size_t>(q)] = 1;
      }
    }
    for (const std::int32_t y : flipped) {
      is_core_[static_cast<std::size_t>(y)] = 1;
    }
    timings.preprocessing =
        timer.lap("stream/pre", &timings.preprocessing_profile);

    // Pass 3: resolve every edge incident to the batch, plus the full
    // edge lists of flipped points (their core-suppressed edges to *old*
    // neighbors just became active). minpts == 2 flips need no
    // reprocessing: a flipped point had no prior neighbors, so all its
    // edges touch the batch and are resolved from the batch side.
    uf_.resize(static_cast<std::size_t>(n_new));
    for (std::int64_t i = n_old; i < n_new; ++i) {
      uf_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
    }
    UnionFindView uf(uf_.data(), static_cast<std::int32_t>(n_new));
    const std::int64_t flips =
        params_.minpts > 2 ? static_cast<std::int64_t>(flipped.size()) : 0;
    exec::parallel_for("stream/absorb/resolve", k + flips,
                       [&](std::int64_t t) {
      const std::int64_t x64 =
          t < k ? n_old + t : flipped[static_cast<std::size_t>(t - k)];
      const auto x = static_cast<std::int32_t>(x64);
      TraversalStats stats;
      std::int64_t scans = 0;
      for_each_neighbor(
          index, logical_point(x64), eps2, stats, scans, [&](std::int32_t y) {
            if (y != x) {
              fdbscan::detail::resolve_pair(uf, is_core_, x, y,
                                            options_.variant);
            }
          });
      stats.leaves_tested += scans;
      work.local() += stats;
    });
    timings.main = timer.lap("stream/main", &timings.main_profile);
  }

  // ---- rebuild ------------------------------------------------------------
  void maybe_rebuild() {
    const std::int64_t n = size();
    const std::int64_t pending = (delta_n() - delta_live_begin()) +
                                 live_begin_;
    const bool due =
        n == 0 ? total_slots() > 0  // free retired storage
               : static_cast<double>(pending) >
                     static_cast<double>(config_.rebuild_fraction) *
                         static_cast<double>(n);
    if (!due) return;
    compact();
    // Eager build only where the next query absorbs against the index,
    // of the kind the last recluster used. Best-effort — by this point
    // the mutation has logically taken effect, so a cancellation (or
    // OOM) inside the warm-up build must not turn a completed
    // insert/expire into a reported failure. The build simply stays lazy
    // and the next query pays it (rethrowing whatever condition
    // persists).
    if (absorbs()) {
      try {
        (void)base_index();
      } catch (...) {
      }
    }
  }

  /// Moves the live set (sequence order preserved) into a fresh base
  /// behind a new, not yet indexed Engine. Logical ids are unchanged, so
  /// a valid union-find survives.
  void compact() {
    std::vector<Point<DIM>> next = live_points();
    seq0_ += live_begin_;
    if (engine_) retired_index_builds_ += engine_->counters().index_builds;
    engine_.reset();  // borrows base_: destroy before reassigning
    base_ = std::move(next);
    delta_.clear();
    for (auto& axis : delta_axes_) axis.clear();
    live_begin_ = 0;
    reset_engine();
    ++counters_.compactions;
  }

  void reset_engine() {
    engine_ = std::make_unique<Engine<DIM>>(base_, config_.engine);
  }

  [[nodiscard]] std::int64_t total_index_builds() const noexcept {
    return retired_index_builds_ +
           (engine_ ? engine_->counters().index_builds : 0);
  }

  [[nodiscard]] std::int32_t take_rebuilds_since_last_query() noexcept {
    const std::int64_t total = total_index_builds();
    const auto delta = static_cast<std::int32_t>(
        total - index_builds_at_last_query_);
    index_builds_at_last_query_ = total;
    return delta;
  }

  Parameters params_;
  Options options_;
  Method method_;
  StreamConfig config_;

  std::vector<Point<DIM>> base_;   // indexed slots, sequence order
  std::vector<Point<DIM>> delta_;  // side-buffer slots appended after base
  std::array<std::vector<float>, DIM> delta_axes_{};  // +inf padded SoA
  std::int64_t seq0_ = 0;          // sequence number of slot 0
  std::int64_t live_begin_ = 0;    // slots below this are retired

  std::unique_ptr<Engine<DIM>> engine_;  // owns the base index + its memory

  // Session state over logical ids (0 = oldest live point), valid while
  // uf_valid_: no expiry and no cancelled query since the last query.
  std::vector<std::int32_t> uf_;        // union-find parents
  std::vector<std::int32_t> counts_;    // saturating |N_eps|; empty = stale
  std::vector<std::uint8_t> is_core_;
  bool uf_valid_ = false;
  bool densebox_ = false;  // the last recluster ran DenseBox: absorb its index
  std::int64_t unabsorbed_batches_ = 0;  // inserts since the last query

  std::int64_t retired_index_builds_ = 0;  // builds of replaced engines
  std::int64_t index_builds_at_last_query_ = 0;
  StreamCounters counters_;
};

}  // namespace fdbscan::stream
