// Wide linear bounding volume hierarchy — the search index of FDBSCAN
// (§4.1). The binary topology comes from Karras, "Maximizing Parallelism
// in the Construction of BVHs, Octrees, and K-d Trees" (HPG'12), then is
// collapsed into 8-wide nodes whose child boxes are stored lane-wise
// (SoA), so a single simd::box_d2_batch sweep tests every child of a
// node at once — the `lane_width` idea of the zpc LBvh exemplar. This is
// the from-scratch stand-in for the ArborX BVH the paper uses
// (DESIGN.md §2).
//
// Construction (every step is data-parallel):
//   1. Morton-code primitive centroids over the scene bounds (the point
//      path encodes straight from a PointsView SoA, one lane group per
//      launch index) and sort.
//   2. Build the n-1 binary internal nodes independently from the sorted
//      codes (Karras's prefix-delta construction; ties broken by index so
//      duplicate codes are handled).
//   3. Refit binary bounds bottom-up; each node is processed by the
//      second child to arrive (atomic counter per node).
//   4. Collapse the binary tree into wide nodes, level-synchronously. A
//      wide node starts from its binary root's two children and
//      repeatedly expands the entry whose subtree covers the most sorted
//      leaf positions (leftmost on ties) until 8 entries (or all leaves)
//      remain — a deterministic, balance-seeking flattening whose lane
//      order is the left-to-right sorted leaf order. Each level expands
//      its whole frontier in one launch and scan-compacts the surviving
//      internal entries into the next frontier; wide subtree sizes are
//      then counted bottom-up, DFS-preorder indices assigned top-down,
//      and every wide node written in one launch. The result is byte-
//      identical to the recursive depth-first collapse (root 0, children
//      in lane order, each subtree contiguous), which tests/test_bvh.cpp
//      keeps as its reference. The binary nodes, Morton codes and
//      per-level scratch are build temporaries, freed afterwards.
//
// Traversal is a batched, stack-based top-down walk: one lane sweep
// computes all 8 child box distances, then lanes are processed in order.
// Counter contract (DESIGN.md §6): `nodes_visited` counts internal-node
// lanes whose bounds were tested, `leaves_tested` counts leaf lanes
// whose bounds were tested — values differ from the old binary tree
// (pruning granularity changed) but are deterministic for a given tree:
// bit-equal across worker counts and across the scalar/vector backends,
// which walk the identical wide tree in the identical lane order.
// Two traversal features the paper relies on are preserved exactly:
//   * callbacks may terminate the traversal early (preprocessing stops
//     after minpts neighbors);
//   * a *leaf mask* hides all leaves with sorted position < a threshold,
//     implementing §4.1's "half-traversal" so each neighbor pair is
//     visited exactly once (lanes carry the max sorted leaf position of
//     their subtree, pruning masked subtrees wholesale before any
//     counter is touched).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"
#include "exec/radix_sort.h"
#include "exec/simd.h"
#include "exec/uninit_vector.h"
#include "geometry/box.h"
#include "geometry/morton.h"
#include "geometry/point.h"
#include "geometry/points_view.h"

namespace fdbscan {

/// Returned by traversal callbacks.
enum class TraversalControl : std::uint8_t {
  kContinue,   ///< keep searching
  kTerminate,  ///< stop this query (early exit)
};

/// Architecture-neutral work counters for a traversal. Wall-clock on this
/// repository's CPU substrate is not directly comparable to the paper's
/// V100 numbers, but these counts are: for a point-primitive BVH,
/// `leaves_tested` is exactly the number of point-point distance
/// computations the GPU would execute.
struct TraversalStats {
  std::int64_t nodes_visited = 0;  ///< internal nodes whose bounds were tested
  std::int64_t leaves_tested = 0;  ///< leaf primitives whose bounds were tested

  TraversalStats& operator+=(const TraversalStats& other) noexcept {
    nodes_visited += other.nodes_visited;
    leaves_tested += other.leaves_tested;
    return *this;
  }
};

template <int DIM>
class Bvh {
 public:
  /// Children per wide node == SIMD lane count: one batched distance
  /// sweep covers a whole node.
  static constexpr int kArity = simd::kWidth;

  /// Lane-SoA wide node: child boxes stored axis-major so one vector
  /// load covers all 8 lane values of one axis. Lanes >= count are
  /// padding (+inf/-inf boxes, child -1, range_end -1) and are never
  /// iterated.
  struct WideNode {
    float lo[DIM][kArity];
    float hi[DIM][kArity];
    std::int32_t child[kArity];      // >= 0: wide node index; < 0: leaf ~pos
    std::int32_t range_end[kArity];  // max sorted leaf position in subtree
    std::int32_t count;              // live lanes
  };

  /// Builds the hierarchy over arbitrary boxed primitives (points are
  /// degenerate boxes; FDBSCAN-DenseBox mixes points and dense-cell
  /// boxes, which the BVH accommodates without extra constraints — §4.2).
  explicit Bvh(const std::vector<Box<DIM>>& primitive_bounds) {
    build_from_boxes(primitive_bounds);
  }

  /// Hierarchy over an SoA point view: Morton codes are computed one
  /// lane group at a time straight from the per-axis spans, and the
  /// degenerate leaf boxes are materialized only in sorted order.
  explicit Bvh(const PointsView<DIM>& points) { build_from_view(points); }

  /// Convenience: hierarchy over raw AoS points (packs a temporary SoA
  /// store for the build).
  explicit Bvh(const std::vector<Point<DIM>>& points) {
    const PointsStore<DIM> store(points);
    build_from_view(store.view());
  }

  [[nodiscard]] std::int32_t size() const noexcept { return n_; }
  [[nodiscard]] const Box<DIM>& scene_bounds() const noexcept { return scene_; }

  /// Original primitive id stored at a sorted leaf position.
  [[nodiscard]] std::int32_t primitive_at(std::int32_t sorted_pos) const noexcept {
    return sorted_ids_[static_cast<std::size_t>(sorted_pos)];
  }

  /// Sorted leaf position of an original primitive id.
  [[nodiscard]] std::int32_t position_of(std::int32_t primitive_id) const noexcept {
    return positions_[static_cast<std::size_t>(primitive_id)];
  }

  [[nodiscard]] const Box<DIM>& leaf_bounds(std::int32_t sorted_pos) const noexcept {
    return leaf_bounds_[static_cast<std::size_t>(sorted_pos)];
  }

  /// The wide nodes in DFS preorder (root at 0; empty when size() <= 1).
  [[nodiscard]] std::span<const WideNode> nodes() const noexcept {
    return {wide_.data(), wide_.size()};
  }

  /// Bytes of device memory the structure occupies (for the memory
  /// comparison benches).
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    return wide_.size() * sizeof(WideNode) +
           leaf_bounds_.size() * sizeof(Box<DIM>) +
           (sorted_ids_.size() + positions_.size()) * sizeof(std::int32_t);
  }

  /// Visits every leaf whose bounds lie within sqrt(eps_squared) of `p`
  /// and whose sorted position is >= min_sorted_pos (pass 0 for an
  /// unmasked query). The callback receives (sorted_pos, primitive_id)
  /// and may return kTerminate to stop early.
  template <class Callback>
  void for_each_near(const Point<DIM>& p, float eps_squared,
                     std::int32_t min_sorted_pos, Callback&& cb,
                     TraversalStats* stats = nullptr) const {
    walk(
        [&](const WideNode& node, float (&d2)[kArity]) {
          simd::box_d2_batch<DIM>(p, node.lo, node.hi, d2);
        },
        [&](const Box<DIM>& leaf) { return squared_distance(p, leaf); },
        eps_squared, min_sorted_pos, std::forward<Callback>(cb), stats);
  }

  /// Box query: visits every leaf whose bounds lie within
  /// sqrt(eps_squared) of box `q` (closest-point gap, geometry/box.h),
  /// with the same mask, callback and counter contract as the point
  /// query. FDBSCAN-DenseBox walks the mixed tree with each dense cell's
  /// member bounds to find the cells it may connect to.
  template <class Callback>
  void for_each_near(const Box<DIM>& q, float eps_squared,
                     std::int32_t min_sorted_pos, Callback&& cb,
                     TraversalStats* stats = nullptr) const {
    walk(
        [&](const WideNode& node, float (&d2)[kArity]) {
          simd::box_box_d2_batch<DIM>(q, node.lo, node.hi, d2);
        },
        [&](const Box<DIM>& leaf) { return squared_distance(q, leaf); },
        eps_squared, min_sorted_pos, std::forward<Callback>(cb), stats);
  }

  /// Unmasked range query.
  template <class Callback>
  void for_each_near(const Point<DIM>& p, float eps_squared, Callback&& cb,
                     TraversalStats* stats = nullptr) const {
    for_each_near(p, eps_squared, 0, std::forward<Callback>(cb), stats);
  }

  /// k-nearest-neighbor query (by primitive bounds distance; exact point
  /// distances for point primitives). Returns up to k (primitive_id,
  /// squared_distance) pairs sorted by ascending distance. Used by the
  /// k-dist parameter-selection heuristic; the walk prunes subtrees
  /// farther than the current k-th distance.
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> nearest(
      const Point<DIM>& p, std::int32_t k) const {
    std::vector<std::pair<std::int32_t, float>> result;
    if (n_ == 0 || k <= 0) return result;
    // Max-heap of the best k squared distances seen so far.
    std::vector<std::pair<float, std::int32_t>> heap;  // (dist2, id)
    heap.reserve(static_cast<std::size_t>(k));
    auto offer = [&](float d2, std::int32_t id) {
      if (static_cast<std::int32_t>(heap.size()) < k) {
        heap.emplace_back(d2, id);
        std::push_heap(heap.begin(), heap.end());
      } else if (d2 < heap.front().first) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {d2, id};
        std::push_heap(heap.begin(), heap.end());
      }
    };
    auto bound = [&] {
      return static_cast<std::int32_t>(heap.size()) < k
                 ? std::numeric_limits<float>::max()
                 : heap.front().first;
    };
    if (n_ == 1) {
      offer(squared_distance(p, leaf_bounds_[0]), sorted_ids_[0]);
    } else {
      std::int32_t stack[kMaxStack];
      int top = 0;
      stack[top++] = 0;
      while (top > 0) {
        const WideNode& node = wide_[static_cast<std::size_t>(stack[--top])];
        float d2[kArity];
        simd::box_d2_batch<DIM>(p, node.lo, node.hi, d2);
        const int count = node.count;
        for (int l = 0; l < count; ++l) {
          const std::int32_t c = node.child[l];
          if (c < 0) {
            const std::int32_t pos = ~c;
            if (d2[l] < bound()) {
              offer(d2[l], sorted_ids_[static_cast<std::size_t>(pos)]);
            }
          } else if (d2[l] < bound()) {
            stack[top++] = c;
          }
        }
      }
    }
    std::sort_heap(heap.begin(), heap.end());
    result.reserve(heap.size());
    for (const auto& [d2, id] : heap) result.emplace_back(id, d2);
    return result;
  }

  /// Generic nearest-primitive query under a user metric: `eval(id)`
  /// returns the (squared) metric value of a candidate, or +infinity to
  /// reject it. The metric MUST dominate the squared Euclidean distance
  /// to the primitive bounds (true for Euclidean itself and for
  /// mutual-reachability distances), so box distances remain valid lower
  /// bounds for pruning. Returns (primitive_id, value), or (-1, +inf)
  /// when nothing qualifies. This powers the Boruvka EMST construction
  /// (nearest point *outside one's own component*).
  template <class Eval>
  [[nodiscard]] std::pair<std::int32_t, float> nearest_by(const Point<DIM>& p,
                                                          Eval&& eval) const {
    std::pair<std::int32_t, float> best{-1,
                                        std::numeric_limits<float>::infinity()};
    if (n_ == 0) return best;
    auto offer = [&](std::int32_t pos) {
      const std::int32_t id = sorted_ids_[static_cast<std::size_t>(pos)];
      const float value = eval(id);
      if (value < best.second) best = {id, value};
    };
    if (n_ == 1) {
      offer(0);
      return best;
    }
    std::int32_t stack[kMaxStack];
    int top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const WideNode& node = wide_[static_cast<std::size_t>(stack[--top])];
      float d2[kArity];
      simd::box_d2_batch<DIM>(p, node.lo, node.hi, d2);
      const int count = node.count;
      for (int l = 0; l < count; ++l) {
        const std::int32_t c = node.child[l];
        if (c < 0) {
          if (d2[l] < best.second) offer(~c);
        } else if (d2[l] < best.second) {
          stack[top++] = c;
        }
      }
    }
    return best;
  }

 private:
  /// The masked, early-exit range walk shared by the point and box
  /// queries: `batch(node, d2)` fills the 8 lane distances of a wide
  /// node, `single(box)` the distance to the lone leaf of a one-
  /// primitive tree.
  template <class Batch, class Single, class Callback>
  void walk(Batch&& batch, Single&& single, float eps_squared,
            std::int32_t min_sorted_pos, Callback&& cb,
            TraversalStats* stats) const {
    if (n_ == 0) return;
    if (n_ == 1) {
      // Masked leaves are not tested and must not be counted — the n>1
      // path skips them before touching stats, and dist_comps parity
      // across the two paths depends on doing the same here.
      if (min_sorted_pos > 0) return;
      if (stats) ++stats->leaves_tested;
      if (single(leaf_bounds_[0]) <= eps_squared) {
        cb(std::int32_t{0}, sorted_ids_[0]);
      }
      return;
    }
    std::int32_t stack[kMaxStack];
    int top = 0;
    stack[top++] = 0;  // root is wide node 0
    while (top > 0) {
      const WideNode& node = wide_[static_cast<std::size_t>(stack[--top])];
      float d2[kArity];
      batch(node, d2);
      const int count = node.count;
      for (int l = 0; l < count; ++l) {
        const std::int32_t c = node.child[l];
        if (c < 0) {  // leaf, encoded as ~sorted_pos
          const std::int32_t pos = ~c;
          if (pos < min_sorted_pos) continue;  // masked leaf
          if (stats) ++stats->leaves_tested;
          if (d2[l] <= eps_squared) {
            if (cb(pos, sorted_ids_[static_cast<std::size_t>(pos)]) ==
                TraversalControl::kTerminate) {
              return;
            }
          }
        } else {
          if (node.range_end[l] < min_sorted_pos) continue;  // masked subtree
          if (stats) ++stats->nodes_visited;
          if (d2[l] <= eps_squared) {
            stack[top++] = c;
          }
        }
      }
    }
  }

  /// Binary build node (temporary): Karras topology plus the sorted leaf
  /// range, which the collapse uses to pick the biggest subtree to
  /// expand.
  struct BuildNode {
    Box<DIM> bounds;
    std::int32_t left;         // >= 0: internal node index; < 0: leaf ~pos
    std::int32_t right;
    std::int32_t range_begin;  // min sorted leaf position in this subtree
    std::int32_t range_end;    // max sorted leaf position in this subtree
    std::int32_t parent;       // -1 for root
  };

  /// One wide node during the collapse (temporary), stored breadth-first:
  /// level by level, each level in the lane order of the nodes above it,
  /// so a node's wide children are contiguous in the next level.
  struct CollapseNode {
    std::int32_t bin;             // binary root this wide node flattens
    std::int32_t entry[kArity];   // lane entries: binary node or ~leaf pos
    std::int32_t count;           // live entries
    std::int32_t num_internal;    // entries that become wide children
    std::int32_t first_child;     // breadth-first index of the first one
    std::int32_t size;            // wide nodes in this subtree
    std::int32_t index;           // DFS-preorder index in wide_
  };

  // Wide-tree depth is bounded by the binary depth (Morton key length
  // plus index tiebreak, < 100 levels); a DFS pushes at most kArity - 1
  // net entries per level, so 1024 slots are comfortably above the
  // theoretical maximum.
  static constexpr int kMaxStack = 1024;

  // Prefix-delta of Karras's construction: length of the common prefix of
  // the keys at sorted positions i and j, with the position itself
  // appended as a tiebreak so duplicate codes still yield distinct keys.
  // Returns -1 when j is out of range. std::countl_zero is defined for a
  // zero argument (unlike __builtin_clz*), so i == j is well-defined
  // should a future caller pass it, and non-GNU compilers are fine.
  [[nodiscard]] int delta(std::int32_t i, std::int32_t j) const noexcept {
    if (j < 0 || j >= n_) return -1;
    const std::uint64_t a = codes_[static_cast<std::size_t>(i)];
    const std::uint64_t b = codes_[static_cast<std::size_t>(j)];
    if (a != b) return std::countl_zero(a ^ b);
    return 64 + std::countl_zero(static_cast<std::uint32_t>(i) ^
                                 static_cast<std::uint32_t>(j));
  }

  void build_from_boxes(const std::vector<Box<DIM>>& boxes) {
    n_ = static_cast<std::int32_t>(boxes.size());
    if (n_ == 0) return;

    scene_ = exec::parallel_reduce(
        "bvh/build/scene-bounds", static_cast<std::int64_t>(n_),
        Box<DIM>::empty(),
        [&](std::int64_t i) { return boxes[static_cast<std::size_t>(i)]; },
        [](Box<DIM> a, const Box<DIM>& b) {
          a.expand(b);
          return a;
        });

    // Mixed primitives keep the scalar per-centroid encoder (for the
    // degenerate boxes of point primitives the centroid IS the point, so
    // this matches the SoA group encoder bit for bit).
    codes_.resize(boxes.size());
    exec::parallel_for("bvh/build/morton-codes", static_cast<std::int64_t>(n_),
                       [&](std::int64_t i) {
      codes_[static_cast<std::size_t>(i)] =
          morton_code(boxes[static_cast<std::size_t>(i)].center(), scene_);
    });

    finish_build([&](std::int32_t id) -> const Box<DIM>& {
      return boxes[static_cast<std::size_t>(id)];
    });
  }

  void build_from_view(const PointsView<DIM>& points) {
    n_ = static_cast<std::int32_t>(points.size());
    if (n_ == 0) return;

    scene_ = exec::parallel_reduce(
        "bvh/build/scene-bounds", static_cast<std::int64_t>(n_),
        Box<DIM>::empty(),
        [&](std::int64_t i) {
          const Point<DIM> p = points.point(i);
          return Box<DIM>{p, p};
        },
        [](Box<DIM> a, const Box<DIM>& b) {
          a.expand(b);
          return a;
        });

    // One launch index per lane group: each call encodes up to
    // simd::kWidth consecutive points straight from the axis spans.
    codes_.resize(static_cast<std::size_t>(n_));
    const std::int64_t groups =
        (static_cast<std::int64_t>(n_) + simd::kWidth - 1) / simd::kWidth;
    exec::parallel_for("bvh/build/morton-codes", groups, [&](std::int64_t g) {
      const std::int64_t i0 = g * simd::kWidth;
      const int count = static_cast<int>(
          std::min<std::int64_t>(simd::kWidth, n_ - i0));
      simd::morton_group<DIM>(points.axes(), i0, count, scene_,
                              codes_.data() + i0);
    });

    finish_build([&](std::int32_t id) {
      const Point<DIM> p = points.point(id);
      return Box<DIM>{p, p};
    });
  }

  /// Shared build tail once codes_ are filled: sort, leaf order, binary
  /// hierarchy + refit, collapse to wide nodes. `box_at(id)` yields the
  /// primitive bounds of an original id.
  template <class BoxAt>
  void finish_build(BoxAt&& box_at) {
    sorted_ids_.resize(static_cast<std::size_t>(n_));
    exec::parallel_for("bvh/build/leaf-ids", static_cast<std::int64_t>(n_),
                       [&](std::int64_t i) {
      sorted_ids_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
    });
    exec::radix_sort_pairs(codes_, sorted_ids_);

    leaf_bounds_.resize(static_cast<std::size_t>(n_));
    positions_.resize(static_cast<std::size_t>(n_));
    exec::parallel_for("bvh/build/leaf-order", static_cast<std::int64_t>(n_),
                       [&](std::int64_t pos) {
      const std::int32_t id = sorted_ids_[static_cast<std::size_t>(pos)];
      leaf_bounds_[static_cast<std::size_t>(pos)] = box_at(id);
      positions_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(pos);
    });

    if (n_ == 1) {
      codes_ = exec::UninitVector<std::uint64_t>();
      return;
    }

    // Binary hierarchy: each internal node i in [0, n-1) is built
    // independently (build temporaries; freed after the collapse). The
    // kernel fills every node field but the bounds (the refit's job) and
    // every leaf's parent, and zeroes the refit's arrival counters.
    const std::int32_t num_internal = n_ - 1;
    build_.resize(static_cast<std::size_t>(num_internal));
    exec::UninitVector<std::int32_t> leaf_parent(static_cast<std::size_t>(n_));
    exec::UninitVector<std::int32_t> arrivals(
        static_cast<std::size_t>(num_internal));
    build_[0].parent = -1;
    exec::parallel_for("bvh/build/hierarchy", num_internal, [&](std::int64_t ii) {
      const auto i = static_cast<std::int32_t>(ii);
      // Direction and range of the node's keys.
      const int d = delta(i, i + 1) > delta(i, i - 1) ? 1 : -1;
      const int delta_min = delta(i, i - d);
      std::int32_t l_max = 2;
      while (delta(i, i + l_max * d) > delta_min) l_max *= 2;
      std::int32_t l = 0;
      for (std::int32_t t = l_max / 2; t >= 1; t /= 2) {
        if (delta(i, i + (l + t) * d) > delta_min) l += t;
      }
      const std::int32_t j = i + l * d;

      // Split position: highest differing bit within [min(i,j), max(i,j)].
      const int delta_node = delta(i, j);
      std::int32_t s = 0;
      for (std::int32_t t = (l + 1) / 2;; t = (t + 1) / 2) {
        if (delta(i, i + (s + t) * d) > delta_node) s += t;
        if (t == 1) break;
      }
      const std::int32_t gamma = i + s * d + std::min(d, 0);

      const std::int32_t first = std::min(i, j);
      const std::int32_t last = std::max(i, j);
      arrivals[static_cast<std::size_t>(ii)] = 0;
      BuildNode& node = build_[static_cast<std::size_t>(ii)];
      node.range_begin = first;
      node.range_end = last;
      node.left = (first == gamma) ? ~gamma : gamma;
      node.right = (last == gamma + 1) ? ~(gamma + 1) : gamma + 1;
      if (node.left < 0) {
        leaf_parent[static_cast<std::size_t>(gamma)] = i;
      } else {
        build_[static_cast<std::size_t>(node.left)].parent = i;
      }
      if (node.right < 0) {
        leaf_parent[static_cast<std::size_t>(gamma + 1)] = i;
      } else {
        build_[static_cast<std::size_t>(node.right)].parent = i;
      }
    });

    // Bottom-up refit: the second thread to reach a node computes its
    // bounds from the (now finished) children.
    exec::parallel_for("bvh/build/refit", static_cast<std::int64_t>(n_),
                       [&](std::int64_t leaf) {
      std::int32_t node = leaf_parent[static_cast<std::size_t>(leaf)];
      while (node >= 0) {
        if (exec::atomic_fetch_add(arrivals[static_cast<std::size_t>(node)],
                                   std::int32_t{1}) == 0) {
          return;  // first arrival: the sibling subtree is not done yet
        }
        BuildNode& nd = build_[static_cast<std::size_t>(node)];
        Box<DIM> b = child_bounds(nd.left);
        b.expand(child_bounds(nd.right));
        nd.bounds = b;
        node = nd.parent;
      }
    });

    // Free every build temporary as soon as its last reader is done.
    // Move-assign an empty vector: `v = {}` picks the initializer-list
    // overload, which clears but keeps the capacity.
    leaf_parent = exec::UninitVector<std::int32_t>();
    arrivals = exec::UninitVector<std::int32_t>();
    codes_ = exec::UninitVector<std::uint64_t>();
    collapse();
    build_ = exec::UninitVector<BuildNode>();
  }

  /// Level-synchronous collapse of the binary tree into wide_ (step 4 of
  /// the construction). Byte-identical to the recursive depth-first
  /// collapse: the expansion rule per wide node is the same, and the
  /// preorder index of a wide node is 1 + its parent's index + the sizes
  /// of the subtrees in the lanes to its left.
  void collapse() {
    // Every wide node flattens a distinct binary internal node, so n - 1
    // slots always suffice; only the slots the levels fill are touched.
    exec::UninitVector<CollapseNode> bfs(static_cast<std::size_t>(n_ - 1));
    // Level l holds breadth-first slots [level_begin[l], level_begin[l+1]).
    std::vector<std::int32_t> level_begin{0, 1};
    bfs[0].bin = 0;
    std::vector<std::int32_t> offsets;
    for (;;) {
      const std::int32_t begin = level_begin[level_begin.size() - 2];
      const std::int32_t end = level_begin.back();
      offsets.resize(static_cast<std::size_t>(end - begin));
      // 1. Expand every frontier wide-root into its lane entries.
      exec::parallel_for("bvh/build/collapse/expand", end - begin,
                         [&](std::int64_t i) {
        CollapseNode& node = bfs[static_cast<std::size_t>(begin + i)];
        expand(node);
        offsets[static_cast<std::size_t>(i)] = node.num_internal;
      });
      // 2. Compact the internal entries into the next frontier, keeping
      // lane order: a node's children land contiguously at its offset.
      const std::int32_t width =
          exec::exclusive_scan("bvh/build/collapse/compact", offsets);
      if (width == 0) break;
      exec::parallel_for("bvh/build/collapse/compact", end - begin,
                         [&](std::int64_t i) {
        CollapseNode& node = bfs[static_cast<std::size_t>(begin + i)];
        std::int32_t slot = end + offsets[static_cast<std::size_t>(i)];
        node.first_child = slot;
        for (int k = 0; k < node.count; ++k) {
          if (node.entry[k] >= 0) {
            bfs[static_cast<std::size_t>(slot++)].bin = node.entry[k];
          }
        }
      });
      level_begin.push_back(end + width);
    }
    const std::int32_t total = level_begin.back();
    const auto levels = static_cast<std::int32_t>(level_begin.size()) - 1;

    // 3. Wide subtree sizes, bottom-up one level per launch.
    for (std::int32_t l = levels - 1; l >= 0; --l) {
      const std::int32_t begin = level_begin[static_cast<std::size_t>(l)];
      exec::parallel_for(
          "bvh/build/collapse/sizes",
          level_begin[static_cast<std::size_t>(l) + 1] - begin,
          [&](std::int64_t i) {
        CollapseNode& node = bfs[static_cast<std::size_t>(begin + i)];
        std::int32_t size = 1;
        for (std::int32_t c = 0; c < node.num_internal; ++c) {
          size += bfs[static_cast<std::size_t>(node.first_child + c)].size;
        }
        node.size = size;
      });
    }

    // 4. DFS-preorder indices, top-down: a child follows its parent and
    // the whole subtrees of the wide children to its left.
    bfs[0].index = 0;
    for (std::int32_t l = 0; l + 1 < levels; ++l) {
      const std::int32_t begin = level_begin[static_cast<std::size_t>(l)];
      exec::parallel_for(
          "bvh/build/collapse/preorder",
          level_begin[static_cast<std::size_t>(l) + 1] - begin,
          [&](std::int64_t i) {
        const CollapseNode& node = bfs[static_cast<std::size_t>(begin + i)];
        std::int32_t next = node.index + 1;
        for (std::int32_t c = 0; c < node.num_internal; ++c) {
          CollapseNode& child =
              bfs[static_cast<std::size_t>(node.first_child + c)];
          child.index = next;
          next += child.size;
        }
      });
    }

    // 5. Write every wide node at its preorder slot.
    wide_.resize(static_cast<std::size_t>(total));
    exec::parallel_for("bvh/build/collapse/write", total, [&](std::int64_t i) {
      const CollapseNode& node = bfs[static_cast<std::size_t>(i)];
      WideNode& w = wide_[static_cast<std::size_t>(node.index)];
      w.count = node.count;
      std::int32_t next_child = node.first_child;
      for (int l = 0; l < kArity; ++l) {
        Box<DIM> b;
        std::int32_t child_code = -1;
        std::int32_t rend = -1;
        if (l >= node.count) {  // padding lane
          for (int d = 0; d < DIM; ++d) {
            b.min[d] = std::numeric_limits<float>::infinity();
            b.max[d] = -std::numeric_limits<float>::infinity();
          }
        } else if (const std::int32_t c = node.entry[l]; c < 0) {
          const std::int32_t pos = ~c;
          b = leaf_bounds_[static_cast<std::size_t>(pos)];
          child_code = c;  // keep the ~sorted_pos encoding
          rend = pos;
        } else {
          const BuildNode& nd = build_[static_cast<std::size_t>(c)];
          b = nd.bounds;
          rend = nd.range_end;
          child_code = bfs[static_cast<std::size_t>(next_child++)].index;
        }
        w.child[l] = child_code;
        w.range_end[l] = rend;
        for (int d = 0; d < DIM; ++d) {
          w.lo[d][l] = b.min[d];
          w.hi[d][l] = b.max[d];
        }
      }
    });
  }

  /// Fills a wide node's lane entries from its binary root. Expansion
  /// policy: while fewer than kArity entries, split the entry whose
  /// subtree covers the most sorted leaf positions (ties: the leftmost),
  /// replacing it in place with its two children — lane order stays the
  /// left-to-right sorted order.
  void expand(CollapseNode& node) const noexcept {
    std::int32_t* entry = node.entry;
    int size = 0;
    entry[size++] = build_[static_cast<std::size_t>(node.bin)].left;
    entry[size++] = build_[static_cast<std::size_t>(node.bin)].right;
    while (size < kArity) {
      int pick = -1;
      std::int32_t best_span = 0;
      for (int k = 0; k < size; ++k) {
        if (entry[k] < 0) continue;  // leaves cannot expand
        const BuildNode& nd = build_[static_cast<std::size_t>(entry[k])];
        const std::int32_t span = nd.range_end - nd.range_begin + 1;
        if (span > best_span) {
          best_span = span;
          pick = k;
        }
      }
      if (pick < 0) break;  // all entries are leaves
      const BuildNode& split = build_[static_cast<std::size_t>(entry[pick])];
      const std::int32_t left = split.left;
      const std::int32_t right = split.right;
      for (int k = size; k > pick + 1; --k) entry[k] = entry[k - 1];
      entry[pick] = left;
      entry[pick + 1] = right;
      ++size;
    }
    node.count = size;
    node.num_internal = 0;
    for (int k = 0; k < size; ++k) node.num_internal += entry[k] >= 0 ? 1 : 0;
  }

  [[nodiscard]] Box<DIM> child_bounds(std::int32_t c) const noexcept {
    if (c < 0) return leaf_bounds_[static_cast<std::size_t>(~c)];
    // The child's bounds were written before the release of the arrival
    // counter increment observed by this thread.
    return build_[static_cast<std::size_t>(c)].bounds;
  }

  std::int32_t n_ = 0;
  Box<DIM> scene_ = Box<DIM>::empty();
  // Every array is filled in full by a build kernel, so none is
  // value-initialized first (exec/uninit_vector.h).
  exec::UninitVector<WideNode> wide_;            // collapsed tree; root at 0
  exec::UninitVector<Box<DIM>> leaf_bounds_;     // by sorted position
  exec::UninitVector<std::int32_t> sorted_ids_;  // sorted position -> primitive
  exec::UninitVector<std::int32_t> positions_;   // primitive -> sorted position
  // Build temporaries, freed at the end of finish_build().
  exec::UninitVector<BuildNode> build_;
  exec::UninitVector<std::uint64_t> codes_;  // by sorted position
};

}  // namespace fdbscan
