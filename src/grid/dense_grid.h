// Cartesian grid with cell length eps/sqrt(d) superimposed over the data
// domain (FDBSCAN-DenseBox, §4.2). The cell length guarantees a cell
// diameter <= eps, so any cell holding >= minpts points ("dense cell")
// consists solely of core points belonging to one cluster.
//
// The grid is only materialized sparsely: the total cell count can be in
// the billions (§5.2 reports 3.5e9 cells with 28e6 non-empty), so points
// are keyed by a 64-bit linear cell index and grouped by sorting, never by
// allocating per-cell storage.
//
// Each dense cell's members are stored as an implicit kd-tree (median
// splits on the widest axis, down to kMemberLeaf members), so halving a
// member range at its index midpoint halves it in space too. That is what
// lets members_within() — the early-exit bichromatic closest-pair test
// that decides whether two dense cells connect — prune by the tight
// bounds of ever smaller member halves instead of testing |A|·|B| pairs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/parallel.h"
#include "exec/radix_sort.h"
#include "exec/simd.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/points_view.h"

namespace fdbscan {

/// Geometry of the superimposed grid.
template <int DIM>
struct GridSpec {
  Box<DIM> domain;
  float cell_width = 0.0f;
  std::int64_t dims[DIM] = {};  // cells per dimension
  std::uint64_t total_cells = 0;

  /// Builds the spec for the given domain and eps. The cell width is
  /// eps/sqrt(d) (times an optional factor in (0, 1], preserving the
  /// diameter-below-eps invariant). Throws if the linear cell index would
  /// overflow 64 bits (absurdly small eps).
  static GridSpec create(const Box<DIM>& domain, float eps,
                         float width_factor = 1.0f) {
    GridSpec spec;
    spec.domain = domain;
    if (!(width_factor > 0.0f) || width_factor > 1.0f) {
      throw std::invalid_argument(
          "GridSpec: width_factor must be in (0, 1]");
    }
    spec.cell_width =
        eps / std::sqrt(static_cast<float>(DIM)) * width_factor;
    if (!(spec.cell_width > 0.0f)) {
      throw std::invalid_argument("GridSpec: eps must be positive");
    }
    unsigned __int128 total = 1;
    for (int d = 0; d < DIM; ++d) {
      const float extent = domain.max[d] - domain.min[d];
      // Compute in double first: the count must be range-checked before
      // the integer cast (casting an over-range float is undefined).
      const double count =
          std::ceil(static_cast<double>(extent) /
                    static_cast<double>(spec.cell_width)) +
          1.0;  // +1 guards points landing exactly on the max face
      if (count >= 9.0e18) {
        throw std::overflow_error("GridSpec: cell count exceeds 64 bits");
      }
      spec.dims[d] = std::max<std::int64_t>(1, static_cast<std::int64_t>(count));
      total *= static_cast<unsigned __int128>(spec.dims[d]);
      if (total > static_cast<unsigned __int128>(UINT64_MAX)) {
        throw std::overflow_error("GridSpec: cell index exceeds 64 bits");
      }
    }
    spec.total_cells = static_cast<std::uint64_t>(total);
    return spec;
  }

  /// Integer cell coordinates of a point (clamped to the grid).
  void cell_coords(const Point<DIM>& p, std::int64_t out[DIM]) const noexcept {
    for (int d = 0; d < DIM; ++d) {
      auto c = static_cast<std::int64_t>(
          std::floor((p[d] - domain.min[d]) / cell_width));
      out[d] = std::clamp<std::int64_t>(c, 0, dims[d] - 1);
    }
  }

  /// Row-major linearization of cell coordinates.
  [[nodiscard]] std::uint64_t linearize(const std::int64_t c[DIM]) const noexcept {
    std::uint64_t key = 0;
    for (int d = 0; d < DIM; ++d) {
      key = key * static_cast<std::uint64_t>(dims[d]) +
            static_cast<std::uint64_t>(c[d]);
    }
    return key;
  }

  [[nodiscard]] std::uint64_t cell_key(const Point<DIM>& p) const noexcept {
    std::int64_t c[DIM];
    cell_coords(p, c);
    return linearize(c);
  }

  /// Inverse of linearize: the axis-aligned box of a cell.
  [[nodiscard]] Box<DIM> cell_box(std::uint64_t key) const noexcept {
    std::int64_t c[DIM];
    for (int d = DIM - 1; d >= 0; --d) {
      c[d] = static_cast<std::int64_t>(key % static_cast<std::uint64_t>(dims[d]));
      key /= static_cast<std::uint64_t>(dims[d]);
    }
    Box<DIM> b;
    for (int d = 0; d < DIM; ++d) {
      b.min[d] = domain.min[d] + static_cast<float>(c[d]) * cell_width;
      b.max[d] = b.min[d] + cell_width;
    }
    return b;
  }
};

/// A contiguous run of points (in the grid's permutation) sharing a cell.
struct CellRange {
  std::uint64_t key;
  std::int32_t begin;
  std::int32_t end;

  [[nodiscard]] std::int32_t count() const noexcept { return end - begin; }
};

/// Member ranges at or below this size are not split further: neither by
/// the kd order of a dense cell's members nor by members_within().
inline constexpr std::int32_t kMemberLeaf = 2 * simd::kWidth;

/// Tight bounds of the SoA members [begin, end) (min/max are exact, so
/// every member lies inside — unlike the cell's grid box, whose float
/// faces can miss a member that floor() rounded into the cell).
template <int DIM>
[[nodiscard]] inline Box<DIM> member_bounds(
    const std::array<const float*, DIM>& axes, std::int32_t begin,
    std::int32_t end) noexcept {
  Box<DIM> b = Box<DIM>::empty();
  for (int d = 0; d < DIM; ++d) {
    const float* axis = axes[static_cast<std::size_t>(d)];
    float lo = b.min[d];
    float hi = b.max[d];
    for (std::int32_t m = begin; m < end; ++m) {
      lo = std::min(lo, axis[m]);
      hi = std::max(hi, axis[m]);
    }
    b.min[d] = lo;
    b.max[d] = hi;
  }
  return b;
}

/// Early-exit bichromatic closest-pair test: true iff some member of
/// [a_begin, a_end) and some member of [b_begin, b_end) lie within
/// sqrt(eps_squared) of each other. `a_box` / `b_box` are the ranges'
/// member_bounds(). Correct for any member order, and fast when both
/// ranges are kd-ordered (DenseGrid members are): the larger range is
/// halved at its index midpoint, each half whose tight bounds are within
/// eps of the other range is searched, nearer half first, and ranges no
/// larger than kMemberLeaf are decided by simd::first_within scans of the
/// larger range from each member of the smaller. Work is deterministic: `scans` advances group-
/// granularly per member scan, `box_tests` by the half-bounds tests.
template <int DIM>
[[nodiscard]] inline bool members_within(
    const std::array<const float*, DIM>& axes, std::int32_t a_begin,
    std::int32_t a_end, const Box<DIM>& a_box, std::int32_t b_begin,
    std::int32_t b_end, const Box<DIM>& b_box, float eps_squared,
    std::int64_t& scans, std::int64_t& box_tests) noexcept {
  struct Task {
    std::int32_t a_begin, a_end, b_begin, b_end;
    Box<DIM> a_box, b_box;
  };
  // Depth-first: at most one pending sibling per halving, and each
  // halving shrinks one range, so 2 * 32 levels bound the stack.
  Task stack[64];
  int top = 0;
  stack[top++] = {a_begin, a_end, b_begin, b_end, a_box, b_box};
  while (top > 0) {
    Task t = stack[--top];
    std::int32_t a_size = t.a_end - t.a_begin;
    std::int32_t b_size = t.b_end - t.b_begin;
    if (std::max(a_size, b_size) <= kMemberLeaf) {
      // Scan the larger range once per member of the smaller one.
      if (a_size > b_size) {
        std::swap(t.a_begin, t.b_begin);
        std::swap(t.a_end, t.b_end);
        std::swap(a_size, b_size);
      }
      for (std::int32_t m = t.a_begin; m < t.a_end; ++m) {
        Point<DIM> p;
        for (int d = 0; d < DIM; ++d) {
          p[d] = axes[static_cast<std::size_t>(d)][m];
        }
        if (simd::first_within<DIM>(axes, t.b_begin, t.b_end, p, eps_squared,
                                    scans) >= 0) {
          return true;
        }
      }
      continue;
    }
    // Halve the larger range; the other keeps its bounds.
    const bool split_a = a_size >= b_size;
    const std::int32_t begin = split_a ? t.a_begin : t.b_begin;
    const std::int32_t end = split_a ? t.a_end : t.b_end;
    const Box<DIM>& other = split_a ? t.b_box : t.a_box;
    const std::int32_t mid = begin + (end - begin) / 2;
    const Box<DIM> lo_box = member_bounds<DIM>(axes, begin, mid);
    const Box<DIM> hi_box = member_bounds<DIM>(axes, mid, end);
    const float lo_d2 = squared_distance(lo_box, other);
    const float hi_d2 = squared_distance(hi_box, other);
    box_tests += 2;
    Task lo_task = t;
    Task hi_task = t;
    if (split_a) {
      lo_task.a_end = mid;
      lo_task.a_box = lo_box;
      hi_task.a_begin = mid;
      hi_task.a_box = hi_box;
    } else {
      lo_task.b_end = mid;
      lo_task.b_box = lo_box;
      hi_task.b_begin = mid;
      hi_task.b_box = hi_box;
    }
    // Push the farther half first so the nearer one is searched first.
    const bool lo_first = lo_d2 <= hi_d2;
    const Task& first = lo_first ? lo_task : hi_task;
    const Task& second = lo_first ? hi_task : lo_task;
    if ((lo_first ? hi_d2 : lo_d2) <= eps_squared) stack[top++] = second;
    if ((lo_first ? lo_d2 : hi_d2) <= eps_squared) stack[top++] = first;
  }
  return false;
}

/// Sparse occupancy structure: points grouped by cell, dense cells
/// identified. `permutation()[k]` is the original index of the k-th point
/// in cell-grouped order; dense cells come first in `cells()`.
template <int DIM>
class DenseGrid {
 public:
  DenseGrid(const std::vector<Point<DIM>>& points, float eps,
            std::int32_t minpts)
      : spec_(GridSpec<DIM>::create(bounds_of(points.data(), points.size()),
                                    eps)) {
    build(points, minpts);
  }

  DenseGrid(const std::vector<Point<DIM>>& points, const GridSpec<DIM>& spec,
            std::int32_t minpts)
      : spec_(spec) {
    build(points, minpts);
  }

  const GridSpec<DIM>& spec() const noexcept { return spec_; }

  /// All occupied cells, dense cells first (indices [0, num_dense_cells)).
  const std::vector<CellRange>& cells() const noexcept { return cells_; }
  std::int32_t num_dense_cells() const noexcept { return num_dense_; }

  /// Point indices grouped by cell (dense cells first).
  const std::vector<std::int32_t>& permutation() const noexcept { return perm_; }

  /// Number of points living in dense cells (they are a prefix of the
  /// permutation).
  std::int32_t points_in_dense_cells() const noexcept { return dense_points_; }

  /// SoA mirror of the permuted points: `member_axes()[d][k]` is
  /// coordinate d of permutation()[k]. Cell ranges index straight into
  /// these spans, so membership scans (exec/simd.h count_within /
  /// first_within) load whole lane groups of one cell contiguously.
  /// Padded per the kSoaPadding contract of geometry/points_view.h.
  [[nodiscard]] std::array<const float*, DIM> member_axes() const noexcept {
    std::array<const float*, DIM> axes{};
    for (int d = 0; d < DIM; ++d) {
      axes[static_cast<std::size_t>(d)] =
          member_coords_[static_cast<std::size_t>(d)].data();
    }
    return axes;
  }

  /// Heap bytes of the SoA member mirror (for memory accounting).
  [[nodiscard]] std::size_t soa_bytes() const noexcept {
    std::size_t total = 0;
    for (int d = 0; d < DIM; ++d) {
      total +=
          member_coords_[static_cast<std::size_t>(d)].capacity() * sizeof(float);
    }
    return total;
  }

 private:
  void build(const std::vector<Point<DIM>>& points, std::int32_t minpts) {
    const auto n = static_cast<std::int64_t>(points.size());
    std::vector<std::uint64_t> keys(points.size());
    exec::parallel_for("dense-grid/cell-keys", n, [&](std::int64_t i) {
      keys[static_cast<std::size_t>(i)] =
          spec_.cell_key(points[static_cast<std::size_t>(i)]);
    });

    perm_.resize(points.size());
    std::iota(perm_.begin(), perm_.end(), 0);
    exec::radix_sort_pairs(keys, perm_);

    // Group equal keys into cells, splitting dense from sparse. After
    // the tandem sort, keys[k] is the cell key at sorted position k.
    std::vector<CellRange> dense, sparse;
    std::int64_t run_begin = 0;
    for (std::int64_t i = 1; i <= n; ++i) {
      if (i == n || keys[static_cast<std::size_t>(i)] !=
                        keys[static_cast<std::size_t>(run_begin)]) {
        CellRange cell{keys[static_cast<std::size_t>(run_begin)],
                       static_cast<std::int32_t>(run_begin),
                       static_cast<std::int32_t>(i)};
        (cell.count() >= minpts ? dense : sparse).push_back(cell);
        run_begin = i;
      }
    }
    num_dense_ = static_cast<std::int32_t>(dense.size());

    // Re-permute so dense-cell points form a prefix, preserving grouping.
    std::vector<std::int32_t> reordered;
    reordered.reserve(perm_.size());
    for (const auto& cell : dense)
      for (std::int32_t k = cell.begin; k < cell.end; ++k)
        reordered.push_back(perm_[static_cast<std::size_t>(k)]);
    dense_points_ = static_cast<std::int32_t>(reordered.size());
    for (const auto& cell : sparse)
      for (std::int32_t k = cell.begin; k < cell.end; ++k)
        reordered.push_back(perm_[static_cast<std::size_t>(k)]);
    perm_ = std::move(reordered);

    cells_.clear();
    cells_.reserve(dense.size() + sparse.size());
    std::int32_t offset = 0;
    for (auto& cell : dense) {
      const std::int32_t c = cell.count();
      cells_.push_back({cell.key, offset, offset + c});
      offset += c;
    }
    for (auto& cell : sparse) {
      const std::int32_t c = cell.count();
      cells_.push_back({cell.key, offset, offset + c});
      offset += c;
    }

    // Members of each dense cell in kd order (file comment): the order
    // members_within() halves by.
    exec::parallel_for("dense-grid/kd-order", num_dense_, [&](std::int64_t c) {
      const CellRange& cell = cells_[static_cast<std::size_t>(c)];
      if (cell.count() <= kMemberLeaf) return;
      // Ordered as a contiguous copy: the median searches then stream
      // through memory instead of gathering points[id].
      std::vector<Member> members(static_cast<std::size_t>(cell.count()));
      for (std::int32_t k = cell.begin; k < cell.end; ++k) {
        const std::int32_t id = perm_[static_cast<std::size_t>(k)];
        members[static_cast<std::size_t>(k - cell.begin)] = {
            points[static_cast<std::size_t>(id)], id};
      }
      kd_order(members.data(), members.data() + members.size());
      for (std::int32_t k = cell.begin; k < cell.end; ++k) {
        perm_[static_cast<std::size_t>(k)] =
            members[static_cast<std::size_t>(k - cell.begin)].id;
      }
    });

    // SoA mirror in final permuted order (member_axes() contract above).
    for (int d = 0; d < DIM; ++d) {
      member_coords_[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(n + kSoaPadding),
          std::numeric_limits<float>::infinity());
    }
    exec::parallel_for("dense-grid/member-soa", n, [&](std::int64_t k) {
      const auto& p =
          points[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])];
      for (int d = 0; d < DIM; ++d) {
        member_coords_[static_cast<std::size_t>(d)][static_cast<std::size_t>(
            k)] = p[d];
      }
    });
  }

  struct Member {
    Point<DIM> p;
    std::int32_t id;
  };

  /// Reorders [first, last) into an implicit kd-tree: the range is split
  /// at its index midpoint by the median on the widest axis of its bounds
  /// (ties by id, so the order is deterministic), and both halves are
  /// ordered the same way down to kMemberLeaf members.
  static void kd_order(Member* first, Member* last) {
    while (last - first > kMemberLeaf) {
      Box<DIM> b = Box<DIM>::empty();
      for (const Member* m = first; m != last; ++m) b.expand(m->p);
      int axis = 0;
      for (int d = 1; d < DIM; ++d) {
        if (b.max[d] - b.min[d] > b.max[axis] - b.min[axis]) axis = d;
      }
      Member* mid = first + (last - first) / 2;
      std::nth_element(first, mid, last, [axis](const Member& x,
                                                const Member& y) {
        return x.p[axis] < y.p[axis] || (x.p[axis] == y.p[axis] && x.id < y.id);
      });
      kd_order(first, mid);
      first = mid;
    }
  }

  GridSpec<DIM> spec_;
  std::vector<std::int32_t> perm_;
  std::vector<CellRange> cells_;
  std::array<std::vector<float>, DIM> member_coords_;
  std::int32_t num_dense_ = 0;
  std::int32_t dense_points_ = 0;
};

}  // namespace fdbscan
