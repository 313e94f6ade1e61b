// Structure-of-arrays point storage: one contiguous float span per
// coordinate axis. This is the layout the vectorized kernels
// (exec/simd.h) consume — a batched distance test loads eight consecutive
// x's (then y's, ...) with one vector load instead of eight strided AoS
// reads. The AoS Point<DIM> remains the public element type everywhere;
// the store is the engine-internal mirror the hot loops run over.
//
// Padding contract: every axis array carries kSoaPadding extra entries of
// +infinity past the logical size, so a kernel may always load a full
// vector group starting at any in-range index without reading past the
// allocation. Padding lanes produce +inf distances and fail every
// eps-test, but callers are expected to mask them out by group size
// anyway (exec/simd.h kernels do).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/uninit_vector.h"
#include "geometry/point.h"

namespace fdbscan {

/// Extra +inf entries appended to every axis array (one vector group
/// minus one lane; keep in sync with simd::kWidth).
inline constexpr std::int64_t kSoaPadding = 7;

/// Non-owning per-axis view of a point set. `axes()[d][i]` is coordinate
/// d of point i; each axis span has kSoaPadding valid entries past
/// size() (the padding contract above).
template <int DIM>
struct PointsView {
  static_assert(DIM >= 1 && DIM <= 6, "designed for low-dimensional data");
  std::array<const float*, DIM> axis{};
  std::int64_t n = 0;

  [[nodiscard]] std::int64_t size() const noexcept { return n; }
  [[nodiscard]] const std::array<const float*, DIM>& axes() const noexcept {
    return axis;
  }

  [[nodiscard]] Point<DIM> point(std::int64_t i) const noexcept {
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) p[d] = axis[static_cast<std::size_t>(d)][i];
    return p;
  }
};

/// Owning SoA store. Convertible from the AoS vector every generator and
/// public entry point produces; the sharded gather fills one directly
/// (shard/sharded_engine.h) so the per-shard engines skip the re-pack.
template <int DIM>
class PointsStore {
 public:
  PointsStore() = default;

  explicit PointsStore(const std::vector<Point<DIM>>& aos) { assign(aos); }

  void assign(const std::vector<Point<DIM>>& aos) {
    resize(static_cast<std::int64_t>(aos.size()));
    for (std::int64_t i = 0; i < n_; ++i) {
      set(i, aos[static_cast<std::size_t>(i)]);
    }
  }

  /// Sets the logical size and re-establishes the +inf padding. The
  /// coordinates are left unspecified: the caller set()s all n of them
  /// (typically in a parallel kernel) before reading any.
  void resize(std::int64_t n) {
    n_ = n;
    for (auto& axis : axis_) {
      axis.resize(static_cast<std::size_t>(n + kSoaPadding));
      std::fill(axis.begin() + n, axis.end(),
                std::numeric_limits<float>::infinity());
    }
  }

  void set(std::int64_t i, const Point<DIM>& p) noexcept {
    for (int d = 0; d < DIM; ++d) {
      axis_[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)] = p[d];
    }
  }

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  [[nodiscard]] PointsView<DIM> view() const noexcept {
    PointsView<DIM> v;
    v.n = n_;
    for (int d = 0; d < DIM; ++d) {
      v.axis[static_cast<std::size_t>(d)] =
          axis_[static_cast<std::size_t>(d)].data();
    }
    return v;
  }

  [[nodiscard]] Point<DIM> point(std::int64_t i) const noexcept {
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) {
      p[d] = axis_[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
    }
    return p;
  }

  /// Heap bytes of the axis arrays (for memory accounting).
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    std::size_t total = 0;
    for (int d = 0; d < DIM; ++d) {
      total += axis_[static_cast<std::size_t>(d)].capacity() * sizeof(float);
    }
    return total;
  }

 private:
  std::array<exec::UninitVector<float>, DIM> axis_;
  std::int64_t n_ = 0;
};

using PointsView2 = PointsView<2>;
using PointsView3 = PointsView<3>;
using PointsStore2 = PointsStore<2>;
using PointsStore3 = PointsStore<3>;

}  // namespace fdbscan
