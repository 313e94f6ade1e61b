// Axis-aligned bounding boxes: the bounding volumes of the BVH and the
// dense-cell primitives of FDBSCAN-DenseBox.
#pragma once

#include <algorithm>
#include <limits>

#include "geometry/point.h"

namespace fdbscan {

template <int DIM>
struct Box {
  Point<DIM> min;
  Point<DIM> max;

  /// An inverted (empty) box: any expand() makes it valid.
  [[nodiscard]] static Box empty() noexcept {
    Box b;
    for (int d = 0; d < DIM; ++d) {
      b.min[d] = std::numeric_limits<float>::max();
      b.max[d] = std::numeric_limits<float>::lowest();
    }
    return b;
  }

  [[nodiscard]] bool valid() const noexcept {
    for (int d = 0; d < DIM; ++d)
      if (min[d] > max[d]) return false;
    return true;
  }

  void expand(const Point<DIM>& p) noexcept {
    for (int d = 0; d < DIM; ++d) {
      min[d] = std::min(min[d], p[d]);
      max[d] = std::max(max[d], p[d]);
    }
  }

  void expand(const Box& other) noexcept {
    for (int d = 0; d < DIM; ++d) {
      min[d] = std::min(min[d], other.min[d]);
      max[d] = std::max(max[d], other.max[d]);
    }
  }

  [[nodiscard]] bool contains(const Point<DIM>& p) const noexcept {
    for (int d = 0; d < DIM; ++d)
      if (p[d] < min[d] || p[d] > max[d]) return false;
    return true;
  }

  [[nodiscard]] Point<DIM> center() const noexcept {
    Point<DIM> c;
    for (int d = 0; d < DIM; ++d) c[d] = 0.5f * (min[d] + max[d]);
    return c;
  }

  friend bool operator==(const Box& a, const Box& b) noexcept {
    return a.min == b.min && a.max == b.max;
  }
};

using Box2 = Box<2>;
using Box3 = Box<3>;

/// Squared distance from a point to the closest point of a box (0 if the
/// point is inside). This is the BVH descent predicate: a subtree can
/// contain an eps-neighbor iff squared_distance(p, bounds) <= eps^2.
template <int DIM>
[[nodiscard]] inline float squared_distance(const Point<DIM>& p,
                                            const Box<DIM>& b) noexcept {
  float s = 0.0f;
  for (int d = 0; d < DIM; ++d) {
    float diff = 0.0f;
    if (p[d] < b.min[d]) {
      diff = b.min[d] - p[d];
    } else if (p[d] > b.max[d]) {
      diff = p[d] - b.max[d];
    }
    s += diff * diff;
  }
  return s;
}

template <int DIM>
[[nodiscard]] inline float squared_distance(const Box<DIM>& b,
                                            const Point<DIM>& p) noexcept {
  return squared_distance(p, b);
}

/// Squared distance between the closest points of two boxes (0 if they
/// overlap): per axis the gap max(b.min - a.max, a.min - b.max, 0). It
/// never exceeds the squared distance of any point of `a` to any point
/// of `b` (float rounding is monotone), so it prunes pair searches
/// exactly. Written in the max form of simd::box_box_d2_batch, whose
/// lanes it matches bit for bit.
template <int DIM>
[[nodiscard]] inline float squared_distance(const Box<DIM>& a,
                                            const Box<DIM>& b) noexcept {
  float s = 0.0f;
  for (int d = 0; d < DIM; ++d) {
    const float below = b.min[d] - a.max[d];
    const float above = a.min[d] - b.max[d];
    float diff = below > above ? below : above;
    diff = diff > 0.0f ? diff : 0.0f;
    s += diff * diff;
  }
  return s;
}

/// True iff the sphere of radius sqrt(eps_squared) around p intersects b.
template <int DIM>
[[nodiscard]] inline bool intersects(const Point<DIM>& p, float eps_squared,
                                     const Box<DIM>& b) noexcept {
  return squared_distance(p, b) <= eps_squared;
}

/// Bounding box of a set of points (serial; parallel version in bvh).
template <int DIM>
[[nodiscard]] inline Box<DIM> bounds_of(const Point<DIM>* points,
                                        std::size_t n) noexcept {
  Box<DIM> b = Box<DIM>::empty();
  for (std::size_t i = 0; i < n; ++i) b.expand(points[i]);
  return b;
}

}  // namespace fdbscan
