// Portable SIMD micro-kernels for the three loops that dominate every
// clustering profile: batched point–box (and box–box) distance tests
// during wide-BVH traversal (bvh/bvh.h), Morton encoding of the SoA
// point layout, and dense-cell membership scans (core/engine.h,
// grid/dense_grid.h). Built on GCC/Clang vector
// extensions — no intrinsics, no -march requirements — with a scalar
// twin for every kernel.
//
// Backend contract (tests/test_simd.cpp): the vector and scalar twins
// are BIT-EQUAL, lane for lane. Each vector lane performs the same
// float operations in the same order as one scalar iteration, and the
// formula rewrites are exact:
//   * point–box distance max(lo-p, p-hi, 0) equals the branchy
//     three-case form of geometry/box.h for every input (x - x is +0,
//     and for a valid box only one of the two differences is positive);
//     the box–box gap uses the same max form in both twins;
//   * point–point distance squares (a-b)^2 are sign-insensitive;
//   * Morton quantization keeps the scalar divide (no reciprocal) and
//     the identical clamp sequence, and the bit interleave is integer-
//     exact.
// No FMA contraction can break this: the build never passes -march
// flags, and the per-function AVX2 target below (GCC on x86-64 only)
// enables avx2 alone — FMA is a separate ISA flag GCC will not imply,
// so vector mul/add stay separate IEEE operations.
//
// On x86-64 GCC the vector kernels are compiled with a function-local
// target("avx2") so the 8-lane types lower to single 256-bit
// instructions instead of paired SSE halves (which lose to the
// auto-vectorized scalar twins on 2-D data). enabled() refuses to
// select them on CPUs without AVX2.
//
// Selection: FDBSCAN_SIMD_BACKEND (compile-time, set by the FDBSCAN_SIMD
// CMake option) decides whether the vector twins exist at all; at
// runtime the env var FDBSCAN_SIMD=0 or set_enabled(false) drops to the
// scalar twins, which tests use to prove backend equivalence in one
// binary. Kernels that load a full lane group past a logical end rely
// on the +inf padding contract of geometry/points_view.h (kSoaPadding).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "geometry/box.h"
#include "geometry/morton.h"
#include "geometry/point.h"
#include "geometry/points_view.h"

#ifndef FDBSCAN_SIMD_BACKEND
#define FDBSCAN_SIMD_BACKEND 1
#endif

// GCC on x86-64 can retarget individual functions to AVX2; elsewhere
// the generic-vector lowering is whatever the base ISA provides and no
// runtime CPU gate is needed.
#if FDBSCAN_SIMD_BACKEND && defined(__GNUC__) && !defined(__clang__) && \
    defined(__x86_64__)
#define FDBSCAN_SIMD_AVX2_TARGET 1
#else
#define FDBSCAN_SIMD_AVX2_TARGET 0
#endif

namespace fdbscan::simd {

/// Lane count of every batched kernel and the BVH node arity.
inline constexpr int kWidth = 8;
static_assert(kSoaPadding == kWidth - 1,
              "SoA padding must cover one lane group minus one");

/// True when the vector twins were compiled in (FDBSCAN_SIMD=ON).
[[nodiscard]] constexpr bool compiled() noexcept {
  return FDBSCAN_SIMD_BACKEND != 0;
}

namespace detail {

/// True when the CPU can execute the compiled vector twins. Always
/// true unless they were retargeted to AVX2 at compile time.
[[nodiscard]] inline bool cpu_supported() noexcept {
#if FDBSCAN_SIMD_AVX2_TARGET
  return __builtin_cpu_supports("avx2");
#else
  return true;
#endif
}

inline bool& enabled_flag() {
  // First read wins the env lookup; set_enabled() writes are only made
  // between runs (tests), never concurrently with worker reads.
  static bool flag = [] {
#if FDBSCAN_SIMD_BACKEND
    const char* env = std::getenv("FDBSCAN_SIMD");
    return cpu_supported() &&
           !(env != nullptr && env[0] == '0' && env[1] == '\0');
#else
    return false;
#endif
  }();
  return flag;
}

}  // namespace detail

/// True when the vector twins are compiled in and currently selected.
[[nodiscard]] inline bool enabled() { return detail::enabled_flag(); }

/// Selects the backend at runtime (tests). A scalar-only build — or a
/// CPU that cannot run the compiled vector twins — ignores requests to
/// enable what cannot execute.
inline void set_enabled(bool on) {
#if FDBSCAN_SIMD_BACKEND
  detail::enabled_flag() = on && detail::cpu_supported();
#else
  (void)on;
#endif
}

namespace detail {

#if FDBSCAN_SIMD_BACKEND

#if FDBSCAN_SIMD_AVX2_TARGET
// avx2 only — no "fma", so mul/add below never contract (bit-identity
// with the scalar twins depends on this).
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

using v8f = float __attribute__((vector_size(32)));
using v8u = std::uint32_t __attribute__((vector_size(32)));
using v4su = std::uint32_t __attribute__((vector_size(16)));
using v4du = std::uint64_t __attribute__((vector_size(32)));

[[nodiscard]] inline v8f load8(const float* p) noexcept {
  v8f v;
  std::memcpy(&v, p, sizeof(v));  // unaligned-safe
  return v;
}

inline void store8(float* p, v8f v) noexcept { std::memcpy(p, &v, sizeof(v)); }

[[nodiscard]] inline v8f splat8(float x) noexcept {
  return v8f{x, x, x, x, x, x, x, x};
}

// 64-bit-lane versions of the bit spreads in geometry/morton.h.
[[nodiscard]] inline v4du expand_bits_2_v(v4du x) noexcept {
  x &= 0x7fffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

[[nodiscard]] inline v4du expand_bits_3_v(v4du x) noexcept {
  x &= 0x1fffffULL;
  x = (x | (x << 32)) & 0x1f00000000ffffULL;
  x = (x | (x << 16)) & 0x1f0000ff0000ffULL;
  x = (x | (x << 8)) & 0x100f00f00f00f00fULL;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ULL;
  x = (x | (x << 2)) & 0x1249249249249249ULL;
  return x;
}

inline void widen_u32(v8u q, v4du& lo, v4du& hi) noexcept {
  const v4su l = __builtin_shufflevector(q, q, 0, 1, 2, 3);
  const v4su h = __builtin_shufflevector(q, q, 4, 5, 6, 7);
  lo = __builtin_convertvector(l, v4du);
  hi = __builtin_convertvector(h, v4du);
}

/// Quantizes 8 consecutive coordinates of one axis to Morton grid
/// buckets, matching geometry/morton.h's per-coordinate sequence
/// (normalize with a divide, clamp to [0, 1-ulp], scale, truncate,
/// clamp the bucket index).
template <int DIM>
[[nodiscard]] inline v8u quantize8(const float* axis, std::int64_t i0,
                                   float axis_min, float axis_max) noexcept {
  constexpr int bits = morton_bits_per_dim<DIM>();
  constexpr auto buckets = static_cast<std::uint32_t>(1ULL << bits);
  const float extent = axis_max - axis_min;
  v8f t = extent > 0.0f
              ? (load8(axis + i0) - splat8(axis_min)) / splat8(extent)
              : splat8(0.0f);
  const v8f zero = splat8(0.0f);
  t = (t < zero) ? zero : t;
  t = (t >= splat8(1.0f)) ? splat8(0x1.fffffep-1f) : t;
  v8u q = __builtin_convertvector(
      t * splat8(static_cast<float>(1ULL << bits)), v8u);
  // Like the scalar clamp: unreachable after the t-clamp, kept anyway.
  const v8u bucket_cap = q - q + buckets;  // splat without a u32 helper
  q = (q >= bucket_cap) ? bucket_cap - 1 : q;
  return q;
}

template <int DIM>
inline void morton_group_vec(const std::array<const float*, DIM>& axes,
                             std::int64_t i0, int count,
                             const Box<DIM>& scene,
                             std::uint64_t* out) noexcept {
  static_assert(DIM == 2 || DIM == 3);
  std::uint64_t codes[kWidth];
  if constexpr (DIM == 2) {
    const v8u qx = quantize8<DIM>(axes[0], i0, scene.min[0], scene.max[0]);
    const v8u qy = quantize8<DIM>(axes[1], i0, scene.min[1], scene.max[1]);
    v4du xl, xh, yl, yh;
    widen_u32(qx, xl, xh);
    widen_u32(qy, yl, yh);
    const v4du cl = expand_bits_2_v(xl) | (expand_bits_2_v(yl) << 1);
    const v4du ch = expand_bits_2_v(xh) | (expand_bits_2_v(yh) << 1);
    std::memcpy(codes, &cl, sizeof(cl));
    std::memcpy(codes + 4, &ch, sizeof(ch));
  } else {
    const v8u qx = quantize8<DIM>(axes[0], i0, scene.min[0], scene.max[0]);
    const v8u qy = quantize8<DIM>(axes[1], i0, scene.min[1], scene.max[1]);
    const v8u qz = quantize8<DIM>(axes[2], i0, scene.min[2], scene.max[2]);
    v4du xl, xh, yl, yh, zl, zh;
    widen_u32(qx, xl, xh);
    widen_u32(qy, yl, yh);
    widen_u32(qz, zl, zh);
    const v4du cl = expand_bits_3_v(xl) | (expand_bits_3_v(yl) << 1) |
                    (expand_bits_3_v(zl) << 2);
    const v4du ch = expand_bits_3_v(xh) | (expand_bits_3_v(yh) << 1) |
                    (expand_bits_3_v(zh) << 2);
    std::memcpy(codes, &cl, sizeof(cl));
    std::memcpy(codes + 4, &ch, sizeof(ch));
  }
  for (int l = 0; l < count; ++l) out[l] = codes[l];
}

template <int DIM>
inline void box_d2_batch_vec(const Point<DIM>& p,
                             const float (&lo)[DIM][kWidth],
                             const float (&hi)[DIM][kWidth],
                             float (&out)[kWidth]) noexcept {
  v8f acc = splat8(0.0f);
  const v8f zero = splat8(0.0f);
  for (int d = 0; d < DIM; ++d) {
    const v8f pd = splat8(p[d]);
    const v8f below = load8(lo[d]) - pd;
    const v8f above = pd - load8(hi[d]);
    v8f diff = (below > above) ? below : above;
    diff = (diff > zero) ? diff : zero;
    acc += diff * diff;
  }
  store8(out, acc);
}

template <int DIM>
inline void box_box_d2_batch_vec(const Box<DIM>& q,
                                 const float (&lo)[DIM][kWidth],
                                 const float (&hi)[DIM][kWidth],
                                 float (&out)[kWidth]) noexcept {
  v8f acc = splat8(0.0f);
  const v8f zero = splat8(0.0f);
  for (int d = 0; d < DIM; ++d) {
    const v8f below = load8(lo[d]) - splat8(q.max[d]);
    const v8f above = splat8(q.min[d]) - load8(hi[d]);
    v8f diff = (below > above) ? below : above;
    diff = (diff > zero) ? diff : zero;
    acc += diff * diff;
  }
  store8(out, acc);
}

template <int DIM>
inline void member_d2_vec(const std::array<const float*, DIM>& axes,
                          std::int64_t i0, const Point<DIM>& p,
                          float (&out)[kWidth]) noexcept {
  v8f acc = splat8(0.0f);
  for (int d = 0; d < DIM; ++d) {
    const v8f diff = load8(axes[static_cast<std::size_t>(d)] + i0) -
                     splat8(p[d]);
    acc += diff * diff;
  }
  store8(out, acc);
}

#if FDBSCAN_SIMD_AVX2_TARGET
#pragma GCC pop_options
#endif

#endif  // FDBSCAN_SIMD_BACKEND

template <int DIM>
inline void box_d2_batch_scalar(const Point<DIM>& p,
                                const float (&lo)[DIM][kWidth],
                                const float (&hi)[DIM][kWidth],
                                float (&out)[kWidth]) noexcept {
  // Per lane this is geometry/box.h's squared_distance verbatim.
  for (int l = 0; l < kWidth; ++l) {
    float s = 0.0f;
    for (int d = 0; d < DIM; ++d) {
      float diff = 0.0f;
      if (p[d] < lo[d][l]) {
        diff = lo[d][l] - p[d];
      } else if (p[d] > hi[d][l]) {
        diff = p[d] - hi[d][l];
      }
      s += diff * diff;
    }
    out[l] = s;
  }
}

template <int DIM>
inline void box_box_d2_batch_scalar(const Box<DIM>& q,
                                    const float (&lo)[DIM][kWidth],
                                    const float (&hi)[DIM][kWidth],
                                    float (&out)[kWidth]) noexcept {
  // Per lane this is geometry/box.h's box-box squared_distance verbatim.
  for (int l = 0; l < kWidth; ++l) {
    float s = 0.0f;
    for (int d = 0; d < DIM; ++d) {
      const float below = lo[d][l] - q.max[d];
      const float above = q.min[d] - hi[d][l];
      float diff = below > above ? below : above;
      diff = diff > 0.0f ? diff : 0.0f;
      s += diff * diff;
    }
    out[l] = s;
  }
}

template <int DIM>
inline void member_d2_scalar(const std::array<const float*, DIM>& axes,
                             std::int64_t i0, const Point<DIM>& p,
                             float (&out)[kWidth]) noexcept {
  for (int l = 0; l < kWidth; ++l) {
    float s = 0.0f;
    for (int d = 0; d < DIM; ++d) {
      const float diff =
          axes[static_cast<std::size_t>(d)][i0 + l] - p[d];
      s += diff * diff;
    }
    out[l] = s;
  }
}

}  // namespace detail

/// Squared distances from `p` to the 8 boxes stored lane-wise in
/// lo/hi (a wide BVH node). Padding lanes (+inf/-inf bounds) produce
/// +inf distances; callers iterate only real lanes.
template <int DIM>
inline void box_d2_batch(const Point<DIM>& p, const float (&lo)[DIM][kWidth],
                         const float (&hi)[DIM][kWidth],
                         float (&out)[kWidth]) noexcept {
#if FDBSCAN_SIMD_BACKEND
  if (enabled()) {
    detail::box_d2_batch_vec<DIM>(p, lo, hi, out);
    return;
  }
#endif
  detail::box_d2_batch_scalar<DIM>(p, lo, hi, out);
}

/// Squared gaps between box `q` and the 8 boxes stored lane-wise in
/// lo/hi: the box-query twin of box_d2_batch (a dense cell's member
/// bounds against a wide BVH node). Padding lanes produce +inf.
template <int DIM>
inline void box_box_d2_batch(const Box<DIM>& q,
                             const float (&lo)[DIM][kWidth],
                             const float (&hi)[DIM][kWidth],
                             float (&out)[kWidth]) noexcept {
#if FDBSCAN_SIMD_BACKEND
  if (enabled()) {
    detail::box_box_d2_batch_vec<DIM>(q, lo, hi, out);
    return;
  }
#endif
  detail::box_box_d2_batch_scalar<DIM>(q, lo, hi, out);
}

/// Morton codes for `count` consecutive points of an SoA view, written
/// to out[0..count). The vector path (DIM 2/3) may read a full lane
/// group from each axis — covered by the kSoaPadding contract. The
/// scalar path calls the canonical geometry/morton.h encoder; the
/// vector path reproduces it bit for bit.
template <int DIM>
inline void morton_group(const std::array<const float*, DIM>& axes,
                         std::int64_t i0, int count, const Box<DIM>& scene,
                         std::uint64_t* out) noexcept {
#if FDBSCAN_SIMD_BACKEND
  if constexpr (DIM == 2 || DIM == 3) {
    if (enabled()) {
      detail::morton_group_vec<DIM>(axes, i0, count, scene, out);
      return;
    }
  }
#endif
  for (int l = 0; l < count; ++l) {
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) {
      p[d] = axes[static_cast<std::size_t>(d)][i0 + l];
    }
    out[l] = morton_code(p, scene);
  }
}

/// Counts members m in [begin, end) of an SoA member range with
/// squared distance to `p` <= eps_squared, scanning one lane group at a
/// time. `scans` advances by the number of members examined — group-
/// granular, so the tally is identical across backends and worker
/// counts. When early_stop > 0 the scan stops at the first group
/// boundary where the count reaches it (the count may overshoot the
/// threshold within that final group; callers only compare >=).
template <int DIM>
[[nodiscard]] inline std::int32_t count_within(
    const std::array<const float*, DIM>& axes, std::int32_t begin,
    std::int32_t end, const Point<DIM>& p, float eps_squared,
    std::int32_t early_stop, std::int64_t& scans) noexcept {
#if FDBSCAN_SIMD_BACKEND
  const bool vec = enabled();
#endif
  std::int32_t count = 0;
  for (std::int32_t g = begin; g < end; g += kWidth) {
    const std::int32_t group = std::min<std::int32_t>(kWidth, end - g);
    float d2[kWidth];
#if FDBSCAN_SIMD_BACKEND
    if (vec) {
      detail::member_d2_vec<DIM>(axes, g, p, d2);
    } else
#endif
    {
      detail::member_d2_scalar<DIM>(axes, g, p, d2);
    }
    for (std::int32_t l = 0; l < group; ++l) {
      if (d2[l] <= eps_squared) ++count;
    }
    scans += group;
    if (early_stop > 0 && count >= early_stop) break;
  }
  return count;
}

/// Invokes `f(m)` for every member m in [begin, end) with squared
/// distance to `p` <= eps_squared, in ascending member order — the same
/// sequence a per-member scalar scan visits, so merge/claim targets are
/// backend-independent. `scans` advances group-granularly over the full
/// range (enumeration never early-stops: callers need the complete edge
/// set). This is the delta-buffer probe of the streaming engine
/// (stream/streaming_engine.h).
template <int DIM, class F>
inline void for_each_within(const std::array<const float*, DIM>& axes,
                            std::int32_t begin, std::int32_t end,
                            const Point<DIM>& p, float eps_squared,
                            std::int64_t& scans, F&& f) {
#if FDBSCAN_SIMD_BACKEND
  const bool vec = enabled();
#endif
  for (std::int32_t g = begin; g < end; g += kWidth) {
    const std::int32_t group = std::min<std::int32_t>(kWidth, end - g);
    float d2[kWidth];
#if FDBSCAN_SIMD_BACKEND
    if (vec) {
      detail::member_d2_vec<DIM>(axes, g, p, d2);
    } else
#endif
    {
      detail::member_d2_scalar<DIM>(axes, g, p, d2);
    }
    scans += group;
    for (std::int32_t l = 0; l < group; ++l) {
      if (d2[l] <= eps_squared) f(g + l);
    }
  }
}

/// Lowest member index m in [begin, end) with squared distance to `p`
/// <= eps_squared, or -1. `scans` advances group-granularly over every
/// group examined, including the witness group.
template <int DIM>
[[nodiscard]] inline std::int32_t first_within(
    const std::array<const float*, DIM>& axes, std::int32_t begin,
    std::int32_t end, const Point<DIM>& p, float eps_squared,
    std::int64_t& scans) noexcept {
#if FDBSCAN_SIMD_BACKEND
  const bool vec = enabled();
#endif
  for (std::int32_t g = begin; g < end; g += kWidth) {
    const std::int32_t group = std::min<std::int32_t>(kWidth, end - g);
    float d2[kWidth];
#if FDBSCAN_SIMD_BACKEND
    if (vec) {
      detail::member_d2_vec<DIM>(axes, g, p, d2);
    } else
#endif
    {
      detail::member_d2_scalar<DIM>(axes, g, p, d2);
    }
    scans += group;
    for (std::int32_t l = 0; l < group; ++l) {
      if (d2[l] <= eps_squared) return g + l;
    }
  }
  return -1;
}

}  // namespace fdbscan::simd
