// Parallel LSD radix sort for (uint64 key, int32 id) pairs — the sort
// primitive a GPU implementation would use for the Morton ordering of
// the BVH construction (Karras 2012 assumes a radix sort) and for the
// cell grouping of the dense grid. 8 bits per pass, per-chunk histograms
// combined with an exclusive scan, all phases data-parallel.
//
// Stability note: LSD radix is stable, and ids start in increasing
// order, so equal keys keep increasing ids — the exact tie-break the
// BVH's duplicate-code handling and the grid's grouping rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/parallel.h"
#include "exec/uninit_vector.h"

namespace fdbscan::exec {

namespace detail {

/// One LSD pass over `shift`: stable-partitions (keys, ids) into
/// (keys_out, ids_out) by byte. Histograms are per-chunk so the scatter
/// positions are computable without atomics.
inline void radix_pass(const std::uint64_t* keys, const std::int32_t* ids,
                       std::uint64_t* keys_out, std::int32_t* ids_out,
                       std::int64_t n, int shift) {
  constexpr int kBuckets = 256;
  auto& p = pool();
  const std::int64_t nchunks =
      std::min<std::int64_t>(p.workers() * 4, std::max<std::int64_t>(1, n));
  const std::int64_t chunk = (n + nchunks - 1) / nchunks;

  // Per-chunk bucket counts.
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(nchunks * kBuckets), 0);
  parallel_for("radix-sort/histogram", nchunks, [&](std::int64_t c) {
    std::int64_t* my = counts.data() + c * kBuckets;
    const std::int64_t begin = c * chunk;
    const std::int64_t end = std::min(begin + chunk, n);
    for (std::int64_t i = begin; i < end; ++i) {
      ++my[(keys[i] >> shift) & 0xff];
    }
  });

  // Column-major exclusive scan: bucket 0 of all chunks, then bucket 1,
  // ... so equal-key order across chunks is preserved (stability).
  std::int64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    for (std::int64_t c = 0; c < nchunks; ++c) {
      std::int64_t& slot = counts[static_cast<std::size_t>(c * kBuckets + b)];
      const std::int64_t v = slot;
      slot = total;
      total += v;
    }
  }

  // Scatter.
  parallel_for("radix-sort/scatter", nchunks, [&](std::int64_t c) {
    std::int64_t* my = counts.data() + c * kBuckets;
    const std::int64_t begin = c * chunk;
    const std::int64_t end = std::min(begin + chunk, n);
    for (std::int64_t i = begin; i < end; ++i) {
      const auto bucket = (keys[i] >> shift) & 0xff;
      const std::int64_t dst = my[bucket]++;
      keys_out[dst] = keys[i];
      ids_out[dst] = ids[i];
    }
  });
}

}  // namespace detail

/// Sorts (keys, ids) in tandem by key, ascending, stable. Both vectors
/// must have equal length. Skips passes whose byte is constant across
/// all keys (common: Morton codes rarely use all 64 bits).
template <class KeyAlloc, class IdAlloc>
void radix_sort_pairs(std::vector<std::uint64_t, KeyAlloc>& keys,
                      std::vector<std::int32_t, IdAlloc>& ids) {
  const auto n = static_cast<std::int64_t>(keys.size());
  if (n <= 1) return;

  // Which bytes vary? OR of all keys vs AND of all keys per byte.
  struct Extent {
    std::uint64_t any;
    std::uint64_t all;
  };
  const Extent extent = parallel_reduce(
      "radix-sort/byte-extent", n, Extent{0, ~std::uint64_t{0}},
      [&](std::int64_t i) {
        return Extent{keys[static_cast<std::size_t>(i)],
                      keys[static_cast<std::size_t>(i)]};
      },
      [](Extent a, Extent b) {
        return Extent{a.any | b.any, a.all & b.all};
      });

  // Ping-pong buffers: every executed pass overwrites its output in full.
  UninitVector<std::uint64_t> keys_tmp(keys.size());
  UninitVector<std::int32_t> ids_tmp(ids.size());
  std::uint64_t* k_src = keys.data();
  std::int32_t* i_src = ids.data();
  std::uint64_t* k_dst = keys_tmp.data();
  std::int32_t* i_dst = ids_tmp.data();
  for (int pass = 0; pass < 8; ++pass) {
    const int shift = pass * 8;
    const std::uint64_t varying =
        ((extent.any ^ extent.all) >> shift) & 0xff;
    if (varying == 0) continue;  // constant byte: pass is a no-op
    detail::radix_pass(k_src, i_src, k_dst, i_dst, n, shift);
    std::swap(k_src, k_dst);
    std::swap(i_src, i_dst);
  }
  if (k_src != keys.data()) {
    // Odd number of executed passes: copy back.
    parallel_for("radix-sort/copy-back", n, [&](std::int64_t i) {
      keys[static_cast<std::size_t>(i)] = k_src[i];
      ids[static_cast<std::size_t>(i)] = i_src[i];
    });
  }
}

}  // namespace fdbscan::exec
