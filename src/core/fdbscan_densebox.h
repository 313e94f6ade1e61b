// FDBSCAN-DenseBox (§4.2): FDBSCAN with special treatment of dense
// regions. A Cartesian grid with cell length eps/sqrt(d) is superimposed
// over the domain; cells holding >= minpts points ("dense cells") consist
// solely of core points of a single cluster, so
//   * no distance computations are spent among points of the same cell,
//   * the BVH is built over a *mixed* set of primitives — the boxes of
//     the dense cells plus the individual points outside them — which
//     both shrinks the tree and makes merging dense cells cheap.
//
// Preprocessing only examines points outside dense cells (everything
// inside is core by construction). The main phase has three kernels:
//   * cell-union: each dense cell is unioned internally;
//   * cell-pairs: dense cells are joined through a cell graph (Wang, Gu
//     and Shun's parallel DBSCAN). Each dense cell walks the tree with
//     the tight bounds of its members, masked past its own leaf, so each
//     pair of eps-close cells is visited once. An early-exit bichromatic
//     closest-pair test decides the pair (members_within in
//     grid/dense_grid.h): it recursively halves the kd-ordered member
//     ranges, drops halves whose tight bounds are farther than eps, and
//     stops at the first eps-close member pair;
//   * traverse-union: the tree search runs for the isolated points only.
//     A discovered dense box is resolved by scanning its members until
//     one eps-close point is found (a single witness suffices — all
//     members share a cluster); a discovered isolated point is resolved
//     per Algorithm 3.
// Dense members need no traversal of their own: every dense–isolated edge
// is resolved from the isolated side, which merges if it is core, is
// claimed if it is not, and under Friends-of-Friends (minpts 2) becomes
// core on finding any eps-close member.
//
// The kernels live in Engine::run_densebox() (core/engine.h); this free
// function is the one-shot convenience wrapper — every call rebuilds the
// grid and mixed BVH. Callers re-clustering the same points should hold
// an Engine, whose bundle cache skips the index phase on repeats.
#pragma once

#include <vector>

#include "core/engine.h"

namespace fdbscan {

template <int DIM>
[[nodiscard]] Clustering fdbscan_densebox(const std::vector<Point<DIM>>& points,
                                          const Parameters& params,
                                          const Options& options = {}) {
  Engine<DIM> engine(points, EngineConfig{.memory = options.memory});
  return engine.run_densebox(params, options);
}

}  // namespace fdbscan
