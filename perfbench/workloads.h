// The three workloads and the helpers they share. Each workload:
//   1. sets up kSetupReps times (inputs, engines/service, warm-up ops)
//      and reports the median as setup_s;
//   2. runs whole rounds of its fixed, seeded op list until the run's
//      seconds are spent (harness.h run_rounds);
//   3. checks every result against references computed afterwards, plus
//      one brute-force ground-truth check on a small local patch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/validate.h"
#include "harness.h"
#include "service/service.h"

namespace perfbench {

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< errors, rejections and wrong results
  bool correct = true;
};

/// Client threads of each workload. Every workload is a closed loop: a
/// client blocks on its reply before it sends the next op.
inline constexpr int kOneshotClients = 1;
inline constexpr int kServeMixedClients = 2;
inline constexpr int kSessionWindowClients = 2;

Outcome run_oneshot_hacc3d(const RunConfig& cfg, Report& report);
Outcome run_serve_mixed(const RunConfig& cfg, Report& report);
Outcome run_session_window(const RunConfig& cfg, Report& report);

/// Seed-stability mode: prints the work counters of each of the
/// workload's request classes for one seed, without timing anything.
void seed_scan_oneshot_hacc3d(const RunConfig& cfg);
void seed_scan_serve_mixed(const RunConfig& cfg);
void seed_scan_session_window(const RunConfig& cfg);

/// Per-op sums of what a Clustering reports about its own run.
struct PhaseSums {
  std::int64_t ops = 0;
  double index_ms = 0.0, pre_ms = 0.0, main_ms = 0.0, finalize_ms = 0.0;
  double dist_comps = 0.0, nodes_visited = 0.0;
  /// Summed over the ops whose main phase recorded parallel work.
  double main_imbalance = 0.0;
  std::int64_t profiled_ops = 0;
  std::int64_t sharded_ops = 0;
  double ghosts = 0.0, halo_bytes = 0.0;

  void add(const fdbscan::Clustering& c) {
    const fdbscan::PhaseTimings& t = c.timings;
    ++ops;
    index_ms += t.index_construction * 1e3;
    pre_ms += t.preprocessing * 1e3;
    main_ms += t.main * 1e3;
    finalize_ms += t.finalization * 1e3;
    dist_comps += static_cast<double>(c.distance_computations);
    nodes_visited += static_cast<double>(c.index_nodes_visited);
    if (t.main_profile.imbalance() > 0.0) {
      main_imbalance += t.main_profile.imbalance();
      ++profiled_ops;
    }
    if (c.num_shards > 1) {
      ++sharded_ops;
      ghosts += static_cast<double>(c.shard_ghosts);
      halo_bytes += static_cast<double>(c.shard_halo_bytes);
    }
  }

  void merge(const PhaseSums& o) {
    ops += o.ops;
    index_ms += o.index_ms;
    pre_ms += o.pre_ms;
    main_ms += o.main_ms;
    finalize_ms += o.finalize_ms;
    dist_comps += o.dist_comps;
    nodes_visited += o.nodes_visited;
    main_imbalance += o.main_imbalance;
    profiled_ops += o.profiled_ops;
    sharded_ops += o.sharded_ops;
    ghosts += o.ghosts;
    halo_bytes += o.halo_bytes;
  }

  /// Sets the core.* / exec.main_imbalance / shard.* per-op means.
  void report(Report& r) const {
    if (ops == 0) return;
    const auto n = static_cast<double>(ops);
    r.set("core.index_ms", index_ms / n);
    r.set("core.pre_ms", pre_ms / n);
    r.set("core.main_ms", main_ms / n);
    r.set("core.finalize_ms", finalize_ms / n);
    r.set("core.dist_comps", dist_comps / n);
    r.set("core.nodes_visited", nodes_visited / n);
    if (profiled_ops > 0) {
      r.set("exec.main_imbalance",
            main_imbalance / static_cast<double>(profiled_ops));
    }
    if (sharded_ops > 0) {
      const auto s = static_cast<double>(sharded_ops);
      r.set("shard.ghosts_per_op", ghosts / s);
      r.set("shard.halo_bytes_per_op", halo_bytes / s);
    }
  }
};

/// Sets the exec.* window metrics from kernel-profile totals.
inline void report_exec(Report& r, const ExecTotals& e, std::int64_t ops,
                        int workers) {
  if (ops <= 0) return;
  const auto n = static_cast<double>(ops);
  r.set("exec.launches_per_op", static_cast<double>(e.launches) / n);
  r.set("exec.chunks_per_op", static_cast<double>(e.chunks) / n);
  r.set("exec.busy_ms_per_op", e.busy_s * 1e3 / n);
  if (e.wall_s > 0.0 && workers > 0) {
    const double capacity = e.wall_s * static_cast<double>(workers);
    r.set("exec.idle_pct", std::max(0.0, 100.0 * (1.0 - e.busy_s / capacity)));
  }
}

/// trace.overhead_pct: median traced round against median untraced one.
inline void report_trace_overhead(Report& r,
                                  const std::vector<double>& untraced_s,
                                  const std::vector<double>& traced_s) {
  const double base = median(untraced_s);
  if (base > 0.0 && !traced_s.empty()) {
    r.set("trace.overhead_pct", 100.0 * (median(traced_s) / base - 1.0));
  }
}

/// The `m` points nearest (Chebyshev) to a seeded anchor point: a local
/// patch at the dataset's own density, small enough for brute force.
template <int DIM>
std::vector<fdbscan::Point<DIM>> local_patch(
    const std::vector<fdbscan::Point<DIM>>& points, std::size_t m,
    std::uint64_t seed) {
  if (points.size() <= m) return points;
  const auto& anchor = points[(seed * 2654435761u) % points.size()];
  std::vector<std::pair<float, std::uint32_t>> keyed(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    float d = 0.0f;
    for (int k = 0; k < DIM; ++k) {
      d = std::max(d, std::abs(points[i][k] - anchor[k]));
    }
    keyed[i] = {d, static_cast<std::uint32_t>(i)};
  }
  std::nth_element(keyed.begin(), keyed.begin() + static_cast<long>(m),
                   keyed.end());
  keyed.resize(m);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<fdbscan::Point<DIM>> out;
  out.reserve(m);
  for (const auto& [d, i] : keyed) out.push_back(points[i]);
  return out;
}

/// The one brute-force check of a workload: cluster() on a local patch
/// must match the O(m^2) reference DBSCAN.
template <int DIM>
bool ground_truth_ok(const std::string& what,
                     const std::vector<fdbscan::Point<DIM>>& points,
                     const fdbscan::Parameters& params, std::uint64_t seed,
                     Report& report) {
  constexpr std::size_t kPatch = 4000;
  const auto patch = local_patch(points, kPatch, seed);
  const auto got = fdbscan::cluster(patch, params);
  const bool ok =
      got.has_value() &&
      fdbscan::matches_ground_truth(patch, params, *got).ok;
  report.fact("ground_truth_" + what,
              ok ? "\"ok (" + std::to_string(patch.size()) + " points, " +
                       std::to_string(got->num_clusters) + " clusters)\""
                 : std::string("\"MISMATCH\""));
  if (!ok) std::cerr << "perfbench: ground-truth mismatch on " << what << "\n";
  return ok;
}

/// Samples a service latency histogram gained between two snapshots.
inline fdbscan::service::LatencySummary histogram_delta(
    const fdbscan::service::LatencySummary& before,
    const fdbscan::service::LatencySummary& after) {
  fdbscan::service::LatencySummary d = after;
  d.count -= before.count;
  d.total_ms -= before.total_ms;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

inline void histogram_add(fdbscan::service::LatencySummary& acc,
                          const fdbscan::service::LatencySummary& d) {
  acc.count += d.count;
  acc.total_ms += d.total_ms;
  acc.max_ms = std::max(acc.max_ms, d.max_ms);
  for (std::size_t i = 0; i < acc.buckets.size(); ++i) {
    acc.buckets[i] += d.buckets[i];
  }
}

}  // namespace perfbench
