// oneshot_hacc3d: one caller making repeated one-shot cluster() (kAuto)
// calls on a HACC-like 3-D set at the paper's §5.2 point (eps 0.042,
// minpts 5). Every op builds a fresh engine, its index and pays
// validation, so bvh/exec/core do almost all the work; the service, the
// engine pool and stream sit idle. One round is one op.
#include <algorithm>
#include <cmath>

#include "core/auto_select.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fdbscan::Clustering;
using fdbscan::Expected;
using fdbscan::Parameters;
using fdbscan::Point3;

const Parameters kParams{0.042f, 5};

struct Inputs {
  std::int64_t n = 0;
  fdbscan::data::CosmologyConfig cosmo{};
};

Inputs inputs_for(Scale scale) {
  Inputs in;
  in.n = scale == Scale::kTiny ? 40'000 : 1'000'000;
  // The tiny set keeps the full set's particle density (box side scales
  // with n^(1/3)) so the same eps still finds clusters.
  const double shrink = std::cbrt(static_cast<double>(in.n) / 1e6);
  in.cosmo.box_size = static_cast<float>(in.cosmo.box_size * shrink);
  in.cosmo.num_halos = std::max<std::int32_t>(
      8, static_cast<std::int32_t>(in.cosmo.num_halos * shrink * shrink * shrink));
  return in;
}

std::vector<Point3> generate(const RunConfig& cfg) {
  const Inputs in = inputs_for(cfg.scale);
  return fdbscan::data::hacc_like(in.n, cfg.seed, in.cosmo);
}

bool use_densebox(const std::vector<Point3>& points) {
  return fdbscan::estimate_dense_fraction(points, kParams) >=
         fdbscan::AutoSelectConfig{}.densebox_threshold;
}

}  // namespace

Outcome run_oneshot_hacc3d(const RunConfig& cfg, Report& report) {
  Outcome outcome;
  TimedRegion region;
  std::vector<Point3> points;
  double gen_ms = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    points = generate(cfg);
    gen_ms = (now_s() - t0) * 1e3;
    // Warm-up op: the first op of a process runs up to 1.9x slower.
    auto warm = fdbscan::cluster(points, kParams);
    if (!warm.has_value()) ++outcome.failed;
    region.setup_s.push_back(now_s() - t0);
  }
  report.fact("points", static_cast<double>(points.size()));

  std::vector<Fingerprint> results;
  std::vector<double> untraced_round_s, traced_round_s;
  PhaseSums phases;
  ExecTotals exec_traced;
  std::int64_t op = 0;
  run_rounds(cfg, [&](bool traced) {
    const auto prof0 = fdbscan::exec::kernel_profile();
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    Expected<Clustering> result = [&] {
      ScopedSpan span("op", op);
      return fdbscan::cluster(points, kParams);
    }();
    const double wall = now_s() - t0;
    ++outcome.attempted;
    if (!result.has_value()) {
      ++outcome.failed;
    } else {
      if (cfg.corrupt && op == 0) corrupt_result(*result);
      results.push_back(fingerprint(*result));
    }
    if (traced) {
      traced_round_s.push_back(wall);
      exec_traced.add(prof0, fdbscan::exec::kernel_profile(), wall);
      if (result.has_value()) phases.add(*result);
      // Layer probes, outside the op: the validation and auto-select
      // scans cluster() runs first and a fresh engine's BVH build.
      {
        ScopedSpan span("core.validate", op);
        (void)fdbscan::validate_input(points, kParams);
      }
      {
        ScopedSpan span("core.auto_select", op);
        (void)use_densebox(points);
      }
      ScopedSpan span("bvh.build", op);
      fdbscan::Engine<3> fresh(points);
      (void)fresh.index();
    } else {
      untraced_round_s.push_back(wall);
      region.op_ms.push_back(wall * 1e3);
      region.add_round(1, wall, cpu_seconds() - c0);
    }
    ++op;
  });
  region.end_rounds();

  const double check_t0 = now_s();
  // Correctness, outside the timed region: every result must carry the
  // reference's core flags, cluster count and distance computations. The
  // reference runs the method kAuto resolves to through its own free
  // function.
  const bool dense = use_densebox(points);
  const Clustering reference = dense ? fdbscan::fdbscan_densebox(points, kParams)
                                     : fdbscan::fdbscan(points, kParams);
  const Fingerprint want = fingerprint(reference);
  for (const Fingerprint& got : results) {
    if (!(got == want)) ++outcome.failed;
  }
  outcome.correct = outcome.failed == 0;
  if (!ground_truth_ok("hacc3d", points, kParams, cfg.seed, report)) {
    outcome.correct = false;
    ++outcome.failed;
  }
  report.fact("method", dense ? "\"densebox\"" : "\"fdbscan\"");
  report.fact("num_clusters", static_cast<double>(reference.num_clusters));
  report.fact("dist_comps", static_cast<double>(reference.distance_computations));

  report.fact("check_s", now_s() - check_t0);
  report_end_to_end(report, region);
  report.set("data.gen_ms", gen_ms);
  if (cfg.trace) {
    phases.report(report);
    report_exec(report, exec_traced, phases.ops, fdbscan::exec::num_threads());
    report.set("core.validate_ms", mean(SpanLog::get().durations_ms("core.validate")));
    report.set("core.auto_select_ms",
               mean(SpanLog::get().durations_ms("core.auto_select")));
    report.set("bvh.build_ms", mean(SpanLog::get().durations_ms("bvh.build")));
    report_trace_overhead(report, untraced_round_s, traced_round_s);
  }
  return outcome;
}

void seed_scan_oneshot_hacc3d(const RunConfig& cfg) {
  const std::vector<Point3> points = generate(cfg);
  const auto result = fdbscan::cluster(points, kParams);
  std::cout << "seed-scan oneshot_hacc3d seed=" << cfg.seed
            << " class=hacc_auto method="
            << (use_densebox(points) ? "densebox" : "fdbscan")
            << " dense_frac="
            << fdbscan::estimate_dense_fraction(points, kParams)
            << " dist_comps=" << result->distance_computations
            << " num_clusters=" << result->num_clusters << "\n";
}

}  // namespace perfbench
