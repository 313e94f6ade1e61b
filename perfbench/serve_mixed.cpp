// serve_mixed: a fixed request list sent by closed-loop clients to one
// ClusterService built from the shipped ServiceConfig defaults (no
// FDBSCAN_SERVICE_* knob is read or pinned). Two pooled datasets —
// Porto-like 2-D under kAuto (resolves to DenseBox) and HACC-like 3-D —
// plus a fixed share of shards = 2 requests on the HACC set. Engines are
// warm after setup, so dispatch, the engine pool and its leases, the
// DenseBox grid cache, auto-select and the shard merge carry the
// differences. Two clients keep two requests in flight at once.
//
// One round: every client sends its own fixed, seeded, shuffled list of
// requests, one at a time, and the round ends when all have replied.
#include <atomic>
#include <cmath>
#include <memory>
#include <random>

#include "core/auto_select.h"
#include "core/engine.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "grid/dense_grid.h"
#include "shard/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fdbscan::Clustering;
using fdbscan::Parameters;
using fdbscan::Point2;
using fdbscan::Point3;
using fdbscan::service::ClusterService;
using fdbscan::service::ServiceMetrics;

constexpr int kClients = kServeMixedClients;

// Request classes, kept within a small factor of each other in cost.
enum Class : int { kPorto = 0, kHacc = 1, kHaccSharded = 2, kNumClasses = 3 };
const char* const kClassNames[kNumClasses] = {"porto_auto", "hacc_auto",
                                              "hacc_shards2"};
// Requests of each class in one client's list per round.
constexpr int kPerClient[kNumClasses] = {5, 5, 2};

const Parameters kPortoParams{0.005f, 20};
const Parameters kHaccParams{0.042f, 5};

struct Data {
  std::shared_ptr<const std::vector<Point2>> porto;
  std::shared_ptr<const std::vector<Point3>> hacc;
};

Data generate(const RunConfig& cfg) {
  const std::int64_t porto_n = cfg.scale == Scale::kTiny ? 20'000 : 200'000;
  const std::int64_t hacc_n = cfg.scale == Scale::kTiny ? 20'000 : 200'000;
  // HACC-like at the paper's particle density (box side ~ n^(1/3)),
  // keeping the default 400 halos: with fewer, larger halos the work per
  // request swings +-10% from seed to seed (see README.md).
  fdbscan::data::CosmologyConfig cosmo;
  cosmo.box_size = static_cast<float>(
      cosmo.box_size * std::cbrt(static_cast<double>(hacc_n) / 1e6));
  Data d;
  d.porto = std::make_shared<const std::vector<Point2>>(
      fdbscan::data::porto_taxi_like(porto_n, cfg.seed));
  d.hacc = std::make_shared<const std::vector<Point3>>(
      fdbscan::data::hacc_like(hacc_n, cfg.seed + 1, cosmo));
  return d;
}

std::future<fdbscan::service::ServiceResult> submit(ClusterService& svc,
                                                    const Data& d, int cls) {
  fdbscan::RequestSpec spec;
  if (cls == kPorto) {
    spec.params = kPortoParams;
    return svc.submit<2>("porto", d.porto, spec);
  }
  spec.params = kHaccParams;
  spec.shards = cls == kHaccSharded ? 2 : 1;
  return svc.submit<3>("hacc", d.hacc, spec);
}

/// Each client's fixed op list: exact class counts, seeded order.
std::vector<std::vector<int>> op_lists(std::uint64_t seed) {
  std::vector<std::vector<int>> lists(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      lists[static_cast<std::size_t>(c)].insert(
          lists[static_cast<std::size_t>(c)].end(),
          static_cast<std::size_t>(kPerClient[cls]), cls);
    }
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(c));
    std::shuffle(lists[static_cast<std::size_t>(c)].begin(),
                 lists[static_cast<std::size_t>(c)].end(), rng);
  }
  return lists;
}

struct OpRecord {
  int cls = 0;
  double ms = 0.0;
  bool ok = false;
  Fingerprint fp{};
};

/// What the traced rounds accumulate from the service's own counters.
struct ServiceWindow {
  fdbscan::service::LatencySummary queue_wait{}, run_time{};
  std::int64_t rejected = 0, pool_hits = 0, pool_misses = 0, evictions = 0;
  std::int64_t grid_hits = 0, index_builds = 0;

  struct Mark {
    ServiceMetrics metrics;
    fdbscan::service::EnginePoolStats pool;
    std::int64_t grid_hits = 0, index_builds = 0;
  };

  static Mark mark(ClusterService& svc) {
    Mark m{svc.metrics(), svc.pool_stats(), 0, 0};
    for (const auto& ds : svc.dataset_stats()) {
      m.grid_hits += ds.grid_cache_hits;
      m.index_builds += ds.index_builds;
    }
    return m;
  }

  void add(const Mark& a, const Mark& b) {
    histogram_add(queue_wait, histogram_delta(a.metrics.queue_wait, b.metrics.queue_wait));
    histogram_add(run_time, histogram_delta(a.metrics.run_time, b.metrics.run_time));
    rejected += b.metrics.rejected - a.metrics.rejected;
    pool_hits += b.pool.hits - a.pool.hits;
    pool_misses += b.pool.misses - a.pool.misses;
    evictions += b.pool.evictions - a.pool.evictions;
    grid_hits += b.grid_hits - a.grid_hits;
    index_builds += b.index_builds - a.index_builds;
  }
};

}  // namespace

Outcome run_serve_mixed(const RunConfig& cfg, Report& report) {
  Outcome outcome;
  TimedRegion region;
  Data data;
  std::unique_ptr<ClusterService> svc;
  double gen_ms = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const double t0 = now_s();
    data = generate(cfg);
    gen_ms = (now_s() - t0) * 1e3;
    svc = std::make_unique<ClusterService>(fdbscan::service::ServiceConfig{});
    // Warm-up: one request per class builds every engine, grid bundle
    // and sharded executor the timed rounds use.
    for (int cls = 0; cls < kNumClasses; ++cls) {
      if (!submit(*svc, data, cls).get().has_value()) ++outcome.failed;
    }
    region.setup_s.push_back(now_s() - t0);
  }
  report.fact("points_porto", static_cast<double>(data.porto->size()));
  report.fact("points_hacc", static_cast<double>(data.hacc->size()));

  const auto lists = op_lists(cfg.seed);
  std::vector<OpRecord> records;
  std::vector<double> untraced_round_s, traced_round_s, traced_op_ms;
  PhaseSums phases;
  double dense_pct_sum = 0.0;
  std::int64_t dense_results = 0;
  Clustering sharded_sample;  // one sharded service result, for equivalence
  ExecTotals exec_traced;
  ServiceWindow window;
  std::unique_ptr<fdbscan::shard::ShardedEngine<3>> shard_probe;
  std::atomic<std::int64_t> next_op{0};

  run_rounds(cfg, [&](bool traced) {
    const auto prof0 = fdbscan::exec::kernel_profile();
    const auto mark0 = ServiceWindow::mark(*svc);
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    const std::size_t records_before = records.size();
    std::vector<std::vector<OpRecord>> per_client(kClients);
    std::vector<PhaseSums> client_phases(kClients);
    std::vector<Clustering> client_sharded(kClients);
    outcome.failed += run_clients(kClients, [&](int c) {
      auto& out = per_client[static_cast<std::size_t>(c)];
      for (const int cls : lists[static_cast<std::size_t>(c)]) {
        const std::int64_t op = next_op.fetch_add(1);
        ScopedSpan span("op", op);
        auto result = submit(*svc, data, cls).get();
        OpRecord rec;
        rec.cls = cls;
        rec.ms = span.elapsed_ms();
        rec.ok = result.has_value();
        if (rec.ok) {
          if (cfg.corrupt && op == 0) corrupt_result(*result);
          rec.fp = fingerprint(*result);
          if (traced) client_phases[static_cast<std::size_t>(c)].add(*result);
          if (cls == kHaccSharded && client_sharded[static_cast<std::size_t>(c)].labels.empty()) {
            client_sharded[static_cast<std::size_t>(c)] = std::move(*result);
          }
        }
        out.push_back(rec);
      }
    });
    const double wall = now_s() - t0;
    const double cpu = cpu_seconds() - c0;
    for (int c = 0; c < kClients; ++c) {
      for (const OpRecord& rec : per_client[static_cast<std::size_t>(c)]) {
        records.push_back(rec);
        (traced ? traced_op_ms : region.op_ms).push_back(rec.ms);
      }
      if (sharded_sample.labels.empty()) {
        sharded_sample = std::move(client_sharded[static_cast<std::size_t>(c)]);
      }
    }
    if (!traced) {
      untraced_round_s.push_back(wall);
      region.add_round(records.size() - records_before, wall, cpu);
      return;
    }
    traced_round_s.push_back(wall);
    exec_traced.add(prof0, fdbscan::exec::kernel_profile(), wall);
    window.add(mark0, ServiceWindow::mark(*svc));
    for (const PhaseSums& p : client_phases) phases.merge(p);
    // Layer probes, outside the round's wall time.
    const std::int64_t op = next_op.load();
    {
      ScopedSpan span("core.validate", op);
      (void)fdbscan::validate_input(*data.porto, kPortoParams);
    }
    {
      ScopedSpan span("core.validate", op);
      (void)fdbscan::validate_input(*data.hacc, kHaccParams);
    }
    {
      ScopedSpan span("core.auto_select", op);
      (void)fdbscan::estimate_dense_fraction(*data.porto, kPortoParams);
    }
    {
      ScopedSpan span("core.auto_select", op);
      (void)fdbscan::estimate_dense_fraction(*data.hacc, kHaccParams);
    }
    {
      ScopedSpan span("bvh.build", op);
      fdbscan::Engine<2> fresh(*data.porto);
      (void)fresh.index();
    }
    {
      ScopedSpan span("bvh.build", op);
      fdbscan::Engine<3> fresh(*data.hacc);
      (void)fresh.index();
    }
    {
      ScopedSpan span("grid.build", op);
      const fdbscan::DenseGrid<2> grid(*data.porto, kPortoParams.eps,
                                       kPortoParams.minpts);
      dense_pct_sum += 100.0 * grid.points_in_dense_cells() /
                       static_cast<double>(data.porto->size());
      ++dense_results;
    }
    // The shard layer's eps-plan cache, replayed on a standalone
    // executor from a cold start with this round's sharded requests.
    if (!shard_probe) {
      shard_probe = std::make_unique<fdbscan::shard::ShardedEngine<3>>(*data.hacc, 2);
    }
    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < kPerClient[kHaccSharded]; ++k) {
        ScopedSpan span("shard.run", op);
        (void)shard_probe->run(kHaccParams);
      }
    }
  });
  region.end_rounds();

  const double check_t0 = now_s();
  // Correctness, outside the timed region. References run through
  // direct library calls, not the service.
  Fingerprint want[kNumClasses];
  fdbscan::Engine<2> porto_engine(*data.porto);
  want[kPorto] = fingerprint(fdbscan::fdbscan_auto(porto_engine, kPortoParams).clustering);
  fdbscan::Engine<3> hacc_engine(*data.hacc);
  const Clustering hacc_ref = fdbscan::fdbscan_auto(hacc_engine, kHaccParams).clustering;
  want[kHacc] = fingerprint(hacc_ref);
  fdbscan::shard::ShardedEngine<3> sharded_engine(*data.hacc, 2);
  want[kHaccSharded] = fingerprint(sharded_engine.run(kHaccParams).clustering);
  std::int64_t per_class_failed[kNumClasses] = {0, 0, 0};
  for (const OpRecord& rec : records) {
    ++outcome.attempted;
    if (!rec.ok || !(rec.fp == want[rec.cls])) {
      ++outcome.failed;
      ++per_class_failed[rec.cls];
    }
  }
  // A sharded result must be an equivalent clustering of the same data
  // as the single engine's, with identical core flags.
  const bool sharded_ok =
      !sharded_sample.labels.empty() &&
      want[kHaccSharded].core_hash == want[kHacc].core_hash &&
      fdbscan::equivalent_clusterings(*data.hacc, kHaccParams, hacc_ref,
                                      sharded_sample).ok;
  if (!sharded_ok) {
    ++outcome.failed;
    std::cerr << "perfbench: sharded result is not equivalent to the single engine's\n";
  }
  outcome.correct = outcome.failed == 0;
  if (!ground_truth_ok("porto2d", *data.porto, kPortoParams, cfg.seed, report) ||
      !ground_truth_ok("hacc3d", *data.hacc, kHaccParams, cfg.seed, report)) {
    outcome.correct = false;
    ++outcome.failed;
  }
  for (int cls = 0; cls < kNumClasses; ++cls) {
    std::vector<double> ms;
    for (const OpRecord& rec : records) {
      if (rec.cls == cls) ms.push_back(rec.ms);
    }
    report.fact(std::string("p50_ms_") + kClassNames[cls], median(ms));
    report.fact(std::string("dist_comps_") + kClassNames[cls],
                static_cast<double>(want[cls].dist_comps));
    report.fact(std::string("failed_") + kClassNames[cls],
                static_cast<double>(per_class_failed[cls]));
  }

  report.fact("check_s", now_s() - check_t0);
  report_end_to_end(report, region);
  report.set("data.gen_ms", gen_ms);
  if (cfg.trace) {
    phases.report(report);
    report_exec(report, exec_traced, phases.ops, fdbscan::exec::num_threads());
    const SpanLog& log = SpanLog::get();
    report.set("core.validate_ms", mean(log.durations_ms("core.validate")));
    report.set("core.auto_select_ms", mean(log.durations_ms("core.auto_select")));
    report.set("bvh.build_ms", mean(log.durations_ms("bvh.build")));
    report.set("grid.build_ms", mean(log.durations_ms("grid.build")));
    if (dense_results > 0) {
      report.set("grid.dense_pts_pct", dense_pct_sum / static_cast<double>(dense_results));
    }
    if (window.grid_hits + window.index_builds > 0) {
      report.set("engine.grid_cache_hit_pct",
                 100.0 * static_cast<double>(window.grid_hits) /
                     static_cast<double>(window.grid_hits + window.index_builds));
    }
    const double queue_mean = window.queue_wait.mean_ms();
    const double run_mean = window.run_time.mean_ms();
    report.set("service.queue_wait_ms", queue_mean);
    report.set("service.run_ms", run_mean);
    report.set("service.handoff_ms", mean(traced_op_ms) - queue_mean - run_mean);
    report.set("service.rejected", static_cast<double>(window.rejected));
    if (window.pool_hits + window.pool_misses > 0) {
      report.set("pool.hit_pct",
                 100.0 * static_cast<double>(window.pool_hits) /
                     static_cast<double>(window.pool_hits + window.pool_misses));
    }
    report.set("pool.evictions", static_cast<double>(window.evictions));
    if (shard_probe) {
      const auto& sc = shard_probe->counters();
      const auto lookups = sc.plan_cache_hits + sc.plans_built;
      if (lookups > 0) {
        report.set("shard.plan_cache_hit_pct",
                   100.0 * static_cast<double>(sc.plan_cache_hits) /
                       static_cast<double>(lookups));
      }
    }
    report_trace_overhead(report, untraced_round_s, traced_round_s);
  }
  return outcome;
}

void seed_scan_serve_mixed(const RunConfig& cfg) {
  const Data data = generate(cfg);
  fdbscan::Engine<2> porto_engine(*data.porto);
  fdbscan::Engine<3> hacc_engine(*data.hacc);
  fdbscan::shard::ShardedEngine<3> sharded(*data.hacc, 2);
  for (int cls = 0; cls < kNumClasses; ++cls) {
    bool dense = false;
    Clustering c;
    const double t0 = now_s();
    if (cls == kPorto) {
      auto a = fdbscan::fdbscan_auto(porto_engine, kPortoParams);
      dense = a.used_densebox;
      c = std::move(a.clustering);
    } else if (cls == kHacc) {
      auto a = fdbscan::fdbscan_auto(hacc_engine, kHaccParams);
      dense = a.used_densebox;
      c = std::move(a.clustering);
    } else {
      c = sharded.run(kHaccParams).clustering;
    }
    std::cout << "seed-scan serve_mixed seed=" << cfg.seed
              << " class=" << kClassNames[cls]
              << " method=" << (dense ? "densebox" : "fdbscan")
              << " cold_ms=" << (now_s() - t0) * 1e3
              << " dist_comps=" << c.distance_computations
              << " num_clusters=" << c.num_clusters << "\n";
  }
}

}  // namespace perfbench
