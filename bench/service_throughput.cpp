// ClusterService benchmarks (DESIGN.md §10): the serving-path claims
// that are gateable, each as one deterministic single-shot entry.
//
//   closed_loop  under-capacity serving: a closed loop (never more
//                in-flight requests than queue slots) across two
//                datasets must reject nothing, and — with plain FDBSCAN,
//                whose point BVH is eps/minpts-independent — build each
//                dataset's index exactly once (index_builds == datasets).
//   overload     deterministic backpressure: one dispatcher pinned by a
//                cancellable blocker, then capacity + K submits — the
//                queue admits exactly `capacity` and rejects exactly K
//                with kQueueFull, without blocking the submitter.
//   cancel_latency  a caller token raised mid-run resolves the future
//                within one chunk-quantum (reported as a counter, in ms).
//   deadline     deadline_ms <= 0 fails fast (no kernels) and a tiny
//                mid-run deadline resolves to kDeadlineExceeded.
//   sharded_equivalence  the tentpole's correctness gate: sharded labels
//                through ClusterService::submit are equivalent to
//                single-engine labels (up to renumbering, with
//                bit-identical core flags) at 1/2/8 workers x 1/2/4
//                shards, with a nonzero halo volume whenever shards > 1
//                (tools/bench_compare.py --gate-shards).
//
// Each entry stages its ServiceMetrics into the telemetry "service"
// block; tools/bench_compare.py --gate-service enforces the invariants.
// Entries additionally stage the obs registry's per-window delta of the
// fdbscan_service_* mirrors as the "obs" block — bench_compare.py
// --gate-obs cross-checks the two bit-equal.
#include <benchmark/benchmark.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/validate.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

using namespace fdbscan;
using namespace fdbscan::bench;
using service::ClusterService;
using service::ServiceConfig;
using service::ServiceMetrics;
using service::ServiceResult;
using service::SubmitOptions;

std::shared_ptr<const std::vector<Point2>> make_dataset(std::int64_t n,
                                                        std::uint64_t seed) {
  return std::make_shared<const std::vector<Point2>>(
      data::gaussian_mixture2(n, 5, 1.0f, 0.01f, seed));
}

/// Spins until `pred(metrics())` holds (bounded by a generous timeout).
template <class Pred>
bool wait_until(const ClusterService& svc, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(svc.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

void stage_metrics(const ClusterService& svc) {
  const ServiceMetrics m = svc.metrics();
  std::vector<std::pair<std::string, double>> block;
  block.emplace_back("submitted", static_cast<double>(m.submitted));
  block.emplace_back("completed", static_cast<double>(m.completed));
  block.emplace_back("rejected", static_cast<double>(m.rejected));
  block.emplace_back("cancelled", static_cast<double>(m.cancelled));
  block.emplace_back("deadline_exceeded",
                     static_cast<double>(m.deadline_exceeded));
  block.emplace_back("failed", static_cast<double>(m.failed));
  block.emplace_back("queue_wait_count",
                     static_cast<double>(m.queue_wait.count));
  block.emplace_back("queue_wait_total_ms", m.queue_wait.total_ms);
  block.emplace_back("queue_wait_mean_ms", m.queue_wait.mean_ms());
  block.emplace_back("queue_wait_max_ms", m.queue_wait.max_ms);
  block.emplace_back("run_count", static_cast<double>(m.run_time.count));
  block.emplace_back("run_total_ms", m.run_time.total_ms);
  block.emplace_back("run_time_mean_ms", m.run_time.mean_ms());
  block.emplace_back("run_time_max_ms", m.run_time.max_ms);
  telemetry::stage_service_block(std::move(block));
}

/// The obs registry's view of the entry window, flattened under the same
/// key names stage_metrics uses, so --gate-obs can compare shared keys
/// bit-equal. The service mirror feeds both sides the identical integers
/// (ObsMirror in service.h), so after wait_idle() the per-window delta
/// of a single-service entry must match its ServiceMetrics exactly.
void stage_obs_delta(const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot d =
      obs::metrics_delta(before, obs::snapshot_metrics());
  std::vector<std::pair<std::string, double>> block;
  const auto counter = [&](const char* name) {
    for (const auto& c : d.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  const auto hist = [&](const char* name) {
    for (const auto& h : d.histograms) {
      if (h.name == name) return h.data;
    }
    return obs::HistogramSnapshot{};
  };
  block.emplace_back("submitted", counter("fdbscan_service_submitted_total"));
  block.emplace_back("completed", counter("fdbscan_service_completed_total"));
  block.emplace_back("rejected", counter("fdbscan_service_rejected_total"));
  block.emplace_back("cancelled", counter("fdbscan_service_cancelled_total"));
  block.emplace_back("deadline_exceeded",
                     counter("fdbscan_service_deadline_exceeded_total"));
  block.emplace_back("failed", counter("fdbscan_service_failed_total"));
  const obs::HistogramSnapshot qw = hist("fdbscan_service_queue_wait");
  const obs::HistogramSnapshot rt = hist("fdbscan_service_run_time");
  block.emplace_back("queue_wait_count", static_cast<double>(qw.count));
  // Same ns->ms conversion as LatencySummary::snapshot(): identical
  // int64 in, bit-identical double out.
  block.emplace_back("queue_wait_total_ms",
                     static_cast<double>(qw.total_ns) * 1e-6);
  block.emplace_back("run_count", static_cast<double>(rt.count));
  block.emplace_back("run_total_ms", static_cast<double>(rt.total_ns) * 1e-6);
  telemetry::stage_obs_block(std::move(block));
}

void register_all() {
  const std::int64_t n = scaled(20000);
  // Deliberately NOT scaled: blocker/victim runs exist to pin a
  // dispatcher and are always cancelled (or deadline-killed) mid-run, so
  // their cost is one cancellation latency, not one full clustering —
  // and a big dataset keeps "the run is still in flight when we act"
  // deterministic even at tiny FDBSCAN_BENCH_SCALE.
  const std::int64_t n_big = 200000;
  const Parameters params{0.01f, 10};

  // --- Under-capacity closed loop ----------------------------------------
  register_custom(
      "service_throughput/closed_loop/datasets=2/n=" + std::to_string(n),
      RunMeta{"gaussian", "service", n},
      [=](benchmark::State& state) {
        const obs::MetricsSnapshot obs_before = obs::snapshot_metrics();
        ServiceConfig config;
        config.dispatchers = 2;
        config.queue_capacity = 8;
        ClusterService svc(config);
        const auto a = make_dataset(n, 42);
        const auto b = make_dataset(n, 43);
        SubmitOptions plain;
        plain.method = Method::kFdbscan;  // eps-independent point BVH
        // Closed loop: one wave of (datasets x dispatchers) requests in
        // flight at a time, well under queue capacity — a correctly
        // backpressured client sees zero rejections.
        constexpr int kWaves = 4;
        std::int64_t requests = 0;
        for (int wave = 0; wave < kWaves; ++wave) {
          std::vector<std::future<ServiceResult>> inflight;
          for (int i = 0; i < 2; ++i) {
            Parameters sweep = params;
            sweep.minpts = 5 + 5 * i + wave;  // parameter sweep, warm index
            inflight.push_back(svc.submit<2>("a", a, sweep, plain));
            inflight.push_back(svc.submit<2>("b", b, sweep, plain));
          }
          for (auto& f : inflight) {
            if (f.get().has_value()) ++requests;
          }
        }
        svc.wait_idle();
        std::int64_t index_builds = 0;
        for (const auto& d : svc.dataset_stats()) {
          index_builds += d.index_builds;
        }
        state.counters["requests"] = static_cast<double>(requests);
        state.counters["datasets"] = 2.0;
        state.counters["index_builds"] = static_cast<double>(index_builds);
        state.counters["rejected"] =
            static_cast<double>(svc.metrics().rejected);
        stage_metrics(svc);
        stage_obs_delta(obs_before);
      });

  // --- Deterministic overload --------------------------------------------
  register_custom(
      "service_throughput/overload/extra=6",
      RunMeta{"gaussian", "service", n_big},
      [=](benchmark::State& state) {
        const obs::MetricsSnapshot obs_before = obs::snapshot_metrics();
        ServiceConfig config;
        config.dispatchers = 1;
        config.queue_capacity = 4;
        ClusterService svc(config);
        const auto big = make_dataset(n_big, 42);
        const auto tiny = make_dataset(64, 7);
        auto blocker_token = std::make_shared<exec::CancelToken>();
        SubmitOptions blocking;
        blocking.token = blocker_token;
        auto blocker = svc.submit<2>("blocker", big, params, blocking);
        wait_until(svc, [](const ServiceMetrics& m) {
          return m.active == 1 && m.queued == 0;
        });
        // Dispatcher pinned, queue empty: capacity + K submits admit
        // exactly `capacity` and reject exactly K — deterministically.
        constexpr int kExtra = 6;
        std::vector<std::future<ServiceResult>> burst;
        for (int i = 0; i < config.queue_capacity + kExtra; ++i) {
          burst.push_back(svc.submit<2>("tiny", tiny, params));
        }
        int rejected = 0;
        for (auto& f : burst) {
          if (f.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            const auto r = f.get();
            if (!r.has_value() && r.error().code == ErrorCode::kQueueFull) {
              ++rejected;
            }
          }
        }
        blocker_token->request_cancel();
        (void)blocker.get();
        svc.wait_idle();
        state.counters["expected_rejected"] = kExtra;
        state.counters["rejected"] = rejected;
        stage_metrics(svc);
        stage_obs_delta(obs_before);
      });

  // --- Sharded equivalence gate -------------------------------------------
  // The worker counts are set internally (and restored), so the entry's
  // counters are identical under the smoke harness's outer 1-vs-8 thread
  // sweep: the decomposition, halo volume and equivalence verdicts are
  // worker-count invariant — deterministic=true and gateable at 0%.
  register_custom(
      "service_throughput/sharded_equivalence/n=" + std::to_string(n),
      RunMeta{"gaussian", "service-sharded", n},
      [=](benchmark::State& state) {
        const Parameters sharded_params{0.05f, 10};
        const auto pts = make_dataset(n, 44);
        const int env_threads = exec::num_threads();
        std::int64_t checked = 0;
        std::int64_t failures = 0;
        std::int64_t multi_shard_runs = 0;
        std::int64_t ghosts = 0;
        std::int64_t cross_edges = 0;
        std::int64_t halo_bytes = 0;
        for (int workers : {1, 2, 8}) {
          exec::set_num_threads(workers);
          const auto reference =
              cluster(*pts, sharded_params, {}, Method::kFdbscan);
          {
            // The service (and its launches) must be gone before the
            // next thread-count change — hence the scope.
            ClusterService svc;
            SubmitOptions submit;
            submit.method = Method::kFdbscan;
            for (std::int32_t shards : {1, 2, 4}) {
              submit.shards = shards;
              const auto result =
                  svc.submit<2>("ds", pts, sharded_params, submit).get();
              ++checked;
              const bool ok =
                  reference.has_value() && result.has_value() &&
                  equivalent_clusterings(*pts, sharded_params, *reference,
                                         *result)
                      .ok &&
                  result->is_core == reference->is_core &&
                  result->num_clusters == reference->num_clusters;
              if (!ok) ++failures;
              if (result.has_value() && shards > 1) {
                ++multi_shard_runs;
                ghosts += result->shard_ghosts;
                cross_edges += result->shard_cross_edges;
                halo_bytes += result->shard_halo_bytes;
              }
            }
            svc.wait_idle();
          }
        }
        exec::set_num_threads(env_threads);
        state.counters["shards_checked"] = static_cast<double>(checked);
        state.counters["shard_equiv_failures"] =
            static_cast<double>(failures);
        state.counters["multi_shard_runs"] =
            static_cast<double>(multi_shard_runs);
        state.counters["ghosts"] = static_cast<double>(ghosts);
        state.counters["cross_edges"] = static_cast<double>(cross_edges);
        state.counters["halo_KB"] = static_cast<double>(halo_bytes) / 1024.0;
      });

  // --- Cancellation latency ----------------------------------------------
  register_custom(
      "service_throughput/cancel_latency/n=" + std::to_string(n_big),
      RunMeta{"gaussian", "service", n_big},
      [=](benchmark::State& state) {
        const obs::MetricsSnapshot obs_before = obs::snapshot_metrics();
        ClusterService svc;
        const auto big = make_dataset(n_big, 42);
        auto token = std::make_shared<exec::CancelToken>();
        SubmitOptions cancellable;
        cancellable.token = token;
        auto doomed = svc.submit<2>("big", big, params, cancellable);
        wait_until(svc, [](const ServiceMetrics& m) { return m.active == 1; });
        // Let kernels make progress, then measure raise -> resolution.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const auto raised = std::chrono::steady_clock::now();
        token->request_cancel();
        (void)doomed.get();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - raised)
                .count();
        svc.wait_idle();
        state.counters["cancel_latency_ms"] = latency_ms;
        state.counters["cancelled"] =
            static_cast<double>(svc.metrics().cancelled);
        stage_metrics(svc);
        stage_obs_delta(obs_before);
      });

  // --- Deadlines -----------------------------------------------------------
  register_custom(
      "service_throughput/deadline/n=" + std::to_string(n_big),
      RunMeta{"gaussian", "service", n_big},
      [=](benchmark::State& state) {
        const obs::MetricsSnapshot obs_before = obs::snapshot_metrics();
        ServiceConfig config;
        config.dispatchers = 1;
        ClusterService svc(config);
        const auto big = make_dataset(n_big, 42);
        // Already-elapsed budget: rejected on the submit path, before any
        // queue slot or kernel.
        SubmitOptions expired;
        expired.deadline_ms = 0.0;
        const auto fast = svc.submit<2>("big", big, params, expired).get();
        const bool fast_fail =
            !fast.has_value() &&
            fast.error().code == ErrorCode::kDeadlineExceeded;
        // In-flight expiry, made deterministic at any bench scale: the
        // deadline covers queue wait, so a request with a 1 ms budget
        // queued behind a blocker held for much longer than that is
        // watchdog-cancelled no matter how fast the substrate is.
        auto blocker_token = std::make_shared<exec::CancelToken>();
        SubmitOptions blocking;
        blocking.token = blocker_token;
        auto blocker = svc.submit<2>("blocker", big, params, blocking);
        wait_until(svc,
                   [](const ServiceMetrics& m) { return m.active == 1; });
        SubmitOptions strict;
        strict.deadline_ms = 1.0;
        auto late = svc.submit<2>("big", big, params, strict);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        blocker_token->request_cancel();
        const auto late_result = late.get();
        const bool in_flight =
            !late_result.has_value() &&
            late_result.error().code == ErrorCode::kDeadlineExceeded;
        (void)blocker.get();
        svc.wait_idle();
        state.counters["fast_fail_ok"] = fast_fail ? 1.0 : 0.0;
        state.counters["mid_run_ok"] = in_flight ? 1.0 : 0.0;
        state.counters["deadline_exceeded"] =
            static_cast<double>(svc.metrics().deadline_exceeded);
        stage_metrics(svc);
        stage_obs_delta(obs_before);
      });
}

const bool registered = (register_all(), true);

}  // namespace
