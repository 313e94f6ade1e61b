// Serving scenario: the in-process ClusterService (DESIGN.md §10).
//
//   $ ./service_demo [n]
//
// Walks the whole service surface in one run:
//   1. concurrent submits against two datasets — requests naming the
//      same dataset id share one warm engine (one BVH build per
//      dataset), requests naming different ids run in parallel;
//   2. backpressure — a queue sized FDBSCAN_SERVICE_QUEUE_CAP rejects
//      the overflow with Error{kQueueFull} instead of blocking;
//   3. cancellation — a caller-held CancelToken stops a running request
//      within one chunk-quantum and the engine stays reusable;
//   4. deadlines — a request with a tiny latency budget resolves to
//      Error{kDeadlineExceeded};
//   5. the metrics snapshot: terminal-state counts and queue-wait /
//      run-time latency summaries.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "fdbscan.h"
#include "obs/statusz.h"

namespace {

const char* outcome(const fdbscan::service::ServiceResult& result) {
  return result.has_value() ? "ok"
                            : fdbscan::error_code_name(result.error().code);
}

}  // namespace

int main(int argc, char** argv) {
  // SIGUSR1 dumps a statusz snapshot of the metrics registry
  // (FDBSCAN_STATUSZ selects the sink; see DESIGN.md §13).
  fdbscan::obs::statusz_install();
  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 20000;
  using fdbscan::RequestSpec;
  using fdbscan::service::ClusterService;
  using fdbscan::service::ServiceConfig;

  const auto ngsim = std::make_shared<const std::vector<fdbscan::Point2>>(
      fdbscan::data::gaussian_mixture2(n, 5, 1.0f, 0.01f, 42));
  const auto porto = std::make_shared<const std::vector<fdbscan::Point2>>(
      fdbscan::data::uniform2(n, 1.0f, 7));
  const fdbscan::Parameters params{0.01f, 10};

  ServiceConfig config;
  config.queue_capacity = 8;
  config.dispatchers = 2;
  ClusterService service(config);

  // --- 1. Warm-engine reuse across concurrent requests -------------------
  // Plain FDBSCAN: its point BVH is eps/minpts-independent, so the whole
  // sweep needs exactly one index build per dataset.
  RequestSpec plain;
  plain.method = fdbscan::Method::kFdbscan;
  std::vector<std::future<fdbscan::service::ServiceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    plain.params = params;
    plain.params.minpts = 5 + 5 * i;  // parameter sweep over one dataset
    futures.push_back(service.submit<2>("ngsim", ngsim, plain));
    futures.push_back(service.submit<2>("porto", porto, plain));
  }
  for (auto& f : futures) {
    const auto result = f.get();
    if (result) {
      std::printf("request: ok, %d clusters\n", result->num_clusters);
    } else {
      std::printf("request: %s\n", outcome(result));
    }
  }
  for (const auto& d : service.dataset_stats()) {
    std::printf("dataset %-6s runs=%lld index_builds=%lld (one build, then "
                "warm)\n",
                d.id.c_str(), static_cast<long long>(d.runs),
                static_cast<long long>(d.index_builds));
  }

  // --- 2. Backpressure: overflow the bounded queue -----------------------
  service.wait_idle();
  std::vector<std::future<fdbscan::service::ServiceResult>> burst;
  for (int i = 0; i < 16; ++i) {
    burst.push_back(service.submit<2>("ngsim", ngsim,
                                      RequestSpec{.params = params}));
  }
  int rejected = 0;
  for (auto& f : burst) {
    const auto result = f.get();
    if (!result && result.error().code == fdbscan::ErrorCode::kQueueFull) {
      ++rejected;
    }
  }
  std::printf("burst of 16 into a queue of %d: %d rejected with QueueFull\n",
              config.queue_capacity, rejected);

  // --- 3. Cooperative cancellation ---------------------------------------
  auto token = std::make_shared<fdbscan::exec::CancelToken>();
  RequestSpec cancellable{.params = params};
  cancellable.token = token;
  auto doomed = service.submit<2>("ngsim", ngsim, cancellable);
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  token->request_cancel();
  std::printf("cancelled mid-run: %s\n", outcome(doomed.get()));

  // --- 4. Deadlines -------------------------------------------------------
  RequestSpec strict{.params = params};
  strict.deadline_ms = 0.0;  // elapsed before submission: fails fast
  auto late = service.submit<2>("ngsim", ngsim, strict);
  std::printf("zero deadline: %s\n", outcome(late.get()));

  // The engine survived the cancellation: a fresh run still serves.
  auto fresh = service.submit<2>("ngsim", ngsim,
                                 RequestSpec{.params = params}).get();
  std::printf("after cancel, same engine: %s\n", outcome(fresh));

  // --- 5. Metrics ---------------------------------------------------------
  service.wait_idle();
  const auto m = service.metrics();
  std::printf(
      "metrics: submitted=%lld completed=%lld rejected=%lld cancelled=%lld "
      "deadline_exceeded=%lld failed=%lld\n",
      static_cast<long long>(m.submitted), static_cast<long long>(m.completed),
      static_cast<long long>(m.rejected), static_cast<long long>(m.cancelled),
      static_cast<long long>(m.deadline_exceeded),
      static_cast<long long>(m.failed));
  std::printf("queue wait: mean %.3f ms, max %.3f ms over %lld dispatches\n",
              m.queue_wait.mean_ms(), m.queue_wait.max_ms,
              static_cast<long long>(m.queue_wait.count));
  std::printf("run time:   mean %.3f ms, max %.3f ms\n", m.run_time.mean_ms(),
              m.run_time.max_ms);
  return 0;
}
