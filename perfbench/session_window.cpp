// session_window: streaming sessions through the service. Each client
// owns one session over an NGSIM-like 2-D vehicle stream and, per step,
// appends the next batch, expires the oldest one and queries, waiting for
// each reply before the next request. One op is one such step. Writes sit
// beside reads, so a stream change that speeds queries by rebuilding
// eagerly shows its cost on appends. The shard and grid layers are idle.
//
// The stream cycles through a fixed pool of kPool batches with kWindow of
// them live, so the live window after step s is batches
// (s+1 .. s+kWindow) mod kPool and one round of kPool steps replays the
// same windows every time.
#include <memory>

#include "core/fdbscan.h"
#include "core/engine.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "stream/streaming_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fdbscan::Clustering;
using fdbscan::Parameters;
using fdbscan::Point2;
using fdbscan::service::ClusterService;

constexpr int kClients = kSessionWindowClients;
constexpr std::int64_t kPool = 16;    // batches in the cycled stream
constexpr std::int64_t kWindow = 8;   // live batches
constexpr std::int64_t kWarmSteps = 4;

const Parameters kParams{0.0005f, 5};

enum Kind : int { kAppend = 0, kExpire = 1, kQuery = 2, kNumKinds = 3 };
const char* const kKindSpans[kNumKinds] = {"append", "expire", "query"};

std::int64_t batch_points(Scale scale) {
  return scale == Scale::kTiny ? 500 : 2'500;
}

using Batch = std::shared_ptr<const std::vector<Point2>>;

/// One client's stream: kPool batches cut from an NGSIM-like trace.
std::vector<Batch> generate_stream(const RunConfig& cfg, int client) {
  const std::int64_t b = batch_points(cfg.scale);
  const auto all = fdbscan::data::ngsim_like(
      kPool * b, cfg.seed * 31 + static_cast<std::uint64_t>(client));
  std::vector<Batch> batches;
  for (std::int64_t k = 0; k < kPool; ++k) {
    batches.push_back(std::make_shared<const std::vector<Point2>>(
        all.begin() + k * b, all.begin() + (k + 1) * b));
  }
  return batches;
}

/// Live points after step s, in sequence order.
std::vector<Point2> live_window(const std::vector<Batch>& stream,
                                std::int64_t step) {
  std::vector<Point2> out;
  for (std::int64_t k = step + 1; k <= step + kWindow; ++k) {
    const auto& batch = *stream[static_cast<std::size_t>(k % kPool)];
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

std::shared_ptr<const std::vector<Point2>> initial_window(
    const std::vector<Batch>& stream) {
  return std::make_shared<const std::vector<Point2>>(live_window(stream, -1));
}

/// One op of this workload is one step: append, expire, query.
struct StepRecord {
  std::int64_t step = 0;
  double ms = 0.0;               ///< the whole step
  double kind_ms[kNumKinds] = {};  ///< each request of the step
  bool ok = false;
  Fingerprint fp{};  ///< the query's; dist_comps cleared (see check)
};

/// A client's session and where its stream stands.
struct Client {
  std::vector<Batch> stream;
  ClusterService::Session session;
  std::int64_t step = 0;  ///< next step to run
};

/// Runs steps [c.step, c.step + count) of client c's op list. With
/// `sample` set, the first query's full result is kept there (and its
/// step in `sample_step`); with `corrupt` set, that result is corrupted
/// first (the --corrupt self-test).
void run_steps(Client& c, std::int64_t count, std::int64_t b, bool corrupt,
               std::vector<StepRecord>* out, PhaseSums* phases,
               Clustering* sample = nullptr, std::int64_t* sample_step = nullptr) {
  for (std::int64_t i = 0; i < count; ++i, ++c.step) {
    const std::int64_t s = c.step;
    StepRecord rec;
    rec.step = s;
    ScopedSpan step_span("step", s);
    {
      ScopedSpan span(kKindSpans[kAppend], s);
      auto delta =
          c.session.append<2>(c.stream[static_cast<std::size_t>((s + kWindow) % kPool)])
              .get();
      rec.kind_ms[kAppend] = span.elapsed_ms();
      // Mutations must land where the fixed op list says they do.
      rec.ok = delta.has_value() && delta->first_seq == (s + kWindow) * b;
    }
    {
      ScopedSpan span(kKindSpans[kExpire], s);
      auto delta = c.session.expire((s + 1) * b).get();
      rec.kind_ms[kExpire] = span.elapsed_ms();
      rec.ok = rec.ok && delta.has_value() && delta->live_points == kWindow * b;
    }
    ScopedSpan span(kKindSpans[kQuery], s);
    auto result = c.session.query().get();
    rec.kind_ms[kQuery] = span.elapsed_ms();
    rec.ms = step_span.elapsed_ms();
    rec.ok = rec.ok && result.has_value();
    if (result.has_value()) {
      if (corrupt) corrupt_result(*result);
      corrupt = false;
      rec.fp = fingerprint(*result);
      rec.fp.dist_comps = -1;
      if (phases != nullptr) phases->add(*result);
      if (sample != nullptr) {
        *sample = std::move(*result);
        *sample_step = s;
        sample = nullptr;
      }
    }
    if (out != nullptr) out->push_back(rec);
  }
}

/// Opens every client's session and runs the warm-up steps.
bool open_and_warm(ClusterService& svc, std::vector<Client>& clients,
                   std::int64_t b) {
  bool ok = true;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    fdbscan::RequestSpec spec;
    spec.params = kParams;
    auto session = svc.open_session<2>("stream" + std::to_string(c),
                                       initial_window(clients[c].stream), spec);
    if (!session.has_value()) return false;
    clients[c].session = std::move(session).value();
    clients[c].step = 0;
    std::vector<StepRecord> warm;
    run_steps(clients[c], kWarmSteps, b, false, &warm, nullptr);
    for (const StepRecord& r : warm) ok = ok && r.ok;
  }
  return ok;
}

}  // namespace

Outcome run_session_window(const RunConfig& cfg, Report& report) {
  Outcome outcome;
  TimedRegion region;
  const std::int64_t b = batch_points(cfg.scale);
  // Declared after the service: sessions must close before it goes.
  std::unique_ptr<ClusterService> svc;
  std::vector<Client> clients;
  double gen_ms = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    svc.reset();
    const double t0 = now_s();
    clients.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients[static_cast<std::size_t>(c)].stream = generate_stream(cfg, c);
    }
    gen_ms = (now_s() - t0) * 1e3;
    svc = std::make_unique<ClusterService>(fdbscan::service::ServiceConfig{});
    if (!open_and_warm(*svc, clients, b)) ++outcome.failed;
    region.setup_s.push_back(now_s() - t0);
  }
  report.fact("live_points", static_cast<double>(kWindow * b));
  report.fact("batch_points", static_cast<double>(b));

  struct Sample {
    std::int64_t step = -1;
    Clustering result;
  };
  std::vector<std::vector<StepRecord>> records(kClients);
  std::vector<Sample> samples(kClients);
  std::vector<double> untraced_round_s, traced_round_s;
  std::vector<double> traced_request_ms;
  std::int64_t traced_steps = 0;
  PhaseSums phases;
  ExecTotals exec_traced;
  fdbscan::service::LatencySummary queue_wait{}, run_time{};
  std::int64_t rebuilds = 0, traced_rounds = 0, rejected = 0;

  run_rounds(cfg, [&](bool traced) {
    const auto prof0 = fdbscan::exec::kernel_profile();
    const auto m0 = svc->metrics();
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    std::vector<std::vector<StepRecord>> per_client(kClients);
    std::vector<PhaseSums> client_phases(kClients);
    outcome.failed += run_clients(kClients, [&](int c) {
      const auto i = static_cast<std::size_t>(c);
      const bool first = records[i].empty();
      run_steps(clients[i], kPool, b, cfg.corrupt && first, &per_client[i],
                traced ? &client_phases[i] : nullptr,
                first ? &samples[i].result : nullptr, &samples[i].step);
    });
    const double wall = now_s() - t0;
    const double cpu = cpu_seconds() - c0;
    for (int c = 0; c < kClients; ++c) {
      for (const StepRecord& rec : per_client[static_cast<std::size_t>(c)]) {
        records[static_cast<std::size_t>(c)].push_back(rec);
        if (traced) {
          ++traced_steps;
          for (int kind = 0; kind < kNumKinds; ++kind) {
            traced_request_ms.push_back(rec.kind_ms[kind]);
          }
        } else {
          region.op_ms.push_back(rec.ms);
        }
      }
      if (traced) phases.merge(client_phases[static_cast<std::size_t>(c)]);
    }
    if (!traced) {
      untraced_round_s.push_back(wall);
      region.add_round(kClients * kPool, wall, cpu);
      return;
    }
    traced_round_s.push_back(wall);
    ++traced_rounds;
    exec_traced.add(prof0, fdbscan::exec::kernel_profile(), wall);
    const auto m1 = svc->metrics();
    histogram_add(queue_wait, histogram_delta(m0.queue_wait, m1.queue_wait));
    histogram_add(run_time, histogram_delta(m0.run_time, m1.run_time));
    rebuilds += m1.session_rebuilds - m0.session_rebuilds;
    rejected += m1.rejected - m0.rejected;
    // Layer probes on the current window: the BVH build a stream rebuild
    // pays and the coordinate scan every appended batch gets.
    const std::int64_t op = clients[0].step;
    const auto live = live_window(clients[0].stream, op - 1);
    {
      ScopedSpan span("bvh.build", op);
      fdbscan::Engine<2> fresh(live);
      (void)fresh.index();
    }
    ScopedSpan span("core.validate", op);
    (void)fdbscan::validate_input(
        *clients[0].stream[static_cast<std::size_t>((op - 1 + kWindow) % kPool)], kParams);
  });
  region.end_rounds();

  const double check_t0 = now_s();
  // Correctness, outside the timed region: every query must carry the
  // core flags and cluster count of a from-scratch cluster() over its
  // live window (a streaming query's work counters legitimately differ
  // from a from-scratch run's), and each client's first timed query must
  // be an equivalent clustering of that window.
  for (int c = 0; c < kClients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    std::vector<Fingerprint> want(kPool);
    for (std::int64_t p = 0; p < kPool; ++p) {
      const auto ref = fdbscan::cluster(live_window(clients[i].stream, p), kParams);
      want[static_cast<std::size_t>(p)] = fingerprint(*ref);
      want[static_cast<std::size_t>(p)].dist_comps = -1;
    }
    for (const StepRecord& rec : records[i]) {
      ++outcome.attempted;
      if (!rec.ok || !(rec.fp == want[static_cast<std::size_t>(rec.step % kPool)])) {
        ++outcome.failed;
      }
    }
    const auto live = live_window(clients[i].stream, samples[i].step);
    if (samples[i].result.labels.empty() ||
        !fdbscan::equivalent_clusterings(live, kParams,
                                         *fdbscan::cluster(live, kParams),
                                         samples[i].result).ok) {
      ++outcome.failed;
      std::cerr << "perfbench: sampled session query is not equivalent\n";
    }
  }
  outcome.correct = outcome.failed == 0;
  if (!ground_truth_ok("window2d", live_window(clients[0].stream, 0), kParams,
                       cfg.seed, report)) {
    outcome.correct = false;
    ++outcome.failed;
  }
  std::vector<double> all_ms[kNumKinds];
  for (const auto& per_client : records) {
    for (const StepRecord& rec : per_client) {
      for (int kind = 0; kind < kNumKinds; ++kind) all_ms[kind].push_back(rec.kind_ms[kind]);
    }
  }
  for (int kind = 0; kind < kNumKinds; ++kind) {
    report.fact(std::string("p50_ms_") + kKindSpans[kind], median(all_ms[kind]));
  }

  report.fact("check_s", now_s() - check_t0);
  report_end_to_end(report, region);
  report.set("data.gen_ms", gen_ms);
  if (cfg.trace) {
    phases.report(report);
    report_exec(report, exec_traced, traced_steps, fdbscan::exec::num_threads());
    report.set("bvh.build_ms", mean(SpanLog::get().durations_ms("bvh.build")));
    report.set("service.queue_wait_ms", queue_wait.mean_ms());
    report.set("service.run_ms", run_time.mean_ms());
    report.set("service.handoff_ms",
               mean(traced_request_ms) - queue_wait.mean_ms() - run_time.mean_ms());
    report.set("service.rejected", static_cast<double>(rejected));
    const SpanLog& log = SpanLog::get();
    report.set("stream.append_ms_p50", median(log.durations_ms("append")));
    report.set("stream.expire_ms_p50", median(log.durations_ms("expire")));
    report.set("stream.query_ms_p50", median(log.durations_ms("query")));
    report.set("core.validate_ms", mean(SpanLog::get().durations_ms("core.validate")));
    report.set("stream.rebuilds", static_cast<double>(rebuilds) /
                                      static_cast<double>(traced_rounds));
    // StreamCounters are not exported by the service: replay client 0's
    // warm-up and one round on a standalone StreamingEngine and read the
    // round's counters.
    const auto& stream = clients[0].stream;
    fdbscan::stream::StreamingEngine<2> replay(live_window(stream, -1), kParams);
    const auto step = [&](std::int64_t s) {
      replay.insert(*stream[static_cast<std::size_t>((s + kWindow) % kPool)]);
      replay.expire((s + 1) * b);
      (void)replay.query();
    };
    for (std::int64_t s = 0; s < kWarmSteps; ++s) step(s);
    const auto before = replay.counters();
    for (std::int64_t s = kWarmSteps; s < kWarmSteps + kPool; ++s) step(s);
    const auto after = replay.counters();
    const auto pct = [](std::int64_t part, std::int64_t whole) {
      return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
                       : 0.0;
    };
    report.set("stream.incremental_pct",
               pct(after.incremental_inserts - before.incremental_inserts,
                   after.inserts - before.inserts));
    report.set("stream.refinalized_pct",
               pct(after.refinalized_queries - before.refinalized_queries,
                   after.queries - before.queries));
    report_trace_overhead(report, untraced_round_s, traced_round_s);
  }
  return outcome;
}

void seed_scan_session_window(const RunConfig& cfg) {
  for (int c = 0; c < kClients; ++c) {
    const auto stream = generate_stream(cfg, c);
    double dist = 0.0, clusters = 0.0;
    for (std::int64_t p = 0; p < kPool; ++p) {
      const auto r = fdbscan::cluster(live_window(stream, p), kParams);
      dist += static_cast<double>(r->distance_computations);
      clusters += r->num_clusters;
    }
    std::cout << "seed-scan session_window seed=" << cfg.seed
              << " class=window_client" << c
              << " mean_dist_comps=" << dist / kPool
              << " mean_num_clusters=" << clusters / kPool << "\n";
  }
}

}  // namespace perfbench
