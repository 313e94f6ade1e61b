// Shared machinery of the end-to-end benchmark: run configuration,
// process clocks, statistics, result fingerprints, the in-memory span
// log of traced runs, the round driver and the metric report.
//
// Nothing here reaches inside the library: every number is either timed
// around a public call from this directory or read from a public result
// struct (Clustering, PhaseTimings, ServiceMetrics, kernel_profile()).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/clustering.h"
#include "exec/profile.h"

namespace perfbench {

enum class Scale : std::uint8_t {
  kFull,  ///< the sizes BENCHMARK.json's figures are measured at
  kTiny,  ///< seconds-long smoke sizes (smoke_test.py)
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Self-test of the correctness check: flip one core flag of the
  /// first timed result before it is checked. The run must then fail.
  bool corrupt = false;
  /// Where a traced run writes its spans at exit (Chrome trace JSON).
  std::string trace_out;
};

// ---- host and process ------------------------------------------------------

[[nodiscard]] double now_s();
[[nodiscard]] double cpu_seconds();   ///< process user + sys time
/// Resets the resident-set high-water mark (Linux clear_refs); returns
/// false where the kernel refuses, and peak_rss_mb() then keeps counting
/// from process start.
bool reset_peak_rss();
[[nodiscard]] double peak_rss_mb();   ///< high-water RSS since the reset
[[nodiscard]] double process_peak_rss_mb();  ///< high-water RSS, whole process
[[nodiscard]] int host_nproc();       ///< CPUs this process may run on
[[nodiscard]] std::string cpu_model();

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Samples strictly above the q-quantile: a tail percentile is reported
/// only when at least ten samples lie beyond it.
[[nodiscard]] std::int64_t samples_beyond(const std::vector<double>& v,
                                          double q);

// ---- correctness -----------------------------------------------------------

/// What the correctness check compares between a result and its
/// reference: the core flags (hashed), the cluster count and the
/// distance-computation counter.
struct Fingerprint {
  std::uint64_t core_hash = 0;
  std::int32_t num_clusters = -1;
  std::int64_t dist_comps = -1;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

[[nodiscard]] Fingerprint fingerprint(const fdbscan::Clustering& c);
/// Flips the first core flag (the --corrupt self-test).
void corrupt_result(fdbscan::Clustering& c);

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t op = -1;     ///< op id the span belongs to (-1 = none)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// Process-wide in-memory span store. Recording is off outside traced
/// rounds; spans are written out once, at exit.
class SpanLog {
 public:
  static SpanLog& get();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  [[nodiscard]] std::int64_t next_id();
  void push(const Span& span);
  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Writes Chrome trace-event JSON. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span around one layer call. Parent is the innermost span open on
/// this thread. No-op while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Elapsed so far, in ms (works whether or not the span records).
  [[nodiscard]] double elapsed_ms() const;

 private:
  Span span_;
  bool active_;
  std::int64_t start_wall_ns_;
};

// ---- exec window -----------------------------------------------------------

/// Kernel-profile totals over a window of wall time.
struct ExecTotals {
  std::int64_t launches = 0;
  std::int64_t chunks = 0;
  double busy_s = 0.0;
  double wall_s = 0.0;

  void add(const fdbscan::exec::KernelProfileSnapshot& before,
           const fdbscan::exec::KernelProfileSnapshot& after, double wall);
};

// ---- round driver ----------------------------------------------------------

/// Runs whole rounds of a workload's fixed op list until `cfg.seconds`
/// of wall time have passed; at least one round (two in a traced run)
/// always completes. In a traced run, rounds alternate untraced and
/// traced, starting untraced, so the two can be compared. `round(traced)`
/// runs one round. The RSS high-water mark restarts here, so peak_rss_mb()
/// after the rounds covers them and not the setup repetitions.
template <class RoundFn>
void run_rounds(const RunConfig& cfg, RoundFn&& round) {
  (void)reset_peak_rss();
  const double start = now_s();
  for (int r = 0;; ++r) {
    const bool traced = cfg.trace && (r % 2 == 1);
    SpanLog::get().set_enabled(traced);
    round(traced);
    SpanLog::get().set_enabled(false);
    const int min_rounds = cfg.trace ? 2 : 1;
    if (r + 1 >= min_rounds && now_s() - start >= cfg.seconds) break;
  }
}

/// Runs body(client) on `clients` threads and joins them all. An
/// exception escaping a client is reported and counted (the return
/// value) instead of ending the process.
template <class Body>
std::int64_t run_clients(int clients, Body&& body) {
  std::atomic<std::int64_t> errors{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          body(c);
        } catch (const std::exception& e) {
          std::cerr << "perfbench: client " << c << " failed: " << e.what()
                    << "\n";
          errors.fetch_add(1);
        }
      });
    }
  }
  return errors.load();
}

// ---- report ----------------------------------------------------------------

/// The metrics a run prints. End-to-end metrics are printed by untraced
/// runs, per-layer metrics by traced runs; the name/unit tables live in
/// harness.cpp and mirror BENCHMARK.json.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Host/run facts and other non-gated figures (printed as one JSON
  /// line ahead of the result line).
  void fact(const std::string& key, const std::string& json_value);
  void fact(const std::string& key, double value);

  /// Prints the facts line and the final result line; returns the
  /// process exit code (0 only when every op succeeded and was correct).
  int print(bool traced, bool correct, std::int64_t attempted,
            std::int64_t failed) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

/// Setup runs this many times; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// End-to-end metrics common to every workload, from the timed region.
/// Throughput and CPU cost are medians over untraced rounds, so one
/// disturbed round moves them no more than one disturbed op moves p50.
struct TimedRegion {
  std::vector<double> setup_s;       ///< one entry per setup repetition
  std::vector<double> op_ms;         ///< untraced op latencies
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_ms_per_op;  ///< process CPU / ops
  double rss_mb = 0.0;               ///< peak RSS of the timed rounds
  double process_rss_mb = 0.0;       ///< peak RSS of setup and rounds

  /// Reads both RSS high-water marks; call right after the rounds.
  void end_rounds() {
    rss_mb = peak_rss_mb();
    process_rss_mb = process_peak_rss_mb();
  }

  void add_round(std::size_t ops, double wall_s, double cpu_s) {
    if (ops == 0 || wall_s <= 0.0) return;
    round_ops_per_s.push_back(static_cast<double>(ops) / wall_s);
    round_cpu_ms_per_op.push_back(cpu_s * 1e3 / static_cast<double>(ops));
  }
};
void report_end_to_end(Report& report, const TimedRegion& region);

}  // namespace perfbench
