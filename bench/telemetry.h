// Machine-readable benchmark telemetry (DESIGN.md §6, EXPERIMENTS.md
// "Recording a benchmark run").
//
// google-benchmark's console output is for humans; the perf trajectory
// across PRs is tracked through one BENCH_<bench>.json per bench binary,
// written when the process exits:
//
//   {
//     "schema": "fdbscan-bench-telemetry-v1",
//     "run":     {"bench", "date_env", "threads", "scale"},
//     "entries": [{"name", "dataset", "algo", "n", "deterministic",
//                  "wall_ms", "counters": {...},
//                  "phase_ms": {"index", "preprocess", "main", "finalize"},
//                  "error"?}]
//   }
//
// The deterministic work counters (dist_comps, nodes_visited, clusters,
// noise) are bit-exact across thread counts (see test_thread_invariance),
// which makes them gateable at a 0% budget by tools/bench_compare.py —
// wall-clock on this CPU substrate is noisy, work counts are not.
// Entries whose algorithm does *not* guarantee that (CUDA-DClust's chain
// growth races on CAS absorption) carry deterministic=false and are
// exempted from the counter gate.
//
// Every bench routes through bench::register_run / bench::report
// (common.h), which records entries here; the bench main() (telemetry.cpp
// replaces benchmark_main) writes the file. Environment:
//   FDBSCAN_BENCH_OUT   output path (default ./BENCH_<bench>.json)
//   FDBSCAN_BENCH_DATE  value recorded as run.date_env (default: now, UTC)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/trace.h"

namespace fdbscan::bench {

/// What a benchmark entry measured: which dataset, which algorithm, at
/// what problem size — the series key of the paper's figures.
struct RunMeta {
  std::string dataset;
  std::string algo;
  std::int64_t n = 0;
  /// Whether the algorithm's work counters are bit-exact across thread
  /// counts (true for everything except the chain-racing CUDA-DClust).
  bool deterministic = true;
};

/// One recorded benchmark entry.
struct TelemetryEntry {
  std::string name;  ///< full google-benchmark entry name (unique per file)
  RunMeta meta;
  double wall_ms = 0.0;
  /// Counter name/value pairs, in recording order (mirrors the
  /// benchmark::State user counters of the entry).
  std::vector<std::pair<std::string, double>> counters;
  /// Per-phase milliseconds (zero when the entry has no phase breakdown).
  double phase_index_ms = 0.0;
  double phase_preprocess_ms = 0.0;
  double phase_main_ms = 0.0;
  double phase_finalize_ms = 0.0;
  /// Peak auxiliary ("device") bytes charged to the run's MemoryTracker
  /// (0 when the entry ran without one) — first-class, so bench_compare
  /// and trace_summary read the same number table_memory derives ratios
  /// from.
  std::int64_t peak_bytes = 0;
  /// Per-kernel aggregates of the entry's launches (populated only when
  /// FDBSCAN_TRACE is active; empty otherwise). Serialized as the
  /// optional "kernels" array.
  std::vector<exec::KernelAggregate> kernels;
  /// Service-level measurements (ClusterService benches only): terminal
  /// request counts and latency summaries from ServiceMetrics, flattened
  /// to name/value pairs. Serialized as the optional "service" object
  /// when nonempty; tools/bench_compare.py --gate-service reads it.
  std::vector<std::pair<std::string, double>> service;
  /// Nonempty when the run was skipped (e.g. simulated device OOM); such
  /// entries carry no comparable measurements.
  std::string error;
};

namespace telemetry {

/// Records one entry into the process-wide registry (thread-safe).
void record(TelemetryEntry entry);

/// Stages a service block for the NEXT recorded entry (consumed by
/// record()). Bench bodies call this from inside the entry, before
/// register_custom builds and records the TelemetryEntry.
void stage_service_block(std::vector<std::pair<std::string, double>> service);

/// Derives the bench name (and default output file) from argv[0].
void set_binary_name(const char* argv0);

/// Writes BENCH_<bench>.json (or $FDBSCAN_BENCH_OUT) and returns the
/// path; empty string when there is nothing to write.
std::string write_json();

}  // namespace telemetry
}  // namespace fdbscan::bench
