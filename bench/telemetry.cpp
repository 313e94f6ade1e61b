// Telemetry registry + JSON writer + the bench main() (replaces
// benchmark_main so the file is written after RunSpecifiedBenchmarks).
#include "telemetry.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/statusz.h"

namespace fdbscan::bench::telemetry {

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<TelemetryEntry>& registry() {
  static std::vector<TelemetryEntry> entries;
  return entries;
}

std::string& bench_name() {
  static std::string name = "unknown";
  return name;
}

/// run.date_env: FDBSCAN_BENCH_DATE verbatim if set (lets CI stamp runs
/// reproducibly), else the current UTC time.
std::string date_env() {
  if (const char* env = std::getenv("FDBSCAN_BENCH_DATE")) return env;
  std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

double scale_env() {
  if (const char* env = std::getenv("FDBSCAN_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  // %.17g round-trips doubles; integral values (the work counters) print
  // without an exponent or fraction so diffs stay readable.
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

std::vector<std::pair<std::string, double>>& staged_service_block() {
  static std::vector<std::pair<std::string, double>> block;
  return block;
}

void record(TelemetryEntry entry) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  if (entry.service.empty() && !staged_service_block().empty()) {
    entry.service = std::move(staged_service_block());
    staged_service_block().clear();
  }
  registry().push_back(std::move(entry));
}

void stage_service_block(
    std::vector<std::pair<std::string, double>> service) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  staged_service_block() = std::move(service);
}

void set_binary_name(const char* argv0) {
  std::string s = argv0 ? argv0 : "";
  const std::size_t slash = s.find_last_of('/');
  if (slash != std::string::npos) s = s.substr(slash + 1);
  if (!s.empty()) bench_name() = s;
}

std::string write_json() {
  std::vector<TelemetryEntry> entries;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    entries = registry();
  }
  if (entries.empty()) return "";

  std::string path;
  if (const char* env = std::getenv("FDBSCAN_BENCH_OUT")) {
    path = env;
  } else {
    path = "BENCH_" + bench_name() + ".json";
  }

  std::string out;
  out.reserve(entries.size() * 256 + 256);
  out += "{\n  \"schema\": \"fdbscan-bench-telemetry-v1\",\n  \"run\": {";
  out += "\"bench\": ";
  append_escaped(out, bench_name());
  out += ", \"date_env\": ";
  append_escaped(out, date_env());
  out += ", \"threads\": ";
  append_number(out, exec::num_threads());
  out += ", \"scale\": ";
  append_number(out, scale_env());
  out += "},\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TelemetryEntry& e = entries[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(out, e.name);
    out += ", \"dataset\": ";
    append_escaped(out, e.meta.dataset);
    out += ", \"algo\": ";
    append_escaped(out, e.meta.algo);
    out += ", \"n\": ";
    append_number(out, static_cast<double>(e.meta.n));
    out += ", \"deterministic\": ";
    out += e.meta.deterministic ? "true" : "false";
    out += ",\n     \"wall_ms\": ";
    append_number(out, e.wall_ms);
    out += ", \"counters\": {";
    for (std::size_t c = 0; c < e.counters.size(); ++c) {
      if (c > 0) out += ", ";
      append_escaped(out, e.counters[c].first);
      out += ": ";
      append_number(out, e.counters[c].second);
    }
    out += "},\n     \"phase_ms\": {\"index\": ";
    append_number(out, e.phase_index_ms);
    out += ", \"preprocess\": ";
    append_number(out, e.phase_preprocess_ms);
    out += ", \"main\": ";
    append_number(out, e.phase_main_ms);
    out += ", \"finalize\": ";
    append_number(out, e.phase_finalize_ms);
    out += "}, \"peak_bytes\": ";
    append_number(out, static_cast<double>(e.peak_bytes));
    if (!e.kernels.empty()) {
      out += ",\n     \"kernels\": [";
      for (std::size_t k = 0; k < e.kernels.size(); ++k) {
        const exec::KernelAggregate& a = e.kernels[k];
        out += (k == 0) ? "\n      " : ",\n      ";
        out += "{\"name\": ";
        append_escaped(out, a.name);
        out += ", \"count\": ";
        append_number(out, static_cast<double>(a.count));
        out += ", \"chunks\": ";
        append_number(out, static_cast<double>(a.chunks));
        out += ", \"total_ms\": ";
        append_number(out, a.total_ms);
        out += ", \"max_ms\": ";
        append_number(out, a.max_ms);
        out += ", \"workers\": ";
        append_number(out, static_cast<double>(a.workers));
        out += ", \"imbalance\": ";
        append_number(out, a.imbalance);
        out += "}";
      }
      out += "]";
    }
    if (!e.service.empty()) {
      out += ",\n     \"service\": {";
      for (std::size_t s = 0; s < e.service.size(); ++s) {
        if (s > 0) out += ", ";
        append_escaped(out, e.service[s].first);
        out += ": ";
        append_number(out, e.service[s].second);
      }
      out += "}";
    }
    if (!e.error.empty()) {
      out += ", \"error\": ";
      append_escaped(out, e.error);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "telemetry: cannot open %s for writing\n",
                 path.c_str());
    return "";
  }
  file << out;
  file.close();
  if (!file) {
    std::fprintf(stderr, "telemetry: write to %s failed\n", path.c_str());
    return "";
  }
  return path;
}

}  // namespace fdbscan::bench::telemetry

// The bench entry point: identical to benchmark_main, plus the telemetry
// flush once the run completes. SIGUSR1 dumps a statusz snapshot of the
// obs registry at any point during the run (EXPERIMENTS.md "Inspecting a
// live service").
int main(int argc, char** argv) {
  fdbscan::obs::statusz_install();
  fdbscan::bench::telemetry::set_binary_name(argc > 0 ? argv[0] : nullptr);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string path = fdbscan::bench::telemetry::write_json();
  if (!path.empty()) {
    std::fprintf(stderr, "telemetry: wrote %s\n", path.c_str());
  }
  return 0;
}
