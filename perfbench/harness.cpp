#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffu);
}

thread_local std::int64_t t_open_span = 0;

// Name and unit of every metric, mirroring BENCHMARK.json. A run prints
// exactly one of the two tables.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},        {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"data.gen_ms", "ms"},
    {"bvh.build_ms", "ms"},
    {"grid.build_ms", "ms"},
    {"grid.dense_pts_pct", "%"},
    {"engine.grid_cache_hit_pct", "%"},
    {"core.index_ms", "ms"},
    {"core.pre_ms", "ms"},
    {"core.main_ms", "ms"},
    {"core.finalize_ms", "ms"},
    {"core.validate_ms", "ms"},
    {"core.auto_select_ms", "ms"},
    {"core.dist_comps", "count"},
    {"core.nodes_visited", "count"},
    {"exec.launches_per_op", "count"},
    {"exec.chunks_per_op", "count"},
    {"exec.busy_ms_per_op", "ms"},
    {"exec.main_imbalance", "ratio"},
    {"exec.idle_pct", "%"},
    {"service.queue_wait_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.handoff_ms", "ms"},
    {"service.rejected", "count"},
    {"pool.hit_pct", "%"},
    {"pool.evictions", "count"},
    {"shard.ghosts_per_op", "count"},
    {"shard.halo_bytes_per_op", "bytes"},
    {"shard.plan_cache_hit_pct", "%"},
    {"stream.append_ms_p50", "ms"},
    {"stream.expire_ms_p50", "ms"},
    {"stream.query_ms_p50", "ms"},
    {"stream.rebuilds", "1/round"},
    {"stream.incremental_pct", "%"},
    {"stream.refinalized_pct", "%"},
    {"trace.overhead_pct", "%"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

// ---- host and process ------------------------------------------------------

double now_s() { return static_cast<double>(steady_ns()) * 1e-9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5 resets VmHWM to the current RSS
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return process_peak_rss_mb();
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::int64_t samples_beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; });
}

// ---- correctness -----------------------------------------------------------

Fingerprint fingerprint(const fdbscan::Clustering& c) {
  // FNV-1a over the flags, eight at a time.
  std::uint64_t h = 1469598103934665603ull;
  const std::size_t n = c.is_core.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      word |= static_cast<std::uint64_t>(c.is_core[i + k]) << (8 * k);
    }
    h = (h ^ word) * 1099511628211ull;
  }
  for (; i < n; ++i) h = (h ^ c.is_core[i]) * 1099511628211ull;
  h = (h ^ n) * 1099511628211ull;
  return Fingerprint{h, c.num_clusters, c.distance_computations};
}

void corrupt_result(fdbscan::Clustering& c) {
  if (!c.is_core.empty()) c.is_core[0] ^= 1;
}

// ---- spans -----------------------------------------------------------------

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanLog::push(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.ms());
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  if (!spans_.empty()) {
    t0 = std::min_element(spans_.begin(), spans_.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })->start_ns;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - t0) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t op)
    : active_(SpanLog::get().enabled()), start_wall_ns_(steady_ns()) {
  span_.name = name;
  span_.op = op;
  span_.start_ns = start_wall_ns_;
  if (active_) {
    span_.id = SpanLog::get().next_id();
    span_.parent = t_open_span;
    span_.tid = thread_tag();
    t_open_span = span_.id;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = steady_ns();
  t_open_span = span_.parent;
  SpanLog::get().push(span_);
}

double ScopedSpan::elapsed_ms() const {
  return static_cast<double>(steady_ns() - start_wall_ns_) * 1e-6;
}

// ---- exec window -----------------------------------------------------------

void ExecTotals::add(const fdbscan::exec::KernelProfileSnapshot& before,
                     const fdbscan::exec::KernelProfileSnapshot& after,
                     double wall) {
  const fdbscan::exec::KernelPhaseProfile d =
      fdbscan::exec::profile_delta(before, after);
  launches += d.launches;
  chunks += d.chunks;
  busy_s += d.busy_total;
  wall_s += wall;
}

// ---- report ----------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::fact(const std::string& key, const std::string& json_value) {
  facts_.emplace_back(key, json_value);
}

void Report::fact(const std::string& key, double value) {
  fact(key, json_number(value));
}

int Report::print(bool traced, bool correct, std::int64_t attempted,
                  std::int64_t failed) const {
  std::ostringstream facts;
  facts << "{";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    facts << (i ? ", " : "") << json_string(facts_[i].first) << ": "
          << facts_[i].second;
  }
  facts << "}";
  std::cout << "run facts: " << facts.str() << "\n";

  bool complete = true;
  std::ostringstream metrics;
  metrics << "{";
  const auto& table = traced ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = values_.find(table[i].first);
    double v = 0.0;
    if (it == values_.end()) {
      // Layers a workload leaves idle read 0 in a traced run; an
      // end-to-end metric must always be measured.
      if (!traced) {
        std::cerr << "perfbench: end-to-end metric " << table[i].first
                  << " was not measured\n";
        complete = false;
      }
    } else {
      v = it->second;
    }
    metrics << (i ? ", " : "") << json_string(table[i].first)
            << ": {\"value\": " << json_number(v)
            << ", \"unit\": " << json_string(table[i].second) << "}";
  }
  metrics << "}";
  const bool ok = correct && failed == 0 && complete;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return ok ? 0 : 1;
}

void report_end_to_end(Report& report, const TimedRegion& region) {
  const auto ops = static_cast<double>(region.op_ms.size());
  report.set("setup_s", median(region.setup_s));
  report.set("ops_per_s", median(region.round_ops_per_s));
  report.set("op_p50_ms", median(region.op_ms));
  report.set("cpu_ms_per_op", median(region.round_cpu_ms_per_op));
  report.set("peak_rss_mb", region.rss_mb);
  report.fact("process_peak_rss_mb", region.process_rss_mb);
  report.fact("op_samples", ops);
  std::string rates = "[";
  for (const double r : region.round_ops_per_s) {
    rates += (rates.size() > 1 ? ", " : "") + json_number(r);
  }
  report.fact("round_ops_per_s", rates + "]");
  report.fact("setup_reps", static_cast<double>(region.setup_s.size()));
  // A tail percentile is only reported with at least ten samples beyond
  // it; it is informational (not a gated metric) because not every
  // workload reaches that many samples in one run.
  if (samples_beyond(region.op_ms, 0.9) >= 10) {
    report.fact("op_p90_ms", quantile(region.op_ms, 0.9));
  }
}

}  // namespace perfbench
