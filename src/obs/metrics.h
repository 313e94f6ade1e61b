// Process-wide runtime metrics registry (DESIGN.md §13).
//
// The observability plane's source of truth: named monotonic counters,
// gauges and fixed-bucket histograms that the service, the engine pool,
// the sharded executor, the exec runtime and the memory tracker publish
// into. Registration (counter()/gauge()/histogram()) takes a mutex and
// returns a reference that stays valid for the life of the process;
// call sites cache it (usually in a function-local static) so every
// subsequent update is exactly one relaxed atomic RMW — no locks, no
// allocation, no syscalls on the hot path.
//
// The registry is global: two ClusterServices in one process add into
// the same counters. Consumers that need a per-window view (bench
// telemetry, tests) snapshot before and after and diff the snapshots
// with metrics_delta().
//
// Roll-up: a Counter or Histogram constructed with a parent (the
// registry metric returned by counter()/histogram()) updates itself and
// the parent in the same call. A ClusterService keeps its own
// per-service metrics that way: its instance counts only its own
// traffic, and the registry family sums every service in the process.
//
// Exposition: snapshot_metrics() returns a stable plain-struct view;
// to_prometheus_text() and to_json() serialize it. Names follow
// fdbscan_<subsystem>_<metric>[_total] and must match
// [a-zA-Z_][a-zA-Z0-9_]* (Prometheus-safe).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace fdbscan::obs {

/// Log2-bucketed duration histograms: bucket i counts samples whose
/// duration in microseconds lies in [2^(i-1), 2^i) (bucket 0: < 1 us;
/// the last bucket absorbs everything larger).
inline constexpr int kHistogramBuckets = 24;

/// Monotonic counter. inc() is one relaxed fetch_add, plus one on the
/// parent when the counter rolls up into one.
class Counter {
 public:
  Counter() = default;
  /// Every inc() also adds into `parent` (which must outlive this).
  explicit Counter(Counter* parent) noexcept : parent_(parent) {}

  void inc(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->inc(delta);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  Counter* parent_ = nullptr;
};

/// Instantaneous value. set()/add() are one relaxed atomic each;
/// update_max() is a relaxed CAS loop (rarely contended).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if larger (high-water-mark gauges).
  void update_max(std::int64_t v) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

struct HistogramSnapshot {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t max_ns = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};
};

/// Fixed-bucket duration histogram. observe_ns() is four relaxed RMWs
/// (bucket, count, total, max), repeated on the parent when the
/// histogram rolls up into one.
class Histogram {
 public:
  Histogram() = default;
  /// Every observe_ns() also records into `parent` (which must outlive
  /// this).
  explicit Histogram(Histogram* parent) noexcept : parent_(parent) {}

  void observe_ns(std::int64_t ns) noexcept {
    const auto us = static_cast<std::uint64_t>(ns > 0 ? ns / 1000 : 0);
    const int idx = std::min(static_cast<int>(std::bit_width(us)),
                             kHistogramBuckets - 1);
    buckets_[static_cast<std::size_t>(idx)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::int64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen && !max_ns_.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->observe_ns(ns);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.total_ns = total_ns_.load(std::memory_order_relaxed);
    s.max_ns = max_ns_.load(std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[static_cast<std::size_t>(i)] =
          buckets_[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> total_ns_{0};
  std::atomic<std::int64_t> max_ns_{0};
  Histogram* parent_ = nullptr;
};

/// Look up (registering on first use) the named metric. The returned
/// reference is stable for the process lifetime. Takes a mutex — cache
/// the reference at the call site; never call per-sample. Registering
/// one name with two different kinds throws std::logic_error.
[[nodiscard]] Counter& counter(const std::string& name);
[[nodiscard]] Gauge& gauge(const std::string& name);
[[nodiscard]] Histogram& histogram(const std::string& name);

/// Point-in-time copy of every registered metric, each kind sorted by
/// name. Values are relaxed loads: concurrent updates may be partially
/// visible across entries, but each counter read is itself atomic and
/// monotone across successive snapshots.
struct MetricsSnapshot {
  struct Value {
    std::string name;
    std::int64_t value = 0;
  };
  struct Hist {
    std::string name;
    HistogramSnapshot data;
  };
  std::vector<Value> counters;
  std::vector<Value> gauges;
  std::vector<Hist> histograms;
};

[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Per-window view: counters and histogram counts/totals/buckets are
/// subtracted (`after - before`; names only in `after` keep their full
/// value), gauges keep their `after` value (instantaneous, and max_ns
/// is not subtractable — it carries `after`'s value only when the
/// window observed at least one sample, else 0).
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after);

/// Prometheus text exposition (text/plain version 0.0.4): `# TYPE`
/// lines, cumulative `_bucket{le="..."}` series with seconds-valued
/// upper bounds, `_sum` (seconds) and `_count` per histogram.
[[nodiscard]] std::string to_prometheus_text(const MetricsSnapshot& snap);

/// Single JSON object: {"counters":{name:value,...},"gauges":{...},
/// "histograms":{name:{"count":..,"total_ns":..,"max_ns":..,
/// "buckets":[..]},...}}.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

}  // namespace fdbscan::obs
