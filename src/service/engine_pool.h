// Warm-engine cache for the clustering service (DESIGN.md §10).
//
// The service keys engines by a caller-chosen dataset id: every request
// naming the same id reuses one fdbscan::Engine, so the point BVH is
// built once per dataset (index_rebuilds == 1 in telemetry) and the
// DenseBox bundle cache and workspace arena stay warm across requests.
//
// Concurrency rules:
//   * An Engine supports one run at a time (engine.h). The pool enforces
//     this with a per-entry cv-guarded running flag: acquire() returns a
//     Lease that holds the flag, so concurrent requests against one
//     dataset serialize on the warm engine instead of each building a
//     cold one. Requests against distinct datasets run fully in
//     parallel.
//   * Eviction is LRU over entries with no lease and no pin outstanding.
//     An entry that is leased or pinned is never destroyed under the
//     caller — the pool may temporarily exceed its capacity when every
//     resident engine is busy rather than block or evict a live engine.
//     A Pin (streaming sessions, DESIGN.md §14) is the long-lived
//     residency variant of a Lease: no run mutex, just eviction immunity.
//
// The pool is type-erased (the service is not templated on DIM): entries
// hold shared_ptr<void> produced by a caller factory, and a counters
// accessor so dataset_stats() can report per-dataset amortization
// without knowing the concrete Engine<DIM>.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"

namespace fdbscan::service {

namespace pool_detail {

/// Registry mirrors of the pool counters (DESIGN.md §13). Process-wide:
/// several pools (several services) add into the same totals; the
/// engines gauge tracks the net resident count across all of them.
struct PoolMetrics {
  obs::Counter& hits = obs::counter("fdbscan_pool_hits_total");
  obs::Counter& misses = obs::counter("fdbscan_pool_misses_total");
  obs::Counter& evictions = obs::counter("fdbscan_pool_evictions_total");
  obs::Gauge& engines = obs::gauge("fdbscan_pool_engines");
};

inline PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace pool_detail

struct EnginePoolStats {
  std::int64_t engines = 0;    ///< currently resident entries
  std::int64_t hits = 0;       ///< acquires/pins that found a warm engine
  std::int64_t misses = 0;     ///< acquires/pins that built a fresh engine
  std::int64_t evictions = 0;  ///< entries dropped by the LRU policy
  std::int64_t pinned = 0;     ///< resident entries with >= 1 Pin outstanding
};

/// Per-dataset amortization counters (from EngineCounters), exported
/// into the service telemetry block.
struct DatasetStats {
  std::string id;
  int dim = 0;
  std::int64_t runs = 0;
  std::int64_t index_builds = 0;
  std::int64_t grid_cache_hits = 0;
  /// Sharded executors this dataset's holder dropped from its bounded
  /// per-shard-count LRU (EngineCounters::sharded_evictions).
  std::int64_t sharded_evictions = 0;
};

class EnginePool {
  struct Entry {
    std::string id;
    int dim = 0;
    std::shared_ptr<void> engine;  // keeps the points alive via its holder
    EngineCounters (*counters)(const void*) = nullptr;
    // One run at a time per engine: a cv-guarded flag, which
    // dataset_stats() also waits on to read an idle entry's counters.
    std::mutex run_mutex;
    std::condition_variable run_cv;
    bool running = false;
    bool validated = false;  // O(n) coordinate scan done for these points
    int active = 0;          // leases outstanding (guarded by pool mutex_)
    int pins = 0;            // long-lived Pins outstanding (guarded by mutex_)
    std::uint64_t last_used = 0;
  };

 public:
  explicit EnginePool(std::int32_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  ~EnginePool() {
    // Keep the process-wide resident-engines gauge honest when a whole
    // pool (service) goes away.
    pool_detail::pool_metrics().engines.add(
        -static_cast<std::int64_t>(entries_.size()));
  }

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// Exclusive use of one dataset's engine: holds the entry's running
  /// flag (and a liveness reference) until destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(std::shared_ptr<Entry> entry, EnginePool* pool)
        : entry_(std::move(entry)), pool_(pool) {
      std::unique_lock<std::mutex> lock(entry_->run_mutex);
      entry_->run_cv.wait(lock, [&] { return !entry_->running; });
      entry_->running = true;
    }
    Lease(Lease&&) = default;
    // No move-assign: overwriting a live lease would skip its active-count
    // release. Construct fresh leases instead.
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (entry_ && pool_) {
        {
          std::lock_guard<std::mutex> lock(entry_->run_mutex);
          entry_->running = false;
        }
        // notify_all, not notify_one: blocked acquirers (Lease ctor) and
        // dataset_stats() pollers share run_cv. A single wakeup consumed
        // by a stats poll (which reads and returns without re-notifying)
        // would strand a dispatcher waiting on the same entry forever.
        entry_->run_cv.notify_all();
        std::lock_guard<std::mutex> guard(pool_->mutex_);
        --entry_->active;
      }
    }

    [[nodiscard]] void* engine() const noexcept { return entry_->engine.get(); }

    /// Whether the O(n) coordinate scan already ran for this dataset.
    /// Callers flip it after a successful scan; guarded by the lease
    /// (only the lease holder may touch the entry's run state).
    [[nodiscard]] bool validated() const noexcept { return entry_->validated; }
    void set_validated() noexcept { entry_->validated = true; }

   private:
    std::shared_ptr<Entry> entry_;
    EnginePool* pool_ = nullptr;
  };

  /// Long-lived residency reference (DESIGN.md §14): unlike a Lease, a
  /// Pin holds no run mutex — runs against the dataset proceed normally —
  /// but while any Pin on an entry is outstanding the LRU never evicts
  /// it. Streaming sessions pin their dataset's entry for their whole
  /// lifetime so eviction pressure from other datasets cannot drop an
  /// engine (and the points its holder keeps alive) out from under an
  /// open session. Dropping the Pin (destruction) makes the entry
  /// evictable again; the entry itself stays alive as long as the Pin
  /// holds it even if the LRU replaced it in the meantime (the same-id-
  /// different-dim replacement path), so a pinned session keeps a
  /// consistent engine even across a dataset redefinition.
  class Pin {
   public:
    Pin() = default;
    Pin(std::shared_ptr<Entry> entry, EnginePool* pool)
        : entry_(std::move(entry)), pool_(pool) {}
    Pin(Pin&&) = default;
    // No move-assign: overwriting a live pin would skip its pin-count
    // release. Construct fresh pins instead (std::optional<Pin>::emplace).
    Pin& operator=(Pin&&) = delete;
    ~Pin() {
      if (entry_ && pool_) {
        std::lock_guard<std::mutex> guard(pool_->mutex_);
        --entry_->pins;
      }
    }

    [[nodiscard]] void* engine() const noexcept { return entry_->engine.get(); }
    [[nodiscard]] explicit operator bool() const noexcept {
      return entry_ != nullptr;
    }

   private:
    std::shared_ptr<Entry> entry_;
    EnginePool* pool_ = nullptr;
  };

  /// Lease the engine for dataset `id`, building it via `make_engine` on
  /// a miss. Blocks while another lease on the same dataset is live (the
  /// per-engine serialization rule). `counters` must read the
  /// EngineCounters out of the opaque engine produced by `make_engine`.
  Lease acquire(const std::string& id, int dim,
                const std::function<std::shared_ptr<void>()>& make_engine,
                EngineCounters (*counters)(const void*)) {
    std::shared_ptr<Entry> entry = find_or_create(id, dim, make_engine,
                                                  counters);
    // Taking the run mutex outside the pool lock: a long run on one
    // dataset must not block acquires for other datasets.
    return Lease(std::move(entry), this);
  }

  /// Pin the engine for dataset `id` (building it on a miss, like
  /// acquire). Returns immediately — no run mutex is taken.
  Pin pin(const std::string& id, int dim,
          const std::function<std::shared_ptr<void>()>& make_engine,
          EngineCounters (*counters)(const void*)) {
    std::shared_ptr<Entry> entry = find_or_create(id, dim, make_engine,
                                                  counters);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++entry->pins;
      --entry->active;  // find_or_create took a lease-style reference
    }
    return Pin(std::move(entry), this);
  }

  [[nodiscard]] EnginePoolStats stats() const {
    std::lock_guard<std::mutex> guard(mutex_);
    EnginePoolStats s = stats_;
    s.engines = static_cast<std::int64_t>(entries_.size());
    for (const auto& [id, entry] : entries_) s.pinned += (entry->pins > 0);
    return s;
  }

  /// Per-dataset counters for resident engines, sorted by id. Waits for
  /// each entry's running flag to clear (EngineCounters is mutated by
  /// runs) and holds it while reading, so this briefly serializes
  /// against in-flight runs — call from telemetry paths, ideally after
  /// the service is idle.
  [[nodiscard]] std::vector<DatasetStats> dataset_stats() {
    std::vector<std::shared_ptr<Entry>> snapshot;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      snapshot.reserve(entries_.size());
      for (const auto& [id, entry] : entries_) snapshot.push_back(entry);
    }
    std::vector<DatasetStats> out;
    out.reserve(snapshot.size());
    for (const auto& entry : snapshot) {
      std::unique_lock<std::mutex> run_lock(entry->run_mutex);
      entry->run_cv.wait(run_lock, [&] { return !entry->running; });
      const EngineCounters c = entry->counters(entry->engine.get());
      run_lock.unlock();
      out.push_back(DatasetStats{entry->id, entry->dim, c.runs,
                                 c.index_builds, c.grid_cache_hits,
                                 c.sharded_evictions});
    }
    return out;
  }

 private:
  // Shared hit/miss path of acquire() and pin(): returns the entry for
  // `id` with its active count bumped (so it cannot be evicted between
  // the lookup and whichever reference the caller converts it into).
  std::shared_ptr<Entry> find_or_create(
      const std::string& id, int dim,
      const std::function<std::shared_ptr<void>()>& make_engine,
      EngineCounters (*counters)(const void*)) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = entries_.find(id);
    bool fresh = false;
    pool_detail::PoolMetrics& pm = pool_detail::pool_metrics();
    std::shared_ptr<Entry> entry;
    if (it != entries_.end() && it->second->dim == dim) {
      entry = it->second;
      ++stats_.hits;
      pm.hits.inc();
    } else {
      if (it != entries_.end()) {
        // Same id resubmitted at a different dimension: replace. A
        // pinned old entry stays alive through its Pin's shared_ptr —
        // open sessions keep observing the points they opened with.
        entries_.erase(it);
        ++stats_.evictions;
        pm.evictions.inc();
        pm.engines.add(-1);
      }
      entry = std::make_shared<Entry>();
      entry->id = id;
      entry->dim = dim;
      entry->engine = make_engine();
      entry->counters = counters;
      entries_.emplace(id, entry);
      ++stats_.misses;
      pm.misses.inc();
      pm.engines.add(1);
      fresh = true;
    }
    // Touch and reference BEFORE any eviction pass: a fresh entry still
    // at last_used == 0 / active == 0 would otherwise be its own victim.
    entry->last_used = ++clock_;
    ++entry->active;
    if (fresh) evict_locked();
    return entry;
  }

  // Must hold mutex_. Evicts least-recently-used idle entries until the
  // pool fits its capacity; leased and pinned entries are skipped
  // (temporary overflow beats destroying an engine under a running
  // request or an open session).
  void evict_locked() {
    while (entries_.size() > static_cast<std::size_t>(capacity_)) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second->active > 0 || it->second->pins > 0) continue;
        if (victim == entries_.end() ||
            it->second->last_used < victim->second->last_used) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;  // every entry is leased/pinned
      entries_.erase(victim);
      ++stats_.evictions;
      pool_detail::pool_metrics().evictions.inc();
      pool_detail::pool_metrics().engines.add(-1);
    }
  }

  const std::int32_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  EnginePoolStats stats_;
  std::uint64_t clock_ = 0;
};

}  // namespace fdbscan::service
