// Process-wide metrics registry: named counters, gauges, and latency
// histograms with one-call exposition.
//
// Naming convention: `aquila.<subsystem>.<name>`, lowercase [a-z0-9_]
// segments (validated by tools/check_metrics_names.py). Three metric
// flavors coexist:
//
//   - owned counters   : GetCounter("aquila.tlb.shootdown_pages")->Add(n).
//                        Hot-path recording is one per-core sharded add; the
//                        returned pointer is stable for the process
//                        lifetime, so call sites cache it in a static.
//   - owned histograms : GetHistogram(...) returns a shared Histogram
//                        (src/util/histogram.h) for latency distributions.
//   - callbacks        : existing subsystems keep their own Stats structs
//                        (FaultStats, PageCache::Stats, DeviceStats, ...)
//                        and register a reader per field. Several instances
//                        may register the same name (one per PageCache, one
//                        per device, ...); Snapshot() sums them, so the
//                        exposition reports runtime-wide totals.
//
// Snapshot()/ToText()/ToJson() report everything at once: counters and
// gauges as values, histograms as count/mean/min/max/p50/p90/p99/p99.9.
// ToText() is Prometheus-style exposition ('.' mapped to '_'); ToJson() is
// a flat JSON object keyed by the dotted names.
#ifndef AQUILA_SRC_TELEMETRY_METRICS_H_
#define AQUILA_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/telemetry_config.h"
#include "src/util/cpu.h"
#include "src/util/histogram.h"
#include "src/util/sharded_counter.h"

namespace aquila {
namespace telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

// Monotonic counter. Recording is one relaxed atomic add on the calling
// core's shard (a no-op when telemetry is compiled out): counters such as
// aquila.vmx.ring0_exceptions are bumped on every fault, so a single atomic
// would be a line every faulting core writes. The shards live in an
// anonymous mapping, like Histogram's, so the registry's lazily created
// counters take one cache line of heap each, as a single atomic did.
class alignas(kCacheLineSize) Counter {
 public:
  Counter();
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
#if AQUILA_TELEMETRY_ENABLED
    value_->fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t Value() const { return value_->load(std::memory_order_relaxed); }
  void Reset() { value_->Reset(); }

 private:
  ShardedCounter* value_;
};

// Point-in-time digest of one histogram.
struct HistogramDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;       // counters and gauges
  HistogramDigest digest;   // histograms
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by name

  const MetricSample* Find(std::string_view name) const;
  std::string ToText() const;
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create an owned metric. The returned pointer never moves and
  // lives for the process lifetime.
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Registers a reader for an externally-owned value (a Stats-struct atomic,
  // a size accessor, ...). Returns an id for Unregister; prefer
  // CallbackGroup for RAII lifetime management. Callbacks sharing a name are
  // summed in Snapshot().
  uint64_t RegisterCallback(std::string_view name, MetricKind kind,
                            std::function<uint64_t()> reader);
  void Unregister(uint64_t id);

  MetricsSnapshot Snapshot() const;
  std::string ToText() const { return Snapshot().ToText(); }
  std::string ToJson() const { return Snapshot().ToJson(); }

  // Zeroes owned counters and histograms (callback-backed values belong to
  // their owners). For benchmarks that report per-phase deltas.
  void ResetOwned();

  // `aquila.<subsystem>.<name>`: >= 3 dot-separated [a-z0-9_]+ segments.
  static bool ValidName(std::string_view name);

 private:
  struct Callback {
    uint64_t id;
    std::string name;
    MetricKind kind;
    std::function<uint64_t()> reader;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<Callback> callbacks_;
  uint64_t next_id_ = 1;
};

// The process-wide registry every subsystem records into.
MetricsRegistry& Registry();

// RAII bundle of callback registrations: a subsystem object owns one,
// Add()s its Stats fields at construction, and deregisters everything when
// it dies (so a destroyed PageCache stops being reported).
class CallbackGroup {
 public:
  CallbackGroup() = default;
  ~CallbackGroup() { Clear(); }

  CallbackGroup(const CallbackGroup&) = delete;
  CallbackGroup& operator=(const CallbackGroup&) = delete;

  void Add(std::string_view name, MetricKind kind, std::function<uint64_t()> reader) {
    ids_.push_back(Registry().RegisterCallback(name, kind, std::move(reader)));
  }
  void AddCounter(std::string_view name, const std::atomic<uint64_t>& value) {
    Add(name, MetricKind::kCounter,
        [&value] { return value.load(std::memory_order_relaxed); });
  }
  void AddCounter(std::string_view name, const ShardedCounter& value) {
    Add(name, MetricKind::kCounter, [&value] { return value.load(); });
  }
  void AddGauge(std::string_view name, std::function<uint64_t()> reader) {
    Add(name, MetricKind::kGauge, std::move(reader));
  }

  void Clear() {
    for (uint64_t id : ids_) {
      Registry().Unregister(id);
    }
    ids_.clear();
  }

 private:
  std::vector<uint64_t> ids_;
};

}  // namespace telemetry
}  // namespace aquila

#endif  // AQUILA_SRC_TELEMETRY_METRICS_H_
