// Request-scoped causal tracing: span trees over the mmio request lifecycle.
//
// A RequestSpan opens at fault (or msync) entry and closes when the request
// returns; ChildSpans opened while it is active record where the request's
// simulated cycles went (cache lookup, queue wait, device, fill copy,
// eviction, shootdown, ...) as a tree — parent ids link children to the
// scope that caused them, so one slow request decomposes into phases that
// sum to its wall time. Because the simulated clock only advances inside
// charged sections, child spans that wrap those sections tile the root
// almost exactly; the residue ("self" time) is untimed bookkeeping.
//
// Cross-thread causality: async writeback/fill submissions capture the
// submitting request's SpanContext into the engine slot that rides the
// DeviceQueue submission (user_data identifies the slot); when the
// completion is reaped — typically by a *different* faulting thread — the
// reaper records a kDevice child span [submit_at, ready_at] against the
// ORIGINATING trace. A trace therefore stays open after its root closes
// until every async child it submitted has completed (pending_async
// refcount), so the tree is whole even when the device work outlives the
// fault that caused it.
//
// Retention (the tail-latency flight recorder): every finalized trace lands
// in per-op attribution reservoirs (wall time + per-phase direct-child
// cycles) used for the "p99 faults spend X% in device" exposition; whole
// span trees are kept only for (a) the top-K slowest traces per op, (b)
// traces slower than the configured slow threshold, and (c) a 1-in-N
// sampled baseline — everything else is discarded after the attribution
// summary is updated, so memory stays bounded no matter the run length.
//
// Export: SlowTracesJson() serves the retained trees with their attribution
// (/slow); ChromeTraceJson() renders the same trees as Chrome trace events
// (/traces, and the AQUILA_TRACE=<path> file the benches write at exit).
//
// Sampling is off by default (Options::sample_every == 0): RequestSpan
// costs one relaxed atomic load and ChildSpan one thread-local read on the
// fault path. With AQUILA_TELEMETRY_ENABLED=0 both compile to empty
// objects; the collector keeps linking so exposition call sites work.
#ifndef AQUILA_SRC_TELEMETRY_SPAN_H_
#define AQUILA_SRC_TELEMETRY_SPAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry_config.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace telemetry {

// Phases a request decomposes into. Roots use kFault/kMsync; everything
// else is a child phase.
enum class SpanPhase : uint8_t {
  kFault = 0,    // root: one page fault (major/minor/upgrade via SpanOp)
  kMsync,        // root: one msync call
  kCacheLookup,  // hash lookup, frame pin, alloc, translation install
  kLockWait,     // spinning on a frame claim or entry lock
  kQueueWait,    // waiting out an in-flight fill/writeback completion
  kDevice,       // time on the storage medium (sync read, async [submit,ready])
  kFillCopy,     // fill publication: identity stores, PTE install, hash insert
  kEvict,        // one eviction batch (children: writeback/shootdown/device)
  kWriteback,    // writeback submission (sync: includes device time)
  kShootdown,    // TLB shootdown rounds
  kDirtyTrack,   // dirty-tree collect/classify, write-upgrade bookkeeping
  kReadahead,    // readahead window issue
  kWatchdog,     // device watchdog actions: timeout sweep, retry, hedge
  kPark,         // cooperative scheduler: request suspended at a wait point
  kResume,       // cooperative scheduler: parked request resumed
  kPhaseCount,
};
const char* SpanPhaseName(SpanPhase phase);

// Request types with independent flight-recorder retention.
enum class SpanOp : uint8_t {
  kFaultMajor = 0,
  kFaultMinor,
  kFaultUpgrade,
  kMsync,
  kOpCount,
};
const char* SpanOpName(SpanOp op);

// (trace, span) identity carried across thread hops. trace_id == 0 means
// "not sampled" everywhere.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0: this record is the root
  uint64_t start_cycles = 0;
  uint64_t end_cycles = 0;
  uint64_t arg = 0;  // phase-specific payload (vaddr, batch size, offset...)
  SpanPhase phase = SpanPhase::kFault;
  SpanOp op = SpanOp::kFaultMajor;  // meaningful on root records
  uint16_t core = 0;
};

// One finalized request: the root plus every child recorded before (and
// every async child completed after) the root closed.
struct SpanTree {
  uint64_t trace_id = 0;
  SpanOp op = SpanOp::kFaultMajor;
  uint64_t wall_cycles = 0;                      // root end - root start
  uint64_t child_cycles = 0;                     // sum of root's direct children
  std::vector<SpanRecord> spans;                 // completion order; root last
};

// Per-op percentile attribution: fraction of wall time per phase for the
// requests around a latency percentile.
struct PhaseAttribution {
  uint64_t wall_cycles = 0;  // the percentile's wall time
  double fraction[static_cast<size_t>(SpanPhase::kPhaseCount)] = {};
  double coverage = 0;  // sum of direct-child cycles / wall
};

class SpanCollector {
 public:
  struct Options {
    // 1-in-N request sampling; 0 disables span tracing entirely.
    uint32_t sample_every = 0;
    // Finalized traces at least this slow keep their whole tree.
    uint64_t slow_threshold_cycles = 0;
    // Slowest whole trees retained per op type.
    uint32_t top_k = 8;
    // 1-in-N finalized traces kept as a baseline tree regardless of speed.
    uint32_t baseline_every = 64;
    // Concurrently open traces; new roots are dropped (counted) beyond this.
    uint32_t max_active = 256;
    // Records per trace; further children are dropped (counted).
    uint32_t max_spans_per_trace = 512;
    // Threshold-retained trees kept (oldest evicted first).
    uint32_t max_slow = 64;
    // Attribution reservoir size per op.
    uint32_t max_attribution_samples = 2048;
  };

  // The process-wide collector every span records into.
  static SpanCollector& Global();

  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Configure(const Options& options);
  Options options() const;

  bool enabled() const { return sample_every_.load(std::memory_order_relaxed) != 0; }

  // 1-in-N sampling decision for a new request.
  bool ShouldSample();

  // Process-unique id for a new trace or span.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Opens a trace (the caller already holds its fresh trace id). Returns
  // false (trace dropped, caller records nothing) when max_active is hit.
  bool BeginTrace(uint64_t trace_id);

  // Appends one finished child record to its (still open) trace.
  void Record(const SpanRecord& record);

  // Closes the root: the trace finalizes now, or — when async children are
  // still in flight — as soon as the last one completes.
  void CloseRoot(const SpanRecord& root);

  // Async child accounting across thread hops. NoteAsyncSubmitted is called
  // under the submitting request's context (root still open); CompleteAsync
  // records the device-phase child on the reaping thread and finalizes the
  // trace if it was only waiting for this completion.
  void NoteAsyncSubmitted(uint64_t trace_id);
  void CompleteAsync(const SpanContext& parent, SpanPhase phase, uint64_t start_cycles,
                     uint64_t end_cycles, uint64_t arg);

  // --- Exposition -------------------------------------------------------------
  // Retained whole trees (top-K + slow + baseline), slowest first.
  std::vector<SpanTree> RetainedTrees() const;
  // Per-op p50/p99/p99.9 attribution from the reservoirs.
  bool Attribution(SpanOp op, double quantile, PhaseAttribution* out) const;
  // {"attribution": {...}, "slow": [tree, ...]} for the stats server.
  std::string SlowTracesJson() const;
  // Human-readable attribution table (bench end-of-run report).
  std::string AttributionText() const;
  // Chrome trace-event JSON ({"traceEvents":[...]}) of the retained trees,
  // loadable in Perfetto / chrome://tracing: one "ph":"X" event per record,
  // named by phase, with tid = trace id so each request gets its own row.
  // `cycles_per_us` converts simulated cycles to the format's microseconds
  // (pass GlobalCostModel().cycles_per_us).
  std::string ChromeTraceJson(uint64_t cycles_per_us) const;

  uint64_t finalized() const { return finalized_count_.load(std::memory_order_relaxed); }

  // Drops all state (tests / bench phase boundaries); keeps configuration.
  void Reset();

 private:
  struct ActiveTrace {
    std::vector<SpanRecord> spans;
    uint32_t pending_async = 0;
    bool root_closed = false;
    bool overflowed = false;  // hit max_spans_per_trace
  };

  struct AttributionSample {
    uint64_t wall = 0;
    uint64_t child_total = 0;
    uint64_t phase_cycles[static_cast<size_t>(SpanPhase::kPhaseCount)] = {};
  };

  struct OpState {
    std::vector<SpanTree> top;              // min-first by wall (top-K slowest)
    std::vector<AttributionSample> samples; // bounded reservoir
    uint64_t sample_seen = 0;               // reservoir admission counter
  };

  void FinalizeLocked(uint64_t trace_id, ActiveTrace&& trace);
  static AttributionSample Summarize(const SpanTree& tree);

  mutable std::mutex mu_;
  Options options_;                                        // guarded by mu_
  std::unordered_map<uint64_t, ActiveTrace> active_;       // guarded by mu_
  OpState ops_[static_cast<size_t>(SpanOp::kOpCount)];     // guarded by mu_
  std::deque<SpanTree> slow_;                              // guarded by mu_
  std::deque<SpanTree> baseline_;                          // guarded by mu_
  uint64_t baseline_counter_ = 0;                          // guarded by mu_
  uint64_t reservoir_rng_ = 0x9e3779b97f4a7c15ull;         // guarded by mu_

  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> finalized_count_{0};

  // Owned counters (registry-backed): started/finalized/dropped feed the
  // /metrics view and REQUIRED_NAMES.
  Counter* started_;
  Counter* finalized_;
  Counter* dropped_;
  Counter* retained_;
};

#if AQUILA_TELEMETRY_ENABLED

// The calling thread's current span context ({0,0} outside any sampled
// request). Captured by async submitters; restored by the RAII types below.
const SpanContext& CurrentSpanContext();

// Root span: samples, opens the trace, and makes itself the thread's
// current context for the request's duration. Op is classified at exit
// (a fault only learns major/minor/upgrade when it returns).
class RequestSpan {
 public:
  RequestSpan(const SimClock& clock, SpanOp op, uint64_t arg = 0);
  ~RequestSpan();

  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

  bool active() const { return active_; }
  void set_op(SpanOp op) { op_ = op; }
  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const SimClock* clock_;
  uint64_t start_ = 0;
  uint64_t arg_ = 0;
  SpanOp op_;
  SpanContext ctx_;
  SpanContext saved_;
  bool active_ = false;
  bool nested_ = false;  // opened inside another sampled request: plain child
};

// Child span: no-op unless the thread is inside a sampled request. Nests —
// children opened within become grandchildren of the enclosing span.
class ChildSpan {
 public:
  ChildSpan(const SimClock& clock, SpanPhase phase, uint64_t arg = 0);
  ~ChildSpan();

  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const SimClock* clock_;
  uint64_t start_ = 0;
  uint64_t arg_ = 0;
  SpanPhase phase_;
  SpanContext ctx_;
  SpanContext saved_;
  bool active_ = false;
};

#else  // !AQUILA_TELEMETRY_ENABLED

inline const SpanContext& CurrentSpanContext() {
  static const SpanContext kNone;
  return kNone;
}

class RequestSpan {
 public:
  RequestSpan(const SimClock&, SpanOp, uint64_t = 0) {}
  bool active() const { return false; }
  void set_op(SpanOp) {}
  void set_arg(uint64_t) {}

  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;
};

class ChildSpan {
 public:
  ChildSpan(const SimClock&, SpanPhase, uint64_t = 0) {}
  void set_arg(uint64_t) {}

  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;
};

#endif  // AQUILA_TELEMETRY_ENABLED

}  // namespace telemetry
}  // namespace aquila

#endif  // AQUILA_SRC_TELEMETRY_SPAN_H_
