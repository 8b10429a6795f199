// Latency measurement into registry histograms.
//
// Two timebases:
//   - RecordSpanSince() : simulated cycles from a SimClock — the runtime's
//                         native latency unit (device waits, trap costs and
//                         queueing all land in it). Non-RAII, for paths with
//                         multiple classified exits (the fault handler
//                         doesn't know whether a fault is major or minor
//                         until it returns); also emits the matching trace
//                         event when tracing is armed.
//   - ScopedTscTimer    : real TSC cycles (ReadCyclesFenced) — for software
//                         paths executed for real that have no SimClock in
//                         scope (e.g. dirty-tree spinlock sections).
//
// Both compile to nothing when AQUILA_TELEMETRY_ENABLED=0, so hot paths
// carry zero cost in the OFF configuration.
#ifndef AQUILA_SRC_TELEMETRY_SCOPED_TIMER_H_
#define AQUILA_SRC_TELEMETRY_SCOPED_TIMER_H_

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry_config.h"
#include "src/telemetry/trace.h"
#include "src/util/cpu.h"
#include "src/util/histogram.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace telemetry {

class ScopedTscTimer {
 public:
#if AQUILA_TELEMETRY_ENABLED
  explicit ScopedTscTimer(Histogram* histogram)
      : histogram_(histogram), start_(ReadCyclesFenced()) {}
  ~ScopedTscTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(ReadCyclesFenced() - start_);
    }
  }

 private:
  Histogram* histogram_;
  uint64_t start_;
#else
  explicit ScopedTscTimer(Histogram*) {}
#endif

 public:
  ScopedTscTimer(const ScopedTscTimer&) = delete;
  ScopedTscTimer& operator=(const ScopedTscTimer&) = delete;
};

// Records `clock.Now() - start` into `histogram` and, when tracing is
// armed, a matching trace event. For paths that classify the span only at
// exit; `start` should be a clock.Now() captured at entry.
inline void RecordSpanSince(Histogram* histogram, TraceEventType type, const SimClock& clock,
                            uint64_t start, uint64_t arg = 0) {
#if AQUILA_TELEMETRY_ENABLED
  uint64_t duration = clock.Now() - start;
  if (histogram != nullptr) {
    histogram->Record(duration);
  }
  if (Tracer::Enabled()) {
    Tracer::Record(type, start, duration, arg);
  }
#else
  (void)histogram;
  (void)type;
  (void)clock;
  (void)start;
  (void)arg;
#endif
}

}  // namespace telemetry
}  // namespace aquila

#endif  // AQUILA_SRC_TELEMETRY_SCOPED_TIMER_H_
