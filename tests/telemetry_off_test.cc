// Compiled with AQUILA_TELEMETRY_ENABLED=0 (see tests/CMakeLists.txt): the
// recording entry points in this translation unit must compile to no-ops
// while the registry/exposition API stays linkable and functional. This is
// the compile-level contract that lets AQUILA_TELEMETRY=OFF builds strip
// every hot-path recording without ifdefs at call sites.
#include <gtest/gtest.h>

#if AQUILA_TELEMETRY_ENABLED
#error "telemetry_off_test must be compiled with AQUILA_TELEMETRY_ENABLED=0"
#endif

#include <string>

#include "src/telemetry/metrics.h"
#include "src/telemetry/scoped_timer.h"
#include "src/telemetry/trace.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace {

using telemetry::Registry;
using telemetry::TraceEventType;
using telemetry::Tracer;

TEST(TelemetryOffTest, CounterAddIsNoOp) {
  telemetry::Counter* counter = Registry().GetCounter("aquila.test.off_counter");
  counter->Reset();
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 0u);
}

TEST(TelemetryOffTest, ScopedTimerRecordsNothing) {
  Histogram* hist = Registry().GetHistogram("aquila.test.off_timer");
  hist->Reset();
  SimClock clock;
  clock.Charge(CostCategory::kUserWork, 500);
  {
    telemetry::ScopedTscTimer tsc_timer(hist);
  }
  telemetry::RecordSpanSince(hist, TraceEventType::kMsync, clock, 0, 1);
  EXPECT_EQ(hist->Count(), 0u);
}

TEST(TelemetryOffTest, TraceSpanIsEmptyAndRecordsNothing) {
  Tracer::SetEnabled(true);
  Tracer::Reset();
  const uint64_t before = Tracer::TotalRecorded();
  SimClock clock;
  {
    telemetry::TraceSpan span(TraceEventType::kShootdown, clock, 7);
    clock.Charge(CostCategory::kUserWork, 100);
  }
  EXPECT_EQ(Tracer::TotalRecorded(), before);
  Tracer::SetEnabled(false);
  // The OFF-mode span carries no state.
  EXPECT_EQ(sizeof(telemetry::TraceSpan), 1u);
}

TEST(TelemetryOffTest, ExpositionStillWorks) {
  telemetry::CallbackGroup group;
  group.AddGauge("aquila.test.off_gauge", [] { return 11; });
  std::string text = Registry().ToText();
  EXPECT_NE(text.find("aquila_test_off_gauge 11"), std::string::npos);
  std::string json = Registry().ToJson();
  EXPECT_NE(json.find("\"aquila.test.off_gauge\":11"), std::string::npos);
}

}  // namespace
}  // namespace aquila
