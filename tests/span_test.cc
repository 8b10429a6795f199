// Tests for src/telemetry/span.h: request-scoped causal tracing.
//
// Covers the RAII span types (root/child linkage, nesting, thread-local
// context save/restore), cross-thread async completion accounting, the
// flight-recorder retention tiers, percentile attribution, the /slow and
// Chrome trace JSON shapes, and an end-to-end fault-path check that child phases tile each
// sampled request's wall time. The concurrency stress at the bottom is also
// built as span_test_tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/backing.h"
#include "src/storage/pmem_device.h"
#include "src/telemetry/span.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace {

using telemetry::ChildSpan;
using telemetry::PhaseAttribution;
using telemetry::RequestSpan;
using telemetry::SpanCollector;
using telemetry::SpanContext;
using telemetry::SpanOp;
using telemetry::SpanPhase;
using telemetry::SpanRecord;
using telemetry::SpanTree;

// Every test owns the global collector: sample everything on entry, restore
// the disabled default (and drop all state) on exit.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanCollector::Options options;
    options.sample_every = 1;
    SpanCollector::Global().Configure(options);
    SpanCollector::Global().Reset();
  }
  void TearDown() override {
    SpanCollector::Global().Configure(SpanCollector::Options{});
    SpanCollector::Global().Reset();
  }

  static const SpanRecord* FindRoot(const SpanTree& tree) {
    for (const SpanRecord& record : tree.spans) {
      if (record.parent_id == 0) {
        return &record;
      }
    }
    return nullptr;
  }

  // Brackets and braces outside strings balance, and no string is left open.
  static void ExpectBalancedJson(const std::string& json) {
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); i++) {
      const char c = json[i];
      if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
        in_string = !in_string;
      } else if (!in_string && (c == '{' || c == '[')) {
        depth++;
      } else if (!in_string && (c == '}' || c == ']')) {
        depth--;
        ASSERT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
  }
};

TEST_F(SpanTest, RootAndChildrenLinkAndTileWallTime) {
  SimClock clock;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor, 0xabc);
    ASSERT_TRUE(root.active());
    EXPECT_NE(telemetry::CurrentSpanContext().trace_id, 0u);
    {
      ChildSpan lookup(clock, SpanPhase::kCacheLookup);
      clock.Charge(CostCategory::kUserWork, 300);
    }
    {
      ChildSpan device(clock, SpanPhase::kDevice, 42);
      clock.Charge(CostCategory::kDeviceIo, 700);
    }
  }
  // Context restored once the root closes.
  EXPECT_EQ(telemetry::CurrentSpanContext().trace_id, 0u);
  ASSERT_EQ(SpanCollector::Global().finalized(), 1u);

  std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& tree = trees[0];
  EXPECT_EQ(tree.op, SpanOp::kFaultMajor);
  EXPECT_EQ(tree.wall_cycles, 1000u);
  EXPECT_EQ(tree.child_cycles, 1000u);  // the children tile the root exactly
  ASSERT_EQ(tree.spans.size(), 3u);

  const SpanRecord* root = FindRoot(tree);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span_id, tree.trace_id);  // root span id reuses the trace id
  EXPECT_EQ(root->arg, 0xabcu);
  for (const SpanRecord& record : tree.spans) {
    if (&record == root) {
      continue;
    }
    EXPECT_EQ(record.trace_id, tree.trace_id);
    EXPECT_EQ(record.parent_id, root->span_id);
  }
}

TEST_F(SpanTest, NestedChildrenBecomeGrandchildren) {
  SimClock clock;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor);
    {
      ChildSpan evict(clock, SpanPhase::kEvict);
      {
        ChildSpan writeback(clock, SpanPhase::kWriteback);
        clock.Charge(CostCategory::kDeviceIo, 200);
      }
      clock.Charge(CostCategory::kUserWork, 100);
    }
  }
  std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& tree = trees[0];
  ASSERT_EQ(tree.spans.size(), 3u);
  // Attribution uses DIRECT children only: the 300-cycle evict, not the
  // writeback nested within it (which would double-count).
  EXPECT_EQ(tree.wall_cycles, 300u);
  EXPECT_EQ(tree.child_cycles, 300u);

  const SpanRecord* root = FindRoot(tree);
  const SpanRecord* evict = nullptr;
  const SpanRecord* writeback = nullptr;
  for (const SpanRecord& record : tree.spans) {
    if (record.phase == SpanPhase::kEvict) {
      evict = &record;
    } else if (record.phase == SpanPhase::kWriteback) {
      writeback = &record;
    }
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(evict, nullptr);
  ASSERT_NE(writeback, nullptr);
  EXPECT_EQ(evict->parent_id, root->span_id);
  EXPECT_EQ(writeback->parent_id, evict->span_id);
  EXPECT_EQ(writeback->end_cycles - writeback->start_cycles, 200u);
}

TEST_F(SpanTest, NestedRequestSpanDegradesToChildRecord) {
  SimClock clock;
  {
    RequestSpan fault(clock, SpanOp::kFaultMajor);
    {
      // An msync issued while a sampled fault is open must not start a
      // second trace; it records as a child of the fault.
      RequestSpan msync(clock, SpanOp::kMsync);
      clock.Charge(CostCategory::kUserWork, 50);
    }
  }
  EXPECT_EQ(SpanCollector::Global().finalized(), 1u);
  std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_EQ(trees[0].spans.size(), 2u);
  const SpanRecord* root = FindRoot(trees[0]);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, SpanOp::kFaultMajor);
  const SpanRecord& inner = trees[0].spans[0];
  EXPECT_EQ(inner.phase, SpanPhase::kMsync);
  EXPECT_EQ(inner.parent_id, root->span_id);
}

TEST_F(SpanTest, AsyncCompletionOnAnotherThreadFinalizesTheTrace) {
  SimClock clock;
  SpanContext submitted;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor);
    ASSERT_TRUE(root.active());
    submitted = telemetry::CurrentSpanContext();
    SpanCollector::Global().NoteAsyncSubmitted(submitted.trace_id);
    clock.Charge(CostCategory::kUserWork, 100);
  }
  // Root closed, but the async child is still in flight: not finalized.
  EXPECT_EQ(SpanCollector::Global().finalized(), 0u);
  EXPECT_TRUE(SpanCollector::Global().RetainedTrees().empty());

  std::thread reaper([&submitted] {
    // The reaping thread has no span context of its own; causality rides
    // the explicit SpanContext captured at submit.
    EXPECT_EQ(telemetry::CurrentSpanContext().trace_id, 0u);
    SpanCollector::Global().CompleteAsync(submitted, SpanPhase::kDevice,
                                          /*start_cycles=*/40, /*end_cycles=*/90,
                                          /*arg=*/4096);
  });
  reaper.join();

  ASSERT_EQ(SpanCollector::Global().finalized(), 1u);
  std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_EQ(trees[0].spans.size(), 2u);
  const SpanRecord* root = FindRoot(trees[0]);
  const SpanRecord* device = nullptr;
  for (const SpanRecord& record : trees[0].spans) {
    if (record.phase == SpanPhase::kDevice) {
      device = &record;
    }
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(device, nullptr);
  EXPECT_EQ(device->parent_id, root->span_id);
  EXPECT_EQ(device->end_cycles - device->start_cycles, 50u);
  EXPECT_EQ(device->arg, 4096u);
}

TEST_F(SpanTest, DisabledSamplingMakesSpansFreeNoops) {
  SpanCollector::Global().Configure(SpanCollector::Options{});  // sample_every = 0
  SimClock clock;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor);
    EXPECT_FALSE(root.active());
    EXPECT_EQ(telemetry::CurrentSpanContext().trace_id, 0u);
    ChildSpan child(clock, SpanPhase::kDevice);
    clock.Charge(CostCategory::kUserWork, 100);
  }
  EXPECT_EQ(SpanCollector::Global().finalized(), 0u);
  EXPECT_TRUE(SpanCollector::Global().RetainedTrees().empty());
}

TEST_F(SpanTest, SampleEveryNAdmitsOneInN) {
  SpanCollector::Options options;
  options.sample_every = 4;
  SpanCollector::Global().Configure(options);
  SpanCollector::Global().Reset();  // also rewinds the sampling counter
  SimClock clock;
  int active = 0;
  for (int i = 0; i < 8; i++) {
    RequestSpan root(clock, SpanOp::kFaultMinor);
    clock.Charge(CostCategory::kUserWork, 10);
    active += root.active() ? 1 : 0;
  }
  EXPECT_EQ(active, 2);
  EXPECT_EQ(SpanCollector::Global().finalized(), 2u);
}

TEST_F(SpanTest, MaxActiveDropsNewTraces) {
  SpanCollector::Options options;
  options.sample_every = 1;
  options.max_active = 1;
  SpanCollector::Global().Configure(options);
  SpanCollector& collector = SpanCollector::Global();
  EXPECT_TRUE(collector.BeginTrace(collector.NextId()));
  EXPECT_FALSE(collector.BeginTrace(collector.NextId()));  // over the cap
}

TEST_F(SpanTest, AttributionReportsPercentileCohorts) {
  SpanCollector& collector = SpanCollector::Global();
  // 100 synthetic fault traces, wall = 1000..100000 cycles, each 60% device
  // and 40% fill-copy by construction.
  for (uint64_t i = 1; i <= 100; i++) {
    const uint64_t wall = i * 1000;
    const uint64_t trace_id = collector.NextId();
    ASSERT_TRUE(collector.BeginTrace(trace_id));
    SpanRecord device;
    device.trace_id = trace_id;
    device.span_id = collector.NextId();
    device.parent_id = trace_id;
    device.start_cycles = 0;
    device.end_cycles = wall * 6 / 10;
    device.phase = SpanPhase::kDevice;
    collector.Record(device);
    SpanRecord fill;
    fill.trace_id = trace_id;
    fill.span_id = collector.NextId();
    fill.parent_id = trace_id;
    fill.start_cycles = device.end_cycles;
    fill.end_cycles = wall;
    fill.phase = SpanPhase::kFillCopy;
    collector.Record(fill);
    SpanRecord root;
    root.trace_id = trace_id;
    root.span_id = trace_id;
    root.parent_id = 0;
    root.start_cycles = 0;
    root.end_cycles = wall;
    root.phase = SpanPhase::kFault;
    root.op = SpanOp::kFaultMajor;
    collector.CloseRoot(root);
  }

  PhaseAttribution p50;
  ASSERT_TRUE(collector.Attribution(SpanOp::kFaultMajor, 0.5, &p50));
  PhaseAttribution p99;
  ASSERT_TRUE(collector.Attribution(SpanOp::kFaultMajor, 0.99, &p99));
  EXPECT_GT(p99.wall_cycles, p50.wall_cycles);
  for (const PhaseAttribution* attribution : {&p50, &p99}) {
    EXPECT_NEAR(attribution->coverage, 1.0, 0.01);
    EXPECT_NEAR(attribution->fraction[static_cast<size_t>(SpanPhase::kDevice)], 0.6, 0.01);
    EXPECT_NEAR(attribution->fraction[static_cast<size_t>(SpanPhase::kFillCopy)], 0.4, 0.01);
  }
  // No msync traces were recorded.
  PhaseAttribution none;
  EXPECT_FALSE(collector.Attribution(SpanOp::kMsync, 0.5, &none));

  const std::string text = collector.AttributionText();
  EXPECT_NE(text.find("fault_major"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("device="), std::string::npos);
}

TEST_F(SpanTest, TopKRetainsTheSlowestTrees) {
  SpanCollector::Options options;
  options.sample_every = 1;
  options.top_k = 4;
  options.baseline_every = 0;  // isolate the top-K tier
  SpanCollector::Global().Configure(options);
  SimClock clock;
  for (uint64_t i = 1; i <= 20; i++) {
    RequestSpan root(clock, SpanOp::kFaultMinor);
    clock.Charge(CostCategory::kUserWork, i * 10);
  }
  std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 4u);
  // RetainedTrees sorts slowest-first; the four slowest requests survive.
  EXPECT_EQ(trees[0].wall_cycles, 200u);
  EXPECT_EQ(trees[3].wall_cycles, 170u);
}

TEST_F(SpanTest, SlowTracesJsonIsWellFormed) {
  SimClock clock;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor);
    ChildSpan device(clock, SpanPhase::kDevice);
    clock.Charge(CostCategory::kDeviceIo, 500);
  }
  const std::string json = SpanCollector::Global().SlowTracesJson();
  EXPECT_EQ(json.rfind("{\"attribution\":{", 0), 0u);
  EXPECT_NE(json.find("\"fault_major\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"slow\":["), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"device\""), std::string::npos);
  ExpectBalancedJson(json);
}

// One Chrome "X" event as ChromeTraceJson renders it.
struct ChromeEvent {
  std::string name;
  double ts = 0;
  double dur = 0;
  uint64_t tid = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

// Parses the "ph":"X" events out of a ChromeTraceJson document (flat
// events whose only nested object is "args").
std::vector<ChromeEvent> ParseChromeEvents(const std::string& json) {
  auto number_after = [&json](size_t from, const char* key) {
    const size_t at = json.find(key, from);
    return at == std::string::npos ? -1.0 : std::strtod(json.c_str() + at + std::strlen(key),
                                                         nullptr);
  };
  std::vector<ChromeEvent> events;
  for (size_t at = json.find("{\"name\":\""); at != std::string::npos;
       at = json.find("{\"name\":\"", at + 1)) {
    ChromeEvent event;
    const size_t name_begin = at + std::strlen("{\"name\":\"");
    event.name = json.substr(name_begin, json.find('"', name_begin) - name_begin);
    EXPECT_EQ(json.find("\"ph\":\"X\"", at), json.find("\"ph\":", at));
    event.ts = number_after(at, "\"ts\":");
    event.dur = number_after(at, "\"dur\":");
    event.tid = static_cast<uint64_t>(number_after(at, "\"tid\":"));
    event.span_id = static_cast<uint64_t>(number_after(at, "\"span_id\":"));
    event.parent_id = static_cast<uint64_t>(number_after(at, "\"parent_id\":"));
    events.push_back(event);
  }
  return events;
}

TEST_F(SpanTest, ChromeTraceJsonRendersEverySpanRecord) {
  SimClock clock;
  clock.Charge(CostCategory::kUserWork, 2401);
  SpanContext submitted;
  uint64_t root_end = 0;
  {
    RequestSpan root(clock, SpanOp::kFaultMajor);
    ASSERT_TRUE(root.active());
    {
      ChildSpan evict(clock, SpanPhase::kEvict);
      clock.Charge(CostCategory::kCacheMgmt, 101);
      {
        ChildSpan shootdown(clock, SpanPhase::kShootdown);
        clock.Charge(CostCategory::kTlbShootdown, 3333);
      }
      clock.Charge(CostCategory::kCacheMgmt, 7);
    }
    submitted = telemetry::CurrentSpanContext();
    SpanCollector::Global().NoteAsyncSubmitted(submitted.trace_id);
    clock.Charge(CostCategory::kUserWork, 59);
    root_end = clock.Now();
  }
  // The async device child completes on another thread and outlives the root.
  std::thread reaper([&submitted, root_end] {
    SpanCollector::Global().CompleteAsync(submitted, SpanPhase::kDevice, root_end - 50,
                                          root_end + 4800, /*arg=*/4096);
  });
  reaper.join();
  ASSERT_EQ(SpanCollector::Global().finalized(), 1u);

  const std::string json = SpanCollector::Global().ChromeTraceJson(/*cycles_per_us=*/2400);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  ExpectBalancedJson(json);

  const std::vector<ChromeEvent> events = ParseChromeEvents(json);
  const std::vector<SpanTree> trees = SpanCollector::Global().RetainedTrees();
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_EQ(events.size(), trees[0].spans.size());
  ASSERT_EQ(events.size(), 4u);
  std::vector<std::string> names;
  for (const ChromeEvent& event : events) {
    names.push_back(event.name);
    EXPECT_EQ(event.tid, submitted.trace_id);  // one row per request
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"device", "evict", "fault", "shootdown"}));

  // 2401 cycles at 2400 cycles/us: the root starts 1.000 us in.
  const auto root = std::find_if(events.begin(), events.end(),
                                 [](const ChromeEvent& e) { return e.parent_id == 0; });
  ASSERT_NE(root, events.end());
  EXPECT_EQ(root->name, "fault");
  EXPECT_DOUBLE_EQ(root->ts, 1.0);

  // Every synchronous child lies inside its parent's [ts, ts + dur].
  for (const ChromeEvent& child : events) {
    if (child.parent_id == 0 || child.name == "device") {
      continue;
    }
    const auto parent = std::find_if(events.begin(), events.end(), [&child](const ChromeEvent& e) {
      return e.span_id == child.parent_id;
    });
    ASSERT_NE(parent, events.end()) << child.name;
    EXPECT_GE(child.ts, parent->ts) << child.name;
    EXPECT_LE(child.ts + child.dur, parent->ts + parent->dur + 1e-9) << child.name;
    EXPECT_GT(child.dur, 0) << child.name;
  }
}

// End-to-end: drive the real fault path (including evictions and async
// writebacks) with 1-in-1 sampling and verify every retained request
// decomposes into child phases covering >= 90% of its wall time — the
// contract that makes the attribution trustworthy.
TEST_F(SpanTest, FaultPathChildPhasesTileWallTime) {
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 64ull << 20;
  auto device = std::make_unique<PmemDevice>(dev_options);

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 256ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  options.cache.capacity_pages = 512;  // 2 MB cache: 8 MB of touches must evict
  options.cache.max_pages = 2048;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  options.async_writeback = true;
  options.span_sample_every = 1;
  auto runtime = std::make_unique<Aquila>(options);

  constexpr uint64_t kMapBytes = 8ull << 20;
  DeviceBacking backing(device.get(), 0, kMapBytes);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  for (uint64_t page = 0; page < kMapBytes / kPageSize; page++) {
    (*map)->TouchWrite(page * kPageSize);
  }
  ASSERT_TRUE((*map)->Sync(0, kMapBytes).ok());
  ASSERT_TRUE(runtime->Unmap(*map).ok());

  SpanCollector& collector = SpanCollector::Global();
  EXPECT_GT(collector.finalized(), 1000u);  // every fault was sampled

  std::vector<SpanTree> trees = collector.RetainedTrees();
  ASSERT_FALSE(trees.empty());
  bool saw_fault = false;
  bool saw_msync = false;
  for (const SpanTree& tree : trees) {
    saw_fault = saw_fault || tree.op == SpanOp::kFaultMajor;
    saw_msync = saw_msync || tree.op == SpanOp::kMsync;
    if (tree.wall_cycles == 0) {
      continue;
    }
    const double coverage =
        static_cast<double>(tree.child_cycles) / static_cast<double>(tree.wall_cycles);
    EXPECT_GE(coverage, 0.9) << "op=" << SpanOpName(tree.op)
                             << " wall=" << tree.wall_cycles
                             << " children=" << tree.child_cycles;
    EXPECT_LE(coverage, 1.001);  // direct children never exceed the root
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_msync);

  PhaseAttribution p99;
  ASSERT_TRUE(collector.Attribution(SpanOp::kFaultMajor, 0.99, &p99));
  EXPECT_GE(p99.coverage, 0.9);
}

// Concurrent open/close/complete from many threads; run under TSan as
// span_test_tsan. Asserts only invariants that hold under any interleaving.
TEST_F(SpanTest, ConcurrentSpansAreRaceFree) {
  SpanCollector::Options options;
  options.sample_every = 2;
  options.max_active = 64;
  SpanCollector::Global().Configure(options);

  constexpr int kWorkers = 4;
  constexpr int kIters = 400;
  std::mutex pending_mu;
  std::vector<SpanContext> pending;
  std::atomic<bool> done{false};

  // A dedicated reaper completes async children for contexts submitted by
  // every worker — the cross-thread hop the engine performs in production.
  std::thread reaper([&] {
    while (true) {
      SpanContext ctx;
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        if (!pending.empty()) {
          ctx = pending.back();
          pending.pop_back();
        } else if (done.load(std::memory_order_acquire)) {
          return;
        }
      }
      if (ctx.trace_id != 0) {
        SpanCollector::Global().CompleteAsync(ctx, SpanPhase::kDevice, 0, 100, 0);
      } else {
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; w++) {
    workers.emplace_back([&, w] {
      SimClock clock;
      for (int i = 0; i < kIters; i++) {
        RequestSpan root(clock, w % 2 == 0 ? SpanOp::kFaultMajor : SpanOp::kFaultMinor);
        const SpanContext ctx = telemetry::CurrentSpanContext();
        if (ctx.trace_id != 0 && i % 4 == 0) {
          SpanCollector::Global().NoteAsyncSubmitted(ctx.trace_id);
          std::lock_guard<std::mutex> lock(pending_mu);
          pending.push_back(ctx);
        }
        {
          ChildSpan child(clock, SpanPhase::kCacheLookup);
          clock.Charge(CostCategory::kUserWork, 10 + i % 7);
        }
        if (i % 3 == 0) {
          ChildSpan child(clock, SpanPhase::kDevice);
          clock.Charge(CostCategory::kDeviceIo, 50);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  done.store(true, std::memory_order_release);
  reaper.join();

  // Exercise the readers concurrently-safe paths once everything settled.
  EXPECT_GT(SpanCollector::Global().finalized(), 0u);
  EXPECT_FALSE(SpanCollector::Global().RetainedTrees().empty());
  (void)SpanCollector::Global().SlowTracesJson();
}

}  // namespace
}  // namespace aquila
