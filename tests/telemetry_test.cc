// Tests for src/telemetry: registry metrics and exposition, callback
// aggregation + RAII lifetime, scoped timers, and an end-to-end check that
// one registry snapshot covers every instrumented subsystem.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "src/blob/blob_namespace.h"
#include "src/core/aquila.h"
#include "src/core/backing.h"
#include "src/kvs/block_cache.h"
#include "src/kvs/env.h"
#include "src/kvs/lsm_db.h"
#include "src/storage/pmem_device.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/scoped_timer.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace {

using telemetry::MetricKind;
using telemetry::Registry;

// --- MetricsRegistry ------------------------------------------------------------

TEST(MetricsRegistryTest, CounterAddAndSnapshot) {
  telemetry::Counter* counter = Registry().GetCounter("aquila.test.reg_counter");
  // Get-or-create: the same name yields the same stable pointer.
  EXPECT_EQ(counter, Registry().GetCounter("aquila.test.reg_counter"));
  counter->Reset();
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42u);

  telemetry::MetricsSnapshot snap = Registry().Snapshot();
  const telemetry::MetricSample* sample = snap.Find("aquila.test.reg_counter");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, MetricKind::kCounter);
  EXPECT_EQ(sample->value, 42u);
}

TEST(MetricsRegistryTest, ToTextAndToJsonRenderMetrics) {
  Registry().GetCounter("aquila.test.expo_counter")->Reset();
  Registry().GetCounter("aquila.test.expo_counter")->Add(7);
  Histogram* hist = Registry().GetHistogram("aquila.test.expo_hist");
  hist->Reset();
  hist->Record(100);

  std::string text = Registry().ToText();
  EXPECT_NE(text.find("# TYPE aquila_test_expo_counter counter"), std::string::npos);
  EXPECT_NE(text.find("aquila_test_expo_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aquila_test_expo_hist summary"), std::string::npos);
  EXPECT_NE(text.find("aquila_test_expo_hist_count 1"), std::string::npos);

  std::string json = Registry().ToJson();
  EXPECT_NE(json.find("\"aquila.test.expo_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"aquila.test.expo_hist\":{\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// Validates the Prometheus exposition format line by line: every series is
// introduced by a `# HELP` comment (carrying the original dotted name, which
// the '.' -> '_' mapping loses) followed by `# TYPE`, then only sample lines
// for that series until the next HELP. A scraper that trips over a stray
// line rejects the whole scrape, so the shape is a contract.
TEST(MetricsRegistryTest, ToTextExpositionFormatIsWellFormed) {
  Registry().GetCounter("aquila.test.fmt_counter")->Reset();
  Registry().GetCounter("aquila.test.fmt_counter")->Add(3);
  Histogram* hist = Registry().GetHistogram("aquila.test.fmt_hist");
  hist->Reset();
  hist->Record(100);
  uint64_t live = 11;
  telemetry::CallbackGroup group;
  group.AddGauge("aquila.test.fmt_gauge", [&live] { return live; });

  const std::string text = Registry().ToText();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  std::vector<std::string> lines;
  for (size_t pos = 0; pos < text.size();) {
    size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }

  std::string current;  // prom name introduced by the last HELP
  bool expect_type = false;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      ASSERT_FALSE(expect_type) << "HELP not followed by TYPE: " << line;
      current = line.substr(7, line.find(' ', 7) - 7);
      // The help text names the dotted original: aquila_x_y <- aquila.x.y.
      std::string dotted = current;
      for (char& c : dotted) {
        if (c == '_') {
          c = '.';
        }
      }
      EXPECT_NE(line.find("Aquila metric "), std::string::npos) << line;
      expect_type = true;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(expect_type) << "TYPE without preceding HELP: " << line;
      expect_type = false;
      const std::string rest = line.substr(7);
      ASSERT_EQ(rest.rfind(current + " ", 0), 0u)
          << "TYPE for " << rest << " under HELP for " << current;
      const std::string type = rest.substr(current.size() + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary") << line;
    } else {
      ASSERT_FALSE(expect_type) << "sample line between HELP and TYPE: " << line;
      ASSERT_FALSE(current.empty()) << "sample line before any HELP: " << line;
      // Sample lines belong to the current series: name, name{quantile=...},
      // name_sum or name_count, then a space and the value.
      ASSERT_EQ(line.rfind(current, 0), 0u) << line << " under series " << current;
      const char next = line[current.size()];
      EXPECT_TRUE(next == ' ' || next == '{' || next == '_') << line;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos);
      for (size_t i = space + 1; i < line.size(); i++) {
        EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
      }
    }
  }
  EXPECT_FALSE(expect_type) << "dangling HELP at end of exposition";

  // The three flavors registered above rendered with the right types.
  EXPECT_NE(text.find("# HELP aquila_test_fmt_counter Aquila metric "
                      "aquila.test.fmt_counter (monotonic counter).\n"
                      "# TYPE aquila_test_fmt_counter counter\n"
                      "aquila_test_fmt_counter 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP aquila_test_fmt_gauge Aquila metric "
                      "aquila.test.fmt_gauge (point-in-time gauge).\n"
                      "# TYPE aquila_test_fmt_gauge gauge\n"
                      "aquila_test_fmt_gauge 11\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP aquila_test_fmt_hist Aquila metric "
                      "aquila.test.fmt_hist (latency summary, simulated cycles).\n"
                      "# TYPE aquila_test_fmt_hist summary\n"
                      "aquila_test_fmt_hist{quantile=\"0.5\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("aquila_test_fmt_hist_sum 100\naquila_test_fmt_hist_count 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, SameNameCallbacksAreSummed) {
  std::atomic<uint64_t> a{10};
  std::atomic<uint64_t> b{32};
  {
    telemetry::CallbackGroup group_a;
    telemetry::CallbackGroup group_b;
    group_a.AddCounter("aquila.test.summed_counter", a);
    group_b.AddCounter("aquila.test.summed_counter", b);
    const telemetry::MetricsSnapshot snap = Registry().Snapshot();
    const telemetry::MetricSample* sample = snap.Find("aquila.test.summed_counter");
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->value, 42u);
  }
  // Group destruction unregisters: the name disappears from snapshots.
  EXPECT_EQ(Registry().Snapshot().Find("aquila.test.summed_counter"), nullptr);
}

TEST(MetricsRegistryTest, GaugeCallbackReadsLiveValue) {
  uint64_t live = 5;
  telemetry::CallbackGroup group;
  group.AddGauge("aquila.test.live_gauge", [&live] { return live; });
  ASSERT_NE(Registry().Snapshot().Find("aquila.test.live_gauge"), nullptr);
  EXPECT_EQ(Registry().Snapshot().Find("aquila.test.live_gauge")->value, 5u);
  live = 9;
  EXPECT_EQ(Registry().Snapshot().Find("aquila.test.live_gauge")->value, 9u);
}

TEST(MetricsRegistryTest, ValidNameEnforcesConvention) {
  EXPECT_TRUE(telemetry::MetricsRegistry::ValidName("aquila.core.major_faults"));
  EXPECT_TRUE(telemetry::MetricsRegistry::ValidName("aquila.cache.dirty_insert_tsc"));
  EXPECT_TRUE(telemetry::MetricsRegistry::ValidName("aquila.kvs.block_cache_hits"));
  EXPECT_FALSE(telemetry::MetricsRegistry::ValidName("aquila.core"));        // two segments
  EXPECT_FALSE(telemetry::MetricsRegistry::ValidName("core.major_faults"));  // wrong root
  EXPECT_FALSE(telemetry::MetricsRegistry::ValidName("aquila.Core.faults")); // uppercase
  EXPECT_FALSE(telemetry::MetricsRegistry::ValidName("aquila..faults"));     // empty segment
  EXPECT_FALSE(telemetry::MetricsRegistry::ValidName(""));
}

TEST(MetricsRegistryTest, ResetOwnedZeroesCountersAndHistograms) {
  telemetry::Counter* counter = Registry().GetCounter("aquila.test.reset_counter");
  Histogram* hist = Registry().GetHistogram("aquila.test.reset_hist");
  counter->Add(3);
  hist->Record(50);
  Registry().ResetOwned();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(hist->Count(), 0u);
}

// --- Scoped timers --------------------------------------------------------------

TEST(ScopedTimerTest, TscTimerRecordsSomething) {
  Histogram* hist = Registry().GetHistogram("aquila.test.tsc_cycles");
  hist->Reset();
  {
    telemetry::ScopedTscTimer timer(hist);
  }
  EXPECT_EQ(hist->Count(), 1u);
}

TEST(ScopedTimerTest, RecordSpanSinceRecordsHistogram) {
  Histogram* hist = Registry().GetHistogram("aquila.test.span_cycles");
  hist->Reset();
  SimClock clock;
  const uint64_t start = clock.Now();
  clock.Charge(CostCategory::kUserWork, 250);
  telemetry::RecordSpanSince(hist, clock, start);
  EXPECT_EQ(hist->Count(), 1u);
  EXPECT_EQ(hist->Max(), 250u);
}

// --- End-to-end coverage --------------------------------------------------------

// Exercises the full runtime (faults, evictions, device I/O, TLB, KVS) and
// asserts ONE exposition call reports metrics from every major subsystem.
TEST(TelemetryCoverageTest, OneSnapshotCoversAllSubsystems) {
  // An Aquila runtime small enough that touching 8 MB forces evictions.
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 64ull << 20;
  auto device = std::make_unique<PmemDevice>(dev_options);

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 256ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  options.cache.capacity_pages = 1024;  // 4 MB cache
  options.cache.max_pages = 4096;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  auto runtime = std::make_unique<Aquila>(options);

  constexpr uint64_t kMapBytes = 16ull << 20;
  DeviceBacking backing(device.get(), 0, kMapBytes);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  for (uint64_t page = 0; page < (8ull << 20) / kPageSize; page++) {
    (*map)->TouchWrite(page * kPageSize);
  }
  (*map)->TouchRead(0);  // second touch of a resident page: TLB traffic
  ASSERT_TRUE(runtime->Unmap(*map).ok());

  // A small LSM store over a blobstore on a second device.
  PmemDevice::Options kvs_dev_options;
  kvs_dev_options.capacity_bytes = 256ull << 20;
  auto kvs_device = std::make_unique<PmemDevice>(kvs_dev_options);
  Blobstore::Options bs_options;
  bs_options.cluster_size = 64 * 1024;
  bs_options.metadata_bytes = 4ull << 20;
  auto store = Blobstore::Format(ThisVcpu(), kvs_device.get(), bs_options);
  ASSERT_TRUE(store.ok());
  BlobNamespace ns(store->get());
  KvsEnv::Options env_options;
  env_options.store = store->get();
  env_options.ns = &ns;
  env_options.read_path = ReadPath::kDirectIo;
  KvsEnv env(env_options);
  BlockCache cache(BlockCache::Options{});
  LsmDb::Options db_options;
  db_options.env = &env;
  db_options.block_cache = &cache;
  db_options.memtable_bytes = 64 * 1024;
  auto db = LsmDb::Open(db_options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  std::string value;
  bool found;
  ASSERT_TRUE((*db)->Get("key7", &value, &found).ok());

  // One exposition call; every subsystem must appear.
  std::string text = Registry().ToText();
  for (const char* needle : {
           "aquila_core_major_faults",     // core fault path
           "aquila_core_evicted_pages",    // core eviction path
           "aquila_cache_lookups",         // page cache
           "aquila_freelist_free_frames",  // freelist gauge
           "aquila_tlb_hits",              // TLB
           "aquila_clock_preempt_corrections",  // scope clock
           "aquila_vmx_ring0_exceptions",  // vCPU trap accounting
           "aquila_storage_reads",         // block devices
           "aquila_kvs_puts",              // LSM KV store
           "aquila_kvs_block_cache_hits",  // KVS block cache
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing metric: " << needle;
  }

  // And the instrumented paths actually fired.
  const telemetry::MetricsSnapshot snap = Registry().Snapshot();
  EXPECT_GT(snap.Find("aquila.core.major_faults")->value, 0u);
  EXPECT_GT(snap.Find("aquila.core.evicted_pages")->value, 0u);
  EXPECT_GT(snap.Find("aquila.storage.reads")->value, 0u);
  EXPECT_GT(snap.Find("aquila.kvs.puts")->value, 1999u);
  EXPECT_GT(snap.Find("aquila.core.fault_major_cycles")->digest.count, 0u);
  EXPECT_GT(snap.Find("aquila.storage.read_cycles")->digest.count, 0u);
}

}  // namespace
}  // namespace aquila
