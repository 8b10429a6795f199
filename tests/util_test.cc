// Unit tests for src/util: histogram, RNG distributions, simulated clocks,
// serialized resources, bit helpers, sharded counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "src/util/bitops.h"
#include "src/util/crc32c.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/sharded_counter.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace {

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 §B.4 test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char* data = "memory-mapped I/O on steroids";
  size_t len = std::strlen(data);
  uint32_t one_shot = Crc32c(data, len);
  for (size_t split = 0; split <= len; split++) {
    uint32_t crc = Crc32cExtend(0, data, split);
    crc = Crc32cExtend(crc, data + split, len - split);
    EXPECT_EQ(crc, one_shot) << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::vector<uint8_t> buf(64, 0xA5);
  uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); i++) {
    buf[i] ^= 0x01;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << i;
    buf[i] ^= 0x01;
  }
}

TEST(BitopsTest, AlignmentHelpers) {
  EXPECT_EQ(AlignUp(1, 4096), 4096u);
  EXPECT_EQ(AlignUp(4096, 4096), 4096u);
  EXPECT_EQ(AlignDown(4097, 4096), 4096u);
  EXPECT_TRUE(IsAligned(8192, 4096));
  EXPECT_FALSE(IsAligned(8191, 4096));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(96));
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(PageIndex(8192 + 17), 2u);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Bucketed percentiles have ~6% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 40.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 70.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Max(), 1000000u);
  EXPECT_EQ(a.Min(), 10u);
}

TEST(HistogramTest, ConcurrentRecording) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; i++) {
        h.Record(100);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Count(), 40000u);
}

// Record writes only the calling core's shard; every read folds the shards.
// 8 threads on distinct cores plus one unregistered thread (the last shard)
// record into one histogram at once; once they join, every statistic must
// equal a single-threaded reference fed the same values, and so must a Merge
// of it, and a Reset must leave it empty.
TEST(HistogramTest, ShardedRecordingFoldsExactly) {
  constexpr int kRegistered = 8;
  constexpr uint64_t kPerThread = 20000;
  auto value = [](int t, uint64_t i) {
    return (i * 7919 + static_cast<uint64_t>(t) * 104729) % 3000000 + static_cast<uint64_t>(t);
  };
  Histogram shared;
  std::vector<std::thread> threads;
  for (int t = 0; t <= kRegistered; t++) {
    threads.emplace_back([&shared, &value, t] {
      if (t < kRegistered) {
        CoreRegistry::SetCurrentCoreForTest(t);
      }
      for (uint64_t i = 0; i < kPerThread; i++) {
        shared.Record(value(t, i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  Histogram reference;
  for (int t = 0; t <= kRegistered; t++) {
    for (uint64_t i = 0; i < kPerThread; i++) {
      reference.Record(value(t, i));
    }
  }
  auto expect_equal = [&reference](const Histogram& h) {
    EXPECT_EQ(h.Count(), reference.Count());
    EXPECT_EQ(h.Sum(), reference.Sum());
    EXPECT_EQ(h.Min(), reference.Min());
    EXPECT_EQ(h.Max(), reference.Max());
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h.Percentile(q), reference.Percentile(q)) << q;
    }
  };
  EXPECT_EQ(shared.Count(), (kRegistered + 1) * kPerThread);
  expect_equal(shared);

  // Merge from another core into a histogram that already holds samples on
  // a third core's shard.
  Histogram merged;
  std::thread([&merged, &shared] {
    CoreRegistry::SetCurrentCoreForTest(11);
    merged.Record(5);
    CoreRegistry::SetCurrentCoreForTest(12);
    merged.Merge(shared);
  }).join();
  reference.Record(5);
  expect_equal(merged);

  shared.Reset();
  EXPECT_EQ(shared.Count(), 0u);
  EXPECT_EQ(shared.Sum(), 0u);
  EXPECT_EQ(shared.Min(), 0u);
  EXPECT_EQ(shared.Max(), 0u);
  EXPECT_EQ(shared.Percentile(0.5), 0u);
  shared.Record(42);
  EXPECT_EQ(shared.Count(), 1u);
  EXPECT_EQ(shared.Min(), 42u);
  EXPECT_EQ(shared.Max(), 42u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ZeroValueIsCounted) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(HistogramTest, MergeWithEmptyPreservesMinMax) {
  Histogram a, empty;
  a.Record(10);
  a.Record(500);
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 10u);
  EXPECT_EQ(a.Max(), 500u);
  // Merging into an empty histogram adopts the source's extremes.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_EQ(b.Min(), 10u);
  EXPECT_EQ(b.Max(), 500u);
}

TEST(HistogramTest, HugeValuesStayInRange) {
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(UINT64_MAX - 1);
  h.Record(1);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), UINT64_MAX);
  // Bucket midpoints near the top octave would overshoot the observed range
  // without clamping; every quantile must stay within [Min(), Max()].
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    uint64_t v = h.Percentile(q);
    EXPECT_GE(v, h.Min()) << q;
    EXPECT_LE(v, h.Max()) << q;
  }
}

TEST(HistogramTest, SumAndResetBehave) {
  Histogram h;
  h.Record(100);
  h.Record(250);
  EXPECT_EQ(h.Sum(), 350u);
  EXPECT_NEAR(h.Mean(), 175.0, 0.01);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  h.Record(7);
  EXPECT_EQ(h.Min(), 7u);
  EXPECT_EQ(h.Max(), 7u);
}

TEST(RngTest, UniformRange) {
  Rng rng(42);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Uniform(100), 100u);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(ZipfianTest, SkewTowardsHead) {
  ZipfianGenerator zipf(10000);
  uint64_t head = 0, total = 100000;
  for (uint64_t i = 0; i < total; i++) {
    if (zipf.Next() < 100) {
      head++;
    }
  }
  // With theta=0.99, the top 1% of items draws >40% of accesses.
  EXPECT_GT(head, total * 2 / 5);
}

TEST(ZipfianTest, StaysInRange) {
  ScrambledZipfianGenerator zipf(1000);
  for (int i = 0; i < 100000; i++) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(LatestTest, SkewsTowardsNewest) {
  LatestGenerator latest(10000);
  uint64_t recent = 0, total = 100000;
  for (uint64_t i = 0; i < total; i++) {
    if (latest.Next() >= 9900) {
      recent++;
    }
  }
  EXPECT_GT(recent, total * 2 / 5);
}

TEST(SimClockTest, ChargeAccumulates) {
  SimClock clock;
  clock.Charge(CostCategory::kTrap, 100);
  clock.Charge(CostCategory::kDeviceIo, 50);
  clock.Charge(CostCategory::kTrap, 25);
  EXPECT_EQ(clock.Now(), 175u);
  EXPECT_EQ(clock.Breakdown()[CostCategory::kTrap], 125u);
  EXPECT_EQ(clock.Breakdown()[CostCategory::kDeviceIo], 50u);
  EXPECT_EQ(clock.Breakdown().Total(), 175u);
}

TEST(SimClockTest, AdvanceToChargesIdle) {
  SimClock clock;
  clock.Charge(CostCategory::kUserWork, 100);
  clock.AdvanceTo(300);
  EXPECT_EQ(clock.Now(), 300u);
  EXPECT_EQ(clock.Breakdown()[CostCategory::kIdle], 200u);
  clock.AdvanceTo(50);  // in the past: no-op
  EXPECT_EQ(clock.Now(), 300u);
}

// --- ScopedMeasure -------------------------------------------------------------

uint64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// Burns `ns` of this thread's CPU time (not wall time: a preempted spin still
// does the full amount of work).
void SpinCpuNs(uint64_t ns) {
  uint64_t start = ThreadCpuNs();
  while (ThreadCpuNs() - start < ns) {
  }
}

constexpr uint64_t kCyclesPerUs = 2400;  // ScopedMeasure's 2.4 cycles/ns

TEST(ScopedMeasureTest, EmptyScopeChargesAtMost100Cycles) {
  std::vector<uint64_t> charges(10000);
  SimClock clock;
  for (uint64_t& charge : charges) {
    uint64_t before = clock.Now();
    { ScopedMeasure measure(clock, CostCategory::kCacheMgmt); }
    charge = clock.Now() - before;
  }
  std::nth_element(charges.begin(), charges.begin() + charges.size() / 2, charges.end());
  EXPECT_LE(charges[charges.size() / 2], 100u);
}

// A scope past the preemption-check threshold that stayed on-CPU charges its
// full duration: the correction removes off-CPU time, never real work.
// Retried because the spin itself may be descheduled on a loaded host.
TEST(ScopedMeasureTest, LongOnCpuScopeIsChargedInFull) {
  constexpr uint64_t kSpinUs = 200;
  uint64_t best = 0;
  for (int attempt = 0; attempt < 10 && best < kSpinUs * kCyclesPerUs * 9 / 10; attempt++) {
    SimClock clock;
    {
      ScopedMeasure measure(clock, CostCategory::kCacheMgmt);
      SpinCpuNs(kSpinUs * 1000);
    }
    best = std::max(best, clock.Breakdown()[CostCategory::kCacheMgmt]);
  }
  EXPECT_GE(best, kSpinUs * kCyclesPerUs * 9 / 10);
}

// A sleeping scope charges the CPU time its thread used, not the 2 ms it was
// away. The kernel's own sleep/wake path is that CPU time: 7-34 us of it per
// 2 ms nanosleep on a 4-vCPU x86-64 VM, so the bound is the thread's measured
// CPU time across the scope, not a fixed figure.
TEST(ScopedMeasureTest, DescheduledTimeIsNotCharged) {
  constexpr uint64_t kSleepUs = 2000;
  uint64_t corrections = PreemptCorrections();
  SimClock clock;
  uint64_t cpu_start = ThreadCpuNs();
  {
    ScopedMeasure measure(clock, CostCategory::kCacheMgmt);
    struct timespec sleep = {0, kSleepUs * 1000};
    nanosleep(&sleep, nullptr);
  }
  uint64_t cpu_ns = ThreadCpuNs() - cpu_start;
  uint64_t charged = clock.Breakdown()[CostCategory::kCacheMgmt];
  EXPECT_LE(charged, (cpu_ns + 1000) * kCyclesPerUs / 1000);  // 1 us of clock skew
  EXPECT_LT(charged, kSleepUs * kCyclesPerUs / 10);
  EXPECT_GT(PreemptCorrections(), corrections);
}

// Time a thread spends blocked between scopes is not the next long scope's
// to subtract, once any scope has ended in between (a checkpoint older than
// 1 ms is refreshed there).
TEST(ScopedMeasureTest, OffCpuTimeBetweenScopesIsNotSubtracted) {
  constexpr uint64_t kSpinUs = 200;
  uint64_t best = 0;
  for (int attempt = 0; attempt < 10 && best < kSpinUs * kCyclesPerUs * 9 / 10; attempt++) {
    SimClock clock;
    struct timespec sleep = {0, 2000000};  // 2 ms off-CPU, outside any scope
    nanosleep(&sleep, nullptr);
    { ScopedMeasure measure(clock, CostCategory::kPageTable); }
    {
      ScopedMeasure measure(clock, CostCategory::kCacheMgmt);
      SpinCpuNs(kSpinUs * 1000);
    }
    best = std::max(best, clock.Breakdown()[CostCategory::kCacheMgmt]);
  }
  EXPECT_GE(best, kSpinUs * kCyclesPerUs * 9 / 10);
}

TEST(ScopedMeasureTest, NestedScopesChargeTheirOwnIntervals) {
  constexpr uint64_t kOuterUs = 100;  // outside the inner scope
  constexpr uint64_t kInnerUs = 30;
  uint64_t outer = 0;
  uint64_t inner = 0;
  for (int attempt = 0; attempt < 10; attempt++) {
    SimClock clock;
    {
      ScopedMeasure outer_measure(clock, CostCategory::kPageTable);
      SpinCpuNs(kOuterUs / 2 * 1000);
      {
        ScopedMeasure inner_measure(clock, CostCategory::kCacheMgmt);
        SpinCpuNs(kInnerUs * 1000);
      }
      SpinCpuNs(kOuterUs / 2 * 1000);
    }
    outer = clock.Breakdown()[CostCategory::kPageTable];
    inner = clock.Breakdown()[CostCategory::kCacheMgmt];
    if (inner >= kInnerUs * kCyclesPerUs * 9 / 10 &&
        outer >= (kOuterUs + kInnerUs) * kCyclesPerUs * 9 / 10) {
      break;
    }
  }
  // The outer interval contains the inner one; each scope charges its own.
  EXPECT_GE(inner, kInnerUs * kCyclesPerUs * 9 / 10);
  EXPECT_GE(outer, (kOuterUs + kInnerUs) * kCyclesPerUs * 9 / 10);
  EXPECT_LT(inner, outer);
}

TEST(SerializedResourceTest, SequentialService) {
  SerializedResource res;
  SimClock a, b;
  res.Acquire(a, CostCategory::kDeviceIo, 100);
  EXPECT_EQ(a.Now(), 100u);
  // b arrives at t=0 but the server is busy until t=100.
  res.Acquire(b, CostCategory::kDeviceIo, 100);
  EXPECT_EQ(b.Now(), 200u);
  EXPECT_EQ(b.Breakdown()[CostCategory::kIdle], 100u);
  EXPECT_EQ(res.TotalQueueingCycles(), 100u);
  EXPECT_EQ(res.Acquisitions(), 2u);
}

TEST(SerializedResourceTest, ReserveDoesNotTouchClock) {
  SerializedResource res;
  uint64_t done1 = res.Reserve(0, 50);
  uint64_t done2 = res.Reserve(0, 50);
  EXPECT_EQ(done1, 50u);
  EXPECT_EQ(done2, 100u);
}

TEST(SerializedResourceTest, ConcurrentAcquisitionsSerialize) {
  SerializedResource res;
  constexpr int kThreads = 8;
  constexpr int kOps = 1000;
  std::vector<std::thread> threads;
  std::vector<uint64_t> finals(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&res, &finals, t] {
      SimClock clock;
      for (int i = 0; i < kOps; i++) {
        res.Acquire(clock, CostCategory::kDeviceIo, 10);
      }
      finals[t] = clock.Now();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Total service is serialized: the last finisher saw all 8*1000*10 cycles.
  uint64_t max_final = *std::max_element(finals.begin(), finals.end());
  EXPECT_EQ(max_final, static_cast<uint64_t>(kThreads) * kOps * 10);
  EXPECT_EQ(res.TotalServiceCycles(), static_cast<uint64_t>(kThreads) * kOps * 10);
}

TEST(CostBreakdownTest, Arithmetic) {
  CostBreakdown a, b;
  a.cycles[0] = 100;
  b.cycles[0] = 30;
  CostBreakdown diff = a - b;
  EXPECT_EQ(diff.cycles[0], 70u);
  diff += b;
  EXPECT_EQ(diff.cycles[0], 100u);
}

TEST(ShardedCounterTest, WrappingCoreIdsGiveExactTotals) {
  // 8 threads cover core ids 0..31 (thread t runs as t, t+8, t+16, t+24), so
  // every one of the 16 shards is written by two cores, concurrently.
  constexpr int kThreads = 8;
  constexpr int kCores = 32;
  constexpr uint64_t kOpsPerCore = 20000;
  ShardedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&counter, t] {
      for (int core = t; core < kCores; core += kThreads) {
        CoreRegistry::SetCurrentCoreForTest(core);
        for (uint64_t i = 0; i < kOpsPerCore; i++) {
          counter.fetch_add(static_cast<uint64_t>(core) + 1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // sum over cores of (core + 1) = 32 * 33 / 2.
  EXPECT_EQ(counter.load(), kOpsPerCore * kCores * (kCores + 1) / 2);
}

TEST(ShardedCounterTest, GaugeAddedOnOneCoreAndSubtractedOnAnotherReturnsToZero) {
  ShardedCounter gauge;
  constexpr uint64_t kOps = 50000;
  auto run_on = [&gauge](int core, bool add) {
    return std::thread([&gauge, core, add] {
      CoreRegistry::SetCurrentCoreForTest(core);
      for (uint64_t i = 0; i < kOps; i++) {
        if (add) {
          gauge.fetch_add(1);
        } else {
          gauge.fetch_sub(1);
        }
      }
    });
  };
  // Subtracting first drives core 12's shard below zero: the modular sum
  // reads as -kOps.
  run_on(12, false).join();
  EXPECT_EQ(static_cast<int64_t>(gauge.load()), -static_cast<int64_t>(kOps));
  run_on(3, true).join();
  EXPECT_EQ(gauge.load(), 0u);
  // Concurrent adds and subtracts on different shards also cancel exactly.
  std::thread adder = run_on(5, true);
  std::thread subtracter = run_on(6, false);
  adder.join();
  subtracter.join();
  EXPECT_EQ(gauge.load(), 0u);
}

TEST(ShardedCounterTest, ShardsOccupyTheirOwnCacheLines) {
  EXPECT_EQ(alignof(ShardedCounter), static_cast<size_t>(kCacheLineSize));
  EXPECT_EQ(sizeof(ShardedCounter),
            static_cast<size_t>(ShardedCounter::kShards) * kCacheLineSize);
  // A plain field declared before a counter never shares its first line.
  struct Mixed {
    uint64_t read_mostly;
    ShardedCounter counter;
  };
  EXPECT_EQ(offsetof(Mixed, counter) % kCacheLineSize, 0u);
  EXPECT_GE(offsetof(Mixed, counter), static_cast<size_t>(kCacheLineSize));
}

}  // namespace
}  // namespace aquila
