// Tests for the Linux-mmap baseline simulator and its kmmap variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/linuxsim/linux_mmap.h"
#include "src/storage/pmem_device.h"

namespace aquila {
namespace {

class LinuxSimTest : public ::testing::Test {
 protected:
  LinuxSimTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = 64ull << 20;
    dev_options.copy_flavor = CopyFlavor::kPlain;  // kernel path: no SIMD
    device_ = std::make_unique<PmemDevice>(dev_options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, 32ull << 20);
    for (uint64_t i = 0; i < (32ull << 20); i += 4096) {
      device_->dax_base()[i] = static_cast<uint8_t>(i >> 12);
    }
  }

  std::unique_ptr<LinuxMmapEngine> MakeEngine(uint64_t cache_pages, bool kmmap = false) {
    if (kmmap) {
      return std::make_unique<LinuxMmapEngine>(LinuxMmapEngine::KmmapOptions(cache_pages));
    }
    LinuxMmapEngine::Options options;
    options.cache_pages = cache_pages;
    return std::make_unique<LinuxMmapEngine>(options);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
};

TEST_F(LinuxSimTest, FaultChargesRing3Trap) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  Vcpu& vcpu = ThisVcpu();
  uint64_t traps = vcpu.counters().ring3_traps;
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  EXPECT_EQ(vcpu.counters().ring3_traps, traps + 1);
  // Hit afterwards: free, no trap.
  EXPECT_FALSE((*map)->TouchRead(64).faulted);
  EXPECT_EQ(vcpu.counters().ring3_traps, traps + 1);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

TEST_F(LinuxSimTest, FaultReadAheadIs128K) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 4 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  // Linux mapped 32 pages: the next 31 accesses are hits.
  for (uint64_t p = 1; p < 32; p++) {
    EXPECT_FALSE((*map)->TouchRead(p * 4096).faulted) << p;
  }
  EXPECT_TRUE((*map)->TouchRead(32 * 4096).faulted);
  EXPECT_EQ(engine->stats().readahead_pages.load(), 31u * 2);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

TEST_F(LinuxSimTest, KmmapHasNoReadAhead) {
  auto engine = MakeEngine(1024, /*kmmap=*/true);
  EXPECT_STREQ(engine->name(), "kmmap");
  auto map = engine->Map(backing_.get(), 4 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  EXPECT_TRUE((*map)->TouchRead(4096).faulted);  // neighbor missed too
  EXPECT_EQ(engine->stats().readahead_pages.load(), 0u);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

// The rule AquilaMap::Write follows (DESIGN.md §8): a Write run covering a
// whole non-resident page faults it in from the run, with no device read
// and no read-ahead window; a partial run still reads around itself.
TEST_F(LinuxSimTest, WholePageWriteFaultReadsNothing) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 4 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  const uint64_t reads = device_->stats().reads.load();
  const std::vector<uint8_t> page(4096, 0x6B);
  ASSERT_TRUE((*map)->Write(8 * 4096, std::span<const uint8_t>(page)).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads);
  EXPECT_EQ(engine->stats().major_faults.load(), 1u);
  EXPECT_EQ(engine->stats().readahead_pages.load(), 0u);
  EXPECT_EQ((*map)->LoadValue<uint8_t>(8 * 4096 + 4095), 0x6B);

  ASSERT_TRUE((*map)->Write(64 * 4096 + 1, std::span<const uint8_t>(page.data(), 4095)).ok());
  EXPECT_GT(device_->stats().reads.load(), reads);
  EXPECT_EQ((*map)->LoadValue<uint8_t>(64 * 4096), 64);  // the device's stamp
  EXPECT_EQ((*map)->LoadValue<uint8_t>(64 * 4096 + 1), 0x6B);
  ASSERT_TRUE(engine->Unmap(*map).ok());
  EXPECT_EQ(device_->dax_base()[8 * 4096], 0x6B);
}

TEST_F(LinuxSimTest, DirtyMarkingTakesFaultThroughTreeLock) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchRead(0);  // resident + clean
  Vcpu& vcpu = ThisVcpu();
  uint64_t traps = vcpu.counters().ring3_traps;
  EXPECT_TRUE((*map)->TouchWrite(0).faulted);  // dirty-marking fault
  EXPECT_EQ(vcpu.counters().ring3_traps, traps + 1);
  EXPECT_EQ(engine->stats().dirty_marks.load(), 1u);
  EXPECT_FALSE((*map)->TouchWrite(8).faulted);  // now writable: free
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

TEST_F(LinuxSimTest, MsyncWritesBack) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> data(4096, 0xED);
  ASSERT_TRUE((*map)->Write(3 * 4096, std::span<const uint8_t>(data)).ok());
  EXPECT_NE(device_->dax_base()[3 * 4096], 0xED);
  ASSERT_TRUE((*map)->Sync(0, 1 << 20).ok());
  EXPECT_EQ(device_->dax_base()[3 * 4096], 0xED);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

// msync(MS_ASYNC) as Linux has done it since 2.6.19: the syscall, nothing
// else. The page stays dirty and the device untouched.
TEST_F(LinuxSimTest, WriteBackAdviceOnlyChargesTheSyscall) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> data(4096, 0xED);
  ASSERT_TRUE((*map)->Write(3 * 4096, std::span<const uint8_t>(data)).ok());
  Vcpu& vcpu = ThisVcpu();
  const Vcpu::Counters counters = vcpu.counters();
  const CostBreakdown before = vcpu.clock().Breakdown();
  const uint64_t start = vcpu.clock().Now();
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kWriteBack).ok());
  const CostBreakdown spent = vcpu.clock().Breakdown() - before;
  EXPECT_EQ(vcpu.counters().syscalls, counters.syscalls + 1);
  EXPECT_EQ(vcpu.counters().ring3_traps, counters.ring3_traps);
  EXPECT_EQ(vcpu.clock().Now() - start, spent[CostCategory::kSyscall]);
  EXPECT_EQ(engine->stats().writeback_pages.load(), 0u);
  EXPECT_NE(device_->dax_base()[3 * 4096], 0xED);
  ASSERT_TRUE((*map)->Sync(0, 1 << 20).ok());
  EXPECT_EQ(engine->stats().writeback_pages.load(), 1u);
  EXPECT_EQ(device_->dax_base()[3 * 4096], 0xED);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

TEST_F(LinuxSimTest, UnmapFlushesDirty) {
  auto engine = MakeEngine(1024);
  auto map = engine->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> data(4096, 0x3C);
  ASSERT_TRUE((*map)->Write(5 * 4096, std::span<const uint8_t>(data)).ok());
  ASSERT_TRUE(engine->Unmap(*map).ok());
  EXPECT_EQ(device_->dax_base()[5 * 4096], 0x3C);
  EXPECT_EQ(engine->resident_pages(), 0u);
}

TEST_F(LinuxSimTest, CgroupLimitForcesEviction) {
  auto engine = MakeEngine(64);  // 256 KB cache
  auto map = engine->Map(backing_.get(), 8 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  // Touch far more pages than fit.
  for (uint64_t p = 0; p < 512; p++) {
    (*map)->TouchWrite(p * 4096 + 128);
  }
  EXPECT_GT(engine->stats().evicted_pages.load(), 0u);
  EXPECT_LE(engine->resident_pages(), 64u);
  // Dirty evictions were written back: re-read sees the increments.
  std::vector<uint8_t> buf(1);
  ASSERT_TRUE((*map)->Read(128, std::span(buf)).ok());
  EXPECT_EQ(buf[0], 1u);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

TEST_F(LinuxSimTest, SharedTreeLockSerializesFaults) {
  // Two workers faulting the same file must queue on the same modeled tree
  // lock: their combined simulated fault time exceeds one worker's alone.
  auto engine = MakeEngine(4096);
  auto map = engine->Map(backing_.get(), 32 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  (*map)->Advise(0, 32 << 20, Advice::kRandom);  // disable readahead

  SimClock solo;
  {
    // Single worker baseline, measured via its own thread.
    std::thread t([&] {
      SimClock& clock = ThisThreadClock();
      uint64_t start = clock.Now();
      for (int i = 0; i < 400; i++) {
        (*map)->TouchRead(static_cast<uint64_t>(i) * 4096);
      }
      solo.Charge(CostCategory::kUserWork, clock.Now() - start);
    });
    t.join();
  }
  // 16 contenders: the per-file tree lock's serialized service alone
  // (16 x 400 x ~900 cycles) exceeds the solo runtime, so the slowest
  // worker must take much longer than solo regardless of interleaving.
  constexpr int kContenders = 16;
  std::vector<uint64_t> durations(kContenders);
  std::vector<std::thread> pool;
  for (int t = 0; t < kContenders; t++) {
    pool.emplace_back([&, t] {
      SimClock& clock = ThisThreadClock();
      uint64_t start = clock.Now();
      for (int i = 0; i < 400; i++) {
        (*map)->TouchRead((800 + static_cast<uint64_t>(t) * 400 + i) * 4096);
      }
      durations[t] = clock.Now() - start;
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  uint64_t max_duration = *std::max_element(durations.begin(), durations.end());
  // Under contention the slowest must take noticeably longer than solo.
  EXPECT_GT(max_duration, solo.Now() * 3 / 2);
  ASSERT_TRUE(engine->Unmap(*map).ok());
}

}  // namespace
}  // namespace aquila
