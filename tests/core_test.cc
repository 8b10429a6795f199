// End-to-end tests for the Aquila runtime: mapping lifecycle, fault paths,
// dirty tracking, eviction + writeback, msync, madvise, mprotect, mremap,
// dynamic cache resizing, and multi-threaded integrity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/device_queue.h"
#include "src/storage/fault_device.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

class AquilaTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 64ull << 20;
  static constexpr uint64_t kCachePages = 1024;  // 4 MB cache

  AquilaTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = kDeviceBytes;
    device_ = std::make_unique<PmemDevice>(dev_options);
    runtime_ = std::make_unique<Aquila>(RuntimeOptions());
  }

  static Aquila::Options RuntimeOptions() {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages * 4;
    options.cache.eviction_batch = 64;  // scaled for small test caches
    options.cache.freelist.core_queue_threshold = 64;
    options.cache.freelist.move_batch = 32;
    return options;
  }

  // Fills device offset range with a deterministic pattern.
  void FillDevice(uint64_t offset, uint64_t bytes) {
    uint8_t* dax = device_->dax_base();
    for (uint64_t i = 0; i < bytes; i++) {
      dax[offset + i] = PatternAt(offset + i);
    }
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  // A backing over device_ that outlives the runtime: a failed ASSERT returns
  // with its mapping still installed, and ~Aquila writes back through it.
  DeviceBacking& NewBacking(uint64_t offset, uint64_t size) {
    return backings_.emplace_back(device_.get(), offset, size);
  }

  // Declaration order matters: the runtime is destroyed first.
  std::unique_ptr<PmemDevice> device_;
  std::deque<DeviceBacking> backings_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(AquilaTest, ReadSeesDeviceContents) {
  FillDevice(0, 1 << 20);
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> buf(10000);
  ASSERT_TRUE((*map)->Read(123456, std::span(buf)).ok());
  for (size_t i = 0; i < buf.size(); i++) {
    ASSERT_EQ(buf[i], PatternAt(123456 + i)) << i;
  }
  EXPECT_GT(runtime_->fault_stats().major_faults.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, HitsTakeNoFaultAndNoTransition) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);  // miss
  Vcpu& vcpu = ThisVcpu();
  uint64_t exceptions = vcpu.counters().ring0_exceptions;
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE((*map)->TouchRead(i * 8).faulted);  // hits within page 0
  }
  EXPECT_EQ(vcpu.counters().ring0_exceptions, exceptions);
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, AquilaFaultIsRing0NoVmexit) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  (*map)->TouchRead(0);  // warm the EPT chunk
  Vcpu& vcpu = ThisVcpu();
  uint64_t exceptions = vcpu.counters().ring0_exceptions;
  uint64_t traps = vcpu.counters().ring3_traps;
  uint64_t vmexits = vcpu.counters().vmexits;
  EXPECT_TRUE((*map)->TouchRead(kPageSize).faulted);  // a fresh miss
  EXPECT_EQ(vcpu.counters().ring0_exceptions, exceptions + 1);
  EXPECT_EQ(vcpu.counters().ring3_traps, traps);       // no domain switch
  EXPECT_EQ(vcpu.counters().vmexits, vmexits);         // no hypervisor
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, WriteFaultTracksDirtyAndMsyncPersists) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> out(kPageSize * 3, 0xAA);
  ASSERT_TRUE((*map)->Write(kPageSize, std::span<const uint8_t>(out)).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 3u);
  // Not yet on the device.
  EXPECT_NE(device_->dax_base()[kPageSize], 0xAA);
  ASSERT_TRUE((*map)->Sync(kPageSize, out.size()).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  EXPECT_EQ(device_->dax_base()[kPageSize], 0xAA);
  EXPECT_EQ(device_->dax_base()[kPageSize + out.size() - 1], 0xAA);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, ReadThenWriteTakesUpgradeFault) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);  // read fault: mapped read-only
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  uint64_t upgrades = runtime_->fault_stats().write_upgrades.load();
  EXPECT_TRUE((*map)->TouchWrite(0).faulted);  // write on RO page: upgrade fault
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  EXPECT_EQ(runtime_->fault_stats().write_upgrades.load(), upgrades + 1);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);
  // Second write: plain hit.
  EXPECT_FALSE((*map)->TouchWrite(8).faulted);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, MsyncAfterRewriteCatchesNewWrites) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  uint8_t after_first = device_->dax_base()[0];
  // msync write-protected the page: the next store must re-fault and re-dirty.
  uint64_t upgrades = runtime_->fault_stats().write_upgrades.load();
  EXPECT_TRUE((*map)->TouchWrite(0).faulted);
  EXPECT_EQ(runtime_->fault_stats().write_upgrades.load(), upgrades + 1);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(device_->dax_base()[0], static_cast<uint8_t>(after_first + 1));
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// The clock sweep claims a candidate (kEvicting) before it reads the
// referenced bit, and hands a referenced frame back resident, still dirty.
// msync has taken the page's dirty item out of the tree by then, so a claim
// that lands in that window must be waited out: skipping the frame would
// leave it dirty with no item, and no later msync would ever write it.
TEST_F(AquilaTest, SyncWaitsOutABriefEvictionClaimOnADirtyPage) {
  constexpr uint32_t kRounds = 2000;
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->StoreValue<uint32_t>(0, 0);
  const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
  const auto frame = static_cast<FrameId>(
      Pte::Gpa(runtime_->page_table().Lookup(start_page << kPageShift)) >> kPageShift);

  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    PageCache& cache = runtime_->cache();
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(cache.ClaimCandidate(frame));  // referenced: always handed back
      CpuRelax();
    }
  });
  uint32_t lost_at = 0;
  for (uint32_t round = 1; round <= kRounds && lost_at == 0; round++) {
    (*map)->StoreValue<uint32_t>(0, round);
    if (!(*map)->Sync(0, kPageSize).ok()) {
      lost_at = round;
      break;
    }
    uint32_t durable;
    std::memcpy(&durable, device_->dax_base(), sizeof(durable));
    if (durable != round) {
      lost_at = round;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  EXPECT_EQ(lost_at, 0u) << "msync left round " << lost_at << "'s store off the device";
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, EvictionPreservesDataIntegrity) {
  // Working set 4x the cache: every page round-trips through eviction.
  constexpr uint64_t kBytes = 16ull << 20;
  FillDevice(0, kBytes);
  DeviceBacking& backing = NewBacking(0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  // Pass 1: increment the first byte of every page.
  constexpr uint64_t kPages = kBytes / kPageSize;
  for (uint64_t p = 0; p < kPages; p++) {
    (*map)->TouchWrite(p * kPageSize);
  }
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().writeback_pages.load(), 0u);

  // Pass 2: verify every page saw exactly one increment (writebacks and
  // refetches preserved both the written byte and the rest of the page).
  for (uint64_t p = 0; p < kPages; p++) {
    uint64_t off = p * kPageSize;
    std::vector<uint8_t> buf(16);
    ASSERT_TRUE((*map)->Read(off, std::span(buf)).ok());
    ASSERT_EQ(buf[0], static_cast<uint8_t>(PatternAt(off) + 1)) << "page " << p;
    ASSERT_EQ(buf[1], PatternAt(off + 1)) << "page " << p;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, UnmapFlushesDirtyPages) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> out(kPageSize, 0x5C);
  ASSERT_TRUE((*map)->Write(7 * kPageSize, std::span<const uint8_t>(out)).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(device_->dax_base()[7 * kPageSize], 0x5C);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  // All frames returned.
  EXPECT_EQ(runtime_->cache().ApproxFreeFrames(), kCachePages);
}

// A thread that unmaps and exits must not strand its frames in its own
// core's queue, which no other core allocates from: the next mapping that
// needs the whole cache gets every frame without evicting.
TEST_F(AquilaTest, UnmapReturnsFramesToEveryCore) {
  const int main_core = CoreRegistry::CurrentCore();
  std::thread worker([&] {
    CoreRegistry::SetCurrentCoreForTest((main_core + 1) % CoreRegistry::kMaxCores);
    runtime_->EnterThread();
    DeviceBacking& backing = NewBacking(0, 1 << 20);
    StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
    ASSERT_TRUE(map.ok());
    for (uint64_t off = 0; off < (1 << 20); off += kPageSize) {
      (*map)->TouchRead(off);
    }
    ASSERT_TRUE(runtime_->Unmap(*map).ok());
  });
  worker.join();

  DeviceBacking& backing = NewBacking(8 << 20, kCachePages * kPageSize);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kCachePages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kCachePages * kPageSize, Advice::kRandom).ok());
  for (uint64_t p = 0; p < kCachePages; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  EXPECT_EQ(runtime_->fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Pay-as-you-go reclaim (DESIGN.md §5): once the cache has run dry, each
// fault reclaims a clean victim ahead of need into its core's pending
// batch, where the frame waits, out of the hash and unmapped, for the
// batch's one shootdown. A thread that refaults such a page must neither
// wait on the parked frame nor see anything but the device's bytes.
TEST_F(AquilaTest, RefaultFromOwnPendingBatchRereadsTheDevice) {
  FillDevice(0, 16 << 20);
  DeviceBacking& backing = NewBacking(0, 16 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 16 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 16 << 20, Advice::kRandom).ok());
  const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
  const int core = CoreRegistry::CurrentCore();
  // Fill the cache past capacity, then fault on until this core's pending
  // batch holds a victim (it flushes only at the start of a later fault).
  uint64_t next = 0;
  for (; next < 4 * kCachePages; next++) {
    (*map)->TouchRead(next * kPageSize);
    if (next > kCachePages && runtime_->PendingReclaimFrames(core) > 0) {
      break;
    }
  }
  ASSERT_GT(runtime_->PendingReclaimFrames(core), 0u);
  uint64_t victim = next;
  PageShootdown row;
  FrameId parked = kInvalidFrame;
  for (uint64_t p = 0; p < next && parked == kInvalidFrame; p++) {
    if (runtime_->FindPendingReclaim(start_page + p, &row, &parked)) {
      victim = p;
    }
  }
  ASSERT_NE(parked, kInvalidFrame);
  EXPECT_EQ(runtime_->cache().frame(parked).state.load(), FrameState::kEvicting);
  EXPECT_FALSE(Pte::Present(runtime_->page_table().Lookup((start_page + victim) << kPageShift)));

  uint64_t majors = runtime_->fault_stats().major_faults.load();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE((*map)->Read(victim * kPageSize, std::span(buf)).ok());
  for (uint64_t i = 0; i < kPageSize; i++) {
    ASSERT_EQ(buf[i], PatternAt(victim * kPageSize + i)) << i;
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors + 1);
  uint64_t pte = runtime_->page_table().Lookup((start_page + victim) << kPageShift);
  ASSERT_TRUE(Pte::Present(pte));
  EXPECT_NE(static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift), parked);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(runtime_->PendingReclaimFrames(), 0u);
  EXPECT_EQ(runtime_->cache().ApproxFreeFrames(), kCachePages);
}

// The twin of UnmapReturnsFramesToEveryCore for pending batches: threads
// never unregister, so a batch a thread left behind when it exited is
// reachable only by stealing. A dry allocation on another core must flush
// it (without falling back to a full eviction batch), and after Unmap every
// frame is free again.
TEST_F(AquilaTest, ExitedThreadsPendingBatchIsStolenByADryAllocator) {
  DeviceBacking& backing = NewBacking(0, 16 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 16 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 16 << 20, Advice::kRandom).ok());
  const int main_core = CoreRegistry::CurrentCore();
  const int worker_core = (main_core + 1) % CoreRegistry::kMaxCores;
  std::thread worker([&] {
    CoreRegistry::SetCurrentCoreForTest(worker_core);
    runtime_->EnterThread();
    for (uint64_t p = 0; p < 4 * kCachePages; p++) {
      (*map)->TouchRead(p * kPageSize);
      if (p > kCachePages && runtime_->PendingReclaimFrames(worker_core) > 0) {
        break;
      }
    }
  });
  worker.join();
  const uint64_t left_behind = runtime_->PendingReclaimFrames(worker_core);
  ASSERT_GT(left_behind, 0u);

  // Empty every queue this core can reach, so its next fault is dry.
  PageCache& cache = runtime_->cache();
  std::vector<FrameId> drained;
  for (FrameId f; (f = cache.AllocFrame(ThisVcpu(), main_core)) != kInvalidFrame;) {
    drained.push_back(f);
  }
  ASSERT_EQ(runtime_->PendingReclaimFrames(main_core), 0u);
  const uint64_t direct = runtime_->fault_stats().direct_reclaims.load();
  EXPECT_TRUE((*map)->TouchRead((4 * kCachePages - 1) * kPageSize).faulted);
  EXPECT_EQ(runtime_->PendingReclaimFrames(worker_core), 0u);
  EXPECT_EQ(runtime_->fault_stats().direct_reclaims.load(), direct);

  for (FrameId f : drained) {
    cache.FreeFrame(main_core, f);
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(runtime_->PendingReclaimFrames(), 0u);
  EXPECT_EQ(cache.ApproxFreeFrames(), kCachePages);
}

TEST_F(AquilaTest, SequentialAdviceTriggersReadAhead) {
  FillDevice(0, 1 << 20);
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  // Readahead fills publish when their completions are reaped; msync drains
  // the mapping's queue.
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_GT(runtime_->fault_stats().readahead_pages.load(), 0u);
  // The next pages are already cached: minor faults at most, no device read.
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  for (uint64_t p = 1; p <= runtime_->options().readahead_pages; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  EXPECT_GT(runtime_->fault_stats().minor_faults.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, DontNeedDropsPages) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);
  (*map)->TouchRead(kPageSize);
  ASSERT_TRUE((*map)->Advise(0, 2 * kPageSize, Advice::kDontNeed).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  // Dirty data was written back, not lost.
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  EXPECT_TRUE((*map)->TouchRead(0).faulted);  // faults again
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors + 1);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, MprotectBlocksWritesAndDowngrades) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  (*map)->TouchWrite(0);
  uint64_t shootdowns = runtime_->tlb().shootdowns();
  ASSERT_TRUE(amap->Protect(kProtRead).ok());
  EXPECT_GT(runtime_->tlb().shootdowns(), shootdowns);
  std::vector<uint8_t> buf(8, 1);
  EXPECT_FALSE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  EXPECT_TRUE((*map)->Read(0, std::span(buf)).ok());
  ASSERT_TRUE(amap->Protect(kProtRead | kProtWrite).ok());
  EXPECT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, RemapPreservesCachedData) {
  FillDevice(0, 2 << 20);
  DeviceBacking& backing = NewBacking(0, 2 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);  // dirty page carried across the remap
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  StatusOr<MemoryMap*> bigger = runtime_->Remap(*map, 2 << 20);
  ASSERT_TRUE(bigger.ok());
  EXPECT_EQ((*bigger)->length(), 2ull << 20);
  // Cached page moved, not refetched.
  std::vector<uint8_t> buf(4);
  ASSERT_TRUE((*bigger)->Read(0, std::span(buf)).ok());
  EXPECT_EQ(buf[0], static_cast<uint8_t>(PatternAt(0) + 1));
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  // The grown tail is reachable.
  ASSERT_TRUE((*bigger)->Read((2 << 20) - 16, std::span(buf)).ok());
  ASSERT_TRUE(runtime_->Unmap(*bigger).ok());
}

TEST_F(AquilaTest, MapValidation) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  EXPECT_FALSE(runtime_->Map(&backing, 0, kProtRead).ok());
  EXPECT_FALSE(runtime_->Map(&backing, 2 << 20, kProtRead).ok());  // beyond backing
  EXPECT_FALSE(runtime_->Map(&backing, 1 << 20, 0).ok());
  EXPECT_FALSE(runtime_->Unmap(reinterpret_cast<MemoryMap*>(&backing)).ok());
}

TEST_F(AquilaTest, AccessBeyondMappingRejected) {
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE((*map)->Read((1 << 20) - 8, std::span(buf)).ok());
  EXPECT_TRUE((*map)->Read((1 << 20) - 16, std::span(buf)).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, GrowAndShrinkCache) {
  uint64_t before = runtime_->cache().capacity_pages();
  ASSERT_TRUE(runtime_->GrowCache(4ull << 20).ok());
  EXPECT_EQ(runtime_->cache().capacity_pages(), before + 1024);
  StatusOr<uint64_t> shrunk = runtime_->ShrinkCache(4ull << 20);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(*shrunk, 4ull << 20);
  EXPECT_EQ(runtime_->cache().capacity_pages(), before);
}

TEST_F(AquilaTest, MultiThreadedSharedMapIntegrity) {
  // Many threads hammer a shared mapping 2x the cache size with writes to
  // thread-private slots and reads of a shared pattern.
  constexpr uint64_t kBytes = 8ull << 20;
  constexpr int kThreads = 8;
  FillDevice(0, kBytes);
  DeviceBacking& backing = NewBacking(0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  std::vector<std::thread> threads;
  std::atomic<bool> corrupt{false};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime_->EnterThread();
      Rng rng(t * 977 + 3);
      for (int i = 0; i < 4000; i++) {
        uint64_t page = rng.Uniform(kBytes / kPageSize);
        // Each thread owns byte `16 + t` of every page.
        uint64_t off = page * kPageSize + 16 + static_cast<uint64_t>(t);
        uint8_t value = static_cast<uint8_t>(t * 37 + (page & 0x3f));
        (*map)->StoreValue<uint8_t>(off, value);
        uint8_t read_back = (*map)->LoadValue<uint8_t>(off);
        if (read_back != value) {
          corrupt.store(true);
        }
        // Shared read-only byte retains the device pattern.
        uint8_t shared = (*map)->LoadValue<uint8_t>(page * kPageSize + 4000);
        if (shared != PatternAt(page * kPageSize + 4000)) {
          corrupt.store(true);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, BlobBackedMapping) {
  Blobstore::Options bs_options;
  bs_options.cluster_size = 64 * 1024;
  bs_options.metadata_bytes = 256 * 1024;
  Vcpu& vcpu = ThisVcpu();
  StatusOr<std::unique_ptr<Blobstore>> store =
      Blobstore::Format(vcpu, device_.get(), bs_options);
  ASSERT_TRUE(store.ok());
  StatusOr<BlobId> blob = (*store)->CreateBlob(16);  // 1 MB
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> init(1 << 20);
  for (size_t i = 0; i < init.size(); i++) {
    init[i] = static_cast<uint8_t>(i % 251);
  }
  ASSERT_TRUE((*store)->WriteBlob(vcpu, *blob, 0, std::span<const uint8_t>(init)).ok());

  BlobBacking backing(store->get(), *blob);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> buf(1000);
  ASSERT_TRUE((*map)->Read(500000, std::span(buf)).ok());
  for (size_t i = 0; i < buf.size(); i++) {
    ASSERT_EQ(buf[i], static_cast<uint8_t>((500000 + i) % 251));
  }
  std::vector<uint8_t> out(kPageSize, 0x99);
  ASSERT_TRUE((*map)->Write(128 * 1024, std::span<const uint8_t>(out)).ok());
  ASSERT_TRUE((*map)->Sync(0, 1 << 20).ok());
  std::vector<uint8_t> check(kPageSize);
  ASSERT_TRUE((*store)->ReadBlob(vcpu, *blob, 128 * 1024, std::span(check)).ok());
  EXPECT_EQ(check, out);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// --- Whole-page overwrites (DESIGN.md §8) ------------------------------------
//
// A Write run that replaces a whole page needs none of the page's old bytes:
// its major fault fills the new frame from the run, with no device read.

uint64_t PageWord(uint64_t tag, uint64_t page, uint64_t word) {
  return (tag << 48) | (page << 12) | word;
}

// One page of PageWord(tag, page, ·).
std::vector<uint8_t> StampedPage(uint64_t tag, uint64_t page) {
  std::vector<uint8_t> bytes(kPageSize);
  for (uint64_t w = 0; w < kPageSize / 8; w++) {
    const uint64_t value = PageWord(tag, page, w);
    std::memcpy(bytes.data() + w * 8, &value, 8);
  }
  return bytes;
}

TEST_F(AquilaTest, WholePageWriteToUntouchedPageReadsNothing) {
  FillDevice(0, 1 << 20);
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  const std::vector<uint8_t> page = StampedPage(7, 5);
  const uint64_t reads = device_->stats().reads.load();
  const uint64_t majors = runtime_->fault_stats().major_faults.load();
  ASSERT_TRUE((*map)->Write(5 * kPageSize, std::span<const uint8_t>(page)).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads);
  // Still a major fault (a miss that allocated a frame), counted as elided.
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors + 1);
  EXPECT_EQ(runtime_->fault_stats().overwrite_fills.load(), 1u);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);
  std::vector<uint8_t> back(kPageSize);
  ASSERT_TRUE((*map)->Read(5 * kPageSize, std::span(back)).ok());
  EXPECT_EQ(back, page);
  EXPECT_EQ(device_->stats().reads.load(), reads);

  ASSERT_TRUE((*map)->Sync(0, 1 << 20).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  EXPECT_EQ(std::memcmp(device_->dax_base() + 5 * kPageSize, page.data(), kPageSize), 0);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());

  // A fresh runtime has nothing cached: the remap reads the page back from
  // the device.
  runtime_ = std::make_unique<Aquila>(RuntimeOptions());
  map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Read(5 * kPageSize, std::span(back)).ok());
  EXPECT_EQ(back, page);
  EXPECT_EQ(runtime_->fault_stats().overwrite_fills.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, PartialWriteToUntouchedPageStillReads) {
  FillDevice(0, 1 << 20);
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  const std::vector<uint8_t> out(kPageSize - 1, 0xE5);
  const uint64_t reads = device_->stats().reads.load();
  ASSERT_TRUE((*map)->Write(3 * kPageSize + 1, std::span<const uint8_t>(out)).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads + 1);
  EXPECT_EQ(runtime_->fault_stats().overwrite_fills.load(), 0u);
  std::vector<uint8_t> back(kPageSize);
  ASSERT_TRUE((*map)->Read(3 * kPageSize, std::span(back)).ok());
  EXPECT_EQ(back[0], PatternAt(3 * kPageSize));  // the byte around the write
  for (uint64_t i = 1; i < kPageSize; i++) {
    ASSERT_EQ(back[i], 0xE5) << i;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(device_->dax_base()[3 * kPageSize], PatternAt(3 * kPageSize));
  EXPECT_EQ(device_->dax_base()[4 * kPageSize - 1], 0xE5);
}

TEST_F(AquilaTest, MultiPageWriteSkipsTheReadOnlyForCoveredPages) {
  FillDevice(0, 1 << 20);
  DeviceBacking& backing = NewBacking(0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  // Covers the tail of page 2, all of pages 3 and 4, and the head of page 5.
  constexpr uint64_t kStart = 2 * kPageSize + 100;
  const std::vector<uint8_t> out(3 * kPageSize, 0x3C);
  const uint64_t reads = device_->stats().reads.load();
  ASSERT_TRUE((*map)->Write(kStart, std::span<const uint8_t>(out)).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads + 2);  // pages 2 and 5
  EXPECT_EQ(runtime_->fault_stats().overwrite_fills.load(), 2u);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 4u);
  std::vector<uint8_t> back(4 * kPageSize);
  ASSERT_TRUE((*map)->Read(2 * kPageSize, std::span(back)).ok());
  for (uint64_t i = 0; i < back.size(); i++) {
    const uint64_t off = 2 * kPageSize + i;
    const bool written = off >= kStart && off < kStart + out.size();
    ASSERT_EQ(back[i], written ? 0x3C : PatternAt(off)) << off;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Frames recycle between two mappings while one thread replaces whole pages
// of the second, round after round, and another reads them: a frame filled
// from the writer's bytes must hold them before anything publishes it, so
// every read sees the page's device stamp (tag 2) or one whole written page
// (tags 3..), never the first mapping's bytes (tag 1) left in the recycled
// frame.
TEST_F(AquilaTest, OverwriteFillNeverExposesARecycledFramesBytes) {
  constexpr uint64_t kPagesA = 2 * kCachePages;
  constexpr uint64_t kPagesB = kCachePages;
  constexpr uint64_t kOffsetB = kPagesA * kPageSize;
  for (uint64_t p = 0; p < kPagesA; p++) {
    std::memcpy(device_->dax_base() + p * kPageSize, StampedPage(1, p).data(), kPageSize);
  }
  for (uint64_t p = 0; p < kPagesB; p++) {
    std::memcpy(device_->dax_base() + kOffsetB + p * kPageSize, StampedPage(2, p).data(),
                kPageSize);
  }
  DeviceBacking& backing_a = NewBacking(0, kPagesA * kPageSize);
  DeviceBacking& backing_b = NewBacking(kOffsetB, kPagesB * kPageSize);
  StatusOr<MemoryMap*> map_a = runtime_->Map(&backing_a, kPagesA * kPageSize, kProtRead);
  StatusOr<MemoryMap*> map_b =
      runtime_->Map(&backing_b, kPagesB * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(map_a.ok());
  ASSERT_TRUE(map_b.ok());

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> bad_reads{0};
  std::thread churn([&] {
    runtime_->EnterThread();
    Rng rng(11);
    while (writing.load(std::memory_order_relaxed)) {
      (void)(*map_a)->TouchRead(rng.Uniform(kPagesA) * kPageSize);
    }
  });
  std::thread reader([&] {
    runtime_->EnterThread();
    Rng rng(12);
    std::vector<uint8_t> page(kPageSize);
    while (writing.load(std::memory_order_relaxed)) {
      const uint64_t p = rng.Uniform(kPagesB);
      uint64_t first = 0;
      if (!(*map_b)->Read(p * kPageSize, std::span(page)).ok()) {
        bad_reads.fetch_add(1);
        continue;
      }
      std::memcpy(&first, page.data(), 8);
      const uint64_t tag = first >> 48;
      if (tag < 2 || page != StampedPage(tag, p)) {
        bad_reads.fetch_add(1);
      }
    }
  });
  runtime_->EnterThread();
  constexpr uint64_t kRounds = 4;
  auto write_rounds = [&] {
    for (uint64_t round = 0; round < kRounds; round++) {
      for (uint64_t p = 0; p < kPagesB; p++) {
        const std::vector<uint8_t> page = StampedPage(3 + round, p);
        if (!(*map_b)->Write(p * kPageSize, std::span<const uint8_t>(page)).ok()) {
          return false;
        }
      }
    }
    return true;
  };
  const bool written = write_rounds();
  writing.store(false);
  churn.join();
  reader.join();
  ASSERT_TRUE(written);
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().overwrite_fills.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < kPagesB; p++) {
    ASSERT_TRUE((*map_b)->Read(p * kPageSize, std::span(page)).ok());
    ASSERT_EQ(page, StampedPage(2 + kRounds, p)) << p;
  }
  ASSERT_TRUE(runtime_->Unmap(*map_a).ok());
  ASSERT_TRUE(runtime_->Unmap(*map_b).ok());
}

// --- Async overlapped writeback/readahead pipeline ---------------------------
//
// Same runtime, Options::async_writeback = true, over an NVMe backing whose
// medium genuinely overlaps queued commands. Semantics must match the sync
// pipeline exactly; only the timing differs.
class AsyncAquilaTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 64ull << 20;
  static constexpr uint64_t kCachePages = 1024;  // 4 MB cache

  AsyncAquilaTest() {
    NvmeController::Options ctrl_options;
    ctrl_options.capacity_bytes = kDeviceBytes;
    ctrl_ = std::make_unique<NvmeController>(ctrl_options);
    device_ = std::make_unique<NvmeDevice>(ctrl_.get());

    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages * 4;
    options.cache.eviction_batch = 64;
    options.cache.freelist.core_queue_threshold = 64;
    options.cache.freelist.move_batch = 32;
    options.async_writeback = true;
    options.async_queue_depth = 16;
    runtime_ = std::make_unique<Aquila>(options);
  }

  void FillDevice(uint64_t offset, uint64_t bytes) {
    std::vector<uint8_t> buf(kPageSize);
    Vcpu& vcpu = ThisVcpu();
    for (uint64_t page = 0; page < bytes / kPageSize; page++) {
      for (uint64_t i = 0; i < kPageSize; i++) {
        buf[i] = PatternAt(offset + page * kPageSize + i);
      }
      ASSERT_TRUE(device_->Write(vcpu, offset + page * kPageSize,
                                 std::span<const uint8_t>(buf)).ok());
    }
  }

  uint8_t DeviceByte(uint64_t offset) {
    std::vector<uint8_t> buf(kPageSize);
    Vcpu& vcpu = ThisVcpu();
    uint64_t page_offset = offset & ~(kPageSize - 1);
    AQUILA_CHECK(device_->Read(vcpu, page_offset, std::span(buf)).ok());
    return buf[offset - page_offset];
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> device_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(AsyncAquilaTest, EvictionRoundTripPreservesData) {
  // Working set 4x the cache: every page round-trips through the async
  // writeback pipeline (kWritingBack, completion reap) and back.
  constexpr uint64_t kBytes = 16ull << 20;
  FillDevice(0, kBytes);
  DeviceBacking backing(device_.get(), 0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  constexpr uint64_t kPages = kBytes / kPageSize;
  for (uint64_t p = 0; p < kPages; p++) {
    (*map)->TouchWrite(p * kPageSize);
  }
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().writeback_pages.load(), 0u);

  for (uint64_t p = 0; p < kPages; p++) {
    uint64_t off = p * kPageSize;
    std::vector<uint8_t> buf(16);
    ASSERT_TRUE((*map)->Read(off, std::span(buf)).ok());
    ASSERT_EQ(buf[0], static_cast<uint8_t>(PatternAt(off) + 1)) << "page " << p;
    ASSERT_EQ(buf[1], PatternAt(off + 1)) << "page " << p;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  // Unmap drained the engine: every frame is back on the freelist.
  EXPECT_EQ(runtime_->cache().ApproxFreeFrames(), kCachePages);
}

TEST_F(AsyncAquilaTest, MsyncDrainsInFlightWritebacks) {
  DeviceBacking backing(device_.get(), 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> out(kPageSize * 3, 0xAB);
  ASSERT_TRUE((*map)->Write(kPageSize, std::span<const uint8_t>(out)).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 3u);
  ASSERT_TRUE((*map)->Sync(kPageSize, out.size()).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  EXPECT_EQ(DeviceByte(kPageSize), 0xAB);
  EXPECT_EQ(DeviceByte(kPageSize + out.size() - 1), 0xAB);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AsyncAquilaTest, DontNeedSubmitsAsyncAndRefaultSeesWrittenData) {
  FillDevice(0, 1 << 20);
  DeviceBacking backing(device_.get(), 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);
  uint8_t written = static_cast<uint8_t>(PatternAt(0) + 1);
  ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kDontNeed).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  // The page is in kWritingBack (or already reaped): a re-fault must wait
  // out the in-flight write and then read the acknowledged data back.
  std::vector<uint8_t> buf(1);
  ASSERT_TRUE((*map)->Read(0, std::span(buf)).ok());
  EXPECT_EQ(buf[0], written);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AsyncAquilaTest, ReadAheadFillsPublishOnHarvest) {
  FillDevice(0, 1 << 20);
  DeviceBacking backing(device_.get(), 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);  // miss: kicks off async fills
  // msync drains the engine, publishing every completed fill.
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_GT(runtime_->fault_stats().readahead_pages.load(), 0u);
  // The published pages hit as minor faults at most — no device read.
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  for (uint64_t p = 1; p <= runtime_->options().readahead_pages; p++) {
    std::vector<uint8_t> buf(4);
    ASSERT_TRUE((*map)->Read(p * kPageSize, std::span(buf)).ok());
    ASSERT_EQ(buf[0], PatternAt(p * kPageSize));
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AsyncAquilaTest, SequentialScanAwaitsFillsWithoutDuplicateReads) {
  // A sequential scan must consume in-flight fills (AwaitFill) and re-arm
  // the window from the high-water mark — every page is read from the device
  // exactly once, either by the prefetcher or by a major fault, never both.
  constexpr uint64_t kBytes = 2ull << 20;  // 512 pages, fits in cache
  constexpr uint64_t kPages = kBytes / kPageSize;
  FillDevice(0, kBytes);
  DeviceBacking backing(device_.get(), 0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kSequential).ok());
  for (uint64_t p = 0; p < kPages; p++) {
    std::vector<uint8_t> buf(2);
    ASSERT_TRUE((*map)->Read(p * kPageSize, std::span(buf)).ok());
    ASSERT_EQ(buf[0], PatternAt(p * kPageSize)) << "page " << p;
  }
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());  // drain any trailing fills
  FaultStats& stats = runtime_->fault_stats();
  EXPECT_EQ(stats.major_faults.load() + stats.readahead_pages.load(), kPages);
  // The stream rides the prefetcher: only a handful of window restarts fault
  // all the way to the device.
  EXPECT_LT(stats.major_faults.load(), kPages / 8);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AsyncAquilaTest, RescanAfterSequentialScanStillPrefetches) {
  // The readahead high-water mark must retreat when a new stream starts
  // below it: after a full scan to EOF, a second scan from offset 0 has to
  // prefetch again instead of degrading every fault to a blocking major.
  constexpr uint64_t kBytes = 8ull << 20;  // 2048 pages, 2x the cache
  constexpr uint64_t kPages = kBytes / kPageSize;
  FillDevice(0, kBytes);
  DeviceBacking backing(device_.get(), 0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kSequential).ok());
  std::vector<uint8_t> buf(2);
  for (uint64_t p = 0; p < kPages; p++) {
    ASSERT_TRUE((*map)->Read(p * kPageSize, std::span(buf)).ok());
  }
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());  // drain trailing fills
  uint64_t after_first = runtime_->fault_stats().readahead_pages.load();
  EXPECT_GT(after_first, 0u);

  for (uint64_t p = 0; p < kPages; p++) {
    ASSERT_TRUE((*map)->Read(p * kPageSize, std::span(buf)).ok());
    ASSERT_EQ(buf[0], PatternAt(p * kPageSize)) << "page " << p;
  }
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  uint64_t after_second = runtime_->fault_stats().readahead_pages.load();
  // The first scan evicted the early pages, so the re-scan faults on them —
  // and must ride the prefetcher again, not fall off the mark.
  EXPECT_GT(after_second, after_first + 64);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// DeviceQueue decorator that rejects the first `budget` write submissions at
// the machinery level (kInvalidArgument before the command reaches the
// device), then forwards normally. Models a transient queue rejection.
class RejectingQueue : public DeviceQueue {
 public:
  RejectingQueue(std::unique_ptr<DeviceQueue> inner, std::atomic<int>* budget)
      : DeviceQueue(inner->depth()), inner_(std::move(inner)), budget_(budget) {}

  const char* name() const override { return "rejecting"; }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override {
    Status status = inner_->SubmitRead(vcpu, offset, dst, user_data);
    if (!status.ok()) {
      return status;
    }
    NoteSubmit();
    return Status::Ok();
  }

  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override {
    if (budget_->load(std::memory_order_relaxed) > 0 &&
        budget_->fetch_sub(1, std::memory_order_relaxed) > 0) {
      return Status::InvalidArgument("injected submission rejection");
    }
    Status status = inner_->SubmitWrite(vcpu, offset, src, user_data);
    if (!status.ok()) {
      return status;
    }
    NoteSubmit();
    return Status::Ok();
  }

  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override {
    std::vector<Completion> inner_done;
    inner_->Poll(vcpu, &inner_done);
    for (Completion& c : inner_done) {
      NoteComplete();
      out->push_back(std::move(c));
    }
    return static_cast<uint32_t>(inner_done.size());
  }

  uint64_t NextReadyAt() const override { return inner_->NextReadyAt(); }

 private:
  std::unique_ptr<DeviceQueue> inner_;
  std::atomic<int>* budget_;
};

class RejectingDevice : public BlockDevice {
 public:
  explicit RejectingDevice(BlockDevice* inner) : inner_(inner) {}

  const char* name() const override { return "rejecting"; }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }
  bool supports_queueing() const override { return inner_->supports_queueing(); }
  std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth) override {
    return std::make_unique<RejectingQueue>(inner_->CreateQueue(depth), &budget_);
  }

  void set_budget(int n) { budget_.store(n, std::memory_order_relaxed); }
  int budget() const { return budget_.load(std::memory_order_relaxed); }

 protected:
  Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) override {
    return inner_->Read(vcpu, offset, dst);
  }
  Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) override {
    return inner_->Write(vcpu, offset, src);
  }

 private:
  BlockDevice* inner_;
  std::atomic<int> budget_{0};
};

TEST_F(AsyncAquilaTest, EvictionSubmissionRejectionIsNotAFaultErrorAndLeaksNothing) {
  // A submission-machinery rejection during async eviction must not surface
  // as a fault error for the (unrelated) faulting page, must not skip the
  // batched shootdown, and must not leak the batch's clean victims: the
  // rejected frame is restored dirty-in-place and retried by a later round.
  constexpr uint64_t kBytes = 8ull << 20;  // 2x the cache
  constexpr uint64_t kPages = kBytes / kPageSize;
  FillDevice(0, kBytes);
  RejectingDevice rejecting(device_.get());
  DeviceBacking backing(&rejecting, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  rejecting.set_budget(1);  // below writeback_failure_limit: no degradation

  // Mixed clean/dirty working set: the rejected eviction batch contains both
  // kinds of victims, so the clean-frame release after a rejection is
  // exercised too.
  std::vector<uint8_t> one(1);
  for (uint64_t p = 0; p < kPages; p++) {
    uint64_t off = p * kPageSize;
    if (p % 2 == 0) {
      one[0] = static_cast<uint8_t>(p * 7 + 3);
      ASSERT_TRUE((*map)->Write(off, std::span<const uint8_t>(one)).ok()) << "page " << p;
    } else {
      ASSERT_TRUE((*map)->Read(off, std::span(one)).ok()) << "page " << p;
    }
  }
  EXPECT_EQ(rejecting.budget(), 0);  // the rejection fired
  EXPECT_GT(runtime_->fault_stats().writeback_errors.load(), 0u);
  EXPECT_FALSE(static_cast<AquilaMap*>(*map)->degraded());

  // The rejected page's data survived the failed round: verify everything.
  for (uint64_t p = 0; p < kPages; p++) {
    uint64_t off = p * kPageSize;
    ASSERT_TRUE((*map)->Read(off, std::span(one)).ok()) << "page " << p;
    uint8_t want = p % 2 == 0 ? static_cast<uint8_t>(p * 7 + 3) : PatternAt(off);
    ASSERT_EQ(one[0], want) << "page " << p;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  // No clean victim leaked from the rejected round.
  EXPECT_EQ(runtime_->cache().ApproxFreeFrames(), kCachePages);
}

TEST_F(AsyncAquilaTest, MultiThreadedAsyncIntegrity) {
  constexpr uint64_t kBytes = 8ull << 20;
  constexpr int kThreads = 8;
  FillDevice(0, kBytes);
  DeviceBacking backing(device_.get(), 0, kBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  std::vector<std::thread> threads;
  std::atomic<bool> corrupt{false};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime_->EnterThread();
      Rng rng(t * 977 + 3);
      for (int i = 0; i < 2000; i++) {
        uint64_t page = rng.Uniform(kBytes / kPageSize);
        uint64_t off = page * kPageSize + 16 + static_cast<uint64_t>(t);
        uint8_t value = static_cast<uint8_t>(t * 37 + (page & 0x3f));
        (*map)->StoreValue<uint8_t>(off, value);
        if ((*map)->LoadValue<uint8_t>(off) != value) {
          corrupt.store(true);
        }
        uint8_t shared = (*map)->LoadValue<uint8_t>(page * kPageSize + 4000);
        if (shared != PatternAt(page * kPageSize + 4000)) {
          corrupt.store(true);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(runtime_->cache().ApproxFreeFrames(), kCachePages);
}

// --- One mixed eviction batch ---------------------------------------------------
//
// A single EvictBatch over a cache that holds every kind of victim at once:
// clean mapped pages, dirty pages (written back synchronously or through the
// async engine, by parameter), read-ahead pages with no translation
// (vaddr == 0), and pages whose VMA entry lock is held as if by a fault in
// flight. Afterwards every frame must be free or resident exactly once, and
// no PTE or hash entry may name a freed frame.
class EvictBatchMixTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr uint64_t kCachePages = 48;
  static constexpr uint64_t kMapPages = 64;
  static constexpr uint64_t kMapBytes = kMapPages * kPageSize;

  EvictBatchMixTest() {
    NvmeController::Options ctrl_options;
    ctrl_options.capacity_bytes = 2 * kMapBytes;
    ctrl_ = std::make_unique<NvmeController>(ctrl_options);
    device_ = std::make_unique<NvmeDevice>(ctrl_.get());

    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 64ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages;
    options.cache.eviction_batch = kCachePages;  // one batch sweeps everything
    // A small core queue so the batch release spills to the NUMA level.
    options.cache.freelist.core_queue_threshold = 16;
    options.cache.freelist.move_batch = 8;
    options.async_writeback = GetParam();
    runtime_ = std::make_unique<Aquila>(options);
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  void FillDevice(uint64_t bytes) {
    std::vector<uint8_t> buf(kPageSize);
    for (uint64_t offset = 0; offset < bytes; offset += kPageSize) {
      for (uint64_t i = 0; i < kPageSize; i++) {
        buf[i] = PatternAt(offset + i);
      }
      ASSERT_TRUE(device_->Write(ThisVcpu(), offset, std::span<const uint8_t>(buf)).ok());
    }
  }

  uint8_t DeviceByte(uint64_t offset) {
    std::vector<uint8_t> buf(kPageSize);
    AQUILA_CHECK(device_->Read(ThisVcpu(), offset, std::span(buf)).ok());
    return buf[0];
  }

  // Reaps async completions until no frame is in `state` (no-op when sync).
  void SettleFrames(FrameState state) {
    PageCache& cache = runtime_->cache();
    for (int round = 0; round < 1000; round++) {
      bool busy = false;
      for (FrameId id = 0; id < kCachePages; id++) {
        busy |= cache.frame(id).state.load(std::memory_order_acquire) == state;
      }
      if (!busy) {
        return;
      }
      runtime_->HarvestAsyncWritebacks(ThisVcpu(), HarvestMode::kWaitOne);
    }
    FAIL() << "frames stuck in state " << static_cast<int>(state);
  }

  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> device_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_P(EvictBatchMixTest, EveryFrameEndsFreeOrResidentOnce) {
  FillDevice(2 * kMapBytes);
  DeviceBacking data_backing(device_.get(), 0, kMapBytes);
  DeviceBacking stream_backing(device_.get(), kMapBytes, kMapBytes);
  StatusOr<MemoryMap*> data = runtime_->Map(&data_backing, kMapBytes, kProtRead | kProtWrite);
  StatusOr<MemoryMap*> stream = runtime_->Map(&stream_backing, kMapBytes, kProtRead);
  ASSERT_TRUE(data.ok() && stream.ok());
  auto* a = static_cast<AquilaMap*>(*data);
  auto* b = static_cast<AquilaMap*>(*stream);
  PageCache& cache = runtime_->cache();
  Vcpu& vcpu = ThisVcpu();

  // Read-ahead victims: a sequential miss maps one page and prefetches its
  // successors without translations.
  ASSERT_TRUE(b->Advise(0, kMapBytes, Advice::kSequential).ok());
  b->TouchRead(0);
  SettleFrames(FrameState::kFilling);
  constexpr uint64_t kDirtyFirst = 20;
  constexpr uint64_t kDirtyEnd = 30;
  uint64_t next = 0;
  for (; next < kDirtyFirst; next++) {
    a->TouchRead(next * kPageSize);
  }
  for (; next < kDirtyEnd; next++) {
    a->TouchWrite(next * kPageSize);  // bumps the page's first byte
  }
  while (cache.ApproxFreeFrames() > 0) {
    ASSERT_LT(next, kMapPages);
    a->TouchRead(next++ * kPageSize);
  }
  ASSERT_EQ(runtime_->fault_stats().evict_batches.load(), 0u);

  // Classify the victims-to-be and remember every key the cache maps.
  std::vector<uint64_t> keys;
  int readahead = 0;
  int dirty = 0;
  for (FrameId id = 0; id < kCachePages; id++) {
    const Frame& f = cache.frame(id);
    ASSERT_EQ(f.state.load(), FrameState::kResident) << "frame " << id;
    keys.push_back(f.key.load());
    readahead += f.vaddr.load() == 0;
    dirty += f.dirty.load() != 0;
  }
  ASSERT_GT(readahead, 0);
  ASSERT_EQ(dirty, static_cast<int>(kDirtyEnd - kDirtyFirst));

  // Entry-locked victims: the batch must hand these back resident.
  constexpr uint64_t kLocked = 3;
  for (uint64_t p = 0; p < kLocked; p++) {
    ASSERT_NE(runtime_->vma_tree().LockEntry(a->vma().start_page + p), nullptr);
  }
  const uint64_t trigger = kMapPages - 1;
  a->TouchRead(trigger * kPageSize);
  EXPECT_EQ(runtime_->fault_stats().evict_batches.load(), 1u);
  for (uint64_t p = 0; p < kLocked; p++) {
    runtime_->vma_tree().UnlockEntry(a->vma().start_page + p);
  }
  SettleFrames(FrameState::kWritingBack);

  std::set<FrameId> free_frames;
  std::set<FrameId> resident_frames;
  for (FrameId id = 0; id < kCachePages; id++) {
    FrameState state = cache.frame(id).state.load();
    if (state == FrameState::kFree) {
      free_frames.insert(id);
    } else if (state == FrameState::kResident) {
      resident_frames.insert(id);
    } else {
      ADD_FAILURE() << "frame " << id << " left in state " << static_cast<int>(state);
    }
  }
  // The locked victims and the faulting page; everything else was reclaimed.
  EXPECT_EQ(resident_frames.size(), kLocked + 1);
  EXPECT_EQ(cache.ApproxFreeFrames(), free_frames.size());

  // Every PTE and every hash entry names a resident frame of that page.
  for (AquilaMap* map : {a, b}) {
    for (uint64_t p = 0; p < kMapPages; p++) {
      uint64_t vaddr = (map->vma().start_page + p) << kPageShift;
      uint64_t pte = runtime_->page_table().Lookup(vaddr);
      if (!Pte::Present(pte)) {
        continue;
      }
      auto frame = static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift);
      EXPECT_TRUE(resident_frames.count(frame)) << "PTE names freed frame " << frame;
      EXPECT_EQ(cache.frame(frame).vaddr.load(), vaddr);
    }
  }
  for (uint64_t key : keys) {
    FrameId frame;
    if (cache.Lookup(key, &frame)) {
      EXPECT_TRUE(resident_frames.count(frame)) << "hash entry names freed frame " << frame;
      EXPECT_EQ(cache.frame(frame).key.load(), key);
    }
  }
  // Dirty victims reached the device before their frames were released.
  for (uint64_t p = kDirtyFirst; p < kDirtyEnd; p++) {
    EXPECT_EQ(DeviceByte(p * kPageSize), static_cast<uint8_t>(PatternAt(p * kPageSize) + 1))
        << "page " << p;
  }
  // The freelist holds each free frame exactly once.
  std::vector<FrameId> drained;
  ReuseStamp stamp;
  FrameId frame;
  while ((frame = cache.AllocFrame(vcpu, vcpu.core(), &stamp)) != kInvalidFrame) {
    drained.push_back(frame);
  }
  EXPECT_EQ(std::set<FrameId>(drained.begin(), drained.end()), free_frames);
  EXPECT_EQ(drained.size(), free_frames.size());
  for (FrameId id : drained) {
    cache.FreeFrame(vcpu.core(), id);
  }
  ASSERT_TRUE(runtime_->Unmap(a).ok());
  ASSERT_TRUE(runtime_->Unmap(b).ok());
  EXPECT_EQ(cache.ApproxFreeFrames(), kCachePages);
}

INSTANTIATE_TEST_SUITE_P(Writeback, EvictBatchMixTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Async" : "Sync";
                         });

// Default Options (synchronous reclaim writeback) over NVMe: readahead still
// streams through the mapping's device queue.
class ReadaheadStreamTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 16ull << 20;
  static constexpr uint64_t kCachePages = 2048;

  ReadaheadStreamTest() {
    NvmeController::Options ctrl_options;
    ctrl_options.capacity_bytes = kDeviceBytes;
    ctrl_ = std::make_unique<NvmeController>(ctrl_options);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
    for (uint64_t i = 0; i < kDeviceBytes; i++) {
      ctrl_->flash()[i] = PatternAt(i);  // straight onto the medium: no I/O counted
    }
  }

  std::unique_ptr<Aquila> MakeRuntime() {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 64ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages;
    return std::make_unique<Aquila>(options);
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
};

TEST_F(ReadaheadStreamTest, SequentialScanIsChannelBoundAndReadsEveryPageOnce) {
  constexpr uint64_t kPages = 1024;
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  ASSERT_FALSE(runtime->options().async_writeback);
  DeviceBacking backing(nvme_.get(), 0, kPages * kPageSize);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, kPages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kPages * kPageSize, Advice::kSequential).ok());
  SimClock& clock = ThisVcpu().clock();
  const uint64_t start = clock.Now();
  const CostBreakdown before = clock.Breakdown();
  for (uint64_t p = 0; p < kPages; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  // Cache-management cycles are measured host time, which a sanitizer or a
  // loaded machine inflates; the rest is the model's own charges and waits.
  const uint64_t cycles =
      clock.Now() - start - (clock.Breakdown() - before)[CostCategory::kCacheMgmt];
  std::vector<uint8_t> buf(1);
  for (uint64_t p = 0; p < kPages; p += 97) {
    ASSERT_TRUE((*map)->Read(p * kPageSize + 5, std::span(buf)).ok());
    ASSERT_EQ(buf[0], PatternAt(p * kPageSize + 5)) << "page " << p;
  }
  const FaultStats& stats = runtime->fault_stats();
  // One stream start; every other page was prefetched, and no page was read
  // twice.
  EXPECT_EQ(stats.major_faults.load(), 1u);
  EXPECT_EQ(stats.major_faults.load() + stats.readahead_pages.load(), kPages);
  EXPECT_EQ(nvme_->stats().reads.load(), kPages);
  // The stream waits on the channel, not on each command's latency.
  EXPECT_LT(cycles / kPages, ctrl_->options().channel_cycles_per_4k * 3 / 2);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

TEST_F(ReadaheadStreamTest, FailedReadaheadFillPublishesNothingAndTheFaultRereads) {
  FaultInjectingDevice::Options fault_options;
  fault_options.fail_reads = {2};  // attempt 1 is page 0's demand read, 2 is page 1's fill
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  DeviceBacking backing(&faults, 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());  // reap every fill
  const FaultStats& stats = runtime->fault_stats();
  EXPECT_EQ(faults.fault_stats().injected_read_errors.load(), 1u);
  EXPECT_EQ(stats.readahead_pages.load(), runtime->options().readahead_pages - 1);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE((*map)->Read(kPageSize, std::span(buf)).ok());
  EXPECT_EQ(stats.major_faults.load(), 2u);
  for (uint64_t i = 0; i < kPageSize; i++) {
    ASSERT_EQ(buf[i], PatternAt(kPageSize + i)) << "byte " << i;
  }
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

TEST_F(ReadaheadStreamTest, HungReadaheadFillIsAbortedAndTheFaultRereads) {
  FaultInjectingDevice::Options fault_options;
  fault_options.hang_reads = {2};  // attempt 1 is page 0's demand read, 2 is page 1's fill
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  ASSERT_EQ(runtime->options().device_op_timeout_us, 0u);  // no watchdog
  DeviceBacking backing(&faults, 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  // Page 1's fill never completes: the fault waits it out, aborts it once
  // nothing else is in flight, and reads the page itself.
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE((*map)->Read(kPageSize, std::span(buf)).ok());
  for (uint64_t i = 0; i < kPageSize; i++) {
    ASSERT_EQ(buf[i], PatternAt(kPageSize + i)) << "byte " << i;
  }
  EXPECT_EQ(faults.fault_stats().injected_hangs.load(), 1u);
  EXPECT_EQ(runtime->fault_stats().major_faults.load(), 2u);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

TEST_F(ReadaheadStreamTest, TwoCoresScanningOneRangeReadEveryPageOnce) {
  // Each core keeps its own stream mark, so a core that joins a stream
  // re-arms over pages another core's window has in flight; those must not
  // be read again. One core opens the stream on page 0 (its window stays in
  // flight), then two fresh cores scan the whole range at once.
  constexpr uint64_t kPages = 512;
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  DeviceBacking backing(nvme_.get(), 0, kPages * kPageSize);
  StatusOr<MemoryMap*> map = runtime->Map(&backing, kPages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kPages * kPageSize, Advice::kSequential).ok());
  std::atomic<bool> corrupt{false};
  auto scan = [&](uint64_t pages) {
    runtime->EnterThread();
    for (uint64_t p = 0; p < pages; p++) {
      if ((*map)->LoadValue<uint8_t>(p * kPageSize + 9) != PatternAt(p * kPageSize + 9)) {
        corrupt.store(true);
      }
    }
  };
  std::thread opener(scan, 1);
  opener.join();
  std::thread first(scan, kPages);
  std::thread second(scan, kPages);
  first.join();
  second.join();
  EXPECT_FALSE(corrupt.load());
  ASSERT_TRUE((*map)->Sync(0, kPages * kPageSize).ok());  // reap every fill
  const FaultStats& stats = runtime->fault_stats();
  EXPECT_EQ(nvme_->stats().reads.load(), kPages);
  EXPECT_EQ(stats.major_faults.load() + stats.readahead_pages.load(), kPages);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

// --- Multi-page Reads (DESIGN.md §8) -----------------------------------------
//
// A Read over several pages queues every missing page after the first before
// it faults the first, so the range waits for one device latency, not one
// per page.

// Simulated cycles of one Read, less the host-measured cache-management
// share (which a sanitizer or a loaded machine inflates).
uint64_t TimedRead(MemoryMap* map, uint64_t offset, std::span<uint8_t> dst) {
  SimClock& clock = ThisVcpu().clock();
  const uint64_t start = clock.Now();
  const CostBreakdown before = clock.Breakdown();
  AQUILA_CHECK(map->Read(offset, dst).ok());
  return clock.Now() - start - (clock.Breakdown() - before)[CostCategory::kCacheMgmt];
}

TEST_F(ReadaheadStreamTest, TwoColdPagesWaitForTheDeviceOnce) {
  DeviceBacking backing(nvme_.get(), 0, 1 << 20);
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  StatusOr<MemoryMap*> map = runtime->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> one(kPageSize);
  const uint64_t one_miss = TimedRead(*map, 10 * kPageSize, std::span(one));
  const uint64_t reads = nvme_->stats().reads.load();
  const uint64_t majors = runtime->fault_stats().major_faults.load();
  // 3 KB from the end of page 20 into page 21.
  std::vector<uint8_t> two(kPageSize);
  const uint64_t offset = 21 * kPageSize - 3000;
  const uint64_t two_misses = TimedRead(*map, offset, std::span(two));
  for (uint64_t i = 0; i < two.size(); i++) {
    ASSERT_EQ(two[i], PatternAt(offset + i)) << "byte " << i;
  }
  EXPECT_EQ(nvme_->stats().reads.load(), reads + 2);
  EXPECT_EQ(runtime->fault_stats().major_faults.load(), majors + 2);
  EXPECT_EQ(runtime->fault_stats().readahead_pages.load(), 0u);
  EXPECT_LT(two_misses, one_miss * 3 / 2) << "one miss " << one_miss;
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

TEST_F(ReadaheadStreamTest, MultiPageReadFetchesOnlyItsMissingPages) {
  DeviceBacking backing(nvme_.get(), 0, 1 << 20);
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  StatusOr<MemoryMap*> map = runtime->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  // Page 1 resident, page 2's fill in flight, pages 0 and 3 cold.
  EXPECT_TRUE((*map)->TouchRead(kPageSize).faulted);
  ASSERT_TRUE((*map)->Advise(2 * kPageSize, kPageSize, Advice::kWillNeed).ok());
  std::vector<uint8_t> buf(4 * kPageSize - 200);
  ASSERT_TRUE((*map)->Read(100, std::span(buf)).ok());
  for (uint64_t i = 0; i < buf.size(); i++) {
    ASSERT_EQ(buf[i], PatternAt(100 + i)) << "byte " << i;
  }
  EXPECT_EQ(nvme_->stats().reads.load(), 4u);
  // Both cold pages were demand reads; the WillNeed page was read-ahead.
  EXPECT_EQ(runtime->fault_stats().major_faults.load(), 3u);
  EXPECT_EQ(runtime->fault_stats().readahead_pages.load(), 1u);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
}

TEST_F(ReadaheadStreamTest, FailedQueuedFillOfAReadIsRereadOrSurfaced) {
  // Read attempt 1 is page 1's queued fill, 2 is page 0's fault; 3 and on
  // are page 1's fault after its fill failed.
  FaultInjectingDevice::Options fault_options;
  fault_options.fail_reads = {1};
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  DeviceBacking backing(&faults, 0, 1 << 20);
  // The second mapping's page 1 fails every time.
  FaultInjectingDevice::Options failing_options;
  failing_options.fail_reads = {1, 3, 4, 5, 6, 7, 8};
  FaultInjectingDevice failing(nvme_.get(), failing_options);
  DeviceBacking failing_backing(&failing, 0, 1 << 20);
  std::unique_ptr<Aquila> runtime = MakeRuntime();
  StatusOr<MemoryMap*> map = runtime->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> buf(2 * kPageSize);
  ASSERT_TRUE((*map)->Read(0, std::span(buf)).ok());
  for (uint64_t i = 0; i < buf.size(); i++) {
    ASSERT_EQ(buf[i], PatternAt(i)) << "byte " << i;
  }
  EXPECT_EQ(faults.fault_stats().injected_read_errors.load(), 1u);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
  EXPECT_EQ(runtime->cache().ApproxFreeFrames(), kCachePages);

  // With page 1 failing every time, the Read reports it.
  map = runtime->Map(&failing_backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ((*map)->Read(0, std::span(buf)).code(), StatusCode::kIoError);
  ASSERT_TRUE(runtime->Unmap(*map).ok());
  EXPECT_EQ(runtime->cache().ApproxFreeFrames(), kCachePages);
}

TEST_F(ReadaheadStreamTest, ConcurrentMultiPageReadsUnderEvictionSeeTheDevice) {
  // Readers race over overlapping ranges of a mapping 4x the cache: a queued
  // page may be consumed by another reader, evicted before its own reader
  // reaches it, or still in flight when several readers want it.
  constexpr int kThreads = 3;
  constexpr uint64_t kPages = 1024;
  constexpr int kReads = 600;
  DeviceBacking backing(nvme_.get(), 0, kPages * kPageSize);
  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 64ull << 20;
  options.cache.capacity_pages = kPages / 4;
  options.cache.max_pages = kPages / 4;
  options.cache.eviction_batch = 16;
  Aquila runtime(options);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kPages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> failed{0};
  auto reader = [&](int id) {
    runtime.EnterThread();
    Rng rng(100 + id);
    std::vector<uint8_t> buf(3 * kPageSize);
    for (int i = 0; i < kReads; i++) {
      const uint64_t len = 1 + rng.Uniform(buf.size());
      const uint64_t offset = rng.Uniform(kPages * kPageSize - len);
      if (!(*map)->Read(offset, std::span(buf.data(), len)).ok()) {
        failed.fetch_add(1);
        continue;
      }
      for (uint64_t b = 0; b < len; b++) {
        if (buf[b] != PatternAt(offset + b)) {
          bad.fetch_add(1);
          break;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back(reader, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), kPages / 4);
}

// --- msync(MS_ASYNC): Advise(kWriteBack) ----------------------------------------
//
// The mapping holds the advised dirty pages and writes them behind the next
// demand read, keeping them cached (DESIGN.md §8).
class MsAsyncTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 8ull << 20;
  static constexpr uint64_t kMapBytes = 4ull << 20;

  MsAsyncTest() {
    NvmeController::Options ctrl_options;
    ctrl_options.capacity_bytes = kDeviceBytes;
    ctrl_ = std::make_unique<NvmeController>(ctrl_options);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
  }

  static Aquila::Options Options(uint64_t cache_pages) {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 64ull << 20;
    options.cache.capacity_pages = cache_pages;
    options.cache.max_pages = cache_pages;
    options.cache.eviction_batch = 16;
    return options;
  }

  uint64_t FlashWord(uint64_t offset) const {
    uint64_t word;
    std::memcpy(&word, ctrl_->flash() + offset, sizeof(word));
    return word;
  }

  // Dirties pages [0, pages) with one word each: the page number plus `tag`.
  static void DirtyPages(MemoryMap* map, uint64_t pages, uint64_t tag) {
    for (uint64_t p = 0; p < pages; p++) {
      map->StoreValue<uint64_t>(p * kPageSize, p + tag);
    }
  }

  static Frame& FrameOf(Aquila& runtime, MemoryMap* map, uint64_t offset) {
    const uint64_t vaddr =
        (static_cast<AquilaMap*>(map)->vma().start_page << kPageShift) + offset;
    return runtime.cache().frame(
        static_cast<FrameId>(Pte::Gpa(runtime.page_table().Lookup(vaddr)) >> kPageShift));
  }

  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
};

// Simulated cycles of one cold TouchRead, less the host-measured shares
// (cache management and dirty tracking), which a loaded machine inflates.
uint64_t TimedColdRead(MemoryMap* map, uint64_t offset) {
  SimClock& clock = ThisVcpu().clock();
  const uint64_t start = clock.Now();
  const CostBreakdown before = clock.Breakdown();
  AQUILA_CHECK(map->TouchRead(offset).faulted);
  const CostBreakdown spent = clock.Breakdown() - before;
  return clock.Now() - start - spent[CostCategory::kCacheMgmt] -
         spent[CostCategory::kDirtyTracking];
}

TEST_F(MsAsyncTest, HeldPagesGoOutBehindAReadWithoutDelayingIt) {
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  const uint64_t unheld = TimedColdRead(*map, 200 * kPageSize);

  constexpr uint64_t kHeld = 8;
  DirtyPages(*map, kHeld, 1);
  ASSERT_TRUE((*map)->Advise(0, kHeld * kPageSize, Advice::kWriteBack).ok());
  // Held, not written: nothing reached the queue yet.
  EXPECT_EQ(runtime.cache().TotalDirty(), kHeld);
  EXPECT_EQ(runtime.fault_stats().writeback_pages.load(), 0u);

  const uint64_t held = TimedColdRead(*map, 300 * kPageSize);
  const uint64_t transfer = ctrl_->options().channel_cycles_per_4k;
  EXPECT_LE(held, unheld + transfer) << "nothing held: " << unheld;
  // The read's device latency covers at least latency / transfer page
  // writes (the channel model may fit a few more into the read's window).
  const uint64_t behind = ctrl_->options().read_latency_cycles / transfer;
  EXPECT_LE(runtime.cache().TotalDirty(), kHeld - behind);

  // The written pages stayed cached: touching them takes no fault.
  const uint64_t majors = runtime.fault_stats().major_faults.load();
  for (uint64_t p = 0; p < kHeld; p++) {
    EXPECT_EQ((*map)->LoadValue<uint64_t>(p * kPageSize), p + 1);
  }
  EXPECT_EQ(runtime.fault_stats().major_faults.load(), majors);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  for (uint64_t p = 0; p < kHeld; p++) {
    EXPECT_EQ(FlashWord(p * kPageSize), p + 1) << "page " << p;
  }
}

TEST_F(MsAsyncTest, SyncAndUnmapWriteEveryHeldPage) {
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kHeld = 12;
  DirtyPages(*map, kHeld, 100);
  ASSERT_TRUE((*map)->Advise(0, kHeld * kPageSize, Advice::kWriteBack).ok());
  // An msync of an unrelated, clean range drains the engine, held pages
  // included; they stay cached.
  ASSERT_TRUE((*map)->Sync(500 * kPageSize, kPageSize).ok());
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);
  EXPECT_EQ(runtime.fault_stats().writeback_pages.load(), kHeld);
  for (uint64_t p = 0; p < kHeld; p++) {
    EXPECT_EQ(FlashWord(p * kPageSize), p + 100) << "page " << p;
  }
  const uint64_t majors = runtime.fault_stats().major_faults.load();
  EXPECT_EQ((*map)->LoadValue<uint64_t>(0), 100u);
  EXPECT_EQ(runtime.fault_stats().major_faults.load(), majors);

  DirtyPages(*map, kHeld, 200);
  ASSERT_TRUE((*map)->Advise(0, kHeld * kPageSize, Advice::kWriteBack).ok());
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  for (uint64_t p = 0; p < kHeld; p++) {
    EXPECT_EQ(FlashWord(p * kPageSize), p + 200) << "page " << p;
  }
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), 1024u);
}

// Past the queue's depth the oldest held pages are let go still dirty: no
// read hides their writes, so msync writes them instead.
TEST_F(MsAsyncTest, PagesPastTheQueueDepthAreLeftToMsync) {
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila::Options options = Options(1024);
  options.async_queue_depth = 8;
  Aquila runtime(options);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kDirty = 12;
  DirtyPages(*map, kDirty, 7);
  ASSERT_TRUE((*map)->Advise(0, kDirty * kPageSize, Advice::kWriteBack).ok());
  for (uint64_t i = 0; i < 8; i++) {
    EXPECT_TRUE((*map)->TouchRead((300 + i) * kPageSize).faulted);
  }
  EXPECT_EQ(runtime.cache().TotalDirty(), kDirty - 8);
  for (uint64_t p = 0; p < kDirty - 8; p++) {
    EXPECT_NE(FlashWord(p * kPageSize), p + 7) << "page " << p;
  }
  ASSERT_TRUE((*map)->Sync(0, kMapBytes).ok());
  for (uint64_t p = 0; p < kDirty; p++) {
    EXPECT_EQ(FlashWord(p * kPageSize), p + 7) << "page " << p;
  }
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// A store to a page whose background write is in flight takes the
// write-upgrade fault and re-dirties it; the next msync writes the store.
TEST_F(MsAsyncTest, StoreDuringBackgroundWriteReachesTheDeviceAfterSync) {
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->StoreValue<uint64_t>(0, 1);
  ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kWriteBack).ok());
  EXPECT_TRUE((*map)->TouchRead(100 * kPageSize).faulted);  // the write follows it
  Frame& frame = FrameOf(runtime, *map, 0);
  ASSERT_EQ(frame.state.load(), FrameState::kWritingBack);
  (*map)->StoreValue<uint64_t>(0, 2);
  EXPECT_EQ(frame.state.load(), FrameState::kWritingBack);
  EXPECT_EQ(runtime.cache().TotalDirty(), 1u);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(FlashWord(0), 2u);
  EXPECT_EQ(frame.state.load(), FrameState::kResident);
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), 1024u);
}

// Stores, background writes behind reads, msyncs and evictions all at once:
// each page's last store is on the device after a final msync.
TEST_F(MsAsyncTest, StoresDuringBackgroundWritesSurviveSyncAndEviction) {
  constexpr uint64_t kHot = 8;
  constexpr uint64_t kPages = kMapBytes / kPageSize;
  constexpr uint64_t kRounds = 3000;
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila runtime(Options(kPages / 8));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failed{0};
  std::thread writer([&] {
    runtime.EnterThread();
    Rng rng(7);
    for (uint64_t round = 1; round <= kRounds; round++) {
      const uint64_t page = round % kHot;
      (*map)->StoreValue<uint64_t>(page * kPageSize, round);
      if (!(*map)->Advise(page * kPageSize, kPageSize, Advice::kWriteBack).ok() ||
          !(*map)->TouchRead((kHot + rng.Uniform(kPages - kHot)) * kPageSize).ok()) {
        failed.fetch_add(1);
      }
    }
    done.store(true);
  });
  std::thread syncer([&] {
    runtime.EnterThread();
    while (!done.load()) {
      if (!(*map)->Sync(0, kHot * kPageSize).ok()) {
        failed.fetch_add(1);
      }
    }
  });
  std::thread evictor([&] {
    runtime.EnterThread();
    Rng rng(11);
    while (!done.load()) {
      if (!(*map)->TouchRead(rng.Uniform(kPages) * kPageSize).ok()) {
        failed.fetch_add(1);
      }
    }
  });
  writer.join();
  syncer.join();
  evictor.join();
  EXPECT_EQ(failed.load(), 0u);
  ASSERT_TRUE((*map)->Sync(0, kHot * kPageSize).ok());
  for (uint64_t page = 0; page < kHot; page++) {
    const uint64_t last = kRounds - (kRounds - page) % kHot;
    EXPECT_EQ(FlashWord(page * kPageSize), last) << "page " << page;
  }
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), kPages / 8);
}

// A failed background write re-dirties its page; the next msync retries it
// synchronously and reports the error while the device keeps failing.
TEST_F(MsAsyncTest, FailedBackgroundWriteIsRedirtiedAndSurfacedBySync) {
  // Write attempt 1 is the background write; 2-4 are msync's whole retry
  // budget; 5 succeeds.
  FaultInjectingDevice::Options fault_options;
  fault_options.fail_writes = {1, 2, 3, 4};
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  DeviceBacking backing(&faults, 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->StoreValue<uint64_t>(0, 42);
  ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kWriteBack).ok());
  // The injected failure completes at once, so the read's wait reaps it.
  EXPECT_TRUE((*map)->TouchRead(100 * kPageSize).faulted);
  EXPECT_EQ(faults.fault_stats().injected_write_errors.load(), 1u);
  EXPECT_EQ(runtime.cache().TotalDirty(), 1u);
  EXPECT_EQ((*map)->Sync(0, kPageSize).code(), StatusCode::kIoError);
  EXPECT_EQ(runtime.cache().TotalDirty(), 1u);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(FlashWord(0), 42u);
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), 1024u);
}

// A write msync waits on keeps the device's retry budget on a native queue:
// one injected error is retried after the policy's backoff and the page is
// written, with no writeback error charged to the mapping.
TEST_F(MsAsyncTest, SyncRetriesAFailedQueuedWrite) {
  FaultInjectingDevice::Options fault_options;
  fault_options.fail_writes = {1};
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  ASSERT_TRUE(faults.supports_queueing());
  DeviceBacking backing(&faults, 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->StoreValue<uint64_t>(0, 42);
  const uint64_t before = ThisVcpu().clock().Breakdown()[CostCategory::kIdle];
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(faults.fault_stats().injected_write_errors.load(), 1u);
  EXPECT_EQ(faults.stats().io_retries.load(), 1u);
  EXPECT_GE(ThisVcpu().clock().Breakdown()[CostCategory::kIdle] - before,
            faults.retry_policy().initial_backoff_cycles);
  EXPECT_EQ(runtime.fault_stats().writeback_errors.load(), 0u);
  EXPECT_EQ(FlashWord(0), 42u);
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// msync reports the error of every write it submitted, whichever thread
// reaps the completion, and leaves the page dirty for the next msync.
TEST_F(MsAsyncTest, SyncReportsItsWriteErrorsWhoeverReapsThem) {
  FaultInjectingDevice::Options fault_options;
  fault_options.write_error_rate = 1.0;
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  DeviceBacking backing(&faults, 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::atomic<bool> done{false};
  std::thread reaper([&] {
    runtime.EnterThread();
    while (!done.load()) {
      runtime.HarvestAsyncWritebacks(ThisVcpu(), HarvestMode::kWaitOne);
    }
  });
  constexpr uint64_t kRounds = 5000;
  for (uint64_t round = 1; round <= kRounds; round++) {
    ASSERT_TRUE(aq_map->RearmWriteback().ok());
    (*map)->StoreValue<uint64_t>(0, round);
    EXPECT_EQ((*map)->Sync(0, kPageSize).code(), StatusCode::kIoError) << round;
    EXPECT_EQ(runtime.cache().TotalDirty(), 1u) << round;
  }
  done.store(true);
  reaper.join();
  faults.set_write_error_rate(0.0);
  ASSERT_TRUE(aq_map->RearmWriteback().ok());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(FlashWord(0), kRounds);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), 1024u);
}

// A page another owner claims just as msync starts is in no dirty tree when
// msync reads them: here an async madvise(DONTNEED) reclaim on a second
// thread. Its write fails, as every write does, and puts the page back
// dirty; msync must write the page (and fail) rather than return OK with the
// store it was asked to persist off the device.
TEST_F(MsAsyncTest, SyncWritesAPageWhoseOtherOwnerFailedToWriteIt) {
  FaultInjectingDevice::Options fault_options;
  fault_options.write_error_rate = 1.0;
  FaultInjectingDevice faults(nvme_.get(), fault_options);
  DeviceBacking backing(&faults, 0, kMapBytes);
  Aquila::Options options = Options(1024);
  options.async_writeback = true;
  Aquila runtime(options);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::atomic<uint64_t> go{0};
  std::atomic<uint64_t> done{0};
  constexpr uint64_t kRounds = 20000;
  std::thread reclaimer([&] {
    runtime.EnterThread();
    for (uint64_t round = 1; round <= kRounds; round++) {
      while (go.load() < round) {
        CpuRelax();
      }
      (void)(*map)->Advise(0, kPageSize, Advice::kDontNeed);
      done.store(round);
    }
  });
  uint64_t synced_at = 0;
  for (uint64_t round = 1; round <= kRounds; round++) {
    ASSERT_TRUE(aq_map->RearmWriteback().ok());
    (*map)->StoreValue<uint64_t>(0, round);
    go.store(round);
    if ((*map)->Sync(0, kPageSize).ok() && synced_at == 0) {
      synced_at = round;
    }
    while (done.load() < round) {
      CpuRelax();
    }
  }
  reclaimer.join();
  EXPECT_EQ(synced_at, 0u) << "msync returned OK with round " << synced_at
                           << "'s store unwritten";
  faults.set_write_error_rate(0.0);
  ASSERT_TRUE(aq_map->RearmWriteback().ok());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(FlashWord(0), kRounds);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), 1024u);
}

// msync, MS_ASYNC advice and the held-page release find pages with
// uncounted lookups: aquila.cache.lookups and lookup_hits count faults only.
TEST_F(MsAsyncTest, SyncAndWriteBackAdviceLeaveTheLookupCountsAlone) {
  DeviceBacking backing(nvme_.get(), 0, kMapBytes);
  Aquila runtime(Options(1024));
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kPages = 8;
  DirtyPages(*map, kPages, 1);
  const PageCache::Stats& stats = runtime.cache().stats();
  const uint64_t lookups = stats.lookups.load();
  const uint64_t hits = stats.lookup_hits.load();
  ASSERT_TRUE((*map)->Advise(0, kPages * kPageSize, Advice::kWriteBack).ok());
  ASSERT_TRUE((*map)->Sync(0, kPages * kPageSize).ok());
  EXPECT_EQ(runtime.fault_stats().writeback_pages.load(), kPages);
  EXPECT_EQ(stats.lookups.load(), lookups);
  EXPECT_EQ(stats.lookup_hits.load(), hits);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

}  // namespace
}  // namespace aquila
