// End-to-end tests for the Aquila runtime: mapping lifecycle, fault paths,
// dirty tracking, eviction + writeback, msync, madvise, mprotect, mremap,
// dynamic cache resizing, and multi-threaded integrity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/device_queue.h"
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

    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages * 4;
    options.cache.eviction_batch = 64;  // scaled for small test caches
    options.cache.freelist.core_queue_threshold = 64;
    options.cache.freelist.move_batch = 32;
    runtime_ = std::make_unique<Aquila>(options);
  }

  // Fills device offset range with a deterministic pattern.
  void FillDevice(uint64_t offset, uint64_t bytes) {
    uint8_t* dax = device_->dax_base();
    for (uint64_t i = 0; i < bytes; i++) {
      dax[offset + i] = PatternAt(offset + i);
    }
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(AquilaTest, ReadSeesDeviceContents) {
  FillDevice(0, 1 << 20);
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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

TEST_F(AquilaTest, EvictionPreservesDataIntegrity) {
  // Working set 4x the cache: every page round-trips through eviction.
  constexpr uint64_t kBytes = 16ull << 20;
  FillDevice(0, kBytes);
  DeviceBacking backing(device_.get(), 0, kBytes);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
    DeviceBacking backing(device_.get(), 0, 1 << 20);
    StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
    ASSERT_TRUE(map.ok());
    for (uint64_t off = 0; off < (1 << 20); off += kPageSize) {
      (*map)->TouchRead(off);
    }
    ASSERT_TRUE(runtime_->Unmap(*map).ok());
  });
  worker.join();

  DeviceBacking backing(device_.get(), 8 << 20, kCachePages * kPageSize);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kCachePages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kCachePages * kPageSize, Advice::kRandom).ok());
  for (uint64_t p = 0; p < kCachePages; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  EXPECT_EQ(runtime_->fault_stats().evicted_pages.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(AquilaTest, SequentialAdviceTriggersReadAhead) {
  FillDevice(0, 1 << 20);
  DeviceBacking backing(device_.get(), 0, 1 << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 1 << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
  EXPECT_TRUE((*map)->TouchRead(0).faulted);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, 2 << 20);
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
  DeviceBacking backing(device_.get(), 0, 1 << 20);
  EXPECT_FALSE(runtime_->Map(&backing, 0, kProtRead).ok());
  EXPECT_FALSE(runtime_->Map(&backing, 2 << 20, kProtRead).ok());  // beyond backing
  EXPECT_FALSE(runtime_->Map(&backing, 1 << 20, 0).ok());
  EXPECT_FALSE(runtime_->Unmap(reinterpret_cast<MemoryMap*>(&backing)).ok());
}

TEST_F(AquilaTest, AccessBeyondMappingRejected) {
  DeviceBacking backing(device_.get(), 0, 1 << 20);
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
  DeviceBacking backing(device_.get(), 0, kBytes);
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
    NoteSubmit(vcpu.clock().Now());
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
    NoteSubmit(vcpu.clock().Now());
    return Status::Ok();
  }

  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override {
    std::vector<Completion> inner_done;
    inner_->Poll(vcpu, &inner_done);
    uint64_t now = vcpu.clock().Now();
    for (Completion& c : inner_done) {
      NoteComplete(now, 0);
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

}  // namespace
}  // namespace aquila
