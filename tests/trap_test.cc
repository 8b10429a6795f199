// Trap-mode (transparent mapping) tests: raw pointer loads/stores served by
// real SIGSEGV faults through the Aquila fault path, with cache frames
// aliased out of the hypervisor's memfd.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/core/trap_driver.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

class TrapModeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBytes = 32ull << 20;

  TrapModeTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = kBytes;
    device_ = std::make_unique<PmemDevice>(dev_options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, kBytes);

    Aquila::Options options;
    options.cache.capacity_pages = 1024;  // 4 MB cache over a 32 MB mapping
    options.cache.max_pages = 4096;
    options.cache.eviction_batch = 64;
    runtime_ = std::make_unique<Aquila>(options);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(TrapModeTest, RawLoadsSeeDeviceContents) {
  for (uint64_t i = 0; i < kBytes; i += kPageSize) {
    device_->dax_base()[i] = static_cast<uint8_t>(i >> kPageShift);
  }
  StatusOr<MemoryMap*> map = runtime_->MapTransparent(backing_.get(), kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  ASSERT_TRUE(amap->transparent());
  volatile uint8_t* data = amap->data();
  uint64_t faults_before = TrapDriver::HandledFaults();
  for (uint64_t page = 0; page < 64; page++) {
    ASSERT_EQ(data[page * kPageSize], static_cast<uint8_t>(page)) << page;
  }
  EXPECT_GE(TrapDriver::HandledFaults() - faults_before, 64u);
  // Second pass: genuine hardware hits, zero handler invocations.
  uint64_t faults_mid = TrapDriver::HandledFaults();
  for (uint64_t page = 0; page < 64; page++) {
    ASSERT_EQ(data[page * kPageSize], static_cast<uint8_t>(page));
  }
  EXPECT_EQ(TrapDriver::HandledFaults(), faults_mid);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(TrapModeTest, RawStoresTrackDirtyAndPersist) {
  StatusOr<MemoryMap*> map =
      runtime_->MapTransparent(backing_.get(), kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  uint8_t* data = amap->data();

  // Read first (maps RO), then store: the store takes the upgrade fault.
  volatile uint8_t sink = data[0];
  (void)sink;
  uint64_t upgrades_before = runtime_->fault_stats().write_upgrades.load();
  data[0] = 0xAB;
  EXPECT_EQ(runtime_->fault_stats().write_upgrades.load(), upgrades_before + 1);
  // Subsequent stores to the same page: pure hardware.
  uint64_t handled = TrapDriver::HandledFaults();
  data[1] = 0xCD;
  data[4000] = 0xEF;
  EXPECT_EQ(TrapDriver::HandledFaults(), handled);

  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);
  ASSERT_TRUE((*map)->Sync(0, kBytes).ok());
  EXPECT_EQ(device_->dax_base()[0], 0xAB);
  EXPECT_EQ(device_->dax_base()[1], 0xCD);
  EXPECT_EQ(device_->dax_base()[4000], 0xEF);

  // msync write-protected the page: the next store re-faults and re-dirties.
  uint64_t upgrades_mid = runtime_->fault_stats().write_upgrades.load();
  data[8] = 0x11;
  EXPECT_EQ(runtime_->fault_stats().write_upgrades.load(), upgrades_mid + 1);
  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(TrapModeTest, SurvivesEvictionUnderRawAccess) {
  // Mapping is 8x the cache: raw pointer traffic forces real unmap/remap
  // cycles through eviction; data must round-trip through writeback.
  StatusOr<MemoryMap*> map =
      runtime_->MapTransparent(backing_.get(), kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  uint8_t* data = amap->data();

  constexpr uint64_t kPages = kBytes / kPageSize;
  for (uint64_t page = 0; page < kPages; page++) {
    uint64_t value = page * 2654435761ull + 7;
    std::memcpy(data + page * kPageSize + 16, &value, sizeof(value));
  }
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  uint64_t writebacks = runtime_->fault_stats().writeback_pages.load();
  EXPECT_GT(writebacks, 0u);

  for (uint64_t page = 0; page < kPages; page++) {
    uint64_t value;
    std::memcpy(&value, data + page * kPageSize + 16, sizeof(value));
    ASSERT_EQ(value, page * 2654435761ull + 7) << page;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(TrapModeTest, MultiThreadedRawAccess) {
  StatusOr<MemoryMap*> map =
      runtime_->MapTransparent(backing_.get(), kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  uint8_t* data = amap->data();

  constexpr int kThreads = 4;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; t++) {
    pool.emplace_back([&, t] {
      runtime_->EnterThread();
      Rng rng(t + 31);
      for (int op = 0; op < 3000; op++) {
        uint64_t page = rng.Uniform(kBytes / kPageSize);
        uint8_t* slot = data + page * kPageSize + 32 + t;
        uint8_t value = static_cast<uint8_t>(t * 53 + (page & 0x3f));
        *slot = value;
        if (*slot != value) {
          corrupt.store(true);
        }
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(TrapModeTest, SoftAndTrapAccessorsInterop) {
  // The MemoryMap interface still works on a transparent mapping, and both
  // views are coherent (they are the same frames).
  StatusOr<MemoryMap*> map =
      runtime_->MapTransparent(backing_.get(), kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* amap = static_cast<AquilaMap*>(*map);
  uint8_t* data = amap->data();

  (*map)->StoreValue<uint64_t>(123456, 0xfeedface);  // soft write
  uint64_t raw;
  std::memcpy(&raw, data + 123456, 8);  // raw read of the same frame
  EXPECT_EQ(raw, 0xfeedfaceull);

  uint64_t other = 0xdeadbeef;
  std::memcpy(data + 200000, &other, 8);  // raw write
  EXPECT_EQ((*map)->LoadValue<uint64_t>(200000), 0xdeadbeefull);  // soft read
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// A whole-page soft Write fills its fresh frame from the written bytes
// (DESIGN.md §8). In trap mode a real load needs no fault once the real
// mapping is installed, so the bytes must land before it: with frames
// recycling from a second mapping, raw loads racing the writer must see each
// word's device stamp (tag 2) or a written value (tags 3..), never the other
// mapping's bytes (tag 1) left in the frame.
TEST_F(TrapModeTest, RawLoadsNeverSeeARecycledFrameBeforeItsOverwriteFill) {
  constexpr uint64_t kPagesA = 2048;  // twice the cache
  constexpr uint64_t kPagesB = 1024;
  constexpr uint64_t kOffsetB = kPagesA * kPageSize;
  auto word = [](uint64_t tag, uint64_t page, uint64_t w) {
    return (tag << 48) | (page << 12) | w;
  };
  // Fills `dst`, one page, with page `page`'s words under `tag`.
  auto stamp = [&](uint8_t* dst, uint64_t tag, uint64_t page) {
    for (uint64_t w = 0; w < kPageSize / 8; w++) {
      const uint64_t value = word(tag, page, w);
      std::memcpy(dst + w * 8, &value, 8);
    }
  };
  for (uint64_t p = 0; p < kPagesA; p++) {
    stamp(device_->dax_base() + p * kPageSize, 1, p);
  }
  for (uint64_t p = 0; p < kPagesB; p++) {
    stamp(device_->dax_base() + kOffsetB + p * kPageSize, 2, p);
  }
  DeviceBacking backing_a(device_.get(), 0, kPagesA * kPageSize);
  DeviceBacking backing_b(device_.get(), kOffsetB, kPagesB * kPageSize);
  StatusOr<MemoryMap*> map_a = runtime_->Map(&backing_a, kPagesA * kPageSize, kProtRead);
  ASSERT_TRUE(map_a.ok());
  StatusOr<MemoryMap*> map_b =
      runtime_->MapTransparent(&backing_b, kPagesB * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(map_b.ok());
  const uint8_t* raw = static_cast<AquilaMap*>(*map_b)->data();

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> bad_words{0};
  std::thread churn([&] {
    runtime_->EnterThread();
    Rng rng(21);
    while (writing.load(std::memory_order_relaxed)) {
      (void)(*map_a)->TouchRead(rng.Uniform(kPagesA) * kPageSize);
    }
  });
  std::thread reader([&] {
    runtime_->EnterThread();
    Rng rng(22);
    while (writing.load(std::memory_order_relaxed)) {
      const uint64_t p = rng.Uniform(kPagesB);
      const auto* words = reinterpret_cast<const uint64_t*>(raw + p * kPageSize);
      for (uint64_t w = 0; w < kPageSize / 8; w++) {
        const uint64_t value = __atomic_load_n(&words[w], __ATOMIC_RELAXED);
        const uint64_t tag = value >> 48;
        if (tag < 2 || value != word(tag, p, w)) {
          bad_words.fetch_add(1);
        }
      }
    }
  });
  runtime_->EnterThread();
  constexpr uint64_t kRounds = 4;
  auto write_rounds = [&] {
    std::vector<uint8_t> page(kPageSize);
    for (uint64_t round = 0; round < kRounds; round++) {
      for (uint64_t p = 0; p < kPagesB; p++) {
        stamp(page.data(), 3 + round, p);
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
  EXPECT_EQ(bad_words.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().overwrite_fills.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map_a).ok());
  ASSERT_TRUE(runtime_->Unmap(*map_b).ok());
}

}  // namespace
}  // namespace aquila
