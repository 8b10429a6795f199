// Edge-case and failure-injection tests that cut across modules:
// partial-range msync, remap shrink, cache shrink under load, out-of-space
// propagation, blobstore churn against a reference model, and zero-length /
// boundary conditions.
#include <gtest/gtest.h>

#include <map>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/kvs/lsm_db.h"
#include "src/storage/device_queue.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = 32ull << 20;
    device_ = std::make_unique<PmemDevice>(dev_options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, device_->capacity_bytes());
    Aquila::Options options;
    options.cache.capacity_pages = 2048;
    options.cache.max_pages = 8192;
    options.cache.eviction_batch = 64;
    runtime_ = std::make_unique<Aquila>(options);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(EdgeTest, PartialMsyncOnlyFlushesRange) {
  auto map = runtime_->Map(backing_.get(), 16ull << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);                 // page 0 dirty
  (*map)->TouchWrite(100 * kPageSize);   // page 100 dirty
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());  // flush only page 0
  EXPECT_EQ(device_->dax_base()[0], 1u);
  EXPECT_EQ(device_->dax_base()[100 * kPageSize], 0u);  // still only in cache
  EXPECT_EQ(runtime_->cache().TotalDirty(), 1u);        // page 100 stays dirty
  ASSERT_TRUE((*map)->Sync(100 * kPageSize, kPageSize).ok());
  EXPECT_EQ(device_->dax_base()[100 * kPageSize], 1u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(EdgeTest, MsyncRejectsBadRanges) {
  auto map = runtime_->Map(backing_.get(), 1ull << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE((*map)->Sync(0, 0).ok());
  EXPECT_FALSE((*map)->Sync(1ull << 20, kPageSize).ok());
  EXPECT_TRUE((*map)->Sync((1ull << 20) - kPageSize, kPageSize).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(EdgeTest, RemapShrinkDropsTail) {
  auto map = runtime_->Map(backing_.get(), 4ull << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  (*map)->TouchWrite(0);
  (*map)->TouchWrite((3ull << 20) + 5);  // in the tail that will be cut
  StatusOr<MemoryMap*> smaller = runtime_->Remap(*map, 1ull << 20);
  ASSERT_TRUE(smaller.ok());
  EXPECT_EQ((*smaller)->length(), 1ull << 20);
  // The tail page was written back when dropped.
  EXPECT_EQ(device_->dax_base()[(3ull << 20) + 5], 1u);
  // Accesses beyond the new length fail.
  std::vector<uint8_t> buf(8);
  EXPECT_FALSE((*smaller)->Read(2ull << 20, std::span(buf)).ok());
  // The kept prefix is intact.
  ASSERT_TRUE((*smaller)->Read(0, std::span(buf)).ok());
  EXPECT_EQ(buf[0], 1u);
  ASSERT_TRUE(runtime_->Unmap(*smaller).ok());
}

TEST_F(EdgeTest, CacheShrinkWithResidentPagesIsPartial) {
  auto map = runtime_->Map(backing_.get(), 8ull << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  // Make most of the cache resident.
  for (uint64_t page = 0; page < 1800; page++) {
    (*map)->TouchRead(page * kPageSize);
  }
  // Shrink can only take free frames; it must not steal resident ones.
  StatusOr<uint64_t> removed = runtime_->ShrinkCache(8ull << 20);
  ASSERT_TRUE(removed.ok());
  EXPECT_LT(*removed, 8ull << 20);
  // Everything still readable (resident pages untouched by the shrink).
  for (uint64_t page = 0; page < 1800; page += 97) {
    EXPECT_FALSE((*map)->TouchRead(page * kPageSize).faulted) << page;
  }
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(EdgeTest, MappingLargerThanBackingRejected) {
  EXPECT_FALSE(runtime_->Map(backing_.get(), device_->capacity_bytes() + kPageSize,
                             kProtRead).ok());
  EXPECT_FALSE(runtime_->MapTransparent(backing_.get(), device_->capacity_bytes() + kPageSize,
                                        kProtRead).ok());
}

TEST_F(EdgeTest, UnalignedLengthMappingZeroFillsTail) {
  // Map 1.5 pages: the second page's tail beyond the mapping is still a full
  // cache page; reads of the in-range part work, out-of-range rejected.
  uint64_t length = kPageSize + kPageSize / 2;
  auto map = runtime_->Map(backing_.get(), length, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  std::vector<uint8_t> buf(16);
  ASSERT_TRUE((*map)->Read(length - 16, std::span(buf)).ok());
  EXPECT_FALSE((*map)->Read(length - 8, std::span(buf)).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(EdgeTest, RemapOfTransparentMappingRejected) {
  auto map = runtime_->MapTransparent(backing_.get(), 1ull << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  StatusOr<MemoryMap*> remapped = runtime_->Remap(*map, 2ull << 20);
  EXPECT_FALSE(remapped.ok());
  EXPECT_EQ(remapped.status().code(), StatusCode::kUnimplemented);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(EdgeTest, WillNeedPrefetchesWithoutTranslations) {
  auto map = runtime_->Map(backing_.get(), 4ull << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 64 * kPageSize, Advice::kWillNeed).ok());
  // The prefetched pages are cached (no device read on access) but take a
  // minor fault for the translation.
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  uint64_t minors = runtime_->fault_stats().minor_faults.load();
  for (uint64_t page = 1; page < 8; page++) {
    (*map)->TouchRead(page * kPageSize);
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  EXPECT_GT(runtime_->fault_stats().minor_faults.load(), minors);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST(BlobChurnTest, RandomLifecycleMatchesModel) {
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 32ull << 20;
  PmemDevice device(dev_options);
  Blobstore::Options options;
  options.cluster_size = 64 * 1024;
  options.metadata_bytes = 2ull << 20;
  auto store = Blobstore::Format(ThisVcpu(), &device, options);
  ASSERT_TRUE(store.ok());

  std::map<BlobId, uint64_t> model;  // id -> cluster count
  Rng rng(17);
  uint64_t total_clusters = (*store)->total_data_clusters();
  for (int op = 0; op < 2000; op++) {
    switch (rng.Uniform(3)) {
      case 0: {
        uint64_t clusters = rng.Uniform(8);
        StatusOr<BlobId> id = (*store)->CreateBlob(clusters);
        if (id.ok()) {
          model[*id] = clusters;
        }
        break;
      }
      case 1: {
        if (model.empty()) {
          break;
        }
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        uint64_t clusters = rng.Uniform(16);
        if ((*store)->ResizeBlob(it->first, clusters).ok()) {
          it->second = clusters;
        }
        break;
      }
      default: {
        if (model.empty()) {
          break;
        }
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_TRUE((*store)->DeleteBlob(it->first).ok());
        model.erase(it);
      }
    }
    // Invariant: free + allocated == total.
    uint64_t allocated = 0;
    for (const auto& [id, clusters] : model) {
      allocated += clusters;
    }
    ASSERT_EQ((*store)->free_clusters() + allocated, total_clusters) << "op " << op;
  }
  // Survives a remount with the same shape.
  ASSERT_TRUE((*store)->Sync(ThisVcpu()).ok());
  auto reloaded = Blobstore::Load(ThisVcpu(), &device);
  ASSERT_TRUE(reloaded.ok());
  for (const auto& [id, clusters] : model) {
    EXPECT_EQ(*(*reloaded)->BlobClusterCount(id), clusters) << id;
  }
  EXPECT_EQ((*reloaded)->ListBlobs().size(), model.size());
}

TEST(LsmEdgeTest, EmptyDbAndEmptyValueBehave) {
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 64ull << 20;
  PmemDevice device(dev_options);
  auto store = Blobstore::Format(ThisVcpu(), &device, Blobstore::Options{});
  ASSERT_TRUE(store.ok());
  BlobNamespace ns(store->get());
  KvsEnv::Options env_options;
  env_options.store = store->get();
  env_options.ns = &ns;
  KvsEnv env(env_options);
  LsmDb::Options options;
  options.env = &env;
  auto db = LsmDb::Open(options);
  ASSERT_TRUE(db.ok());

  std::string value;
  bool found = true;
  ASSERT_TRUE((*db)->Get("nothing", &value, &found).ok());
  EXPECT_FALSE(found);
  int visits = 0;
  ASSERT_TRUE((*db)->Scan("", 10, [&](const Slice&, const Slice&) { visits++; }).ok());
  EXPECT_EQ(visits, 0);

  // Empty value round-trips (and survives a flush).
  ASSERT_TRUE((*db)->Put("empty", "").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Get("empty", &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "");

  // Delete of a non-existent key is fine; the tombstone still shadows later
  // lookups after compaction to the bottom level.
  ASSERT_TRUE((*db)->Delete("never-existed").ok());
  ASSERT_TRUE((*db)->Get("never-existed", &value, &found).ok());
  EXPECT_FALSE(found);
}

// A queueing device whose queue accepts every command and never completes
// one, while claiming something is ready: a wait on it can neither reap nor
// advance the clock.
class NeverCompletingQueue : public DeviceQueue {
 public:
  explicit NeverCompletingQueue(uint32_t depth) : DeviceQueue(depth) {}
  const char* name() const override { return "never"; }
  uint64_t io_alignment() const override { return 1; }
  Status SubmitRead(Vcpu& vcpu, uint64_t, std::span<uint8_t>, uint64_t) override {
    NoteSubmit();
    return Status::Ok();
  }
  Status SubmitWrite(Vcpu& vcpu, uint64_t, std::span<const uint8_t>, uint64_t) override {
    NoteSubmit();
    return Status::Ok();
  }
  uint32_t Poll(Vcpu&, std::vector<Completion>*) override { return 0; }
  uint64_t NextReadyAt() const override { return 0; }
};

class NeverCompletingDevice : public PmemDevice {
 public:
  using PmemDevice::PmemDevice;
  bool supports_queueing() const override { return true; }
  std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth) override {
    return std::make_unique<NeverCompletingQueue>(depth);
  }
};

TEST(EngineWaitDeathTest, AwaitFillOnAStuckQueueDumpsSlotsAndFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PmemDevice::Options dev_options;
        dev_options.capacity_bytes = 4ull << 20;
        NeverCompletingDevice device(dev_options);
        DeviceBacking backing(&device, 0, device.capacity_bytes());
        Aquila::Options options;
        options.cache.capacity_pages = 256;
        options.cache.max_pages = 1024;
        Aquila runtime(options);
        StatusOr<MemoryMap*> map = runtime.Map(&backing, 1 << 20, kProtRead);
        AQUILA_CHECK(map.ok());
        AQUILA_CHECK((*map)->Advise(0, 1 << 20, Advice::kSequential).ok());
        (void)(*map)->TouchRead(0);          // major fault; readahead fills queue up
        (void)(*map)->TouchRead(kPageSize);  // waits on a fill that never lands
      },
      "AwaitFill made no progress in 1000 steps(.|\n)*slot [0-9]+: kind=fill key=0x");
}

// The allocation loop's twin of the engine wait check: a fault whose every
// reclaim round frees nothing (no completion to reap, no pending batch to
// flush, every victim's entry lock held) must dump the allocator state and
// fail instead of spinning forever.
TEST(AllocWaitDeathTest, AllocationThatNeverGainsAFrameDumpsTheAllocatorAndFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PmemDevice::Options dev_options;
        dev_options.capacity_bytes = 4ull << 20;
        PmemDevice device(dev_options);
        DeviceBacking backing(&device, 0, device.capacity_bytes());
        constexpr uint64_t kFrames = 64;
        Aquila::Options options;
        options.cache.capacity_pages = kFrames;
        options.cache.max_pages = 4 * kFrames;
        Aquila runtime(options);
        StatusOr<MemoryMap*> map = runtime.Map(&backing, 1 << 20, kProtRead);
        AQUILA_CHECK(map.ok());
        AQUILA_CHECK((*map)->Advise(0, 1 << 20, Advice::kRandom).ok());
        const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
        for (uint64_t page = 0; page < kFrames; page++) {
          (void)(*map)->TouchRead(page * kPageSize);
        }
        // Hold every resident page's entry lock: eviction may claim their
        // frames but must hand each one back.
        for (uint64_t page = 0; page < kFrames; page++) {
          AQUILA_CHECK(runtime.vma_tree().LockEntry(start_page + page) != nullptr);
        }
        (void)(*map)->TouchRead(kFrames * kPageSize);
      },
      "frame allocation made no progress in [0-9]+ rounds(.|\n)*approx_free=0(.|\n)*"
      "pending_reclaim=");
}

// Poll's twin of the allocation check: a batch request parked on a page
// whose writeback owner never finishes (here: a frame left in kWritingBack
// with nothing in flight) is kicked and re-parks forever. Poll must dump the
// parked table, the engines' in-flight sets and the per-queue free counts,
// then fail instead of spinning.
TEST(PollWaitDeathTest, ParkThatIsNeverWokenDumpsTheSchedulerAndFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PmemDevice::Options dev_options;
        dev_options.capacity_bytes = 4ull << 20;
        PmemDevice device(dev_options);
        DeviceBacking backing(&device, 0, device.capacity_bytes());
        Aquila::Options options;
        options.cache.capacity_pages = 256;
        options.cache.max_pages = 1024;
        options.async_writeback = true;
        options.coop_sched = true;
        Aquila runtime(options);
        StatusOr<MemoryMap*> map = runtime.Map(&backing, 1 << 20, kProtRead);
        AQUILA_CHECK(map.ok());
        AQUILA_CHECK((*map)->Advise(0, 1 << 20, Advice::kRandom).ok());
        AQUILA_CHECK((*map)->TouchRead(0).ok());
        // Unmap the page but keep it cached, owned by a writeback that no
        // engine knows about: the next access takes the minor-fault path
        // and parks at park point (b) with nothing in flight to wake it.
        const uint64_t vaddr = static_cast<AquilaMap*>(*map)->vma().start_page << kPageShift;
        const uint64_t pte = runtime.page_table().Remove(vaddr);
        AQUILA_CHECK(Pte::Present(pte));
        runtime.cache()
            .frame(static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift))
            .state.store(FrameState::kWritingBack);
        MmioRequest req;
        req.kind = MmioRequest::Kind::kRead;
        AQUILA_CHECK((*map)->SubmitBatch(std::span(&req, 1)).ok());
        MmioCompletion out;
        (void)(*map)->Poll(std::span(&out, 1));
      },
      "Poll made no progress in [0-9]+ rounds(.|\n)*parked: token=[0-9]+ key=0x(.|\n)*"
      "in_flight=0(.|\n)*numa 0 queue: free=");
}

}  // namespace
}  // namespace aquila
