// Fault injection and recovery: the FaultInjectingDevice schedule, the
// BlockDevice retry policy, mmio degraded mode, linuxsim msync error
// propagation, and crash consistency of the WAL / SST / blobstore /
// Kreon on-device formats (power-cut, torn-tail, and bit-flip scenarios).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/blob/blob_namespace.h"
#include "src/blob/blobstore.h"
#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/kvs/coding.h"
#include "src/kvs/env.h"
#include "src/kvs/kreon_db.h"
#include "src/kvs/lsm_db.h"
#include "src/kvs/sst.h"
#include "src/linuxsim/linux_mmap.h"
#include "src/storage/fault_device.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/crc32c.h"

namespace aquila {
namespace {

std::unique_ptr<PmemDevice> MakePmem(uint64_t bytes) {
  PmemDevice::Options options;
  options.capacity_bytes = bytes;
  return std::make_unique<PmemDevice>(options);
}

// --- Fault schedule -------------------------------------------------------------

TEST(FaultDeviceTest, NthOpTriggerFailsExactlyOnce) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.fail_writes = {1};
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize, 0x42);
  // Attempt 1 fails, the retry (attempt 2) succeeds: the caller never sees
  // the transient error, only the counters do.
  ASSERT_TRUE(dev.Write(vcpu, 0, std::span<const uint8_t>(buf)).ok());
  EXPECT_EQ(dev.fault_stats().injected_write_errors.load(), 1u);
  EXPECT_EQ(dev.stats().io_errors.load(), 1u);
  EXPECT_EQ(dev.stats().io_retries.load(), 1u);
  EXPECT_EQ(dev.stats().io_gave_up.load(), 0u);
  // The data still made it through.
  std::vector<uint8_t> in(kPageSize, 0);
  ASSERT_TRUE(dev.Read(vcpu, 0, std::span(in)).ok());
  EXPECT_EQ(in, buf);
}

TEST(FaultDeviceTest, PersistentFailureExhaustsRetryBudget) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.fail_reads = {1, 2, 3};  // every attempt of the first request
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  Status status = dev.Read(vcpu, 0, std::span(buf));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(dev.stats().io_errors.load(), 3u);
  EXPECT_EQ(dev.stats().io_retries.load(), 2u);
  EXPECT_EQ(dev.stats().io_gave_up.load(), 1u);
  // The next request starts a fresh schedule position and succeeds.
  ASSERT_TRUE(dev.Read(vcpu, 0, std::span(buf)).ok());
}

TEST(FaultDeviceTest, RetryBackoffChargesSimulatedTime) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.fail_writes = {1};
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize, 1);
  uint64_t idle_before = vcpu.clock().Breakdown()[CostCategory::kIdle];
  ASSERT_TRUE(dev.Write(vcpu, 0, std::span<const uint8_t>(buf)).ok());
  EXPECT_GE(vcpu.clock().Breakdown()[CostCategory::kIdle] - idle_before,
            dev.retry_policy().initial_backoff_cycles);
}

TEST(FaultDeviceTest, SameSeedSameFaults) {
  auto run = [](uint64_t seed) {
    auto pmem = MakePmem(16ull << 20);
    FaultInjectingDevice::Options fopts;
    fopts.seed = seed;
    fopts.read_error_rate = 0.3;
    FaultInjectingDevice dev(pmem.get(), fopts);
    Vcpu vcpu(0);
    std::vector<uint8_t> buf(kPageSize);
    for (int i = 0; i < 50; i++) {
      (void)dev.Read(vcpu, (static_cast<uint64_t>(i) % 16) * kPageSize, std::span(buf));
    }
    return dev.fault_stats().injected_read_errors.load();
  };
  uint64_t a = run(7);
  EXPECT_EQ(a, run(7));  // reproducible
  EXPECT_GT(a, 0u);      // and actually injecting
}

TEST(FaultDeviceTest, LatencySpikeChargesDeviceTime) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.latency_spike_rate = 1.0;
  fopts.latency_spike_cycles = 5'000'000;
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  uint64_t io_before = vcpu.clock().Breakdown()[CostCategory::kDeviceIo];
  ASSERT_TRUE(dev.Read(vcpu, 0, std::span(buf)).ok());
  EXPECT_GE(vcpu.clock().Breakdown()[CostCategory::kDeviceIo] - io_before,
            fopts.latency_spike_cycles);
  EXPECT_EQ(dev.fault_stats().latency_spikes.load(), 1u);
}

TEST(FaultDeviceTest, QueueLatencySpikeExtendsCompletionNotSubmitter) {
  // On a native device queue the spike is extra media time on the command:
  // it shows up as a later ready_at when the completion reaps, never as CPU
  // time blocking the submitter (that would defeat the async overlap).
  NvmeController::Options copts;
  copts.capacity_bytes = 16ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  FaultInjectingDevice::Options fopts;
  fopts.latency_spike_rate = 1.0;
  fopts.latency_spike_cycles = 5'000'000;
  FaultInjectingDevice dev(&nvme, fopts);
  ASSERT_TRUE(dev.supports_queueing());
  auto queue = dev.CreateQueue(4);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  uint64_t before = vcpu.clock().Now();
  ASSERT_TRUE(queue->SubmitRead(vcpu, 0, std::span(buf), 7).ok());
  EXPECT_LT(vcpu.clock().Now() - before, fopts.latency_spike_cycles);
  EXPECT_EQ(dev.fault_stats().latency_spikes.load(), 1u);

  std::vector<DeviceQueue::Completion> done;
  ASSERT_TRUE(queue->WaitMin(vcpu, 1, &done).ok());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.ok());
  EXPECT_EQ(done[0].user_data, 7u);
  EXPECT_GE(done[0].ready_at - done[0].submit_at, fopts.latency_spike_cycles);
  // With nothing to overlap, waiting out the spiked command advanced the
  // clock past the extended deadline.
  EXPECT_GE(vcpu.clock().Now() - before, fopts.latency_spike_cycles);
}

TEST(FaultDeviceTest, TornWriteLeavesPrefixOnMedium) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.seed = 99;
  fopts.fail_writes = {1, 2, 3};  // all attempts fail: the tear survives
  fopts.torn_writes = true;
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> buf(4 * kPageSize, 0xEE);
  EXPECT_FALSE(dev.Write(vcpu, 0, std::span<const uint8_t>(buf)).ok());
  EXPECT_EQ(dev.fault_stats().injected_write_errors.load(), 3u);
  // The medium holds a (possibly empty) prefix of the request and nothing
  // beyond it: find the first untouched byte, everything after matches it.
  const uint8_t* dax = pmem->dax_base();
  size_t prefix = 0;
  while (prefix < buf.size() && dax[prefix] == 0xEE) {
    prefix++;
  }
  for (size_t i = prefix; i < buf.size(); i++) {
    ASSERT_EQ(dax[i], 0) << i;
  }
}

TEST(FaultDeviceTest, PowerCutDropsUnflushedWrites) {
  auto pmem = MakePmem(16ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.buffer_unflushed_writes = true;
  FaultInjectingDevice dev(pmem.get(), fopts);
  Vcpu vcpu(0);
  std::vector<uint8_t> a(kPageSize, 0xAA), b(kPageSize, 0xBB);
  ASSERT_TRUE(dev.Write(vcpu, 0, std::span<const uint8_t>(a)).ok());
  ASSERT_TRUE(dev.Flush(vcpu).ok());
  ASSERT_TRUE(dev.Write(vcpu, 4 * kPageSize, std::span<const uint8_t>(b)).ok());
  // Before the cut, reads see the write cache.
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE(dev.Read(vcpu, 4 * kPageSize, std::span(in)).ok());
  EXPECT_EQ(in, b);
  // But the medium does not.
  EXPECT_EQ(pmem->dax_base()[4 * kPageSize], 0);

  dev.PowerCut();
  EXPECT_TRUE(dev.offline());
  EXPECT_FALSE(dev.Read(vcpu, 0, std::span(in)).ok());
  dev.Revive();
  ASSERT_TRUE(dev.Read(vcpu, 0, std::span(in)).ok());
  EXPECT_EQ(in, a);  // flushed data survived
  ASSERT_TRUE(dev.Read(vcpu, 4 * kPageSize, std::span(in)).ok());
  EXPECT_EQ(in, std::vector<uint8_t>(kPageSize, 0));  // unflushed data gone
}

// --- mmio degraded mode ---------------------------------------------------------

class DegradedMmioTest : public ::testing::Test {
 protected:
  DegradedMmioTest() {
    pmem_ = MakePmem(64ull << 20);
    FaultInjectingDevice::Options fopts;
    fopts.write_error_rate = 1.0;  // every write attempt fails
    faults_ = std::make_unique<FaultInjectingDevice>(pmem_.get(), fopts);
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = 1024;
    options.cache.max_pages = 4096;
    options.cache.eviction_batch = 64;
    runtime_ = std::make_unique<Aquila>(options);
    backing_ = std::make_unique<DeviceBacking>(faults_.get(), 0, 16ull << 20);
  }

  std::unique_ptr<PmemDevice> pmem_;
  std::unique_ptr<FaultInjectingDevice> faults_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_F(DegradedMmioTest, MsyncReportsErrorThenMapDegradesReadOnly) {
  StatusOr<MemoryMap*> map = runtime_->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::vector<uint8_t> buf(kPageSize, 0x5A);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());

  // Msync fails (no abort), the page stays dirty, and each failure counts
  // toward the degradation limit.
  uint32_t limit = runtime_->options().writeback_failure_limit;
  for (uint32_t i = 0; i < limit; i++) {
    EXPECT_FALSE(aq_map->degraded());
    Status status = (*map)->Sync(0, kPageSize);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << i;
    EXPECT_EQ(runtime_->cache().TotalDirty(), 1u) << i;
  }
  EXPECT_TRUE(aq_map->degraded());
  EXPECT_GE(runtime_->fault_stats().writeback_errors.load(), limit);
  EXPECT_GT(faults_->fault_stats().injected_write_errors.load(), 0u);
  EXPECT_GT(faults_->stats().io_retries.load(), 0u);

  // Degraded: writes are refused, reads still served from cache/device.
  EXPECT_EQ((*map)->Write(0, std::span<const uint8_t>(buf)).code(), StatusCode::kIoError);
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE((*map)->Read(0, std::span(in)).ok());
  EXPECT_EQ(in, buf);  // the dirty page is still resident and readable

  // Unmap surfaces the writeback failure as a Status, not a crash.
  EXPECT_FALSE(runtime_->Unmap(*map).ok());
}

TEST_F(DegradedMmioTest, RearmWritebackRecoversDegradedMappingAfterHeal) {
  StatusOr<MemoryMap*> map = runtime_->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::vector<uint8_t> buf(kPageSize, 0x7C);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  for (uint32_t i = 0; i < runtime_->options().writeback_failure_limit; i++) {
    EXPECT_FALSE((*map)->Sync(0, kPageSize).ok());
  }
  ASSERT_TRUE(aq_map->degraded());
  EXPECT_EQ((*map)->Write(0, std::span<const uint8_t>(buf)).code(), StatusCode::kIoError);

  // Device heals; one rearm restores write service and msync durability.
  faults_->set_write_error_rate(0.0);
  ASSERT_TRUE(aq_map->RearmWriteback().ok());
  EXPECT_FALSE(aq_map->degraded());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  std::vector<uint8_t> fresh(kPageSize, 0x7D);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(fresh)).ok());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  // The failure streak restarted from zero: the healed data is on-device.
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE((*map)->Read(0, std::span(in)).ok());
  EXPECT_EQ(in, fresh);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

TEST_F(DegradedMmioTest, WritebackSuccessResetsFailureStreak) {
  StatusOr<MemoryMap*> map = runtime_->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::vector<uint8_t> buf(kPageSize, 0x11);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  EXPECT_FALSE((*map)->Sync(0, kPageSize).ok());
  EXPECT_FALSE((*map)->Sync(0, kPageSize).ok());
  // The device recovers before the limit is reached.
  faults_->set_write_error_rate(0.0);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_FALSE(aq_map->degraded());
  // A fresh failure streak must start from zero again.
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// --- async writeback failure handling -------------------------------------------

// Same degradation ladder as DegradedMmioTest, but the failures arrive as
// DeviceQueue completions instead of synchronous WritePages errors. Runs in
// both capability modes: the sync-emulation shim (fault device over pmem,
// supports_queueing() == false) and the native NVMe queue with injection at
// the FaultInjectingQueue layer.
class AsyncDegradedMmioTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    const bool use_nvme = GetParam();
    BlockDevice* inner;
    if (use_nvme) {
      NvmeController::Options copts;
      copts.capacity_bytes = 64ull << 20;
      ctrl_ = std::make_unique<NvmeController>(copts);
      nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
      inner = nvme_.get();
    } else {
      pmem_ = MakePmem(64ull << 20);
      inner = pmem_.get();
    }
    FaultInjectingDevice::Options fopts;
    fopts.write_error_rate = 1.0;
    faults_ = std::make_unique<FaultInjectingDevice>(inner, fopts);
    ASSERT_EQ(faults_->supports_queueing(), use_nvme);

    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = 1024;
    options.cache.max_pages = 4096;
    options.cache.eviction_batch = 64;
    options.async_writeback = true;
    options.async_queue_depth = 8;
    runtime_ = std::make_unique<Aquila>(options);
    backing_ = std::make_unique<DeviceBacking>(faults_.get(), 0, 16ull << 20);
  }

  // Reaps until the failed writeback's completion restores the page dirty.
  void ReapUntilRestored() {
    Vcpu& vcpu = ThisVcpu();
    for (int i = 0; i < 1000 && runtime_->cache().TotalDirty() == 0; i++) {
      runtime_->HarvestAsyncWritebacks(vcpu, HarvestMode::kWaitOne);
    }
    ASSERT_EQ(runtime_->cache().TotalDirty(), 1u);
  }

  std::unique_ptr<PmemDevice> pmem_;
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<FaultInjectingDevice> faults_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_P(AsyncDegradedMmioTest, CompletionErrorsRestoreDirtyAndDegrade) {
  StatusOr<MemoryMap*> map = runtime_->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::vector<uint8_t> buf(kPageSize, 0x5A);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());

  uint32_t limit = runtime_->options().writeback_failure_limit;
  for (uint32_t i = 0; i < limit; i++) {
    EXPECT_FALSE(aq_map->degraded()) << i;
    // Submission succeeds — the I/O error travels in the completion.
    ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kDontNeed).ok()) << i;
    ReapUntilRestored();
  }
  EXPECT_TRUE(aq_map->degraded());
  EXPECT_GE(runtime_->fault_stats().writeback_errors.load(), limit);
  EXPECT_GT(faults_->fault_stats().injected_write_errors.load(), 0u);

  // Degraded parity with the sync pipeline: writes refused, reads served.
  EXPECT_EQ((*map)->Write(0, std::span<const uint8_t>(buf)).code(), StatusCode::kIoError);
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE((*map)->Read(0, std::span(in)).ok());
  EXPECT_EQ(in, buf);

  // Unmap surfaces the final (synchronous) writeback failure as a Status.
  EXPECT_FALSE(runtime_->Unmap(*map).ok());
}

TEST_P(AsyncDegradedMmioTest, CompletionSuccessResetsFailureStreak) {
  StatusOr<MemoryMap*> map = runtime_->Map(backing_.get(), 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  std::vector<uint8_t> buf(kPageSize, 0x11);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kDontNeed).ok());
  ReapUntilRestored();
  ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kDontNeed).ok());
  ReapUntilRestored();

  // The device recovers before the limit: the next completion succeeds,
  // resets the streak, and actually releases the page.
  faults_->set_write_error_rate(0.0);
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  EXPECT_FALSE(aq_map->degraded());
  EXPECT_EQ(runtime_->cache().TotalDirty(), 0u);
  ASSERT_TRUE((*map)->Write(0, std::span<const uint8_t>(buf)).ok());
  ASSERT_TRUE((*map)->Sync(0, kPageSize).ok());
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

INSTANTIATE_TEST_SUITE_P(ShimAndNative, AsyncDegradedMmioTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NvmeQueue" : "SyncShim";
                         });

// --- reclaim writeback failures, both writeback modes ---------------------------

// Eviction and madvise(DONTNEED) share one reclaim pipeline whose writeback
// runs synchronously or through the async engines (Options::async_writeback).
// A failed write must be charged to the same mapping and leave the same page
// states in both modes. `bad_` fails every write; `good_` is healthy.
class ReclaimWritebackErrorTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr uint64_t kCachePages = 256;

  void SetUp() override {
    good_ = MakePmem(64ull << 20);
    bad_pmem_ = MakePmem(64ull << 20);
    FaultInjectingDevice::Options fopts;
    fopts.write_error_rate = 1.0;
    bad_ = std::make_unique<FaultInjectingDevice>(bad_pmem_.get(), fopts);
    good_backing_ = std::make_unique<DeviceBacking>(good_.get(), 0, 16ull << 20);
    bad_backing_ = std::make_unique<DeviceBacking>(bad_.get(), 0, 16ull << 20);

    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = 4096;
    options.cache.eviction_batch = 64;
    options.async_writeback = GetParam();
    options.async_queue_depth = 8;
    runtime_ = std::make_unique<Aquila>(options);
  }

  AquilaMap* MapRw(DeviceBacking* backing, uint64_t bytes) {
    StatusOr<MemoryMap*> map = runtime_->Map(backing, bytes, kProtRead | kProtWrite);
    EXPECT_TRUE(map.ok());
    return map.ok() ? static_cast<AquilaMap*>(*map) : nullptr;
  }

  // Reaps every in-flight async writeback; a no-op in sync mode. Each
  // kWaitOne reaps at least one completion while any is in flight, and at
  // most async_queue_depth per mapping are.
  void ReapAll() {
    for (int i = 0; i < 64; i++) {
      runtime_->HarvestAsyncWritebacks(ThisVcpu(), HarvestMode::kWaitOne);
    }
  }

  uint64_t MajorFaults() const { return runtime_->fault_stats().major_faults.load(); }

  std::unique_ptr<PmemDevice> good_;
  std::unique_ptr<PmemDevice> bad_pmem_;
  std::unique_ptr<FaultInjectingDevice> bad_;
  std::unique_ptr<DeviceBacking> good_backing_;
  std::unique_ptr<DeviceBacking> bad_backing_;
  std::unique_ptr<Aquila> runtime_;
};

TEST_P(ReclaimWritebackErrorTest, EvictionChargesFailuresToThePagesOwner) {
  AquilaMap* a = MapRw(good_backing_.get(), 4 * kCachePages * kPageSize);
  AquilaMap* b = MapRw(bad_backing_.get(), kCachePages * kPageSize);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // B dirties a quarter of the cache; its device will refuse every write.
  std::vector<uint8_t> buf(kPageSize, 0xB0);
  for (uint64_t p = 0; p < kCachePages / 4; p++) {
    ASSERT_TRUE(b->Write(p * kPageSize, std::span<const uint8_t>(buf)).ok()) << p;
  }
  // Faults on A, four times the cache: eviction keeps picking B's dirty
  // pages, failing to write them, and restoring them.
  std::vector<uint8_t> in(kPageSize);
  for (uint64_t p = 0; p < 4 * kCachePages; p++) {
    ASSERT_TRUE(a->Read(p * kPageSize, std::span(in)).ok()) << p;
  }
  ReapAll();
  EXPECT_GE(runtime_->fault_stats().writeback_errors.load(),
            runtime_->options().writeback_failure_limit);

  // The failures belong to B, whose pages could not be written — not to A,
  // whose faults happened to drive the eviction.
  EXPECT_FALSE(a->degraded());
  EXPECT_TRUE(a->Write(0, std::span<const uint8_t>(buf)).ok());
  EXPECT_TRUE(b->degraded());
  EXPECT_EQ(b->Write(0, std::span<const uint8_t>(buf)).code(), StatusCode::kIoError);
  // B's unwritten data survived every failed eviction.
  ASSERT_TRUE(b->Read(0, std::span(in)).ok());
  EXPECT_EQ(in, buf);
}

TEST_P(ReclaimWritebackErrorTest, DontNeedKeepsUnwrittenDirtyPagesAndDropsCleanOnes) {
  constexpr uint64_t kDirty = 4;
  constexpr uint64_t kClean = 4;
  AquilaMap* b = MapRw(bad_backing_.get(), 1 << 20);
  ASSERT_NE(b, nullptr);
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t p = 0; p < kDirty; p++) {
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(0xD0 + p));
    ASSERT_TRUE(b->Write(p * kPageSize, std::span<const uint8_t>(buf)).ok());
  }
  std::vector<uint8_t> in(kPageSize);
  for (uint64_t p = kDirty; p < kDirty + kClean; p++) {
    ASSERT_TRUE(b->Read(p * kPageSize, std::span(in)).ok());
  }

  Status status = b->Advise(0, (kDirty + kClean) * kPageSize, Advice::kDontNeed);
  if (GetParam()) {
    // Submission succeeds; the I/O errors arrive in the completions, which
    // restore the pages.
    EXPECT_TRUE(status.ok()) << status.ToString();
    ReapAll();
  } else {
    EXPECT_EQ(status.code(), StatusCode::kIoError);
  }

  // The dirty pages stay resident and dirty, and still hold their data.
  EXPECT_EQ(runtime_->cache().TotalDirty(), kDirty);
  const uint64_t majors = MajorFaults();
  for (uint64_t p = 0; p < kDirty; p++) {
    ASSERT_TRUE(b->Read(p * kPageSize, std::span(in)).ok());
    EXPECT_EQ(in, std::vector<uint8_t>(kPageSize, static_cast<uint8_t>(0xD0 + p))) << p;
  }
  EXPECT_EQ(MajorFaults(), majors);
  // The clean pages were dropped: reading them goes back to the device.
  for (uint64_t p = kDirty; p < kDirty + kClean; p++) {
    ASSERT_TRUE(b->Read(p * kPageSize, std::span(in)).ok());
  }
  EXPECT_EQ(MajorFaults(), majors + kClean);
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, ReclaimWritebackErrorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Async" : "Sync";
                         });

// --- linuxsim msync error propagation -------------------------------------------

TEST(LinuxSimFaultTest, MsyncPropagatesWritebackError) {
  auto pmem = MakePmem(64ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.write_error_rate = 1.0;
  FaultInjectingDevice faults(pmem.get(), fopts);
  DeviceBacking backing(&faults, 0, 16ull << 20);
  LinuxMmapEngine::Options options;
  options.cache_pages = 1024;
  LinuxMmapEngine engine(options);
  auto map = engine.Map(&backing, 1 << 20, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->TouchWrite(0).faulted);
  EXPECT_EQ((*map)->Sync(0, kPageSize).code(), StatusCode::kIoError);
  EXPECT_GT(engine.stats().writeback_errors.load(), 0u);
  // The page is still dirty: once the device heals, msync succeeds.
  faults.set_write_error_rate(0.0);
  EXPECT_TRUE((*map)->Sync(0, kPageSize).ok());
  ASSERT_TRUE(engine.Unmap(*map).ok());
}

// --- Crash consistency: WAL + blobstore power cut -------------------------------

TEST(CrashConsistencyTest, PowerCutPreservesSyncedWalAndSuperblock) {
  auto pmem = MakePmem(512ull << 20);
  FaultInjectingDevice::Options fopts;
  fopts.buffer_unflushed_writes = true;
  FaultInjectingDevice faults(pmem.get(), fopts);
  Vcpu& vcpu = ThisVcpu();

  Blobstore::Options bs_options;
  bs_options.cluster_size = 64 * 1024;
  bs_options.metadata_bytes = 1ull << 20;
  auto store = Blobstore::Format(vcpu, &faults, bs_options);
  ASSERT_TRUE(store.ok());
  BlobNamespace ns(store->get());
  KvsEnv::Options env_options;
  env_options.store = store->get();
  env_options.ns = &ns;
  env_options.read_path = ReadPath::kDirectIo;
  KvsEnv env(env_options);

  LsmDb::Options db_options;
  db_options.env = &env;
  db_options.memtable_bytes = 1 << 20;  // everything stays in WAL + memtable
  auto db = LsmDb::Open(db_options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE((*db)->Put("acked" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Durability barrier: WAL data, then the blobstore metadata that names it.
  ASSERT_TRUE((*db)->SyncWal().ok());
  ASSERT_TRUE((*store)->Sync(vcpu).ok());
  // More writes after the barrier; these are allowed to vanish.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE((*db)->Put("unsynced" + std::to_string(i), "x").ok());
  }

  faults.PowerCut();

  // "Reboot": load the store from the raw medium, which holds exactly the
  // flushed state. No data acknowledged by the barrier may be missing.
  auto store2 = Blobstore::Load(vcpu, pmem.get());
  ASSERT_TRUE(store2.ok());
  BlobNamespace ns2(store2->get());
  ASSERT_TRUE(ns2.Recover().ok());
  KvsEnv::Options env2_options;
  env2_options.store = store2->get();
  env2_options.ns = &ns2;
  env2_options.read_path = ReadPath::kDirectIo;
  KvsEnv env2(env2_options);
  LsmDb::Options db2_options;
  db2_options.env = &env2;
  db2_options.memtable_bytes = 1 << 20;
  auto db2 = LsmDb::Open(db2_options);
  ASSERT_TRUE(db2.ok());
  for (int i = 0; i < 200; i++) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db2)->Get("acked" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

// --- Crash consistency: torn WAL tail -------------------------------------------

// Mirrors LsmDb's WAL record format (lsm_db.cc):
//   fixed32 crc | fixed32 klen | fixed32 vlen | u8 type | key | value
void AppendWalRecord(std::string* out, const std::string& key, const std::string& value) {
  size_t crc_pos = out->size();
  PutFixed32(out, 0);
  PutFixed32(out, static_cast<uint32_t>(key.size()));
  PutFixed32(out, static_cast<uint32_t>(value.size()));
  out->push_back(static_cast<char>(ValueType::kValue));
  out->append(key);
  out->append(value);
  uint32_t crc = Crc32c(out->data() + crc_pos + 4, out->size() - crc_pos - 4);
  EncodeFixed32(out->data() + crc_pos, crc);
}

class WalReplayTest : public ::testing::Test {
 protected:
  WalReplayTest() {
    device_ = MakePmem(256ull << 20);
    Blobstore::Options bs_options;
    bs_options.cluster_size = 64 * 1024;
    bs_options.metadata_bytes = 1ull << 20;
    auto store = Blobstore::Format(ThisVcpu(), device_.get(), bs_options);
    AQUILA_CHECK(store.ok());
    store_ = std::move(*store);
    ns_ = std::make_unique<BlobNamespace>(store_.get());
    KvsEnv::Options env_options;
    env_options.store = store_.get();
    env_options.ns = ns_.get();
    env_options.read_path = ReadPath::kDirectIo;
    env_ = std::make_unique<KvsEnv>(env_options);
  }

  // Writes `data` as the database's WAL file, as if a crash left it behind.
  void PlantWal(const std::string& data) {
    auto file = env_->NewWritableFile("/db/WAL");
    AQUILA_CHECK(file.ok());
    AQUILA_CHECK((*file)->Append(data).ok());
    AQUILA_CHECK((*file)->Close().ok());
  }

  std::unique_ptr<LsmDb> OpenDb() {
    LsmDb::Options options;
    options.env = env_.get();
    options.name = "/db";
    auto db = LsmDb::Open(options);
    AQUILA_CHECK(db.ok());
    return std::move(*db);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<Blobstore> store_;
  std::unique_ptr<BlobNamespace> ns_;
  std::unique_ptr<KvsEnv> env_;
};

TEST_F(WalReplayTest, CleanLogReplaysFully) {
  std::string wal;
  for (int i = 0; i < 50; i++) {
    AppendWalRecord(&wal, "wk" + std::to_string(i), "wv" + std::to_string(i));
  }
  PlantWal(wal);
  auto db = OpenDb();
  for (int i = 0; i < 50; i++) {
    std::string value;
    bool found;
    ASSERT_TRUE(db->Get("wk" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
    EXPECT_EQ(value, "wv" + std::to_string(i));
  }
}

TEST_F(WalReplayTest, TornTailIsTruncatedNotFatal) {
  std::string wal;
  for (int i = 0; i < 50; i++) {
    AppendWalRecord(&wal, "wk" + std::to_string(i), "wv" + std::to_string(i));
  }
  // A record whose payload was cut off mid-write.
  std::string torn;
  AppendWalRecord(&torn, "tornkey", std::string(100, 't'));
  wal.append(torn.data(), torn.size() - 60);
  PlantWal(wal);
  auto db = OpenDb();
  std::string value;
  bool found;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Get("wk" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
  }
  ASSERT_TRUE(db->Get("tornkey", &value, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(WalReplayTest, CorruptRecordTruncatesReplayThere) {
  std::string wal;
  for (int i = 0; i < 10; i++) {
    AppendWalRecord(&wal, "good" + std::to_string(i), "v");
  }
  size_t corrupt_at = wal.size();
  AppendWalRecord(&wal, "evil", "payload");
  wal[corrupt_at + 20] ^= 0x01;  // flip a payload bit: CRC must catch it
  AppendWalRecord(&wal, "after", "v");  // valid, but unreachable past the tear
  PlantWal(wal);
  auto db = OpenDb();
  std::string value;
  bool found;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Get("good" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
  }
  ASSERT_TRUE(db->Get("evil", &value, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(db->Get("after", &value, &found).ok());
  EXPECT_FALSE(found);
}

// --- Crash consistency: SST block checksums -------------------------------------

TEST_F(WalReplayTest, SstBlockBitFlipIsDetected) {
  auto file = env_->NewWritableFile("/t.sst");
  ASSERT_TRUE(file.ok());
  SstBuilder builder(file->get(), SstOptions{});
  for (int i = 0; i < 1000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    builder.Add(Slice(key), static_cast<uint64_t>(i), ValueType::kValue,
                "FLIPTARGET-" + std::to_string(i) + std::string(64, 'z'));
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  // Flip one bit of key000500's value directly on the medium.
  const std::string needle = "FLIPTARGET-500z";
  uint8_t* dax = device_->dax_base();
  uint64_t capacity = device_->capacity_bytes();
  uint8_t* hit = static_cast<uint8_t*>(
      memmem(dax, capacity, needle.data(), needle.size()));
  ASSERT_NE(hit, nullptr);
  *hit ^= 0x40;

  auto raf = env_->NewRandomAccessFile("/t.sst");
  ASSERT_TRUE(raf.ok());
  auto reader = SstReader::Open(std::move(*raf), nullptr, 1);
  ASSERT_TRUE(reader.ok());
  std::string value;
  bool found, deleted;
  Status status = (*reader)->Get("key000500", &value, &found, &deleted);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Other blocks are unaffected.
  ASSERT_TRUE((*reader)->Get("key000001", &value, &found, &deleted).ok());
  EXPECT_TRUE(found);
}

// --- Crash consistency: blobstore dual superblock -------------------------------

TEST(BlobstoreCrashTest, InterruptedSyncKeepsPreviousGeneration) {
  auto pmem = MakePmem(128ull << 20);
  Vcpu& vcpu = ThisVcpu();
  Blobstore::Options bs_options;
  bs_options.cluster_size = 64 * 1024;
  bs_options.metadata_bytes = 1ull << 20;
  BlobId keeper;
  {
    // Generation 1 is written straight to the medium.
    auto store = Blobstore::Format(vcpu, pmem.get(), bs_options);
    ASSERT_TRUE(store.ok());
    auto blob = (*store)->CreateBlob(1);
    ASSERT_TRUE(blob.ok());
    keeper = *blob;
    ASSERT_TRUE((*store)->SetXattr(keeper, "name", "survivor").ok());
    ASSERT_TRUE((*store)->Sync(vcpu).ok());
  }
  {
    // Generation 2's Sync is cut between its two flush barriers: the new
    // payload reaches the medium, the superblock that references it does not.
    FaultInjectingDevice::Options fopts;
    fopts.buffer_unflushed_writes = true;
    // Flush 1 (the payload barrier) succeeds; flush 2 (the superblock
    // barrier) fails on every retry attempt, so the new superblock never
    // leaves the volatile write cache.
    fopts.fail_flushes = {2, 3, 4};
    FaultInjectingDevice faults(pmem.get(), fopts);
    auto store = Blobstore::Load(vcpu, &faults);
    ASSERT_TRUE(store.ok());
    auto blob = (*store)->CreateBlob(1);
    ASSERT_TRUE(blob.ok());
    EXPECT_FALSE((*store)->Sync(vcpu).ok());
    faults.PowerCut();
  }
  // Recovery finds generation 1 intact: the survivor blob, not the new one.
  auto store = Blobstore::Load(vcpu, pmem.get());
  ASSERT_TRUE(store.ok());
  std::vector<BlobId> blobs = (*store)->ListBlobs();
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0], keeper);
  auto name = (*store)->GetXattr(keeper, "name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "survivor");
}

TEST(BlobstoreCrashTest, CorruptNewestSuperblockFallsBackToOlder) {
  auto pmem = MakePmem(128ull << 20);
  Vcpu& vcpu = ThisVcpu();
  Blobstore::Options bs_options;
  bs_options.cluster_size = 64 * 1024;
  bs_options.metadata_bytes = 1ull << 20;
  {
    auto store = Blobstore::Format(vcpu, pmem.get(), bs_options);  // gen 1
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->CreateBlob(1).ok());
    ASSERT_TRUE((*store)->Sync(vcpu).ok());  // gen 2 -> slot 0
  }
  // A bit rots in the newest superblock (generation 2 lives in slot 0).
  pmem->dax_base()[40] ^= 0x10;
  auto store = Blobstore::Load(vcpu, pmem.get());
  ASSERT_TRUE(store.ok());
  // Generation 1 (empty store) is what recovery can trust.
  EXPECT_TRUE((*store)->ListBlobs().empty());
}

TEST(BlobstoreCrashTest, BlankDeviceStillRejectedCleanly) {
  auto pmem = MakePmem(64ull << 20);
  auto store = Blobstore::Load(ThisVcpu(), pmem.get());
  EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition);
}

// --- Crash consistency: Kreon superblock ----------------------------------------

class KreonCrashTest : public ::testing::Test {
 protected:
  KreonCrashTest() {
    device_ = MakePmem(128ull << 20);
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = 8192;
    options.cache.max_pages = 16384;
    options.cache.eviction_batch = 64;
    runtime_ = std::make_unique<Aquila>(options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, device_->capacity_bytes());
    auto map = runtime_->Map(backing_.get(), device_->capacity_bytes(),
                             kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
  MemoryMap* map_;
};

TEST_F(KreonCrashTest, CorruptSuperblockFailsRecoveryThenHealsWhenRestored) {
  {
    auto db = KreonDb::Open(map_, KreonDb::Options{});
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE((*db)->Put("kc" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*db)->Persist().ok());
  }
  // Flip a byte inside the persisted superblock's entry count. The magic
  // stays intact, so only the CRC can catch this.
  uint8_t original = map_->LoadValue<uint8_t>(32);
  map_->StoreValue<uint8_t>(32, original ^ 0x01);
  EXPECT_FALSE(KreonDb::Open(map_, KreonDb::Options{}).ok());
  // Restoring the byte makes recovery succeed again.
  map_->StoreValue<uint8_t>(32, original);
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->entries(), 100u);
  std::string value;
  bool found;
  ASSERT_TRUE((*db)->Get("kc42", &value, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(value, "v42");
}

}  // namespace
}  // namespace aquila
