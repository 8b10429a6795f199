// Hang-robust device I/O (ISSUE 7): the DeviceHealth state machine, the
// WatchdogQueue decorator (timeouts, cancel/retry with decorrelated jitter,
// hedged reads, fail-fast breaker), and the chaos-under-traffic harness that
// drives hangs, brownouts, error storms, and healing against concurrent
// mmio traffic while CRC-stamped pages prove no write is lost or duplicated.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/device_health.h"
#include "src/storage/fault_device.h"
#include "src/storage/nvme_device.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "tests/crash_backtrace.h"

namespace aquila {
namespace {

// --- DeviceHealth state machine ---------------------------------------------------

TEST(DeviceHealthTest, DisabledRecordsNothingAndShedsNothing) {
  DeviceHealth health;
  for (int i = 0; i < 32; i++) {
    health.RecordOutcome(i, DeviceHealth::Outcome::kError);
  }
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_FALSE(health.ShouldFailFast(1000));
  EXPECT_TRUE(health.allows_readahead());
  EXPECT_EQ(health.CapDepth(32), 32u);
  EXPECT_EQ(health.stats().state_changes.load(), 0u);
}

TEST(DeviceHealthTest, LadderClimbsBreakerOpensAndProbeReadmits) {
  DeviceHealth health;
  DeviceHealth::Options options;
  options.window_ops = 16;
  options.min_samples = 4;
  options.probe_interval_cycles = 1000;
  health.Enable(options);

  // A single early error must not move the state: min_samples gates.
  health.RecordOutcome(1, DeviceHealth::Outcome::kError);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);

  for (int i = 0; i < 8; i++) {
    health.RecordOutcome(2 + i, DeviceHealth::Outcome::kOk);
  }
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);

  // Feed errors and watch the ladder climb monotonically to failed.
  bool saw_suspect = false;
  bool saw_degraded = false;
  uint64_t now = 100;
  while (health.state() != DeviceHealth::State::kFailed && now < 200) {
    health.RecordOutcome(now++, DeviceHealth::Outcome::kTimeout);
    saw_suspect |= health.state() == DeviceHealth::State::kSuspect;
    saw_degraded |= health.state() == DeviceHealth::State::kDegraded;
  }
  EXPECT_TRUE(saw_suspect);
  EXPECT_TRUE(saw_degraded);
  ASSERT_EQ(health.state(), DeviceHealth::State::kFailed);
  EXPECT_FALSE(health.allows_readahead());
  EXPECT_EQ(health.CapDepth(32), 8u);  // depth / degraded_depth_divisor
  EXPECT_EQ(health.CapDepth(2), 1u);   // never below one slot

  // Inside the probe interval the breaker fails fast; stragglers from
  // before it opened must not flip the state.
  EXPECT_TRUE(health.ShouldFailFast(now));
  health.RecordOutcome(now, DeviceHealth::Outcome::kOk);
  EXPECT_EQ(health.state(), DeviceHealth::State::kFailed);
  EXPECT_GE(health.stats().fail_fast.load(), 1u);

  // After the interval the next submission is admitted as the probe.
  EXPECT_FALSE(health.ShouldFailFast(now + 5000));
  EXPECT_EQ(health.state(), DeviceHealth::State::kProbing);
  EXPECT_EQ(health.stats().probes.load(), 1u);
  EXPECT_FALSE(health.allows_readahead());  // still shedding until the verdict

  // Probe verdict: ok clears the window and re-admits at full depth.
  health.RecordOutcome(now + 5001, DeviceHealth::Outcome::kOk);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_TRUE(health.allows_readahead());
  EXPECT_EQ(health.CapDepth(32), 32u);
  // The slate is clean: one fresh error is again below min_samples.
  health.RecordOutcome(now + 5002, DeviceHealth::Outcome::kError);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
}

TEST(DeviceHealthTest, FailedProbeReopensBreaker) {
  DeviceHealth health;
  DeviceHealth::Options options;
  options.window_ops = 8;
  options.min_samples = 2;
  options.probe_interval_cycles = 1000;
  health.Enable(options);
  for (int i = 0; i < 8; i++) {
    health.RecordOutcome(i, DeviceHealth::Outcome::kError);
  }
  ASSERT_EQ(health.state(), DeviceHealth::State::kFailed);
  EXPECT_FALSE(health.ShouldFailFast(5000));  // admitted as probe
  health.RecordOutcome(5001, DeviceHealth::Outcome::kError);
  EXPECT_EQ(health.state(), DeviceHealth::State::kFailed);
  // The interval restarts from the failed probe, not the original trip.
  EXPECT_TRUE(health.ShouldFailFast(5500));
  EXPECT_FALSE(health.ShouldFailFast(6001));
  health.RecordOutcome(6002, DeviceHealth::Outcome::kOk);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
}

// --- WatchdogQueue over an injectable native queue --------------------------------

constexpr uint32_t kDepth = 4;

class WatchdogQueueTest : public ::testing::Test {
 protected:
  void Build(const FaultInjectingDevice::Options& fopts, WatchdogQueue::Options wopts) {
    NvmeController::Options copts;
    copts.capacity_bytes = 16ull << 20;
    ctrl_ = std::make_unique<NvmeController>(copts);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
    faults_ = std::make_unique<FaultInjectingDevice>(nvme_.get(), fopts);
    ASSERT_TRUE(faults_->supports_queueing());
    DeviceHealth::Options hopts;
    hopts.probe_interval_cycles = 240'000;  // 100us
    health_.Enable(hopts);
    queue_ = std::make_unique<WatchdogQueue>(&health_, faults_->CreateQueue(kDepth), wopts);
  }

  // Reaps zombie legs (uncancellable inner commands of already-answered
  // ops) so the fixture tears down with an empty inner queue.
  void DrainZombies(Vcpu& vcpu) {
    std::vector<DeviceQueue::Completion> out;
    for (int i = 0; i < 64; i++) {
      vcpu.clock().Charge(CostCategory::kIdle, 1'000'000);
      queue_->Poll(vcpu, &out);
    }
  }

  DeviceHealth health_;
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<FaultInjectingDevice> faults_;
  std::unique_ptr<WatchdogQueue> queue_;
};

TEST_F(WatchdogQueueTest, HungWriteIsCancelledRetriedAndCompletes) {
  FaultInjectingDevice::Options fopts;
  fopts.hang_writes = {1};  // the first write attempt is swallowed
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 2'400'000;  // 1ms, far above the ~10us media time
  wopts.backoff_base_cycles = 10'000;
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize, 0xAB);
  ASSERT_TRUE(queue_->SubmitWrite(vcpu, 0, std::span<const uint8_t>(buf), 7).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].user_data, 7u);
  EXPECT_TRUE(out[0].status.ok()) << out[0].status.ToString();

  EXPECT_EQ(faults_->fault_stats().injected_hangs.load(), 1u);
  EXPECT_EQ(health_.stats().timeouts.load(), 1u);
  EXPECT_EQ(health_.stats().watchdog_retries.load(), 1u);
  EXPECT_EQ(health_.stats().abandoned.load(), 0u);

  // The retry's data reached the medium (the hung attempt never did).
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE(nvme_->Read(vcpu, 0, std::span(in)).ok());
  EXPECT_EQ(in, buf);
}

TEST_F(WatchdogQueueTest, PersistentHangAbandonsWithDeadlineExceeded) {
  FaultInjectingDevice::Options fopts;
  fopts.hang_rate = 1.0;  // every attempt hangs
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 240'000;  // 100us
  wopts.max_attempts = 2;
  wopts.backoff_base_cycles = 10'000;
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 9).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].user_data, 9u);
  EXPECT_EQ(out[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(health_.stats().timeouts.load(), 2u);  // one per attempt
  EXPECT_EQ(health_.stats().watchdog_retries.load(), 1u);
  EXPECT_EQ(health_.stats().abandoned.load(), 1u);

  // The queue stays usable: heal the device, the next op completes.
  faults_->set_hang_rate(0.0);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 10).ok());
  out.clear();
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.ok());
}

TEST_F(WatchdogQueueTest, ErrorCompletionsPassThroughWithoutTimeoutRetry) {
  FaultInjectingDevice::Options fopts;
  fopts.write_error_rate = 1.0;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 2'400'000;
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize, 0x33);
  ASSERT_TRUE(queue_->SubmitWrite(vcpu, 0, std::span<const uint8_t>(buf), 1).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status.code(), StatusCode::kIoError);
  // Watchdog retries are for silence, not for errors: the error surfaced
  // immediately so the caller's own retry/degradation policy owns it.
  EXPECT_EQ(health_.stats().timeouts.load(), 0u);
  EXPECT_EQ(health_.stats().watchdog_retries.load(), 0u);
}

TEST_F(WatchdogQueueTest, HedgedReadWinsDuringBrownout) {
  FaultInjectingDevice::Options fopts;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 24'000'000;  // 10ms: the brownout must not time out
  wopts.hedge_reads = true;
  wopts.hedge_min_delay_cycles = 48'000;  // 20us
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> seed(kPageSize);
  for (size_t i = 0; i < seed.size(); i++) {
    seed[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  ASSERT_TRUE(nvme_->Write(vcpu, 0, std::span<const uint8_t>(seed)).ok());

  // The primary leg samples the brownout at submit (+1ms); the hedge leg,
  // issued 20us later after EndBrownout, completes first and wins.
  faults_->StartBrownout(2'400'000);
  std::vector<uint8_t> buf(kPageSize, 0);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 11).ok());
  faults_->EndBrownout();

  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(buf, seed);
  EXPECT_EQ(health_.stats().hedges.load(), 1u);
  EXPECT_EQ(health_.stats().hedge_wins.load(), 1u);
  EXPECT_EQ(health_.stats().timeouts.load(), 0u);
  DrainZombies(vcpu);  // the browned-out primary completes as a zombie
}

TEST_F(WatchdogQueueTest, HedgeWinOverHungPrimaryReclaimsInnerSlot) {
  // Regression: when a hedge wins while the primary leg is hung, FinishOp
  // must cancel the hung leg and hand its inner slot back. Before the fix
  // each such op leaked one slot forever (Sweep only cancels for ops that
  // are not done), so more than kDepth hedge wins exhausted the inner queue
  // and every later submission failed kOutOfSpace.
  FaultInjectingDevice::Options fopts;
  for (uint64_t n = 1; n <= 2 * (kDepth + 2); n += 2) {
    fopts.hang_reads.push_back(n);  // every primary hangs, every hedge lands
  }
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 24'000'000;  // 10ms: hedges resolve ops, not timeouts
  wopts.hedge_reads = true;
  wopts.hedge_min_delay_cycles = 48'000;  // 20us
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  for (uint32_t i = 0; i < kDepth + 2; i++) {
    ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 40 + i).ok()) << "op " << i;
    std::vector<DeviceQueue::Completion> out;
    ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].user_data, 40u + i);
    EXPECT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  }
  EXPECT_EQ(faults_->fault_stats().injected_hangs.load(), kDepth + 2);
  EXPECT_EQ(health_.stats().hedge_wins.load(), kDepth + 2);
  EXPECT_EQ(health_.stats().timeouts.load(), 0u);
}

TEST_F(WatchdogQueueTest, HedgeDoesNotExtendPrimaryDeadline) {
  // Regression: issuing a hedge must not refresh the op's per-attempt
  // deadline — with both legs hung, the timeout fires at first_submit +
  // timeout_cycles, not hedge_submit + timeout_cycles.
  FaultInjectingDevice::Options fopts;
  fopts.hang_rate = 1.0;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 240'000;  // 100us
  wopts.max_attempts = 1;
  wopts.hedge_reads = true;
  wopts.hedge_min_delay_cycles = 48'000;  // 20us, well inside the deadline
  Build(fopts, wopts);

  Vcpu vcpu(0);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 50).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(health_.stats().hedges.load(), 1u);
  // WaitMin advances exactly to NextReadyAt, so the abandonment lands on
  // the original deadline; the buggy refresh pushed it to +148'000 cycles.
  EXPECT_EQ(out[0].ready_at - out[0].submit_at, wopts.timeout_cycles);
}

// A command queued behind a channel that other commands booked solid is
// loaded, not silent: its deadline runs from the medium's promised
// completion. With per-thread simulated clocks such a backlog shows up
// whenever one thread's clock lags another's burst.
TEST_F(WatchdogQueueTest, QueueingBehindABookedChannelIsNotATimeout) {
  FaultInjectingDevice::Options fopts;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 240'000;  // 100us
  Build(fopts, wopts);

  // 100 writes of 4,800 channel cycles each book the channel for twice the
  // timeout.
  constexpr uint32_t kBurst = 100;
  Vcpu other(1);
  std::unique_ptr<DeviceQueue> burst = nvme_->CreateQueue(kBurst);
  std::vector<uint8_t> buf(kPageSize, 0x5A);
  for (uint32_t i = 0; i < kBurst; i++) {
    ASSERT_TRUE(burst->SubmitWrite(other, (i + 1) * kPageSize, std::span<const uint8_t>(buf), i)
                    .ok());
  }
  Vcpu vcpu(0);
  ASSERT_TRUE(queue_->SubmitWrite(vcpu, 0, std::span<const uint8_t>(buf), 3).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  EXPECT_GT(out[0].ready_at - out[0].submit_at, wopts.timeout_cycles);
  EXPECT_EQ(health_.stats().timeouts.load(), 0u);
  EXPECT_EQ(health_.stats().watchdog_retries.load(), 0u);
  out.clear();
  ASSERT_TRUE(burst->Drain(other, &out).ok());
}

TEST_F(WatchdogQueueTest, OpenBreakerFailsFastThenProbeReadmits) {
  FaultInjectingDevice::Options fopts;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 2'400'000;
  Build(fopts, wopts);

  Vcpu vcpu(0);
  // Trip the breaker directly (the window is fed by completions in the
  // integration tests; here the ladder itself is not under test).
  for (int i = 0; i < 16; i++) {
    health_.RecordOutcome(vcpu.clock().Now(), DeviceHealth::Outcome::kTimeout);
  }
  ASSERT_EQ(health_.state(), DeviceHealth::State::kFailed);

  // Inside the probe interval: submission is acknowledged but the op fails
  // fast with kUnavailable, never touching the device (the destination
  // buffer keeps its sentinel bytes).
  std::vector<uint8_t> buf(kPageSize, 0xEE);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 21).ok());
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status.code(), StatusCode::kUnavailable);
  EXPECT_GE(health_.stats().fail_fast.load(), 1u);
  EXPECT_EQ(buf, std::vector<uint8_t>(kPageSize, 0xEE));

  // Past the interval the next op goes through as the probe; its success
  // re-admits the device.
  vcpu.clock().Charge(CostCategory::kIdle, 300'000);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(buf), 22).ok());
  out.clear();
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(health_.state(), DeviceHealth::State::kHealthy);
  EXPECT_EQ(health_.stats().probes.load(), 1u);
}

TEST_F(WatchdogQueueTest, HealthStateCapsEffectiveDepth) {
  FaultInjectingDevice::Options fopts;
  WatchdogQueue::Options wopts;
  wopts.timeout_cycles = 2'400'000;
  Build(fopts, wopts);

  Vcpu vcpu(0);
  for (int i = 0; i < 16; i++) {
    health_.RecordOutcome(i, DeviceHealth::Outcome::kError);
  }
  // 16/16 bad crosses failed_threshold; walk it back to exactly degraded.
  ASSERT_EQ(health_.state(), DeviceHealth::State::kFailed);
  ASSERT_FALSE(health_.ShouldFailFast(500'000));  // probing
  health_.RecordOutcome(500'001, DeviceHealth::Outcome::kOk);  // healthy, window clear
  for (int i = 0; i < 8; i++) {
    health_.RecordOutcome(600'000 + i, DeviceHealth::Outcome::kOk);
    health_.RecordOutcome(600'100 + i, DeviceHealth::Outcome::kError);
  }
  ASSERT_EQ(health_.state(), DeviceHealth::State::kDegraded);  // 50% bad

  // Depth 4 / divisor 4 = 1: the second submission is shed as OutOfSpace.
  std::vector<uint8_t> a(kPageSize);
  std::vector<uint8_t> b(kPageSize);
  ASSERT_TRUE(queue_->SubmitRead(vcpu, 0, std::span(a), 31).ok());
  EXPECT_EQ(queue_->SubmitRead(vcpu, kPageSize, std::span(b), 32).code(),
            StatusCode::kOutOfSpace);
  std::vector<DeviceQueue::Completion> out;
  ASSERT_TRUE(queue_->Drain(vcpu, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.ok());
}

// --- Chaos under traffic ----------------------------------------------------------

// Every page the workers write carries this stamp: payload bytes from a
// version-seeded Rng, CRC32C over the payload, and enough identity to catch
// stale, torn, foreign, or duplicated data on readback.
constexpr uint32_t kStampMagic = 0xC4A05717u;
constexpr size_t kHeaderBytes = 24;  // 6 x u32; payload 8-byte aligned

void StampPage(std::span<uint8_t> page, uint32_t worker, uint32_t index, uint32_t version) {
  Rng fill(FnvHash64((static_cast<uint64_t>(worker) << 48) ^
                     (static_cast<uint64_t>(index) << 24) ^ version) | 1);
  for (size_t i = kHeaderBytes; i + 8 <= page.size(); i += 8) {
    uint64_t v = fill.Next();
    std::memcpy(&page[i], &v, 8);
  }
  uint32_t header[6] = {kStampMagic, worker, index, version,
                        Crc32c(page.data() + kHeaderBytes, page.size() - kHeaderBytes), 0};
  std::memcpy(page.data(), header, sizeof(header));
}

// Returns an empty string when `page` holds exactly version `expect` (or is
// still pristine zero when expect == 0); a diagnostic otherwise.
std::string CheckPage(std::span<const uint8_t> page, uint32_t worker, uint32_t index,
                      uint32_t expect) {
  if (expect == 0) {
    for (size_t i = 0; i < page.size(); i++) {
      if (page[i] != 0) {
        return "never-written page is not pristine zero";
      }
    }
    return "";
  }
  uint32_t header[6];
  std::memcpy(header, page.data(), sizeof(header));
  if (header[0] != kStampMagic) return "bad magic";
  if (header[1] != worker) return "foreign worker stamp";
  if (header[2] != index) return "foreign page stamp";
  if (header[3] != expect) {
    return "version " + std::to_string(header[3]) + " != expected " + std::to_string(expect);
  }
  if (header[4] != Crc32c(page.data() + kHeaderBytes, page.size() - kHeaderBytes)) {
    return "payload CRC mismatch (torn or mixed versions)";
  }
  return "";
}

// The harness: four workers hammer disjoint slices of one async-writeback
// mapping (writes, CRC-verified reads, msync, madvise) while a controller
// walks the device through hang injection, a brownout window, an error
// storm that opens the breaker and degrades the mapping, and a heal. A
// real-time monitor asserts global progress throughout (no wedge). After
// the storm: health must re-admit the device via a probe, RearmWriteback
// must restore the mapping, msync must succeed, and a full from-media
// readback must show exactly the last acknowledged version of every page.
TEST(ChaosTest, TrafficSurvivesHangsBrownoutsErrorStormAndHeals) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kPagesPerWorker = 512;
  constexpr uint64_t kMapBytes = static_cast<uint64_t>(kWorkers) * kPagesPerWorker * kPageSize;
  constexpr uint32_t kTimeoutUs = 200;

  NvmeController::Options copts;
  copts.capacity_bytes = 64ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  FaultInjectingDevice::Options fopts;
  FaultInjectingDevice faults(&nvme, fopts);
  ASSERT_TRUE(faults.supports_queueing());

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 256ull << 20;
  options.cache.capacity_pages = 1024;
  options.cache.max_pages = 4096;
  options.cache.eviction_batch = 64;
  options.async_writeback = true;
  options.async_queue_depth = 16;
  options.device_op_timeout_us = kTimeoutUs;
  options.hedge_reads = true;
  options.device_probe_interval_us = 200;
  Aquila runtime(options);
  DeviceBacking backing(&faults, 0, kMapBytes);

  StatusOr<MemoryMap*> map = runtime.Map(&backing, kMapBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  auto* aq_map = static_cast<AquilaMap*>(*map);
  DeviceHealth& health = faults.health();
  ASSERT_TRUE(health.enabled());  // armed by the engine via device_op_timeout_us

  std::atomic<bool> stop{false};
  std::atomic<bool> give_up{false};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> read_errors{0};
  std::mutex corrupt_mu;
  std::string corrupt;  // first integrity violation, guarded by corrupt_mu
  // Worker w's last acknowledged version per page; read by the main thread
  // after join.
  std::vector<std::vector<uint32_t>> versions(
      kWorkers, std::vector<uint32_t>(kPagesPerWorker, 0));

  auto note_corrupt = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(corrupt_mu);
    if (corrupt.empty()) {
      corrupt = what;
    }
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; w++) {
    workers.emplace_back([&, w] {
      runtime.EnterThread();
      Rng rng(w * 9973 + 7);
      const uint64_t slice_off = static_cast<uint64_t>(w) * kPagesPerWorker * kPageSize;
      const uint64_t slice_bytes = static_cast<uint64_t>(kPagesPerWorker) * kPageSize;
      std::vector<uint8_t> wbuf(kPageSize);
      std::vector<uint8_t> rbuf(kPageSize);
      std::vector<uint32_t>& version = versions[w];
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); i++) {
        uint32_t p = static_cast<uint32_t>(rng.Uniform(kPagesPerWorker));
        uint64_t off = slice_off + static_cast<uint64_t>(p) * kPageSize;
        // Writes are refused while the mapping is degraded read-only, so
        // behave like an application that saw the refusal: read instead.
        if (!aq_map->degraded() && rng.OneIn(2)) {
          StampPage(std::span(wbuf), static_cast<uint32_t>(w), p, version[p] + 1);
          Status s = (*map)->Write(off, std::span<const uint8_t>(wbuf));
          if (s.ok()) {
            version[p]++;
          } else {
            write_errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          Status s = (*map)->Read(off, std::span(rbuf));
          if (s.ok()) {
            std::string why = CheckPage(std::span<const uint8_t>(rbuf),
                                        static_cast<uint32_t>(w), p, version[p]);
            if (!why.empty()) {
              note_corrupt("worker " + std::to_string(w) + " page " + std::to_string(p) +
                           ": " + why);
            }
          } else {
            read_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (i % 128 == 127) {
          // Under chaos msync may legitimately fail; durability is settled
          // by the post-heal sync + readback below.
          (void)(*map)->Sync(slice_off, slice_bytes);
        }
        if (i % 512 == 511) {
          (void)(*map)->Advise(slice_off, slice_bytes / 4, Advice::kDontNeed);
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Real-time progress monitor: the whole point of the watchdog is that no
  // injected hang may wedge the pipeline. 15s with zero ops = wedged.
  std::thread monitor([&] {
    uint64_t last = 0;
    int stalls = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      uint64_t now = ops.load(std::memory_order_relaxed);
      stalls = now == last ? stalls + 1 : 0;
      last = now;
      if (stalls >= 60) {
        give_up.store(true, std::memory_order_relaxed);
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });

  // Runs the workers until `happened()` — the event a phase exists to
  // exercise — or, failing it, for `max_ops` more ops or `max_wait`.
  auto run_until = [&](uint64_t max_ops, std::chrono::seconds max_wait, auto happened) {
    const uint64_t limit = ops.load(std::memory_order_relaxed) + max_ops;
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    while (!happened() && ops.load(std::memory_order_relaxed) < limit &&
           std::chrono::steady_clock::now() < deadline &&
           !give_up.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  auto wait_ops = [&](uint64_t delta) {
    run_until(delta, std::chrono::seconds(60), [] { return false; });
  };
  const DeviceHealth::Stats& hstats = health.stats();

  // Phase 1: clean warmup.
  wait_ops(1500);
  // Phase 2: hangs — 5% of submissions are swallowed; only the watchdog's
  // cancel+retry keeps the queue slots and the traffic alive. Ends once the
  // watchdog has withdrawn a hung command and retried one since the hangs
  // began.
  faults.set_hang_rate(0.05);
  const uint64_t retries_before_hangs = hstats.watchdog_retries.load();
  run_until(100'000, std::chrono::seconds(20), [&] {
    return faults.fault_stats().cancelled_hangs.load() > 0 &&
           hstats.watchdog_retries.load() > retries_before_hangs;
  });
  faults.set_hang_rate(0.0);
  // Phase 3: brownout — completions arrive but 3x past the deadline, so
  // timeouts, uncancellable zombies, hedges, and reconciliation all fire.
  faults.StartBrownout(3ull * kTimeoutUs * 2400);
  wait_ops(800);
  faults.EndBrownout();
  // Phase 4: error storm — every op errors until the breaker opens and the
  // writeback-failure ladder degrades the mapping read-only. Ends once an
  // injected error reached a worker and an op met the open breaker.
  faults.set_read_error_rate(1.0);
  faults.set_write_error_rate(1.0);
  run_until(1'000'000'000, std::chrono::seconds(20), [&] {
    return health.state() == DeviceHealth::State::kFailed && hstats.fail_fast.load() > 0 &&
           write_errors.load() + read_errors.load() > 0;
  });
  EXPECT_EQ(health.state(), DeviceHealth::State::kFailed);
  // Phase 5: heal — worker traffic itself must trigger the probe that
  // re-admits the device within a probe interval.
  faults.set_read_error_rate(0.0);
  faults.set_write_error_rate(0.0);
  wait_ops(1500);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) {
    t.join();
  }
  monitor.join();
  ASSERT_FALSE(give_up.load()) << "pipeline wedged: op counter stopped advancing";
  {
    std::lock_guard<std::mutex> lock(corrupt_mu);
    ASSERT_EQ(corrupt, "");
  }

  // Recovery: touch the device until the breaker's probe re-admits it.
  // Fail-fast completions charge no device time and per-thread clocks
  // diverge, so this thread's clock may sit far behind the worker that
  // stamped failed_at; idle up to the published probe gate each round
  // instead of hoping traffic costs alone cross it.
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 2000 && health.state() != DeviceHealth::State::kHealthy; i++) {
    if (uint64_t due = health.probe_due_at(); due != 0) {
      ThisVcpu().clock().AdvanceTo(due + 1, CostCategory::kIdle);
    }
    uint64_t off = (static_cast<uint64_t>(i) % (kMapBytes / kPageSize)) * kPageSize;
    (void)(*map)->Advise(off, kPageSize, Advice::kDontNeed);
    (void)(*map)->Read(off, std::span(page));
  }
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_TRUE(health.allows_readahead());

  // The mapping degraded during the storm; with the device healthy again,
  // re-arming restores write service and msync durability.
  if (aq_map->degraded()) {
    ASSERT_TRUE(aq_map->RearmWriteback().ok());
  }
  ASSERT_TRUE((*map)->Sync(0, kMapBytes).ok());
  EXPECT_EQ(runtime.cache().TotalDirty(), 0u);

  // From-media readback: drop every (now clean) cached page, then verify
  // each page holds exactly its last acknowledged version — nothing lost,
  // nothing stale, nothing torn.
  ASSERT_TRUE((*map)->Advise(0, kMapBytes, Advice::kDontNeed).ok());
  for (int w = 0; w < kWorkers; w++) {
    for (uint32_t p = 0; p < kPagesPerWorker; p++) {
      uint64_t off = (static_cast<uint64_t>(w) * kPagesPerWorker + p) * kPageSize;
      ASSERT_TRUE((*map)->Read(off, std::span(page)).ok()) << "w=" << w << " p=" << p;
      std::string why =
          CheckPage(std::span<const uint8_t>(page), static_cast<uint32_t>(w), p, versions[w][p]);
      ASSERT_EQ(why, "") << "worker " << w << " page " << p;
    }
  }

  // The storm actually exercised the machinery under test.
  EXPECT_GT(faults.fault_stats().injected_hangs.load(), 0u);
  EXPECT_GT(health.stats().timeouts.load(), 0u);
  EXPECT_GT(health.stats().watchdog_retries.load(), 0u);
  EXPECT_GT(health.stats().fail_fast.load(), 0u);
  EXPECT_GE(health.stats().probes.load(), 1u);
  EXPECT_GT(health.stats().state_changes.load(), 0u);
  EXPECT_GT(write_errors.load() + read_errors.load(), 0u);

  // The /health provider sees this device.
  std::string json = DeviceHealthRegistryJson();
  EXPECT_NE(json.find("\"state\":\"healthy\""), std::string::npos) << json;

  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

}  // namespace
}  // namespace aquila
