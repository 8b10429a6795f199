// Fault-injecting BlockDevice decorator.
//
// Wraps any device and injects failures according to a seeded, reproducible
// schedule so the recovery machinery above the storage layer (retry policy,
// mmio degraded mode, WAL/superblock recovery) can be exercised
// deterministically:
//
//   - per-op error probability for reads / writes / flushes,
//   - exact Nth-op triggers (fail exactly the 3rd write, the 1st flush, ...),
//   - torn writes: a random prefix of the request reaches the medium before
//     the error is reported (models a partial sector write at power loss),
//   - latency spikes: occasional extra device time without an error,
//   - power-cut mode: with `buffer_unflushed_writes`, writes are held in a
//     volatile overlay until Flush() — PowerCut() discards the overlay and
//     takes the device offline, so only flushed data survives, exactly like
//     a disk write cache losing power.
//
// The decorator sits below the retry loop of its own NVI wrappers: each
// retry attempt re-rolls the schedule, so a transient (probabilistic or
// Nth-op) fault is observed once and the retry succeeds, while a persistent
// fault (offline device) exhausts the attempt budget and surfaces to the
// caller. Stack it under HostIoDevice to model kernel-path I/O errors, or
// use it directly for the paper's user-space device paths.
#ifndef AQUILA_SRC_STORAGE_FAULT_DEVICE_H_
#define AQUILA_SRC_STORAGE_FAULT_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/device_queue.h"
#include "src/util/rng.h"

namespace aquila {

class FaultInjectingDevice : public BlockDevice {
 public:
  struct Options {
    // Seed for the injection schedule; identical seeds + identical request
    // streams reproduce identical faults.
    uint64_t seed = 1;

    // Probability in [0, 1) that an individual read/write/flush attempt
    // fails with kIoError.
    double read_error_rate = 0.0;
    double write_error_rate = 0.0;
    double flush_error_rate = 0.0;

    // Exact triggers: fail the Nth read/write/flush attempt (1-based,
    // counted per category across the device's lifetime). Retries count as
    // new attempts, so {3, 4} fails one write and its first retry.
    std::vector<uint64_t> fail_reads;
    std::vector<uint64_t> fail_writes;
    std::vector<uint64_t> fail_flushes;

    // When a write fails, first let a random prefix of it reach the medium
    // (torn write). Applies to both probabilistic and Nth-op write faults.
    bool torn_writes = false;

    // Probability that an op completes but takes `latency_spike_cycles`
    // longer (tail-latency injection): charged to kDeviceIo on the
    // synchronous path, added to the command's completion time (ready_at)
    // on a native device queue.
    double latency_spike_rate = 0.0;
    uint64_t latency_spike_cycles = 1'000'000;

    // Hang injection: the command is accepted and then never completes
    // (lost CQE / wedged firmware). On a native queue the submission is
    // swallowed — data never reaches the medium, no completion is ever
    // delivered, and only Cancel() reclaims the command (this is what the
    // watchdog layer exercises). The synchronous path cannot block forever,
    // so a sync hang stalls `sync_hang_stall_cycles` of device time and
    // then reports kIoError.
    double hang_rate = 0.0;
    std::vector<uint64_t> hang_reads;   // exact Nth-attempt triggers
    std::vector<uint64_t> hang_writes;
    uint64_t sync_hang_stall_cycles = 10'000'000;

    // Hold writes in a volatile overlay until Flush() applies them to the
    // inner device. Required for PowerCut() to have teeth: without it the
    // inner device has already absorbed every write.
    bool buffer_unflushed_writes = false;
  };

  struct FaultStats {
    std::atomic<uint64_t> injected_read_errors{0};
    std::atomic<uint64_t> injected_write_errors{0};
    std::atomic<uint64_t> injected_flush_errors{0};
    std::atomic<uint64_t> torn_writes{0};
    std::atomic<uint64_t> latency_spikes{0};
    std::atomic<uint64_t> injected_hangs{0};
    // Swallowed commands a watchdog withdrew (Cancel): hangs it handled.
    std::atomic<uint64_t> cancelled_hangs{0};
    // Sum of the above error categories; exported to the telemetry
    // registry so fault runs are visible next to io_retries/io_gave_up.
    std::atomic<uint64_t> total_injected{0};
  };

  FaultInjectingDevice(BlockDevice* inner, const Options& options);

  const char* name() const override { return "fault"; }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }

  // Queueing passes through to the inner device, decorated so every
  // submission rolls the same injection schedule as the synchronous path
  // (injected failures surface as completed-with-error completions, torn
  // prefixes still reach the medium). Power-cut buffering is incompatible
  // with deferred completions — acknowledging a queued write that the
  // overlay may later discard would break the durability model — so
  // buffer_unflushed_writes forces the sync-emulation shim, which funnels
  // each op through DoWrite and the overlay as before.
  bool supports_queueing() const override {
    return !options_.buffer_unflushed_writes && inner_->supports_queueing();
  }
  std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth) override;

  // Simulates power loss: unflushed buffered writes are discarded and the
  // device goes offline (every subsequent op fails with kIoError until
  // Revive()). The inner device retains exactly the data that had been
  // Flush()ed.
  void PowerCut();

  // Brings the device back online after PowerCut(). The overlay stays
  // empty: this models reattaching the medium after reboot.
  void Revive();

  bool offline() const { return offline_.load(std::memory_order_acquire); }

  // Runtime adjustment of the probabilistic schedule: scenarios where a
  // device degrades, hangs, flaps, or heals mid-run.
  void set_read_error_rate(double rate);
  void set_write_error_rate(double rate);
  void set_hang_rate(double rate);

  // Brownout window: every op that would complete gains `extra_cycles` of
  // media time (10-100x latency without errors) until EndBrownout(). Safe
  // to toggle from a controller thread while workers submit.
  void StartBrownout(uint64_t extra_cycles) {
    brownout_extra_cycles_.store(extra_cycles, std::memory_order_relaxed);
  }
  void EndBrownout() { brownout_extra_cycles_.store(0, std::memory_order_relaxed); }

  const FaultStats& fault_stats() const { return fault_stats_; }

 protected:
  Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) override;
  Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) override;
  Status DoFlush(Vcpu& vcpu) override;
  // Batch hooks intentionally not overridden: the base-class default loops
  // over the virtual DoRead/DoWrite, so per-page injection (and per-attempt
  // schedule advance under retries) falls out for free.

 private:
  friend class FaultInjectingQueue;

  enum class OpKind { kRead, kWrite, kFlush };
  enum class Verdict { kOk, kFail, kHang };

  // Advances the schedule for one attempt. kFail: the attempt reports
  // kIoError. kHang: the command is accepted but never completes (queue
  // path) / stalls then fails (sync path). kOk completions roll the
  // latency-spike dice and pick up any active brownout window; failing
  // writes in torn mode additionally roll the prefix that still reaches
  // the medium (a multiple of io_alignment()).
  Verdict ShouldFail(OpKind kind, uint64_t req_size, uint64_t* spike_cycles,
                     uint64_t* torn_prefix);

  // Overlay helpers (mu_ held).
  void OverlayInsertLocked(uint64_t offset, std::span<const uint8_t> src);
  void OverlayPatchLocked(uint64_t offset, std::span<uint8_t> dst) const;
  Status ApplyOverlayLocked(Vcpu& vcpu);

  BlockDevice* inner_;
  Options options_;
  FaultStats fault_stats_;
  std::atomic<bool> offline_{false};
  std::atomic<uint64_t> brownout_extra_cycles_{0};

  mutable std::mutex mu_;
  Rng rng_;
  uint64_t read_attempts_ = 0;
  uint64_t write_attempts_ = 0;
  uint64_t flush_attempts_ = 0;
  // Unflushed writes, keyed by device offset. Extents never overlap:
  // inserts trim/split existing entries.
  std::map<uint64_t, std::vector<uint8_t>> overlay_;

  telemetry::CallbackGroup metrics_;
};

// DeviceQueue decorator for the async path: each submission advances the
// owning FaultInjectingDevice's seeded schedule exactly like a synchronous
// attempt. Injected failures never reach the inner queue — they are buffered
// as immediately-ready completions carrying kIoError (with the torn prefix
// written through synchronously first), which is how a real drive reports a
// per-command error in its CQE. Latency spikes extend the affected command's
// completion time (ready_at) instead of charging the submitter's clock — on
// a queue, device latency is exactly what the caller overlaps with continued
// work. There is no retry layer here: requeue-and-retry policy for async I/O
// belongs to the caller reaping the completion.
class FaultInjectingQueue : public DeviceQueue {
 public:
  FaultInjectingQueue(FaultInjectingDevice* device, std::unique_ptr<DeviceQueue> inner);

  const char* name() const override { return "fault"; }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override;
  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override;
  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override;
  uint64_t NextReadyAt() const override;
  // Commands are forwarded under the caller's user_data; spiked ones held
  // back in delayed_ and hung ones report unknown.
  uint64_t ReadyAt(uint64_t user_data) const override { return inner_->ReadyAt(user_data); }
  uint32_t TransfersBy(uint64_t now, uint64_t deadline, uint64_t bytes) const override {
    return inner_->TransfersBy(now, deadline, bytes);
  }

  // Hung commands were swallowed before the medium, so withdrawal is real:
  // the completion will never be delivered. Returns true for those only.
  bool Cancel(uint64_t user_data) override;

 private:
  // Books an injected (or offline) failure as a ready completion.
  void BufferFailure(Vcpu& vcpu, uint64_t user_data, Status status);
  // Counts a successful inner completion in this device's DeviceStats.
  void CountCompleted(const Completion& c);

  FaultInjectingDevice* device_;
  std::unique_ptr<DeviceQueue> inner_;
  std::vector<Completion> failed_;
  // Injected latency spikes, keyed by user_data at submit: the extra cycles
  // are added to the inner completion's ready_at at reap, and completions
  // whose extended deadline has not passed yet wait in delayed_, kept
  // sorted by ready_at so spiked completions release in deadline order.
  std::map<uint64_t, uint64_t> spike_cycles_;
  std::vector<Completion> delayed_;
  // Injected hangs: commands accepted (in-flight) but never completed and
  // never forwarded to the inner queue. Only Cancel() removes them.
  std::map<uint64_t, uint64_t> hung_;  // user_data -> submit time
};

}  // namespace aquila

#endif  // AQUILA_SRC_STORAGE_FAULT_DEVICE_H_
