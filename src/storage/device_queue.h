// DeviceQueue: queueing as a first-class BlockDevice capability.
//
// A DeviceQueue is a bounded submission/completion queue over one device,
// the storage-side half of the async writeback/readahead pipeline. The
// contract mirrors the simulation's device model: data moves at submit (the
// bytes are copied to/from the medium immediately) while the completion only
// gates *simulated time* — Poll() reaps completions whose device time has
// passed, and WaitMin()/Drain() advance the caller's clock only when it
// genuinely has nothing else to do. That split is what lets the fault path
// overlap continued fault handling with in-flight writebacks.
//
// Devices whose medium actually overlaps queued commands (NVMe) implement a
// native queue; every other device answers supports_queueing() == false and
// gets the sync-emulation shim (SyncDeviceQueue) from
// BlockDevice::CreateQueue — each op executes through the synchronous public
// entry points at submit time and completes immediately. Same interface, no
// overlap: callers write one pipeline and the device decides whether it
// pays off.
//
// Queues are single-owner (SPDK's queue-pair contract): a caller that shares
// one across threads wraps it in its own lock. The in-flight count is the
// only state readable from other threads (it feeds the depth gauge).
#ifndef AQUILA_SRC_STORAGE_DEVICE_QUEUE_H_
#define AQUILA_SRC_STORAGE_DEVICE_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/util/status.h"
#include "src/vmx/vcpu.h"

namespace aquila {

class BlockDevice;

class DeviceQueue {
 public:
  struct Completion {
    uint64_t user_data = 0;
    Status status;
    // Simulated time the command was submitted / completed on the device.
    // ready_at == submit_at for the sync-emulation shim; the gap is what the
    // caller overlapped with useful work (or paid in WaitMin).
    uint64_t submit_at = 0;
    uint64_t ready_at = 0;
    // The command's direction and length, for per-layer DeviceStats (set by
    // queues that move data on a medium; 0 for buffered results).
    uint32_t bytes = 0;
    bool write = false;
  };

  explicit DeviceQueue(uint32_t depth);
  virtual ~DeviceQueue() = default;

  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;

  virtual const char* name() const = 0;

  // Required offset/size alignment for submissions (native NVMe queues speak
  // whole LBAs; the shim inherits the device's io_alignment()).
  virtual uint64_t io_alignment() const = 0;

  // Queues one operation. The buffer is consumed before returning (data
  // moves at submit), so the caller may not touch it until the matching
  // completion is reaped, but needs no stable request object. Fails with
  // kOutOfSpace when the queue is full (Poll or WaitMin first) and
  // kInvalidArgument for misaligned/out-of-range requests; an I/O error is
  // NOT a submission failure — it travels in the completion's status.
  virtual Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                            uint64_t user_data) = 0;
  virtual Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                             uint64_t user_data) = 0;

  // Reaps completions whose device time has passed; appends to `out` and
  // returns how many. Never advances simulated time past "now".
  virtual uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) = 0;

  // Earliest outstanding completion time, UINT64_MAX when nothing is queued
  // on the medium (buffered immediate completions report 0: already ready).
  virtual uint64_t NextReadyAt() const = 0;

  // Completion time of the in-flight command `user_data`, for diagnostics;
  // UINT64_MAX when unknown (not in flight, or a queue that does not say).
  virtual uint64_t ReadyAt(uint64_t user_data) const {
    (void)user_data;
    return UINT64_MAX;
  }

  // How many `bytes`-long commands submitted at `now` would finish moving
  // their data over the medium's channel by `deadline`, after what is already
  // booked on it: the writes a caller can queue behind a read without
  // delaying the next one, since they leave the channel before that read
  // completes. 0 for a queue that models no channel (the shim completes at
  // submission).
  virtual uint32_t TransfersBy(uint64_t now, uint64_t deadline, uint64_t bytes) const {
    (void)now;
    (void)deadline;
    (void)bytes;
    return 0;
  }

  // Best-effort cancellation of one in-flight command by its user_data.
  // Returns true when the command was withdrawn and its completion will
  // NEVER be delivered (the watchdog layer uses this to reclaim slots from
  // hung ops). Queues whose medium has already accepted the command — every
  // native and shim queue here, since data moves at submit — return false:
  // the completion still arrives and the caller must reconcile it.
  virtual bool Cancel(uint64_t user_data) {
    (void)user_data;
    return false;
  }

  // Busy-waits (advancing simulated time, charged as device I/O) until at
  // least `min` completions have been reaped into `out` by this call.
  Status WaitMin(Vcpu& vcpu, uint32_t min, std::vector<Completion>* out);

  // Reaps every outstanding completion.
  Status Drain(Vcpu& vcpu, std::vector<Completion>* out);

  uint32_t depth() const { return depth_; }
  uint32_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

 protected:
  bool Full() const { return in_flight() >= depth_; }

  // Bookkeeping hooks implementations call once per submitted command and
  // once per reaped completion. Queues are single-owner, so only the owner
  // writes the in-flight count: a load and a store, no RMW.
  void NoteSubmit() {
    in_flight_.store(in_flight_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void NoteComplete() {
    in_flight_.store(in_flight_.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
  }

 private:
  const uint32_t depth_;
  std::atomic<uint32_t> in_flight_{0};
  // Last member: the gauge reads in_flight_, so it unregisters first.
  telemetry::CallbackGroup metrics_;
};

// Sync-emulation shim: the capability fallback for devices whose medium has
// no command queue (pmem is byte-addressable; host files block in the
// kernel). Each submission executes through the device's public synchronous
// entry points — so NVI validation, retry policy, stats, and fault
// injection all still apply — and the completion is buffered ready for the
// next Poll(). The pipeline above sees identical semantics minus the
// overlap.
class SyncDeviceQueue : public DeviceQueue {
 public:
  SyncDeviceQueue(BlockDevice* device, uint32_t depth);

  const char* name() const override { return "sync-shim"; }
  uint64_t io_alignment() const override;

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override;
  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override;
  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override;
  uint64_t NextReadyAt() const override;

 private:
  BlockDevice* device_;
  std::vector<Completion> done_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_STORAGE_DEVICE_QUEUE_H_
