// Storage device abstraction used by the DRAM cache, the blobstore, and the
// key-value stores.
//
// All devices are synchronous at this interface (the paper's mmio fault path
// issues synchronous reads; writebacks use the batched path below). Costs
// are charged to the calling vCPU's simulated clock:
//   - time on the device medium / channel        -> CostCategory::kDeviceIo
//   - CPU copies for byte-addressable devices    -> CostCategory::kMemcpy
//   - kernel path for host-mediated access       -> CostCategory::kSyscall
// Devices are shared resources: channel bandwidth is modeled with a
// SerializedResource, so concurrent readers observe queueing exactly like a
// saturated Optane drive.
//
// The interface is non-virtual (NVI): Read/Write/ReadBatch/WriteBatch/Flush
// do per-call accounting (DeviceStats, registry latency histograms, trace
// events), validate the request against the device's declared geometry
// (io_alignment(), capacity_bytes()), retry transient I/O errors with
// bounded exponential backoff (RetryPolicy, charged to the simulated
// clock), and dispatch to the protected DoRead/DoWrite/... hooks concrete
// devices implement. Stacked devices (HostIoDevice, FaultInjectingDevice)
// call the public entry points of their inner device, so a request is
// counted once per layer it crosses — the registry sums the layers into
// runtime-wide totals.
#ifndef AQUILA_SRC_STORAGE_BLOCK_DEVICE_H_
#define AQUILA_SRC_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "src/storage/device_health.h"
#include "src/telemetry/metrics.h"
#include "src/util/sharded_counter.h"
#include "src/util/status.h"
#include "src/vmx/vcpu.h"

namespace aquila {

struct DeviceStats {
  ShardedCounter reads;
  ShardedCounter writes;
  ShardedCounter bytes_read;
  ShardedCounter bytes_written;
  // Failure handling (see RetryPolicy): attempts that returned kIoError,
  // re-attempts issued after backoff, and requests that exhausted the
  // attempt budget.
  ShardedCounter io_errors;
  ShardedCounter io_retries;
  ShardedCounter io_gave_up;
};

// Bounded exponential backoff for transient device errors. Only
// StatusCode::kIoError is considered transient; anything else (bad
// arguments, out of space) fails immediately. Backoff time models the
// driver's delayed requeue and is charged to the calling vCPU as idle time.
// Each step draws decorrelated jitter — uniform in
// [initial, min(cap, multiplier * prev)] — so concurrent retriers spread out
// instead of re-colliding in synchronized bursts.
struct RetryPolicy {
  uint32_t max_attempts = 3;              // total tries per request (>= 1)
  uint64_t initial_backoff_cycles = 20'000;
  uint32_t backoff_multiplier = 2;
  uint64_t max_backoff_cycles = 1'000'000;
};

class BlockDevice {
 public:
  BlockDevice();
  virtual ~BlockDevice() = default;

  virtual const char* name() const = 0;
  virtual uint64_t capacity_bytes() const = 0;

  // Required alignment for offsets and sizes at this interface. Devices
  // that accept byte-granular requests (pmem is byte-addressable; the NVMe
  // model bounces partial LBAs internally, like the kernel's
  // read-modify-write) return 1. The default is the classic 512-byte
  // sector contract. Misaligned or out-of-range requests fail with
  // kInvalidArgument in the public wrappers — uniformly, not per device.
  virtual uint64_t io_alignment() const { return 512; }

  // Synchronous I/O. Blocking time is charged to `vcpu`. Empty requests
  // succeed without touching the device.
  Status Read(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst);
  Status Write(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src);

  // Batched write path used by the eviction writeback: devices that support
  // queueing overlap the batch; the default loops over DoWrite.
  Status WriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                    std::span<const uint8_t* const> pages, uint64_t page_bytes);

  // Batched read path used by read-ahead. Default loops over DoRead.
  Status ReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                   std::span<uint8_t* const> pages, uint64_t page_bytes);

  // Flushes volatile device buffers (durability barrier for msync).
  Status Flush(Vcpu& vcpu);

  // --- Queueing capability (src/storage/device_queue.h) ---------------------
  // True when the device's medium genuinely overlaps queued commands (NVMe):
  // CreateQueue() then returns a native submission/completion queue whose
  // completions arrive at media time. The default answers false and
  // CreateQueue() falls back to the sync-emulation shim — same interface,
  // each op executed synchronously at submit — so pipeline code runs
  // unchanged on pmem/host devices. Decorators forward the inner device's
  // answer (and decorate the queue) unless their own semantics are
  // incompatible with deferred completion.
  virtual bool supports_queueing() const { return false; }
  virtual std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth);

  const DeviceStats& stats() const { return stats_; }

  const RetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  // One retry step of the policy: draws the backoff that follows `prev`
  // (initial_backoff_cycles before the first retry), charges it to `vcpu`,
  // counts it in io_retries and returns it. The synchronous entry points
  // take it between attempts, and the async engine before it resubmits a
  // failed write that msync or unmap waits on.
  uint64_t BackOff(Vcpu& vcpu, uint64_t prev);

  // Per-device health state machine (passive until Enable()d by a watchdog
  // layer). The label is attached lazily so the derived name() is resolvable.
  DeviceHealth& health() {
    health_.set_label(name());
    return health_;
  }
  const DeviceHealth& health() const { return health_; }

 protected:
  // Device implementations. Success accounting is done by the public
  // wrappers; implementations only move data and charge simulated time.
  virtual Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) = 0;
  virtual Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) = 0;
  virtual Status DoWriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                              std::span<const uint8_t* const> pages, uint64_t page_bytes);
  virtual Status DoReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                             std::span<uint8_t* const> pages, uint64_t page_bytes);
  virtual Status DoFlush(Vcpu& vcpu) { return Status::Ok(); }

  DeviceStats stats_;

 private:
  // Runs `op` under the retry policy, charging backoff to `vcpu`.
  template <typename Op>
  Status RunWithRetries(Vcpu& vcpu, Op&& op);

  Status ValidateRange(uint64_t offset, uint64_t size) const;
  Status ValidateBatch(std::span<const uint64_t> offsets, uint64_t page_bytes) const;

  RetryPolicy retry_policy_;
  DeviceHealth health_;
  // Jitter sequence for retry backoff: hashed per draw, so it stays
  // deterministic per device yet thread-safe without a shared Rng.
  std::atomic<uint64_t> retry_jitter_seq_{0};
  // Last member: the callbacks read stats_, so they unregister first.
  telemetry::CallbackGroup metrics_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_STORAGE_BLOCK_DEVICE_H_
