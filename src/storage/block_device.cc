#include "src/storage/block_device.h"

#include <algorithm>

#include "src/storage/device_queue.h"
#include "src/telemetry/scoped_timer.h"

namespace aquila {

#if AQUILA_TELEMETRY_ENABLED
namespace {

// Shared across every device instance; per-device breakdown stays available
// through stats() while the registry reports runtime-wide latency.
struct DeviceHistograms {
  Histogram* read = telemetry::Registry().GetHistogram("aquila.storage.read_cycles");
  Histogram* write = telemetry::Registry().GetHistogram("aquila.storage.write_cycles");
  Histogram* read_batch =
      telemetry::Registry().GetHistogram("aquila.storage.read_batch_cycles");
  Histogram* write_batch =
      telemetry::Registry().GetHistogram("aquila.storage.write_batch_cycles");
};

const DeviceHistograms& GetDeviceHistograms() {
  static DeviceHistograms histograms;
  return histograms;
}

}  // namespace
#endif

BlockDevice::BlockDevice() {
  metrics_.AddCounter("aquila.storage.reads", stats_.reads);
  metrics_.AddCounter("aquila.storage.writes", stats_.writes);
  metrics_.AddCounter("aquila.storage.bytes_read", stats_.bytes_read);
  metrics_.AddCounter("aquila.storage.bytes_written", stats_.bytes_written);
  metrics_.AddCounter("aquila.storage.io_errors", stats_.io_errors);
  metrics_.AddCounter("aquila.storage.io_retries", stats_.io_retries);
  metrics_.AddCounter("aquila.storage.io_gave_up", stats_.io_gave_up);
}

template <typename Op>
Status BlockDevice::RunWithRetries(Vcpu& vcpu, Op&& op) {
  // Breaker check: a failed device refuses sync ops without touching the
  // medium, and once the probe interval elapses this same call is the one
  // ShouldFailFast lets through as the probe — the sync path can re-admit
  // a healed device just like the watchdog queue path.
  if (health_.enabled() && health_.ShouldFailFast(vcpu.clock().Now())) {
    return Status::Unavailable("device breaker open: failed fast");
  }
  uint64_t backoff = retry_policy_.initial_backoff_cycles;
  for (uint32_t attempt = 1;; attempt++) {
    Status status = op();
    if (status.ok() || status.code() != StatusCode::kIoError) {
      // Only genuine device verdicts feed health: success, or the kIoError
      // give-up below. Argument errors say nothing about the medium.
      if (health_.enabled() && status.ok()) {
        health_.RecordOutcome(vcpu.clock().Now(), DeviceHealth::Outcome::kOk);
      }
      return status;
    }
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= retry_policy_.max_attempts) {
      stats_.io_gave_up.fetch_add(1, std::memory_order_relaxed);
      if (health_.enabled()) {
        health_.RecordOutcome(vcpu.clock().Now(), DeviceHealth::Outcome::kError);
      }
      return status;
    }
    backoff = BackOff(vcpu, backoff);
  }
}

uint64_t BlockDevice::BackOff(Vcpu& vcpu, uint64_t prev) {
  // Delayed requeue: the device is left alone for a backoff window drawn
  // with decorrelated jitter — uniform in [initial, min(cap, mult * prev)]
  // — so concurrent retriers desynchronize instead of re-colliding. The
  // draw hashes a per-device sequence number: deterministic per run,
  // thread-safe without a shared generator.
  uint64_t lo = retry_policy_.initial_backoff_cycles;
  uint64_t hi = std::min<uint64_t>(retry_policy_.max_backoff_cycles,
                                   prev * retry_policy_.backoff_multiplier);
  uint64_t backoff = lo;
  if (hi > lo) {
    uint64_t draw = FnvHash64(retry_jitter_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
    backoff = lo + draw % (hi - lo + 1);
  }
  vcpu.clock().Charge(CostCategory::kIdle, backoff);
  stats_.io_retries.fetch_add(1, std::memory_order_relaxed);
  return backoff;
}

Status BlockDevice::ValidateRange(uint64_t offset, uint64_t size) const {
  const uint64_t align = io_alignment();
  if (offset % align != 0 || size % align != 0) {
    return Status::InvalidArgument("device I/O not aligned to io_alignment()");
  }
  if (offset + size < offset || offset + size > capacity_bytes()) {
    return Status::InvalidArgument("device I/O beyond capacity");
  }
  return Status::Ok();
}

Status BlockDevice::ValidateBatch(std::span<const uint64_t> offsets,
                                  uint64_t page_bytes) const {
  if (page_bytes == 0) {
    return Status::InvalidArgument("batched device I/O with zero page size");
  }
  for (uint64_t offset : offsets) {
    AQUILA_RETURN_IF_ERROR(ValidateRange(offset, page_bytes));
  }
  return Status::Ok();
}

Status BlockDevice::Read(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) {
  if (dst.empty()) {
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(ValidateRange(offset, dst.size()));
  AQUILA_TELEMETRY_ONLY(const uint64_t start = vcpu.clock().Now());
  Status status = RunWithRetries(vcpu, [&] { return DoRead(vcpu, offset, dst); });
  if (status.ok()) {
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(dst.size(), std::memory_order_relaxed);
    AQUILA_TELEMETRY_ONLY(
        telemetry::RecordSpanSince(GetDeviceHistograms().read, vcpu.clock(), start));
  }
  return status;
}

Status BlockDevice::Write(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) {
  if (src.empty()) {
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(ValidateRange(offset, src.size()));
  AQUILA_TELEMETRY_ONLY(const uint64_t start = vcpu.clock().Now());
  Status status = RunWithRetries(vcpu, [&] { return DoWrite(vcpu, offset, src); });
  if (status.ok()) {
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(src.size(), std::memory_order_relaxed);
    AQUILA_TELEMETRY_ONLY(
        telemetry::RecordSpanSince(GetDeviceHistograms().write, vcpu.clock(), start));
  }
  return status;
}

Status BlockDevice::WriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                               std::span<const uint8_t* const> pages, uint64_t page_bytes) {
  if (offsets.empty()) {
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(ValidateBatch(offsets, page_bytes));
  AQUILA_TELEMETRY_ONLY(const uint64_t start = vcpu.clock().Now());
  Status status =
      RunWithRetries(vcpu, [&] { return DoWriteBatch(vcpu, offsets, pages, page_bytes); });
  if (status.ok()) {
    stats_.writes.fetch_add(offsets.size(), std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(offsets.size() * page_bytes, std::memory_order_relaxed);
    AQUILA_TELEMETRY_ONLY(
        telemetry::RecordSpanSince(GetDeviceHistograms().write_batch, vcpu.clock(), start));
  }
  return status;
}

Status BlockDevice::ReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                              std::span<uint8_t* const> pages, uint64_t page_bytes) {
  if (offsets.empty()) {
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(ValidateBatch(offsets, page_bytes));
  AQUILA_TELEMETRY_ONLY(const uint64_t start = vcpu.clock().Now());
  Status status =
      RunWithRetries(vcpu, [&] { return DoReadBatch(vcpu, offsets, pages, page_bytes); });
  if (status.ok()) {
    stats_.reads.fetch_add(offsets.size(), std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(offsets.size() * page_bytes, std::memory_order_relaxed);
    AQUILA_TELEMETRY_ONLY(
        telemetry::RecordSpanSince(GetDeviceHistograms().read_batch, vcpu.clock(), start));
  }
  return status;
}

Status BlockDevice::Flush(Vcpu& vcpu) {
  return RunWithRetries(vcpu, [&] { return DoFlush(vcpu); });
}

std::unique_ptr<DeviceQueue> BlockDevice::CreateQueue(uint32_t depth) {
  return std::make_unique<SyncDeviceQueue>(this, depth);
}

Status BlockDevice::DoWriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                                 std::span<const uint8_t* const> pages, uint64_t page_bytes) {
  for (size_t i = 0; i < offsets.size(); i++) {
    AQUILA_RETURN_IF_ERROR(DoWrite(vcpu, offsets[i], std::span(pages[i], page_bytes)));
  }
  return Status::Ok();
}

Status BlockDevice::DoReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                                std::span<uint8_t* const> pages, uint64_t page_bytes) {
  for (size_t i = 0; i < offsets.size(); i++) {
    AQUILA_RETURN_IF_ERROR(DoRead(vcpu, offsets[i], std::span(pages[i], page_bytes)));
  }
  return Status::Ok();
}

}  // namespace aquila
