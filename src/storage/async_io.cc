#include "src/storage/async_io.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/util/bitops.h"
#include "src/util/logging.h"

namespace aquila {

AsyncIoRing::AsyncIoRing(BlockDevice& device, const Options& options)
    : options_(options), capacity_bytes_(device.capacity_bytes()) {
  if (device.supports_queueing()) {
    queue_ = device.CreateQueue(options.queue_depth);
  } else {
    queue_status_ = Status::Unimplemented(
        "device does not support queueing; an async ring over a synchronous "
        "device would fabricate overlap the medium cannot deliver");
  }
}

Status AsyncIoRing::CheckQueue() const {
  return queue_ == nullptr ? queue_status_ : Status::Ok();
}

Status AsyncIoRing::PrepareRead(uint64_t offset, std::span<uint8_t> dst, uint64_t user_data) {
  AQUILA_RETURN_IF_ERROR(CheckQueue());
  if (pending_.size() + queue_->in_flight() >= options_.queue_depth) {
    return Status::OutOfSpace("submission ring full");
  }
  const uint64_t align = queue_->io_alignment();
  if (!IsAligned(offset, align) || !IsAligned(dst.size(), align) ||
      offset + dst.size() > capacity_bytes_) {
    return Status::InvalidArgument("unaligned or out-of-range read");
  }
  pending_.push_back(Sqe{false, offset, dst.data(), dst.size(), user_data});
  return Status::Ok();
}

Status AsyncIoRing::PrepareWrite(uint64_t offset, std::span<const uint8_t> src,
                                 uint64_t user_data) {
  AQUILA_RETURN_IF_ERROR(CheckQueue());
  if (pending_.size() + queue_->in_flight() >= options_.queue_depth) {
    return Status::OutOfSpace("submission ring full");
  }
  const uint64_t align = queue_->io_alignment();
  if (!IsAligned(offset, align) || !IsAligned(src.size(), align) ||
      offset + src.size() > capacity_bytes_) {
    return Status::InvalidArgument("unaligned or out-of-range write");
  }
  pending_.push_back(Sqe{true, offset, const_cast<uint8_t*>(src.data()), src.size(), user_data});
  return Status::Ok();
}

StatusOr<uint32_t> AsyncIoRing::Submit(Vcpu& vcpu) {
  AQUILA_RETURN_IF_ERROR(CheckQueue());
  if (pending_.empty()) {
    return 0u;
  }
#if AQUILA_TELEMETRY_ENABLED
  static telemetry::Counter* ring_submits =
      telemetry::Registry().GetCounter("aquila.storage.ring_submits");
  static telemetry::Counter* ring_sqes =
      telemetry::Registry().GetCounter("aquila.storage.ring_sqes");
  ring_submits->Add();
  ring_sqes->Add(pending_.size());
#endif
  // ONE kernel entry for the whole batch.
  vcpu.ChargeSyscall();
  uint32_t submitted = 0;
  for (const Sqe& sqe : pending_) {
    // Per-request kernel block-layer work, then the device queue books media
    // time (the Prepare bound guarantees queue capacity).
    vcpu.clock().Charge(CostCategory::kSyscall, options_.kernel_per_request_cycles);
    Status status =
        sqe.write
            ? queue_->SubmitWrite(vcpu, sqe.offset, std::span(sqe.buffer, sqe.bytes),
                                  sqe.user_data)
            : queue_->SubmitRead(vcpu, sqe.offset, std::span(sqe.buffer, sqe.bytes),
                                 sqe.user_data);
    if (!status.ok()) {
      pending_.erase(pending_.begin(), pending_.begin() + submitted);
      return status;
    }
    submitted++;
  }
  pending_.clear();
  return submitted;
}

uint32_t AsyncIoRing::Convert(std::vector<DeviceQueue::Completion>& raw,
                              std::vector<Completion>* out) {
#if AQUILA_TELEMETRY_ENABLED
  static Histogram* ring_latency =
      telemetry::Registry().GetHistogram("aquila.storage.ring_latency_cycles");
#endif
  for (DeviceQueue::Completion& c : raw) {
    // Submit-to-completion latency as the application would measure it.
    AQUILA_TELEMETRY_ONLY(ring_latency->Record(c.ready_at - c.submit_at));
    out->push_back(Completion{c.user_data, std::move(c.status)});
  }
  return static_cast<uint32_t>(raw.size());
}

uint32_t AsyncIoRing::Harvest(Vcpu& vcpu, std::vector<Completion>* out) {
  if (queue_ == nullptr) {
    return 0;
  }
  std::vector<DeviceQueue::Completion> raw;
  queue_->Poll(vcpu, &raw);
  return Convert(raw, out);
}

Status AsyncIoRing::WaitFor(Vcpu& vcpu, uint32_t min, std::vector<Completion>* out) {
  AQUILA_RETURN_IF_ERROR(CheckQueue());
  if (min > queue_->in_flight() + static_cast<uint32_t>(out->size())) {
    return Status::InvalidArgument("waiting for more completions than in flight");
  }
  uint32_t have = Harvest(vcpu, out);
  while (have < min) {
    std::vector<DeviceQueue::Completion> raw;
    AQUILA_RETURN_IF_ERROR(queue_->WaitMin(vcpu, 1, &raw));
    have += Convert(raw, out);
  }
  return Status::Ok();
}

}  // namespace aquila
