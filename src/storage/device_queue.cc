#include "src/storage/device_queue.h"

#include "src/storage/block_device.h"
#include "src/util/logging.h"

namespace aquila {

DeviceQueue::DeviceQueue(uint32_t depth) : depth_(depth == 0 ? 1 : depth) {
  metrics_.AddGauge("aquila.storage.queue_depth", [this] { return in_flight(); });
}

Status DeviceQueue::WaitMin(Vcpu& vcpu, uint32_t min, std::vector<Completion>* out) {
  uint32_t have = Poll(vcpu, out);
  while (have < min) {
    if (in_flight() == 0) {
      return Status::InvalidArgument("waiting for more completions than in flight");
    }
    uint64_t next = NextReadyAt();
    AQUILA_CHECK(next != UINT64_MAX);
    // Busy-poll the completion queue: the wait is device time from the
    // thread's perspective, exactly like NvmeQueuePair::Wait.
    vcpu.clock().AdvanceTo(next, CostCategory::kDeviceIo);
    have += Poll(vcpu, out);
  }
  return Status::Ok();
}

Status DeviceQueue::Drain(Vcpu& vcpu, std::vector<Completion>* out) {
  while (in_flight() > 0) {
    AQUILA_RETURN_IF_ERROR(WaitMin(vcpu, 1, out));
  }
  return Status::Ok();
}

SyncDeviceQueue::SyncDeviceQueue(BlockDevice* device, uint32_t depth)
    : DeviceQueue(depth), device_(device) {}

uint64_t SyncDeviceQueue::io_alignment() const { return device_->io_alignment(); }

Status SyncDeviceQueue::SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                                   uint64_t user_data) {
  if (Full()) {
    return Status::OutOfSpace("device queue full");
  }
  // Execute now through the public entry point (validation, retries, stats,
  // injection); only kInvalidArgument is a submission error — everything
  // else is a completed-with-error op and travels in the completion.
  Status status = device_->Read(vcpu, offset, dst);
  if (!status.ok() && status.code() == StatusCode::kInvalidArgument) {
    return status;
  }
  uint64_t now = vcpu.clock().Now();
  NoteSubmit();
  done_.push_back(Completion{user_data, status, now, now});
  return Status::Ok();
}

Status SyncDeviceQueue::SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                                    uint64_t user_data) {
  if (Full()) {
    return Status::OutOfSpace("device queue full");
  }
  Status status = device_->Write(vcpu, offset, src);
  if (!status.ok() && status.code() == StatusCode::kInvalidArgument) {
    return status;
  }
  uint64_t now = vcpu.clock().Now();
  NoteSubmit();
  done_.push_back(Completion{user_data, status, now, now});
  return Status::Ok();
}

uint32_t SyncDeviceQueue::Poll(Vcpu& vcpu, std::vector<Completion>* out) {
  (void)vcpu;
  uint32_t reaped = static_cast<uint32_t>(done_.size());
  for (Completion& c : done_) {
    NoteComplete();
    out->push_back(std::move(c));
  }
  done_.clear();
  return reaped;
}

uint64_t SyncDeviceQueue::NextReadyAt() const {
  return done_.empty() ? UINT64_MAX : 0;
}

}  // namespace aquila
