#include "src/storage/fault_device.h"

#include <algorithm>
#include <cstring>

#include "src/util/sim_clock.h"

namespace aquila {

namespace {

bool Scheduled(const std::vector<uint64_t>& triggers, uint64_t attempt) {
  return std::find(triggers.begin(), triggers.end(), attempt) != triggers.end();
}

}  // namespace

FaultInjectingDevice::FaultInjectingDevice(BlockDevice* inner, const Options& options)
    : inner_(inner), options_(options), rng_(options.seed) {
  metrics_.AddCounter("aquila.storage.injected_faults", fault_stats_.total_injected);
}

FaultInjectingDevice::Verdict FaultInjectingDevice::ShouldFail(OpKind kind, uint64_t req_size,
                                                               uint64_t* spike_cycles,
                                                               uint64_t* torn_prefix) {
  *spike_cycles = 0;
  *torn_prefix = 0;
  std::lock_guard<std::mutex> lock(mu_);

  uint64_t attempt = 0;
  double rate = 0.0;
  switch (kind) {
    case OpKind::kRead:
      attempt = ++read_attempts_;
      rate = options_.read_error_rate;
      break;
    case OpKind::kWrite:
      attempt = ++write_attempts_;
      rate = options_.write_error_rate;
      break;
    case OpKind::kFlush:
      attempt = ++flush_attempts_;
      rate = options_.flush_error_rate;
      break;
  }

  const std::vector<uint64_t>& triggers = kind == OpKind::kRead    ? options_.fail_reads
                                          : kind == OpKind::kWrite ? options_.fail_writes
                                                                   : options_.fail_flushes;
  bool fail = Scheduled(triggers, attempt);
  // The probability draw happens whenever a rate is configured so the rng
  // stream stays aligned across runs regardless of which branch fires.
  if (rate > 0.0 && rng_.NextDouble() < rate) {
    fail = true;
  }

  if (fail) {
    if (kind == OpKind::kWrite && options_.torn_writes && req_size > 0) {
      const uint64_t align = io_alignment();
      *torn_prefix = rng_.Uniform(req_size) / align * align;
    }
    return Verdict::kFail;
  }
  // Hang check after the error check: a command must survive the error roll
  // before it can wedge. Draws only happen when configured, so existing
  // seeds' rng streams are unchanged.
  if (kind != OpKind::kFlush) {
    const std::vector<uint64_t>& hang_triggers =
        kind == OpKind::kRead ? options_.hang_reads : options_.hang_writes;
    bool hang = Scheduled(hang_triggers, attempt);
    if (options_.hang_rate > 0.0 && rng_.NextDouble() < options_.hang_rate) {
      hang = true;
    }
    if (hang) {
      return Verdict::kHang;
    }
  }
  if (options_.latency_spike_rate > 0.0 && rng_.NextDouble() < options_.latency_spike_rate) {
    *spike_cycles = options_.latency_spike_cycles;
  }
  // An active brownout window slows every completing op, error-free.
  *spike_cycles += brownout_extra_cycles_.load(std::memory_order_relaxed);
  return Verdict::kOk;
}

Status FaultInjectingDevice::DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) {
  if (offline()) {
    return Status::IoError("device offline (power cut)");
  }
  uint64_t spike = 0, torn = 0;
  Verdict verdict = ShouldFail(OpKind::kRead, dst.size(), &spike, &torn);
  if (verdict == Verdict::kHang) {
    // The sync path cannot block forever: model the hang as a bounded stall
    // on the medium followed by the driver's abort.
    fault_stats_.injected_hangs.fetch_add(1, std::memory_order_relaxed);
    fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    vcpu.clock().Charge(CostCategory::kDeviceIo, options_.sync_hang_stall_cycles);
    return Status::IoError("injected hang (sync path: stalled then aborted)");
  }
  if (verdict == Verdict::kFail) {
    fault_stats_.injected_read_errors.fetch_add(1, std::memory_order_relaxed);
    fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected read error");
  }
  if (spike != 0) {
    fault_stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
    vcpu.clock().Charge(CostCategory::kDeviceIo, spike);
  }
  AQUILA_RETURN_IF_ERROR(inner_->Read(vcpu, offset, dst));
  if (options_.buffer_unflushed_writes) {
    std::lock_guard<std::mutex> lock(mu_);
    OverlayPatchLocked(offset, dst);
  }
  return Status::Ok();
}

Status FaultInjectingDevice::DoWrite(Vcpu& vcpu, uint64_t offset,
                                     std::span<const uint8_t> src) {
  if (offline()) {
    return Status::IoError("device offline (power cut)");
  }
  uint64_t spike = 0, torn = 0;
  Verdict verdict = ShouldFail(OpKind::kWrite, src.size(), &spike, &torn);
  if (verdict == Verdict::kHang) {
    fault_stats_.injected_hangs.fetch_add(1, std::memory_order_relaxed);
    fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    vcpu.clock().Charge(CostCategory::kDeviceIo, options_.sync_hang_stall_cycles);
    return Status::IoError("injected hang (sync path: stalled then aborted)");
  }
  if (verdict == Verdict::kFail) {
    if (torn != 0) {
      fault_stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
      if (options_.buffer_unflushed_writes) {
        std::lock_guard<std::mutex> lock(mu_);
        OverlayInsertLocked(offset, src.first(torn));
      } else {
        // Best effort: the prefix reaches the medium even though the
        // request as a whole is reported failed.
        (void)inner_->Write(vcpu, offset, src.first(torn));
      }
    }
    fault_stats_.injected_write_errors.fetch_add(1, std::memory_order_relaxed);
    fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected write error");
  }
  if (spike != 0) {
    fault_stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
    vcpu.clock().Charge(CostCategory::kDeviceIo, spike);
  }
  if (options_.buffer_unflushed_writes) {
    std::lock_guard<std::mutex> lock(mu_);
    OverlayInsertLocked(offset, src);
    // Charge the transfer as if it hit the device's volatile write cache.
    vcpu.clock().Charge(CostCategory::kDeviceIo, 1);
    return Status::Ok();
  }
  return inner_->Write(vcpu, offset, src);
}

Status FaultInjectingDevice::DoFlush(Vcpu& vcpu) {
  if (offline()) {
    return Status::IoError("device offline (power cut)");
  }
  uint64_t spike = 0, torn = 0;
  if (ShouldFail(OpKind::kFlush, 0, &spike, &torn) == Verdict::kFail) {
    fault_stats_.injected_flush_errors.fetch_add(1, std::memory_order_relaxed);
    fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected flush error");
  }
  if (spike != 0) {
    fault_stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
    vcpu.clock().Charge(CostCategory::kDeviceIo, spike);
  }
  if (options_.buffer_unflushed_writes) {
    std::lock_guard<std::mutex> lock(mu_);
    AQUILA_RETURN_IF_ERROR(ApplyOverlayLocked(vcpu));
  }
  return inner_->Flush(vcpu);
}

std::unique_ptr<DeviceQueue> FaultInjectingDevice::CreateQueue(uint32_t depth) {
  if (!supports_queueing()) {
    // Shim over THIS device (not the inner one) so every op still funnels
    // through DoRead/DoWrite — injection and the write-cache overlay apply.
    return BlockDevice::CreateQueue(depth);
  }
  return std::make_unique<FaultInjectingQueue>(this, inner_->CreateQueue(depth));
}

FaultInjectingQueue::FaultInjectingQueue(FaultInjectingDevice* device,
                                         std::unique_ptr<DeviceQueue> inner)
    : DeviceQueue(inner->depth()), device_(device), inner_(std::move(inner)) {}

void FaultInjectingQueue::BufferFailure(Vcpu& vcpu, uint64_t user_data, Status status) {
  uint64_t now = vcpu.clock().Now();
  NoteSubmit();
  failed_.push_back(Completion{user_data, std::move(status), now, now});
}

Status FaultInjectingQueue::SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                                       uint64_t user_data) {
  if (Full()) {
    return Status::OutOfSpace("device queue full");
  }
  if (device_->offline()) {
    BufferFailure(vcpu, user_data, Status::IoError("device offline (power cut)"));
    return Status::Ok();
  }
  uint64_t spike = 0, torn = 0;
  FaultInjectingDevice::Verdict verdict =
      device_->ShouldFail(FaultInjectingDevice::OpKind::kRead, dst.size(), &spike, &torn);
  if (verdict == FaultInjectingDevice::Verdict::kHang) {
    // Swallowed before the medium: accepted, in flight, never completes.
    device_->fault_stats_.injected_hangs.fetch_add(1, std::memory_order_relaxed);
    device_->fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    hung_.emplace(user_data, vcpu.clock().Now());
    NoteSubmit();
    return Status::Ok();
  }
  if (verdict == FaultInjectingDevice::Verdict::kFail) {
    device_->fault_stats_.injected_read_errors.fetch_add(1, std::memory_order_relaxed);
    device_->fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    BufferFailure(vcpu, user_data, Status::IoError("injected read error"));
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(inner_->SubmitRead(vcpu, offset, dst, user_data));
  if (spike != 0) {
    // The spike is extra media time on this command, not CPU time on the
    // submitter: it surfaces as a later ready_at when the completion reaps,
    // so the async path overlaps it like any other device latency.
    device_->fault_stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
    spike_cycles_[user_data] = spike;
  }
  NoteSubmit();
  return Status::Ok();
}

Status FaultInjectingQueue::SubmitWrite(Vcpu& vcpu, uint64_t offset,
                                        std::span<const uint8_t> src, uint64_t user_data) {
  if (Full()) {
    return Status::OutOfSpace("device queue full");
  }
  if (device_->offline()) {
    BufferFailure(vcpu, user_data, Status::IoError("device offline (power cut)"));
    return Status::Ok();
  }
  uint64_t spike = 0, torn = 0;
  FaultInjectingDevice::Verdict verdict =
      device_->ShouldFail(FaultInjectingDevice::OpKind::kWrite, src.size(), &spike, &torn);
  if (verdict == FaultInjectingDevice::Verdict::kHang) {
    // Swallowed before the medium: the data is lost unless the caller's
    // watchdog retries the command after cancelling this one.
    device_->fault_stats_.injected_hangs.fetch_add(1, std::memory_order_relaxed);
    device_->fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    hung_.emplace(user_data, vcpu.clock().Now());
    NoteSubmit();
    return Status::Ok();
  }
  if (verdict == FaultInjectingDevice::Verdict::kFail) {
    if (torn != 0) {
      device_->fault_stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
      // Best effort: the prefix reaches the medium even though the command
      // is reported failed in its completion.
      (void)device_->inner_->Write(vcpu, offset, src.first(torn));
    }
    device_->fault_stats_.injected_write_errors.fetch_add(1, std::memory_order_relaxed);
    device_->fault_stats_.total_injected.fetch_add(1, std::memory_order_relaxed);
    BufferFailure(vcpu, user_data, Status::IoError("injected write error"));
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(inner_->SubmitWrite(vcpu, offset, src, user_data));
  if (spike != 0) {
    // As in SubmitRead: the spike extends the command's completion, it does
    // not block the submitter.
    device_->fault_stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
    spike_cycles_[user_data] = spike;
  }
  NoteSubmit();
  return Status::Ok();
}

uint32_t FaultInjectingQueue::Poll(Vcpu& vcpu, std::vector<Completion>* out) {
  uint64_t now = vcpu.clock().Now();
  uint32_t reaped = static_cast<uint32_t>(failed_.size());
  for (Completion& c : failed_) {
    NoteComplete();
    out->push_back(std::move(c));
  }
  failed_.clear();
  std::vector<Completion> inner_done;
  inner_->Poll(vcpu, &inner_done);
  for (Completion& c : inner_done) {
    auto spike = spike_cycles_.find(c.user_data);
    if (spike != spike_cycles_.end()) {
      // The injected spike extended this command's media time; hold the
      // completion back until the extended deadline passes. delayed_ is
      // kept sorted by the extended ready_at so spiked completions release
      // in deadline order, not submission order.
      c.ready_at += spike->second;
      spike_cycles_.erase(spike);
      if (c.ready_at > now) {
        auto pos = std::upper_bound(
            delayed_.begin(), delayed_.end(), c,
            [](const Completion& a, const Completion& b) { return a.ready_at < b.ready_at; });
        delayed_.insert(pos, std::move(c));
        continue;
      }
    }
    NoteComplete();
    CountCompleted(c);
    reaped++;
    out->push_back(std::move(c));
  }
  // Sorted by ready_at, so draining from the front releases strictly in
  // deadline order.
  auto it = delayed_.begin();
  while (it != delayed_.end() && it->ready_at <= now) {
    NoteComplete();
    CountCompleted(*it);
    reaped++;
    out->push_back(std::move(*it));
    ++it;
  }
  delayed_.erase(delayed_.begin(), it);
  return reaped;
}

void FaultInjectingQueue::CountCompleted(const Completion& c) {
  // Once per layer, like the synchronous wrappers: the inner queue counted
  // the command on its own device.
  if (!c.status.ok()) {
    return;
  }
  DeviceStats& stats = device_->stats_;
  if (c.write) {
    stats.writes.fetch_add(1, std::memory_order_relaxed);
    stats.bytes_written.fetch_add(c.bytes, std::memory_order_relaxed);
  } else {
    stats.reads.fetch_add(1, std::memory_order_relaxed);
    stats.bytes_read.fetch_add(c.bytes, std::memory_order_relaxed);
  }
}

bool FaultInjectingQueue::Cancel(uint64_t user_data) {
  auto it = hung_.find(user_data);
  if (it == hung_.end()) {
    // Anything that reached the inner queue (or the failure buffer) will
    // still deliver a completion; the caller must reconcile it.
    return false;
  }
  hung_.erase(it);
  device_->fault_stats_.cancelled_hangs.fetch_add(1, std::memory_order_relaxed);
  // The command is gone for good: balance its NoteSubmit.
  NoteComplete();
  return true;
}

uint64_t FaultInjectingQueue::NextReadyAt() const {
  if (!failed_.empty()) {
    return 0;
  }
  uint64_t next = inner_->NextReadyAt();
  for (const Completion& c : delayed_) {
    next = std::min(next, c.ready_at);
  }
  return next;
}

void FaultInjectingDevice::PowerCut() {
  std::lock_guard<std::mutex> lock(mu_);
  overlay_.clear();
  offline_.store(true, std::memory_order_release);
}

void FaultInjectingDevice::Revive() { offline_.store(false, std::memory_order_release); }

void FaultInjectingDevice::set_read_error_rate(double rate) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.read_error_rate = rate;
}

void FaultInjectingDevice::set_write_error_rate(double rate) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.write_error_rate = rate;
}

void FaultInjectingDevice::set_hang_rate(double rate) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.hang_rate = rate;
}

void FaultInjectingDevice::OverlayInsertLocked(uint64_t offset, std::span<const uint8_t> src) {
  if (src.empty()) {
    return;
  }
  const uint64_t end = offset + src.size();
  // Trim the extent starting before `offset` that overlaps the new range.
  auto it = overlay_.lower_bound(offset);
  if (it != overlay_.begin()) {
    auto prev = std::prev(it);
    const uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > offset) {
      if (prev_end > end) {
        std::vector<uint8_t> tail(prev->second.begin() + static_cast<ptrdiff_t>(end - prev->first),
                                  prev->second.end());
        overlay_.emplace(end, std::move(tail));
      }
      prev->second.resize(offset - prev->first);
    }
  }
  // Drop or split extents starting inside the new range.
  it = overlay_.lower_bound(offset);
  while (it != overlay_.end() && it->first < end) {
    const uint64_t it_end = it->first + it->second.size();
    if (it_end <= end) {
      it = overlay_.erase(it);
    } else {
      std::vector<uint8_t> tail(it->second.begin() + static_cast<ptrdiff_t>(end - it->first),
                                it->second.end());
      overlay_.erase(it);
      overlay_.emplace(end, std::move(tail));
      break;
    }
  }
  overlay_.emplace(offset, std::vector<uint8_t>(src.begin(), src.end()));
}

void FaultInjectingDevice::OverlayPatchLocked(uint64_t offset, std::span<uint8_t> dst) const {
  const uint64_t end = offset + dst.size();
  auto it = overlay_.upper_bound(offset);
  if (it != overlay_.begin()) {
    --it;
  }
  for (; it != overlay_.end() && it->first < end; ++it) {
    const uint64_t it_end = it->first + it->second.size();
    if (it_end <= offset) {
      continue;
    }
    const uint64_t lo = std::max(offset, it->first);
    const uint64_t hi = std::min(end, it_end);
    std::memcpy(dst.data() + (lo - offset), it->second.data() + (lo - it->first), hi - lo);
  }
}

Status FaultInjectingDevice::ApplyOverlayLocked(Vcpu& vcpu) {
  auto it = overlay_.begin();
  while (it != overlay_.end()) {
    AQUILA_RETURN_IF_ERROR(inner_->Write(vcpu, it->first, it->second));
    it = overlay_.erase(it);
  }
  return Status::Ok();
}

}  // namespace aquila
