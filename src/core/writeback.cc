#include "src/core/writeback.h"

#include <algorithm>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/device_health.h"
#include "src/telemetry/scoped_timer.h"
#include "src/util/logging.h"
#include "src/vmx/cost_model.h"

namespace aquila {

namespace {

#if AQUILA_TELEMETRY_ENABLED
struct AsyncMetrics {
  // Cycles of device time that elapsed while the CPU was doing other work —
  // the overlap the async pipeline buys over synchronous writeback.
  telemetry::Counter* overlap_cycles =
      telemetry::Registry().GetCounter("aquila.core.async_overlap_cycles");
  telemetry::Counter* writebacks =
      telemetry::Registry().GetCounter("aquila.core.async_writebacks");
  telemetry::Counter* fills = telemetry::Registry().GetCounter("aquila.core.async_fills");
};

const AsyncMetrics& GetAsyncMetrics() {
  static AsyncMetrics metrics;
  return metrics;
}
#endif

}  // namespace

void WritebackPlanner::Sort(Vcpu& vcpu) {
  ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
  std::sort(items_.begin(), items_.end());
}

size_t WritebackPlanner::GroupEnd(size_t begin) const {
  size_t end = begin;
  while (end < items_.size() && items_[end].owner == items_[begin].owner) {
    end++;
  }
  return end;
}

Status WritebackPlanner::WriteGroup(Vcpu& vcpu, size_t begin, size_t end) {
  std::vector<uint64_t> offsets;
  std::vector<const uint8_t*> pages;
  offsets.reserve(end - begin);
  pages.reserve(end - begin);
  for (size_t k = begin; k < end; k++) {
    offsets.push_back(items_[k].file_offset);
    pages.push_back(items_[k].data);
  }
  return items_[begin].owner->backing_->WritePages(vcpu, offsets, pages, kPageSize);
}

Status WritebackPlanner::SubmitSync(Vcpu& vcpu) {
  Sort(vcpu);
  size_t end;
  for (size_t begin = 0; begin < items_.size(); begin = end) {
    end = GroupEnd(begin);
    AQUILA_RETURN_IF_ERROR(WriteGroup(vcpu, begin, end));
  }
  return Status::Ok();
}

void WritebackPlanner::AddReclaim(const WritebackItem& item) {
  items_.push_back(item);
  AquilaMap* owner = item.owner;
  PageCache& cache = owner->runtime_->cache();
  Frame& f = cache.frame(item.frame);
  if (owner->writeback_engine() != nullptr) {
    f.state.store(FrameState::kWritingBack, std::memory_order_release);
    owner->UnlockPage(owner->vma_.start_page + (item.file_offset >> kPageShift));
  } else {
    cache.RemoveMapping(f.key.load(std::memory_order_relaxed));
  }
}

Status WritebackPlanner::SubmitReclaim(Vcpu& vcpu, std::vector<FrameId>* to_free) {
  if (items_.empty()) {
    return Status::Ok();
  }
  if (items_.front().owner->writeback_engine() != nullptr) {
    return SubmitAsync(vcpu);
  }
  Sort(vcpu);
  Status first_error;
  size_t end;
  for (size_t begin = 0; begin < items_.size(); begin = end) {
    end = GroupEnd(begin);
    AquilaMap* owner = items_[begin].owner;
    Status status = WriteGroup(vcpu, begin, end);
    owner->NoteWritebackResult(status);
    if (status.ok()) {
      owner->runtime_->fault_stats().writeback_pages.fetch_add(end - begin,
                                                               std::memory_order_relaxed);
    } else if (first_error.ok()) {
      first_error = status;
    }
    // The owner stays alive while any of its pages is still locked, so the
    // group's last unlock is also the planner's last touch of it.
    for (size_t k = begin; k < end; k++) {
      const WritebackItem& item = items_[k];
      if (status.ok()) {
        to_free->push_back(item.frame);
      } else {
        // Unwritten dirty data must not be dropped: back into the cache,
        // dirty, for the next writeback to retry.
        owner->RestoreDirtyFrame(vcpu, item.frame, item.sort_key, /*reinsert_mapping=*/true);
      }
      owner->UnlockPage(owner->vma_.start_page + (item.file_offset >> kPageShift));
    }
  }
  return first_error;
}

Status WritebackPlanner::SubmitAsync(Vcpu& vcpu) {
  Sort(vcpu);
  Status first_error;
  for (const WritebackItem& item : items_) {
    AsyncWritebackEngine* engine = item.owner->writeback_engine();
    AQUILA_DCHECK(engine != nullptr);
    Status status = engine->SubmitWriteback(vcpu, item);
    if (!status.ok()) {
      // The submission machinery itself rejected the request (I/O errors
      // arrive in completions, not here). The page's data never left the
      // frame, so restore it dirty-in-place; the mapping was kept.
      item.owner->RestoreDirtyFrame(vcpu, item.frame, item.sort_key,
                                    /*reinsert_mapping=*/false);
      // Backpressure (a full queue — e.g. watchdog hedge/zombie legs holding
      // inner slots) says nothing about the medium: the next round retries.
      // Anything else is a genuine verdict and feeds the degrade streak.
      if (status.code() != StatusCode::kOutOfSpace) {
        item.owner->NoteWritebackResult(status);
      }
      if (first_error.ok()) {
        first_error = status;
      }
    }
  }
  return first_error;
}

namespace {

// The engine's queue, optionally hardened: with a configured op timeout the
// raw device queue is wrapped in a WatchdogQueue and the device's health
// state machine is armed. With the default timeout of 0 the raw queue is
// used untouched — no watchdog state anywhere near the hot path.
std::unique_ptr<DeviceQueue> MakeEngineQueue(Aquila* runtime, AquilaMap* map, uint32_t depth) {
  BlockDevice* device = map->backing()->device();
  std::unique_ptr<DeviceQueue> inner = device->CreateQueue(depth);
  const Aquila::Options& options = runtime->options();
  if (options.device_op_timeout_us == 0) {
    return inner;
  }
  const uint64_t cycles_per_us = GlobalCostModel().cycles_per_us;
  DeviceHealth::Options health_options;
  health_options.probe_interval_cycles =
      static_cast<uint64_t>(options.device_probe_interval_us) * cycles_per_us;
  device->health().Enable(health_options);
  WatchdogQueue::Options watchdog_options;
  watchdog_options.timeout_cycles =
      static_cast<uint64_t>(options.device_op_timeout_us) * cycles_per_us;
  watchdog_options.hedge_reads = options.hedge_reads;
  return std::make_unique<WatchdogQueue>(&device->health(), std::move(inner), watchdog_options);
}

}  // namespace

AsyncWritebackEngine::AsyncWritebackEngine(Aquila* runtime, AquilaMap* map, uint32_t depth)
    : runtime_(runtime),
      map_(map),
      queue_(MakeEngineQueue(runtime, map, depth)),
      slots_(queue_->depth()) {}

AsyncWritebackEngine::~AsyncWritebackEngine() {
  // TearDown drains before destruction; anything still in flight here would
  // lose dirty data silently.
  AQUILA_DCHECK(queue_->in_flight() == 0 && local_.empty());
}

Status AsyncWritebackEngine::SubmitWriteback(Vcpu& vcpu, const WritebackItem& item) {
  std::lock_guard<SpinLock> guard(lock_);
  uint32_t index = ClaimSlotLocked(vcpu);
  Slot& slot = slots_[index];
  // The frame is ours (kWritingBack): its key is stable until completion.
  uint64_t key = runtime_->cache().frame(item.frame).key.load(std::memory_order_relaxed);
  slot = Slot{Slot::Kind::kWriteback, /*demand=*/false, item.frame, key, item.sort_key,
              item.file_offset, telemetry::CurrentSpanContext()};
  AQUILA_TELEMETRY_ONLY(GetAsyncMetrics().writebacks->Add());
  StatusOr<uint64_t> dev_offset = map_->backing_->TranslateForQueue(item.file_offset);
  if (dev_offset.ok()) {
    Status status =
        queue_->SubmitWrite(vcpu, *dev_offset, std::span(item.data, kPageSize), index);
    if (!status.ok()) {
      slot.kind = Slot::Kind::kFree;
      return status;
    }
  } else {
    // No device extent to queue on (unallocated blob cluster): WritePages
    // allocates and writes synchronously; buffer the completion so the
    // reaping protocol stays uniform.
    const uint64_t offsets[1] = {item.file_offset};
    const uint8_t* const pages[1] = {item.data};
    Status status = map_->backing_->WritePages(vcpu, offsets, pages, kPageSize);
    const uint64_t now = vcpu.clock().Now();
    local_.push_back(DeviceQueue::Completion{index, std::move(status), now, now});
  }
  // The request is committed (queued or buffered in local_): its originating
  // trace must stay open until CompleteLocked records the device child span.
  telemetry::SpanCollector::Global().NoteAsyncSubmitted(slot.span.trace_id);
  return Status::Ok();
}

Status AsyncWritebackEngine::SubmitFill(Vcpu& vcpu, FrameId frame, uint64_t key,
                                        uint64_t file_offset, bool demand) {
  std::lock_guard<SpinLock> guard(lock_);
  uint32_t index = ClaimSlotLocked(vcpu);
  Slot& slot = slots_[index];
  slot = Slot{Slot::Kind::kFill, demand, frame, key, /*sort_key=*/0, file_offset,
              telemetry::CurrentSpanContext()};
  uint8_t* data = runtime_->cache().FrameData(vcpu, frame);
  AQUILA_TELEMETRY_ONLY(GetAsyncMetrics().fills->Add());
  StatusOr<uint64_t> dev_offset = map_->backing_->TranslateForQueue(file_offset);
  if (dev_offset.ok()) {
    Status status = queue_->SubmitRead(vcpu, *dev_offset, std::span(data, kPageSize), index);
    if (!status.ok()) {
      slot.kind = Slot::Kind::kFree;
      return status;
    }
  } else {
    uint64_t offsets[1] = {file_offset};
    uint8_t* const pages[1] = {data};
    Status status = map_->backing_->ReadPages(vcpu, offsets, pages, kPageSize);
    const uint64_t now = vcpu.clock().Now();
    local_.push_back(DeviceQueue::Completion{index, std::move(status), now, now});
  }
  telemetry::SpanCollector::Global().NoteAsyncSubmitted(slot.span.trace_id);
  return Status::Ok();
}

size_t AsyncWritebackEngine::Harvest(Vcpu& vcpu) {
  std::lock_guard<SpinLock> guard(lock_);
  return ReapLocked(vcpu, /*wait=*/false);
}

bool AsyncWritebackEngine::HasPendingFill(uint64_t key) {
  std::lock_guard<SpinLock> guard(lock_);
  for (const Slot& slot : slots_) {
    if (slot.kind == Slot::Kind::kFill && slot.key == key) {
      return true;
    }
  }
  return false;
}

bool AsyncWritebackEngine::AwaitFill(Vcpu& vcpu, uint64_t key) {
  std::lock_guard<SpinLock> guard(lock_);
  bool drained = false;
  while (true) {
    bool pending = false;
    for (const Slot& slot : slots_) {
      if (slot.kind == Slot::Kind::kFill && slot.key == key) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      return drained;
    }
    drained = true;
    (void)ReapLocked(vcpu, /*wait=*/true);
  }
}

bool AsyncWritebackEngine::AwaitWritebacks(Vcpu& vcpu, uint64_t first_page,
                                           uint64_t last_page) {
  std::lock_guard<SpinLock> guard(lock_);
  bool drained = false;
  while (true) {
    bool pending = false;
    for (const Slot& slot : slots_) {
      if (slot.kind != Slot::Kind::kWriteback) {
        continue;
      }
      uint64_t file_page = slot.file_offset >> kPageShift;
      if (file_page >= first_page && file_page <= last_page) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      return drained;
    }
    drained = true;
    (void)ReapLocked(vcpu, /*wait=*/true);
  }
}

size_t AsyncWritebackEngine::WaitOne(Vcpu& vcpu) {
  std::lock_guard<SpinLock> guard(lock_);
  return ReapLocked(vcpu, /*wait=*/true);
}

size_t AsyncWritebackEngine::Drain(Vcpu& vcpu) {
  std::lock_guard<SpinLock> guard(lock_);
  size_t freed = 0;
  while (!local_.empty() || queue_->in_flight() > 0) {
    freed += ReapLocked(vcpu, /*wait=*/true);
  }
  return freed;
}

uint32_t AsyncWritebackEngine::ClaimSlotLocked(Vcpu& vcpu) {
  while (true) {
    for (uint32_t i = 0; i < slots_.size(); i++) {
      if (slots_[i].kind == Slot::Kind::kFree) {
        return i;
      }
    }
    // Saturated: every slot has a completion outstanding (queued or buffered
    // in local_), so reaping always makes room.
    (void)ReapLocked(vcpu, /*wait=*/true);
  }
}

size_t AsyncWritebackEngine::ReapLocked(Vcpu& vcpu, bool wait) {
  // Captured before any waiting: device time up to here was overlapped with
  // real work; anything later the CPU spent waiting.
  const uint64_t reap_start = vcpu.clock().Now();
  std::vector<DeviceQueue::Completion> batch;
  batch.swap(local_);
  queue_->Poll(vcpu, &batch);
  if (batch.empty() && wait && queue_->in_flight() > 0) {
    (void)queue_->WaitMin(vcpu, 1, &batch);
  }
  size_t freed = 0;
  for (const DeviceQueue::Completion& completion : batch) {
    CompleteLocked(vcpu, completion, reap_start, &freed);
  }
  return freed;
}

void AsyncWritebackEngine::CompleteLocked(Vcpu& vcpu, const DeviceQueue::Completion& completion,
                                          uint64_t overlap_until, size_t* freed) {
  AQUILA_DCHECK(completion.user_data < slots_.size());
  Slot slot = slots_[completion.user_data];
  slots_[completion.user_data].kind = Slot::Kind::kFree;
  AQUILA_DCHECK(slot.kind != Slot::Kind::kFree);
  // Close the causal chain across the thread hop: the device interval
  // [submit_at, ready_at] becomes a child span of the request that submitted
  // this I/O — and if that request's root already closed, this is the
  // completion its trace was waiting on to finalize. No-op when unsampled.
  telemetry::SpanCollector::Global().CompleteAsync(slot.span, telemetry::SpanPhase::kDevice,
                                                   completion.submit_at, completion.ready_at,
                                                   slot.file_offset);
#if AQUILA_TELEMETRY_ENABLED
  if (completion.submit_at != 0 && completion.ready_at > completion.submit_at) {
    uint64_t until = std::min(overlap_until, completion.ready_at);
    if (until > completion.submit_at) {
      GetAsyncMetrics().overlap_cycles->Add(until - completion.submit_at);
    }
  }
#endif
  PageCache& cache = runtime_->cache();
  FaultStats& stats = runtime_->fault_stats();
  if (slot.kind == Slot::Kind::kWriteback) {
    map_->NoteWritebackResult(completion.status);
    if (completion.status.ok()) {
      // The device acknowledged the page: drop the mapping and release the
      // frame. A faulter waiting out kWritingBack re-reads the (now durable)
      // data from the device.
      cache.RemoveMapping(slot.key);
      cache.FreeFrame(vcpu.core(), slot.frame);
      stats.writeback_pages.fetch_add(1, std::memory_order_relaxed);
      stats.evicted_pages.fetch_add(1, std::memory_order_relaxed);
      (*freed)++;
    } else {
      // Unwritten dirty data must not be dropped: restore in place (the
      // mapping was kept) so the next writeback retries.
      map_->RestoreDirtyFrame(vcpu, slot.frame, slot.sort_key, /*reinsert_mapping=*/false);
    }
    // Requests parked on the kWritingBack pin (park point b) re-run now that
    // the frame either freed or restored resident. kInvalidFrame: nobody
    // owns a writeback, so the status is not terminal for any waiter.
    runtime_->WakeParked(slot.key, kInvalidFrame, completion.status, vcpu.core());
  } else {
    // Lock-free publication is safe because fills are only submitted while
    // holding the target page's entry lock and a faulter that missed in the
    // hash drains pending fills (AwaitFill) or parks on them under that same
    // lock before filling the page itself — so no faulter can be mid-fill on
    // this key here. A failed insert means a second speculative fill for the
    // same page won the race; the surplus frame is simply discarded.
    bool published = false;
    if (completion.status.ok()) {
      published = cache.InsertMapping(slot.key, slot.frame);
      if (published) {
        cache.frame(slot.frame).state.store(FrameState::kResident,
                                            std::memory_order_release);
        if (slot.demand) {
          // The device read a parked faulter was waiting on: account it like
          // the blocking major-fault path would have (the owner's resume
          // additionally counts the minor fault that installs the PTE).
          stats.major_faults.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats.readahead_pages.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (!published) {
      cache.FreeFrame(vcpu.core(), slot.frame);
      (*freed)++;
    }
    // The parked demand owner (entry.frame == slot.frame) receives the
    // completion status as terminal — a failed or watchdog-abandoned fill
    // resolves its request with that error; every other waiter re-runs.
    runtime_->WakeParked(slot.key, slot.frame, completion.status, vcpu.core());
  }
}

}  // namespace aquila
