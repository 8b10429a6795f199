#include "src/core/writeback.h"

#include <algorithm>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/device_health.h"
#include "src/telemetry/scoped_timer.h"
#include "src/util/logging.h"
#include "src/util/race_injector.h"
#include "src/vmx/cost_model.h"

namespace aquila {

namespace {

#if AQUILA_TELEMETRY_ENABLED
// Cycles of device time that elapsed while the CPU was doing other work —
// the overlap the queue engine buys over blocking I/O. Every engine adds to
// this one shared line, so each batches its share (FlushOverlapLocked).
telemetry::Counter* OverlapCycles() {
  static telemetry::Counter* counter =
      telemetry::Registry().GetCounter("aquila.core.async_overlap_cycles");
  return counter;
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

void WritebackPlanner::AddReclaim(const WritebackItem& item) {
  items_.push_back(item);
  AquilaMap* owner = item.owner;
  PageCache& cache = owner->runtime_->cache();
  Frame& f = cache.frame(item.frame);
  if (owner->runtime_->options().async_writeback) {
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
  if (items_.front().owner->runtime_->options().async_writeback) {
    return SubmitQueued(vcpu, /*keep_resident=*/false);
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
      owner->NoteWriteQueued(vcpu);
      owner->UnlockPage(owner->vma_.start_page + (item.file_offset >> kPageShift));
    }
  }
  return first_error;
}

Status WritebackPlanner::SubmitQueued(Vcpu& vcpu, bool keep_resident) {
  Sort(vcpu);
  Status first_error;
  for (const WritebackItem& item : items_) {
    Status status = item.owner->writeback_engine()->SubmitWriteback(vcpu, item, keep_resident);
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
    item.owner->NoteWriteQueued(vcpu);
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
      watchdog_(runtime->options().device_op_timeout_us != 0),
      queue_(MakeEngineQueue(runtime, map, depth)),
      slots_(queue_->depth()),
      fill_keys_(std::make_unique<std::atomic<uint64_t>[]>(slots_.size())),
      native_queue_(map->backing()->device()->supports_queueing()) {
  free_slots_.reserve(slots_.size());
  for (uint32_t i = static_cast<uint32_t>(slots_.size()); i > 0; i--) {
    free_slots_.push_back(i - 1);
  }
}

AsyncWritebackEngine::~AsyncWritebackEngine() {
  // TearDown drains before destruction; anything still in flight here would
  // lose dirty data silently.
  AQUILA_DCHECK(queue_->in_flight() == 0 && local_.empty());
}

Status AsyncWritebackEngine::SubmitWriteback(Vcpu& vcpu, const WritebackItem& item,
                                             bool keep_resident) {
  std::lock_guard<SpinLock> guard(lock_);
  uint32_t index = ClaimSlotLocked(vcpu);
  Slot& slot = slots_[index];
  // The frame is ours (kWritingBack): its key is stable until completion.
  uint64_t key = runtime_->cache().frame(item.frame).key.load(std::memory_order_relaxed);
  const RetryPolicy& policy = map_->backing_->device()->retry_policy();
  slot = Slot{Slot::Kind::kWriteback, /*demand=*/false, /*published=*/false, keep_resident,
              item.frame, key, item.sort_key, item.file_offset, item.result,
              /*retries=*/0, policy.initial_backoff_cycles, telemetry::CurrentSpanContext()};
  StatusOr<uint64_t> dev_offset = map_->backing_->TranslateForQueue(item.file_offset);
  Status status = dev_offset.status();
  if (dev_offset.ok()) {
    status = queue_->SubmitWrite(vcpu, *dev_offset, std::span(item.data, kPageSize), index);
    if (status.ok() && item.result != nullptr && native_queue_) {
      slot.retries = policy.max_attempts - 1;
    }
  }
  if (!status.ok()) {
    if (dev_offset.ok() &&
        (item.result == nullptr || status.code() != StatusCode::kOutOfSpace)) {
      slot.kind = Slot::Kind::kFree;
      if (item.result != nullptr && item.result->ok()) {
        *item.result = status;  // under lock_, like a completion's error
      }
      return status;
    }
    // No device extent to queue on (unallocated blob cluster), or a queue
    // full of watchdog legs that msync or unmap cannot leave the page to:
    // WritePages allocates, retries and writes synchronously; buffer the
    // completion so the reaping protocol stays uniform.
    const uint64_t offsets[1] = {item.file_offset};
    const uint8_t* const pages[1] = {item.data};
    status = map_->backing_->WritePages(vcpu, offsets, pages, kPageSize);
    const uint64_t now = vcpu.clock().Now();
    local_.push_back(DeviceQueue::Completion{index, std::move(status), now, now});
  }
  CommitSlotLocked(index);
  return Status::Ok();
}

bool AsyncWritebackEngine::ResubmitLocked(Vcpu& vcpu, uint32_t index) {
  Slot& slot = slots_[index];
  slot.retries--;
  slot.backoff = map_->backing_->device()->BackOff(vcpu, slot.backoff);
  // The extent translated at submission and the frame is still claimed.
  const uint64_t dev_offset = *map_->backing_->TranslateForQueue(slot.file_offset);
  const uint8_t* data = runtime_->cache().FrameData(vcpu, slot.frame);
  return queue_->SubmitWrite(vcpu, dev_offset, std::span(data, kPageSize), index).ok();
}

Status AsyncWritebackEngine::SubmitFills(Vcpu& vcpu, std::span<const FillRequest> fills,
                                         size_t* submitted) {
  *submitted = 0;
  PageCache& cache = runtime_->cache();
  std::lock_guard<SpinLock> guard(lock_);
  for (const FillRequest& fill : fills) {
    uint32_t index = ClaimSlotLocked(vcpu);
    Slot& slot = slots_[index];
    slot = Slot{Slot::Kind::kFill, fill.demand, /*published=*/false, /*keep=*/false,
                fill.frame, fill.key, /*sort_key=*/0, fill.file_offset, /*result=*/nullptr,
                /*retries=*/0, /*backoff=*/0, telemetry::CurrentSpanContext()};
    uint8_t* data = cache.FrameData(vcpu, fill.frame);
    StatusOr<uint64_t> dev_offset = map_->backing_->TranslateForQueue(fill.file_offset);
    if (dev_offset.ok()) {
      Status status = queue_->SubmitRead(vcpu, *dev_offset, std::span(data, kPageSize), index);
      if (!status.ok()) {
        slot.kind = Slot::Kind::kFree;
        return status;
      }
    } else {
      uint64_t offsets[1] = {fill.file_offset};
      uint8_t* const pages[1] = {data};
      Status status = map_->backing_->ReadPages(vcpu, offsets, pages, kPageSize);
      const uint64_t now = vcpu.clock().Now();
      local_.push_back(DeviceQueue::Completion{index, std::move(status), now, now});
    }
    CommitSlotLocked(index);
    (*submitted)++;
  }
  // Reap what has already landed while the lock is held (every shim
  // completion, and on a queue the oldest fills): the faults that want those
  // pages then find them published instead of taking the lock again.
  (void)ReapLocked(vcpu, /*wait=*/false);
  return Status::Ok();
}

void AsyncWritebackEngine::HoldWritebacks(Vcpu& vcpu, std::span<const uint64_t> file_pages) {
  if (!native_queue_) {
    map_->WriteBackHeld(vcpu, file_pages);
    return;
  }
  std::lock_guard<SpinLock> guard(lock_);
  held_.insert(held_.end(), file_pages.begin(), file_pages.end());
  if (held_.size() > slots_.size()) {
    // Past the queue's depth the oldest pages are let go still dirty, for
    // msync or eviction to write. Writing them now, with no read to hide
    // behind, would take the channel just when the next read may need it.
    held_.erase(held_.begin(),
                held_.begin() + static_cast<ptrdiff_t>(held_.size() - slots_.size()));
  }
  held_count_.store(static_cast<uint32_t>(held_.size()), std::memory_order_relaxed);
}

void AsyncWritebackEngine::ReleaseBehindFill(Vcpu& vcpu, uint64_t key) {
  std::vector<uint64_t> release;
  {
    std::lock_guard<SpinLock> guard(lock_);
    size_t index = 0;
    while (index < slots_.size() && fill_keys_[index].load(std::memory_order_relaxed) != key) {
      index++;
    }
    // A fill already reaped, or a queue that cannot say when it completes
    // (the watchdog), leaves nothing to slip behind.
    const uint64_t deadline = index < slots_.size() ? queue_->ReadyAt(index) : UINT64_MAX;
    if (deadline != UINT64_MAX) {
      TakeHeldLocked(queue_->TransfersBy(vcpu.clock().Now(), deadline, kPageSize), &release);
    }
  }
  if (!release.empty()) {
    map_->WriteBackHeld(vcpu, release);
  }
}

void AsyncWritebackEngine::TakeHeldLocked(size_t count, std::vector<uint64_t>* out) {
  count = std::min(count, held_.size());
  out->insert(out->end(), held_.begin(), held_.begin() + static_cast<ptrdiff_t>(count));
  held_.erase(held_.begin(), held_.begin() + static_cast<ptrdiff_t>(count));
  held_count_.store(static_cast<uint32_t>(held_.size()), std::memory_order_relaxed);
}

void AsyncWritebackEngine::CommitSlotLocked(uint32_t index) {
  AQUILA_DCHECK(!free_slots_.empty() && free_slots_.back() == index);
  free_slots_.pop_back();
  const Slot& slot = slots_[index];
  // The count and the mask change only under lock_: a load and a store, no
  // RMW.
  busy_.store(busy_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  if (slot.kind == Slot::Kind::kFill) {
    fill_keys_[index].store(slot.key, std::memory_order_relaxed);
    const uint32_t residue = slot.key % kFillResidues;
    if (fill_residue_counts_[residue]++ == 0) {
      fill_mask_.store(fill_mask_.load(std::memory_order_relaxed) | (1ull << residue),
                       std::memory_order_relaxed);
    }
  }
  // The request is committed (queued or buffered in local_): its originating
  // trace must stay open until CompleteLocked records the device child span.
  if (slot.span.trace_id != 0) {
    telemetry::SpanCollector::Global().NoteAsyncSubmitted(slot.span.trace_id);
  }
}

size_t AsyncWritebackEngine::Harvest(Vcpu& vcpu) {
  if (!busy()) {
    return 0;
  }
  std::lock_guard<SpinLock> guard(lock_);
  return ReapLocked(vcpu, /*wait=*/false);
}

bool AsyncWritebackEngine::AnyFillInRange(uint64_t first_key, uint64_t last_key) const {
  // The residues of [first_key, last_key]: every bit once the range spans
  // them all, else a run of bits starting at first_key's, wrapping at 64.
  uint64_t residues = ~0ull;
  if (last_key - first_key < kFillResidues - 1) {
    const uint64_t run = (1ull << (last_key - first_key + 1)) - 1;
    const uint32_t shift = first_key % kFillResidues;
    residues = shift == 0 ? run : (run << shift) | (run >> (kFillResidues - shift));
  }
  if ((fill_mask_.load(std::memory_order_acquire) & residues) == 0) {
    return false;
  }
  for (size_t i = 0; i < slots_.size(); i++) {
    const uint64_t key = fill_keys_[i].load(std::memory_order_acquire);
    if (key >= first_key && key <= last_key) {
      return true;
    }
  }
  return false;
}

FrameId AsyncWritebackEngine::AwaitFill(Vcpu& vcpu, uint64_t key) {
  std::lock_guard<SpinLock> guard(lock_);
  WaitProgress progress = StartWaitLocked(vcpu);
  // Until a fill for `key` publishes or none is left in flight: if the one
  // waited on fails while a second fill for the page is still in flight,
  // returning would send the faulter to fill the page itself, and the
  // second fill's publication would then collide with its insert.
  while (true) {
    size_t index = 0;
    while (index < slots_.size() && fill_keys_[index].load(std::memory_order_relaxed) != key) {
      index++;
    }
    if (index == slots_.size()) {
      return kInvalidFrame;
    }
    // The slot cannot be re-claimed while we hold the lock: only submissions
    // claim slots, so once it reads kFree it still describes this fill.
    while (slots_[index].kind != Slot::Kind::kFree) {
      (void)ReapLocked(vcpu, /*wait=*/true);
      NoteWaitStepLocked(vcpu, "AwaitFill", &progress);
    }
    if (slots_[index].published) {
      return slots_[index].frame;
    }
  }
}

void AsyncWritebackEngine::AwaitFills(Vcpu& vcpu, uint64_t first_key, uint64_t last_key) {
  if (!AnyFillInRange(first_key, last_key)) {
    return;
  }
  std::lock_guard<SpinLock> guard(lock_);
  WaitProgress progress = StartWaitLocked(vcpu);
  while (AnyFillInRange(first_key, last_key)) {
    (void)ReapLocked(vcpu, /*wait=*/true);
    NoteWaitStepLocked(vcpu, "AwaitFills", &progress);
  }
}

void AsyncWritebackEngine::AwaitWritebacks(Vcpu& vcpu, uint64_t first_page,
                                           uint64_t last_page) {
  if (!busy()) {
    return;
  }
  auto pending = [&] {
    for (const Slot& slot : slots_) {
      const uint64_t file_page = slot.file_offset >> kPageShift;
      if (slot.kind == Slot::Kind::kWriteback && file_page >= first_page &&
          file_page <= last_page) {
        return true;
      }
    }
    return false;
  };
  std::lock_guard<SpinLock> guard(lock_);
  WaitProgress progress = StartWaitLocked(vcpu);
  while (pending()) {
    (void)ReapLocked(vcpu, /*wait=*/true);
    NoteWaitStepLocked(vcpu, "AwaitWritebacks", &progress);
  }
}

size_t AsyncWritebackEngine::WaitOne(Vcpu& vcpu) {
  std::lock_guard<SpinLock> guard(lock_);
  size_t freed = 0;
  const uint64_t reaped_before = reaped_;
  WaitProgress progress = StartWaitLocked(vcpu);
  while (reaped_ == reaped_before && busy()) {
    freed += ReapLocked(vcpu, /*wait=*/true);
    NoteWaitStepLocked(vcpu, "WaitOne", &progress);
  }
  return freed;
}

size_t AsyncWritebackEngine::Drain(Vcpu& vcpu) {
  if (holding()) {
    std::vector<uint64_t> release;
    {
      std::lock_guard<SpinLock> guard(lock_);
      TakeHeldLocked(held_.size(), &release);
    }
    map_->WriteBackHeld(vcpu, release);
  }
  // Always takes the lock, even when idle: teardown relies on it to wait out
  // a reaper still finishing its bookkeeping.
  std::lock_guard<SpinLock> guard(lock_);
  size_t freed = 0;
  WaitProgress progress = StartWaitLocked(vcpu);
  while (busy()) {
    freed += ReapLocked(vcpu, /*wait=*/true);
    NoteWaitStepLocked(vcpu, "Drain", &progress);
  }
  FlushOverlapLocked();
  return freed;
}

uint32_t AsyncWritebackEngine::ClaimSlotLocked(Vcpu& vcpu) {
  WaitProgress progress = StartWaitLocked(vcpu);
  while (free_slots_.empty()) {
    // Saturated: every slot has a completion outstanding (queued or buffered
    // in local_), so reaping always makes room.
    (void)ReapLocked(vcpu, /*wait=*/true);
    NoteWaitStepLocked(vcpu, "ClaimSlot", &progress);
  }
  return free_slots_.back();
}

size_t AsyncWritebackEngine::ReapLocked(Vcpu& vcpu, bool wait) {
  // Captured before any waiting: device time up to here was overlapped with
  // real work; anything later the CPU spent waiting.
  const uint64_t reap_start = vcpu.clock().Now();
  std::vector<DeviceQueue::Completion>& batch = reaped_batch_;
  batch.swap(local_);
  if (batch.empty() && wait && queue_->in_flight() > 0) {
    // Busy-poll the completion queue: the wait is device time from the
    // thread's perspective. NextReadyAt may be unknown (a hung command) or
    // already past (something is ready now, or a decorator is holding a
    // completion back); the caller's wait loop bounds the steps that make
    // no progress.
    const uint64_t next = queue_->NextReadyAt();
    if (next == UINT64_MAX) {
      if (!watchdog_) {
        AbortHungLocked(vcpu, &batch);
      }
    } else if (next > reap_start) {
      vcpu.clock().AdvanceTo(next, CostCategory::kDeviceIo);
    }
  }
  queue_->Poll(vcpu, &batch);
  size_t freed = 0;
  uint64_t overlap_cycles = 0;
  for (const DeviceQueue::Completion& completion : batch) {
    CompleteLocked(vcpu, completion, reap_start, &freed, &overlap_cycles);
  }
  overlap_unflushed_ += overlap_cycles;
  if (overlap_unflushed_ >= kOverlapFlushCycles) {
    FlushOverlapLocked();
  }
  reaped_ += batch.size();
  batch.clear();
  return freed;
}

void AsyncWritebackEngine::FlushOverlapLocked() {
  AQUILA_TELEMETRY_ONLY(OverlapCycles()->Add(overlap_unflushed_));
  overlap_unflushed_ = 0;
}

void AsyncWritebackEngine::AbortHungLocked(Vcpu& vcpu,
                                           std::vector<DeviceQueue::Completion>* out) {
  // Nothing on the medium will ever complete, and no watchdog will time the
  // in-flight commands out: they are hung. Like the synchronous path, stall
  // for a bounded time and then abort each command the queue can withdraw,
  // completing it with an I/O error (a fill frees its frame and the faulter
  // re-reads the page; a writeback restores its page dirty). A command the
  // queue cannot withdraw stays in flight, and the wait loop's progress
  // check reports it.
  vcpu.clock().Charge(CostCategory::kDeviceIo, kHungCommandAbortCycles);
  const uint64_t now = vcpu.clock().Now();
  for (uint32_t i = 0; i < slots_.size(); i++) {
    if (slots_[i].kind != Slot::Kind::kFree && queue_->Cancel(i)) {
      out->push_back(DeviceQueue::Completion{
          i, Status::IoError("device command hung: aborted (no watchdog armed)"), now, now});
    }
  }
}

void AsyncWritebackEngine::FailNoProgressLocked(Vcpu& vcpu, const char* loop, uint32_t steps) {
  AQUILA_LOG(ERROR, "async engine (mapping %llu): %s made no progress in %u steps",
             static_cast<unsigned long long>(map_->mapping_id()), loop, steps);
  LogSlotsLocked(vcpu);
  AQUILA_CHECK(!"async engine wait loop made no progress");
}

void AsyncWritebackEngine::LogInFlight(Vcpu& vcpu) {
  std::lock_guard<SpinLock> guard(lock_);
  LogSlotsLocked(vcpu);
}

void AsyncWritebackEngine::LogSlotsLocked(Vcpu& vcpu) const {
  AQUILA_LOG(ERROR,
             "async engine (mapping %llu): in_flight=%u next_ready_at=%llu now=%llu "
             "buffered=%zu",
             static_cast<unsigned long long>(map_->mapping_id()), queue_->in_flight(),
             static_cast<unsigned long long>(queue_->NextReadyAt()),
             static_cast<unsigned long long>(vcpu.clock().Now()), local_.size());
  static constexpr const char* kKindNames[] = {"free", "writeback", "fill"};
  for (uint32_t i = 0; i < slots_.size(); i++) {
    const Slot& slot = slots_[i];
    if (slot.kind == Slot::Kind::kFree) {
      continue;
    }
    AQUILA_LOG(ERROR, "  slot %u: kind=%s key=%#llx ready_at=%llu", i,
               kKindNames[static_cast<int>(slot.kind)],
               static_cast<unsigned long long>(slot.key),
               static_cast<unsigned long long>(queue_->ReadyAt(i)));
  }
}

void AsyncWritebackEngine::CompleteLocked(Vcpu& vcpu, const DeviceQueue::Completion& completion,
                                          uint64_t overlap_until, size_t* freed,
                                          uint64_t* overlap_cycles) {
  AQUILA_DCHECK(completion.user_data < slots_.size());
  const uint32_t index = static_cast<uint32_t>(completion.user_data);
  Slot& entry = slots_[index];
  AQUILA_DCHECK(entry.kind != Slot::Kind::kFree);
  if (entry.retries > 0 && completion.status.code() == StatusCode::kIoError &&
      ResubmitLocked(vcpu, index)) {
    return;
  }
  const Slot slot = entry;
  entry.kind = Slot::Kind::kFree;
  free_slots_.push_back(index);
  // Close the causal chain across the thread hop: the device interval
  // [submit_at, ready_at] becomes a child span of the request that submitted
  // this I/O — and if that request's root already closed, this is the
  // completion its trace was waiting on to finalize. No-op when unsampled.
  if (slot.span.trace_id != 0) {
    telemetry::SpanCollector::Global().CompleteAsync(slot.span, telemetry::SpanPhase::kDevice,
                                                     completion.submit_at, completion.ready_at,
                                                     slot.file_offset);
  }
  if (completion.submit_at != 0 && completion.ready_at > completion.submit_at) {
    uint64_t until = std::min(overlap_until, completion.ready_at);
    if (until > completion.submit_at) {
      *overlap_cycles += until - completion.submit_at;
    }
  }
  PageCache& cache = runtime_->cache();
  FaultStats& stats = runtime_->fault_stats();
  if (slot.kind == Slot::Kind::kWriteback) {
    map_->NoteWritebackResult(completion.status);
    AQUILA_RACE_POINT("writeback.complete");
    if (!completion.status.ok()) {
      if (slot.result != nullptr && slot.result->ok()) {
        *slot.result = completion.status;
      }
      // Unwritten dirty data must not be dropped: restore in place (the
      // mapping was kept) so the next writeback retries. A keep-resident
      // page that a store re-dirtied meanwhile already has its tree item;
      // MarkDirty's 0 -> 1 edge inserts at most one.
      map_->RestoreDirtyFrame(vcpu, slot.frame, slot.sort_key, /*reinsert_mapping=*/false);
    } else if (slot.keep) {
      // The page stays cached and is clean — unless a store took the
      // write-upgrade fault after the release, which re-dirtied it with its
      // own tree item; that item stays for the next writeback.
      stats.writeback_pages.fetch_add(1, std::memory_order_relaxed);
      cache.frame(slot.frame).state.store(FrameState::kResident, std::memory_order_release);
    } else {
      // The device acknowledged the page: drop the mapping and release the
      // frame. A faulter waiting out kWritingBack re-reads the (now durable)
      // data from the device.
      cache.RemoveMapping(slot.key);
      cache.FreeFrame(vcpu.core(), slot.frame);
      stats.writeback_pages.fetch_add(1, std::memory_order_relaxed);
      stats.evicted_pages.fetch_add(1, std::memory_order_relaxed);
      (*freed)++;
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
          // The device read an access is waiting on: account it like the
          // blocking major-fault path would have (the access additionally
          // counts the minor fault that installs the PTE).
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
    entry.published = published;
    // After the publication: a faulter that no longer sees the key (or reads
    // its residue's bit clear) finds the page in the hash (see
    // HasPendingFill).
    fill_keys_[index].store(0, std::memory_order_release);
    const uint32_t residue = slot.key % kFillResidues;
    if (--fill_residue_counts_[residue] == 0) {
      fill_mask_.store(fill_mask_.load(std::memory_order_relaxed) & ~(1ull << residue),
                       std::memory_order_release);
    }
    // The parked demand owner (entry.frame == slot.frame) receives the
    // completion status as terminal — a failed or watchdog-abandoned fill
    // resolves its request with that error; every other waiter re-runs.
    runtime_->WakeParked(slot.key, slot.frame, completion.status, vcpu.core());
  }
  busy_.store(busy_.load(std::memory_order_relaxed) - 1, std::memory_order_release);
}

}  // namespace aquila
