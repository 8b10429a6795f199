// Writeback planning and the per-mapping device-queue engine.
//
// Every path that cleans dirty pages — eviction, msync, madvise(DONTNEED),
// unmap — follows the same shape: collect claimed dirty frames, sort them by
// device offset so the batch reaches the medium in layout order, submit, and
// account the outcome. WritebackPlanner is that shape as an API; the call
// sites differ only in how they claim frames and what they do with them
// afterwards.
//
// msync and unmap write through the engine and wait (SubmitQueued with
// keep_resident, then AwaitWritebacks or Drain): they claim each dirty page
// as msync(MS_ASYNC) does, and each item carries the slot where the waiter
// collects its write's error. Reclaim — eviction and madvise(DONTNEED) —
// goes through AddReclaim/SubmitReclaim, and those two calls are the one
// place Options::async_writeback is read:
//   * sync (default): one batched WritePages call per owning mapping; the
//     caller blocks until the device acknowledges, holding each page's entry
//     lock.
//   * async: each item is routed to its owning mapping's
//     AsyncWritebackEngine, which submits it on a DeviceQueue and returns
//     immediately. The frame sits in FrameState::kWritingBack until the
//     completion is reaped — faulting threads keep making progress (and keep
//     advancing simulated time past the device's ready timestamps) while the
//     writes are in flight, which is the overlap the pipeline exists for.
//
// Every mapping owns an engine whatever the writeback mode: read-ahead is
// always issued through it as asynchronous fills. A fill's frame stays
// kFilling (unmapped, invisible to evictors) until its completion is reaped,
// at which point it is published into the cache hash.
//
// msync(MS_ASYNC) — Advise(kWriteBack) — also ends here, as a keep-resident
// writeback: the engine holds the range's dirty page numbers and sends them
// to the device behind the next demand read, in the channel time that read
// spends waiting out device latency anyway (DESIGN.md §8). Such a write
// leaves its frame mapped and cached; the frame is kWritingBack until the
// completion makes it kResident and clean.
#ifndef AQUILA_SRC_CORE_WRITEBACK_H_
#define AQUILA_SRC_CORE_WRITEBACK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/storage/device_queue.h"
#include "src/telemetry/span.h"
#include "src/util/spinlock.h"
#include "src/util/status.h"

namespace aquila {

class Aquila;
class AquilaMap;
class AsyncWritebackEngine;

// One dirty page claimed for writeback. The claimer owns the frame (state
// kEvicting or kWritingBack), has cleared its dirty bit, and guarantees the
// data pointer stays valid through submission.
struct WritebackItem {
  uint64_t sort_key = 0;     // (mapping_id | device page): physical write order
  uint64_t file_offset = 0;  // offset within the owning mapping's backing
  const uint8_t* data = nullptr;
  FrameId frame = kInvalidFrame;
  AquilaMap* owner = nullptr;  // mapping written to and charged with the outcome
  // Set by msync and unmap, which wait the write out: its error lands here
  // (if no earlier one did), whichever thread reaps the completion. Null for
  // background writes.
  Status* result = nullptr;

  bool operator<(const WritebackItem& other) const { return sort_key < other.sort_key; }
};

// Collect -> sort -> submit: the single writeback pipeline shared by
// eviction, msync, madvise(DONTNEED) and unmap.
class WritebackPlanner {
 public:
  void Add(const WritebackItem& item) { items_.push_back(item); }
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const std::vector<WritebackItem>& items() const { return items_; }

  // Adds a reclaim victim: a dirty page its owner claimed (kEvicting) under
  // the page's entry lock, PTE removed and dirty bit cleared. Applies the
  // mode's frame-state protocol. Async: the frame becomes kWritingBack and
  // keeps its cache mapping, so a faulter waits out the writeback instead of
  // re-reading a page the device has not acknowledged; the entry lock drops
  // now. Sync: the cache mapping goes and the entry lock stays held until
  // SubmitReclaim — the write bypasses the engine, so Unmap's drain cannot
  // wait for it and the lock is what keeps the owner alive across the write.
  void AddReclaim(const WritebackItem& item);

  // Hands each item to its owner's AsyncWritebackEngine, in device-offset
  // order. `keep_resident`: the frames were claimed kWritingBack with their
  // translations left read-only (msync, unmap) and stay cached; otherwise
  // they are reclaim victims that free on completion. Items whose submission
  // fails at the machinery level (not an I/O error — those travel in
  // completions) are restored dirty-in-place and charged to the owner; the
  // first such error is returned. On return every item is either in flight
  // or restored, its claim window closed (AquilaMap::NoteWriteQueued).
  Status SubmitQueued(Vcpu& vcpu, bool keep_resident);

  // Submits and settles the reclaim victims; the caller then shoots down
  // their translations and frees `to_free`. Async: SubmitQueued; frames free
  // when their completions reap. Sync: per owning mapping, one WritePages
  // call whose outcome is charged to that owner (NoteWritebackResult, like
  // Linux's mapping_set_error on the page's own address_space); a failed
  // group is restored dirty and resident, a written group counts
  // writeback_pages and appends its frames to `to_free`; every held entry
  // lock is released and every claim window closed. Returns the first error.
  Status SubmitReclaim(Vcpu& vcpu, std::vector<FrameId>* to_free);

 private:
  // Sorting is dirty-tree bookkeeping work, charged to kDirtyTracking.
  void Sort(Vcpu& vcpu);
  // End of the owner group starting at `begin` (items sorted).
  size_t GroupEnd(size_t begin) const;
  // One batched WritePages call for items [begin, end) of one owner.
  Status WriteGroup(Vcpu& vcpu, size_t begin, size_t end);

  std::vector<WritebackItem> items_;
};

// One asynchronous fill: `frame` (state kFilling, key set, vaddr 0, not yet in
// the hash) is read from `file_offset`. `demand` marks a page an access is
// waiting for — a cooperative-scheduler demand fill (park point c) or a page
// of a multi-page Read — rather than read-ahead: its publication counts a
// major fault rather than a readahead page, and a parked owner receives its
// completion status through the wake path.
struct FillRequest {
  FrameId frame = kInvalidFrame;
  uint64_t key = 0;
  uint64_t file_offset = 0;
  bool demand = false;
};

// Per-mapping asynchronous writeback/readahead engine over the owning
// backing's DeviceQueue; every AquilaMap has one (devices without queueing
// get the sync-emulation shim). Writebacks keep the cache mapping and hold
// the frame in kWritingBack so concurrent faulters wait for the completion
// instead of re-reading a page the device has not acknowledged; fills hold
// the frame in kFilling and publish it into the hash on completion.
//
// Thread safety: all queue and slot state is guarded by lock_. Lock order is
// entry locks -> maps_lock_ -> engine lock -> cache internals; the engine
// never acquires entry locks or maps_lock_. The slot count, the fill residue
// mask and the in-flight fill keys are readable without the lock, so a fault
// whose page has no fill in flight, and a harvest of an idle engine, never
// take it.
//
// Every wait loop (AwaitFill, AwaitFills, AwaitWritebacks, WaitOne,
// ClaimSlotLocked, Drain) asserts bounded progress: each step must reap a
// completion or advance the caller's clock. kMaxIdleWaitSteps steps with
// neither dump the slot table and fail an AQUILA_CHECK instead of spinning
// forever. Without a watchdog, a wait that finds only hung commands in
// flight aborts them with an I/O error instead (AbortHungLocked).
class AsyncWritebackEngine {
 public:
  AsyncWritebackEngine(Aquila* runtime, AquilaMap* map, uint32_t depth);
  ~AsyncWritebackEngine();

  // Submits one claimed dirty page (state kWritingBack, dirty bit cleared,
  // cache mapping still present). A reclaim victim's PTE is gone and its
  // frame frees on success; a `keep_resident` page keeps a read-only PTE and
  // turns kResident on success. Reaps completions to make room when the
  // queue is full. A non-OK return means the submission machinery rejected
  // the request — the caller must restore the frame.
  //
  // A write with a `result` slot (msync, unmap) gets the device's retry
  // budget (RetryPolicy::max_attempts in all, BlockDevice::BackOff between)
  // before its page is restored dirty; one the queue refuses for
  // backpressure goes through WritePages, whose device entry points spend
  // that budget themselves. A background write gets no retry: its page goes
  // back dirty and the next msync writes it.
  Status SubmitWriteback(Vcpu& vcpu, const WritebackItem& item, bool keep_resident);

  // msync(MS_ASYNC): holds `file_pages` (dirty pages of this mapping) for a
  // keep-resident writeback. Holds page numbers, not frames, so a held page
  // stays evictable and a store before its release is written with it. The
  // pages are released — claimed, write-protected, shot down once per
  // release and submitted (AquilaMap::WriteBackHeld) — behind a demand read
  // (ReleaseBehindFill) and by Drain. At most the queue's depth are held:
  // past it the oldest are let go, still dirty. A queue that completes at
  // submission (the sync shim) gains nothing by holding, so there they are
  // released at once.
  void HoldWritebacks(Vcpu& vcpu, std::span<const uint64_t> file_pages);

  // Releases as many held pages, oldest first, as the queue's channel can
  // move before the demand fill for `key`, just submitted, completes: their
  // writes then delay neither that read nor the next one.
  void ReleaseBehindFill(Vcpu& vcpu, uint64_t key);

  // True while any page is held; one relaxed load.
  bool holding() const { return held_count_.load(std::memory_order_relaxed) != 0; }

  static constexpr uint32_t kMaxIdleWaitSteps = 1000;

  // Submits `fills` in order under one engine lock. On completion the engine
  // inserts each mapping and publishes kResident, or frees the frame if the
  // page was concurrently faulted in or the read failed. Stops at the first
  // request the submission machinery rejects and returns its status;
  // `*submitted` is the number accepted, and the caller still owns (and must
  // free) the frames of the rest. Before unlocking, reaps (without waiting)
  // whatever has already completed.
  Status SubmitFills(Vcpu& vcpu, std::span<const FillRequest> fills, size_t* submitted);

  // True while a fill for `key` is in flight; lock-free (a mask of the key
  // residues with fills in flight, then the slots' keys, read with acquire).
  // A caller holding the page's entry lock that reads false cannot miss a
  // fill for that page and finds it in the hash instead: fills are submitted
  // under the entry lock, and a completion publishes into the hash before it
  // clears the key and, with the residue's last fill, its mask bit. The
  // cooperative fault path re-checks it after PrePark; a completion clears
  // the key before its Wake takes the parked table's lock, so either the
  // re-check sees the key cleared or the Wake sees the reservation.
  bool HasPendingFill(uint64_t key) const { return AnyFillInRange(key, key); }

  // Reaps every completion whose device time has passed (no waiting).
  // Returns the number of frames released to the freelist.
  size_t Harvest(Vcpu& vcpu);

  // Waits out in-flight fills for `key`, reaping completions (and thus
  // publishing them) as they become ready, until one publishes or none is
  // left. Returns the published frame, or kInvalidFrame once no fill for
  // `key` is in flight and none published (every read failed, or a
  // concurrent harvester published it already). A faulter that missed in
  // the hash MUST call this before filling the page itself — while holding
  // the page's entry lock — so a pending read-ahead fill is consumed instead
  // of duplicated, and so the lock-free publication in CompleteLocked can
  // never collide with the faulter's own insert (fills are only submitted
  // under the entry lock). A returned frame is published but unpinned: the
  // caller pins it like any lookup hit.
  FrameId AwaitFill(Vcpu& vcpu, uint64_t key);

  // Waits out every in-flight fill whose key lies in [first_key, last_key]
  // (one mapping's contiguous pages), publishing each. Huge-page promotion
  // calls it holding every entry lock of the span, so no new fill can start
  // there meanwhile.
  void AwaitFills(Vcpu& vcpu, uint64_t first_key, uint64_t last_key);

  // Waits out every in-flight writeback whose file page lies in
  // [first_page, last_page], reaping completions as they become ready. msync
  // waits so for its own writes and for those of other owners (an evictor,
  // a held-page release) of pages in its range: a success is durable before
  // msync returns, a failure is restored dirty (AquilaMap::RestoreDirtyFrame,
  // which msync watches), where msync's next round claims it.
  void AwaitWritebacks(Vcpu& vcpu, uint64_t first_page, uint64_t last_page);

  // Advances simulated time until at least one completion is reaped (0 when
  // nothing is in flight). Returns the number of frames released — which can
  // be 0 even after a reap (a failed writeback restores its frame instead).
  size_t WaitOne(Vcpu& vcpu);

  // True while any submission's completion is still unreaped.
  bool busy() const { return busy_.load(std::memory_order_acquire) != 0; }

  // Releases every held page, then reaps everything in flight, waiting as
  // needed. Failed writebacks are restored dirty-in-place, where the next
  // msync or the teardown writes them again.
  size_t Drain(Vcpu& vcpu);

  uint32_t in_flight() const { return queue_->in_flight(); }

  // Logs the in-flight set (one line per busy slot) for a stall report.
  void LogInFlight(Vcpu& vcpu);

 private:
  struct Slot {
    enum class Kind : uint8_t { kFree, kWriteback, kFill };
    Kind kind = Kind::kFree;
    bool demand = false;     // kFill an access waits for, not readahead
    bool published = false;  // kFill reaped into the hash; read by AwaitFill
    bool keep = false;       // kWriteback whose page stays cached
    FrameId frame = kInvalidFrame;
    uint64_t key = 0;
    uint64_t sort_key = 0;
    uint64_t file_offset = 0;
    Status* result = nullptr;  // kWriteback: WritebackItem::result
    uint32_t retries = 0;      // kWriteback: resubmissions left after an I/O error
    uint64_t backoff = 0;      // kWriteback: the last retry backoff (BlockDevice::BackOff)
    // Span context of the request that submitted this I/O ({0,0} when it was
    // not sampled). The completion — reaped on whatever thread polls next —
    // records its device time as a child span of the ORIGINATING request,
    // which is how causality crosses the DeviceQueue thread hop.
    telemetry::SpanContext span;
  };

  // Progress of one wait loop: the clock and reap count at the last step
  // that moved either, and the steps since.
  struct WaitProgress {
    uint64_t now = 0;
    uint64_t reaped = 0;
    uint32_t idle_steps = 0;
  };

  // Moves up to `count` held pages, oldest first, into `out`.
  void TakeHeldLocked(size_t count, std::vector<uint64_t>* out);

  // Finds a free slot, reaping (and waiting if necessary) when the queue is
  // saturated. Returns the slot index; the slot stays free until
  // CommitSlotLocked, so a rejected submission needs no undo.
  uint32_t ClaimSlotLocked(Vcpu& vcpu);
  // Takes the claimed slot `index` into use (its submission was accepted).
  void CommitSlotLocked(uint32_t index);
  // Reaps ready completions; with `wait` and none ready, advances time to the
  // queue's next ready time and polls once more. Returns frames freed.
  size_t ReapLocked(Vcpu& vcpu, bool wait);
  // Resubmits the failed write in slot `index` after the retry backoff;
  // false when the queue refuses it.
  bool ResubmitLocked(Vcpu& vcpu, uint32_t index);
  // Settles one completion; adds the device time it overlapped with work
  // done before `overlap_until` to `*overlap_cycles`.
  void CompleteLocked(Vcpu& vcpu, const DeviceQueue::Completion& completion,
                      uint64_t overlap_until, size_t* freed, uint64_t* overlap_cycles);
  bool AnyFillInRange(uint64_t first_key, uint64_t last_key) const;
  // One step of a wait loop: fails once kMaxIdleWaitSteps steps in a row
  // neither reaped a completion nor advanced the clock.
  void NoteWaitStepLocked(Vcpu& vcpu, const char* loop, WaitProgress* progress) {
    const uint64_t now = vcpu.clock().Now();
    if (now != progress->now || reaped_ != progress->reaped) {
      *progress = WaitProgress{now, reaped_, 0};
    } else if (++progress->idle_steps >= kMaxIdleWaitSteps) {
      FailNoProgressLocked(vcpu, loop, progress->idle_steps);
    }
  }
  WaitProgress StartWaitLocked(Vcpu& vcpu) const { return {vcpu.clock().Now(), reaped_, 0}; }
  // Adds the overlap cycles accumulated since the last flush to the
  // aquila.core.async_overlap_cycles counter.
  void FlushOverlapLocked();
  // With no watchdog armed and nothing on the medium due, withdraws every
  // hung command after a bounded stall and appends an I/O-error completion
  // for each to `out`.
  void AbortHungLocked(Vcpu& vcpu, std::vector<DeviceQueue::Completion>* out);
  // Prints the slot table and the queue's state, then fails an AQUILA_CHECK.
  [[noreturn]] void FailNoProgressLocked(Vcpu& vcpu, const char* loop, uint32_t steps);
  void LogSlotsLocked(Vcpu& vcpu) const;

  // The device stall before a hung command is aborted when no watchdog is
  // armed: the synchronous path's default (FaultInjectingDevice's
  // sync_hang_stall_cycles).
  static constexpr uint64_t kHungCommandAbortCycles = 10'000'000;
  // Overlap cycles an engine accumulates before adding them to the shared
  // counter (~0.4 ms of device time at 2.4 GHz); Drain flushes the rest.
  static constexpr uint64_t kOverlapFlushCycles = 1'000'000;

  Aquila* runtime_;
  AquilaMap* map_;
  const bool watchdog_;  // Options::device_op_timeout_us armed a WatchdogQueue
  SpinLock lock_;
  std::unique_ptr<DeviceQueue> queue_;          // guarded by lock_
  std::vector<Slot> slots_;                     // guarded by lock_; user_data = index
  // slots_[i]'s key while it is a fill in flight, else 0 (keys are never 0).
  // Written under lock_, read anywhere.
  std::unique_ptr<std::atomic<uint64_t>[]> fill_keys_;
  std::vector<uint32_t> free_slots_;            // guarded by lock_: stack of free indices
  std::vector<DeviceQueue::Completion> local_;  // guarded by lock_: results of
                                                // requests executed synchronously
                                                // (no device extent to queue on)
  std::vector<DeviceQueue::Completion> reaped_batch_;  // guarded by lock_; reused
  uint64_t reaped_ = 0;                                // guarded by lock_: completions
  uint64_t overlap_unflushed_ = 0;                     // guarded by lock_
  std::atomic<uint32_t> busy_{0};   // slots in use; written under lock_, read anywhere
  // Held MS_ASYNC pages, oldest first (HoldWritebacks); guarded by lock_. The
  // count is written under lock_ and read anywhere.
  std::vector<uint64_t> held_;
  std::atomic<uint32_t> held_count_{0};
  // The queue overlaps commands (not the sync shim): held pages wait for a
  // read to hide behind, and waited-on writes are retried here.
  const bool native_queue_;
  // Fills in flight by key residue (key % kFillResidues): bit r of the mask
  // is set while the count of residue r is nonzero, so a key whose bit is
  // clear has no fill in flight without scanning fill_keys_. A stream's
  // window is a run of consecutive keys, so the pages past it read clear.
  // Counts guarded by lock_; the mask written under lock_, read anywhere.
  static constexpr uint32_t kFillResidues = 64;
  std::array<uint32_t, kFillResidues> fill_residue_counts_{};
  std::atomic<uint64_t> fill_mask_{0};
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_WRITEBACK_H_
