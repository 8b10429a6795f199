// AquilaMap: one shared file-backed mmio mapping under the Aquila runtime.
//
// The access path implements the paper's common-path operation ①:
//   hit  : TLB/page-table translation only — no software beyond the walk
//          (charged as hardware; cache hits are "free");
//   miss : a page fault taken in non-root ring 0 (552-cycle exception, no
//          protection-domain switch), handled under the page's VMA entry
//          lock: cache lookup in the lock-free hash, frame allocation from
//          the 2-level freelist, synchronous batched eviction when empty,
//          device read, mapping install.
// Dirty tracking follows §3.2: read faults map read-only; the first write
// takes a second (minor) fault that sets PTE.W|D and inserts the frame into
// the faulting core's dirty tree, keyed by device offset.
#ifndef AQUILA_SRC_CORE_MMIO_REGION_H_
#define AQUILA_SRC_CORE_MMIO_REGION_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/sched.h"
#include "src/core/writeback.h"

namespace aquila {

class AquilaMap : public MemoryMap {
 public:
  AquilaMap(Aquila* runtime, Backing* backing, uint64_t length, int prot);

  uint64_t length() const override { return length_; }

  Status Read(uint64_t offset, std::span<uint8_t> dst) override;
  Status Write(uint64_t offset, std::span<const uint8_t> src) override;
  AccessResult TouchRead(uint64_t offset) override;
  AccessResult TouchWrite(uint64_t offset) override;
  Status Sync(uint64_t offset, uint64_t length) override;
  Status Advise(uint64_t offset, uint64_t length, Advice advice) override;

  // Batched surface. With Options::coop_sched the batch runs on the calling
  // core's cooperative scheduler: touch requests park at fault-path wait
  // points and overlap their device reads; Poll drives the run queue and
  // blocks (advancing simulated time) until at least one request completes.
  // Without coop_sched both fall through to the synchronous base loop. The
  // batch protocol is per-thread: one submitting/polling thread per map.
  // Unmapping with requests still in flight is a caller error.
  Status SubmitBatch(std::span<const MmioRequest> requests) override;
  size_t Poll(std::span<MmioCompletion> out) override;

  // mprotect over the whole mapping (downgrades shoot down stale TLBs).
  Status Protect(int prot);

  // Trap mode (transparent mappings; see src/core/trap_driver.h).
  bool transparent() const { return transparent_base_ != nullptr; }
  // Raw pointer the application dereferences; null for soft-mode mappings.
  uint8_t* data() { return transparent_base_; }
  // Called by the SIGSEGV handler: resolves the fault at `vaddr` and
  // installs a real translation. Returns non-OK for addresses outside the
  // mapping (the handler then falls through to the default disposition) or
  // kIoError when the backing device failed — the handler then raises the
  // SIGBUS analog (Options::sigbus_handler) instead of crashing outright.
  Status HandleTrapFault(uint64_t vaddr, bool write);

  // True once repeated writeback failures have demoted the mapping to
  // read-only (writes fault with kIoError; reads of resident/clean pages
  // still work). Cleared when a later writeback succeeds before the limit.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  // Re-arms a degraded mapping after the backing device has healed: clears
  // the read-only demotion and the failure counter so writes fault in and
  // msync retries writeback. Refuses (kFailedPrecondition) while the
  // device's health breaker is still open — re-arming against a dead device
  // would just re-degrade after `writeback_failure_limit` more failures.
  Status RearmWriteback();

  const Vma& vma() const { return vma_; }
  uint64_t mapping_id() const { return vma_.mapping_id; }
  Backing* backing() { return backing_; }

 private:
  friend class Aquila;
  friend class WritebackPlanner;
  friend class AsyncWritebackEngine;
  friend class CoreScheduler;

  // Result of one page access: pointer valid until UnlockPage.
  struct PageRef {
    uint8_t* data = nullptr;
    bool faulted = false;
    // Span whose density crossed the promotion threshold during this access;
    // the wrapper promotes AFTER UnlockPage — promotion retires 4K frames,
    // so running it while `data` is live would free the page under the
    // caller.
    uint64_t promote_span = kNoSpan;
  };

  // --- Transparent 2 MB huge pages (DESIGN.md §14) ---------------------------
  static constexpr uint64_t kSpanPages = kHugePage2M / kPageSize;  // 512
  static constexpr uint64_t kNoSpan = ~0ull;

  // Per-span promotion state machine. k4K -> kPromoting (the promoter holds
  // every entry lock of the span, taken with TryLockEntry only) -> kHuge,
  // and kHuge -> kDemoting -> k4K. Because only promoters multi-lock and
  // only with TryLock, a demoter that spins on kPromoting while holding one
  // entry lock always forces the promoter's abort instead of deadlocking.
  enum class SpanState : uint8_t { k4K = 0, kPromoting, kHuge, kDemoting };

  struct HugeSpan {
    // 4K PTEs currently installed in the span (readahead frames with no PTE
    // do not count): the promotion density signal.
    std::atomic<uint32_t> resident{0};
    std::atomic<uint8_t> state{0};  // a SpanState; starts k4K
    // First frame of the backing run while kHuge; kInvalidFrame otherwise.
    std::atomic<uint32_t> run_first{kInvalidFrame};
  };

  bool huge_enabled() const { return spans_ != nullptr; }
  uint64_t SpanOf(uint64_t file_page) const { return file_page / kSpanPages; }
  // PTE-count bookkeeping at install/remove sites; no-ops when huge pages
  // are off (spans_ null), keeping the off path branch-only.
  void NotePteInstalled(uint64_t file_page) {
    if (spans_ != nullptr) {
      spans_[SpanOf(file_page)].resident.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void NotePteRemoved(uint64_t file_page) {
    if (spans_ != nullptr) {
      spans_[SpanOf(file_page)].resident.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Cooperative-scheduling context threaded through AccessPage/HandleFault
  // for batch requests. nullptr (every legacy caller) keeps the blocking
  // fault path bit-for-bit unchanged. When the fault path parks instead of
  // waiting, it sets `parked` and records the resume ticket; the access
  // returns an empty PageRef the scheduler discards.
  struct CoopContext {
    CoreScheduler* sched = nullptr;
    uint64_t token = 0;      // out: parked-table ticket
    bool parked = false;     // out: the access parked instead of completing
    bool owner_park = false; // out: parked on its own demand fill (point c)
    bool resumed = false;    // in: this run resumes a previously parked task
  };

  static uint64_t MakeKey(uint64_t mapping_id, uint64_t file_page) {
    return (1ull << 63) | (mapping_id << 40) | file_page;
  }
  static uint64_t FilePageOfKey(uint64_t key) { return key & ((1ull << 40) - 1); }
  uint64_t SortKey(uint64_t file_offset) const {
    return (vma_.mapping_id << 40) | (backing_->DeviceOffset(file_offset) >> kPageShift);
  }

  // Locks the page entry, resolves (faulting if needed), returns the frame
  // data. Caller must UnlockPage(page) afterwards — except when the access
  // parked (coop != nullptr and coop->parked), where the lock was already
  // released and the returned PageRef is empty.
  StatusOr<PageRef> AccessPage(uint64_t offset, bool write, CoopContext* coop = nullptr);
  void UnlockPage(uint64_t page) { runtime_->vma_tree().UnlockEntry(page); }

  // Fault handling (entry lock held). Returns the resident frame, or parks
  // (coop->parked set, kInvalidFrame returned) at a wait point.
  StatusOr<FrameId> HandleFault(Vcpu& vcpu, uint64_t vaddr, bool write,
                                CoopContext* coop = nullptr);
  // One cooperative step of a batch task: resumes a parked task (or skips it
  // when not yet woken), runs the access, and either completes the task or
  // parks it again. Called by CoreScheduler::RunReady on the owning core.
  void CoopStep(Vcpu& vcpu, CoreScheduler* sched, CoreScheduler::Task* task);
  // Installs readahead pages following `file_page` (best effort: callers may
  // ignore the status — it reports the first fill that could not be issued).
  Status ReadAhead(Vcpu& vcpu, uint64_t file_page);
  // Batched eviction. Returns frames freed now — async mode frees dirty
  // victims later, when their completions reap. Writeback failures (sync
  // I/O errors and async submission rejections alike) are charged to the
  // victim's owning mapping and reduce the round's progress; they are never
  // surfaced as a fault error for an unrelated page.
  StatusOr<size_t> EvictBatch(Vcpu& vcpu);

  // A reclaim batch (EvictBatch, Advise(kDontNeed)) between claim and free:
  // victim batch, offset-sorted writeback, one batched shootdown (§3.2,
  // §4.1).
  struct ReclaimBatch {
    WritebackPlanner planner;             // dirty victims
    std::vector<PageShootdown> vpns;      // translations to shoot down
    std::vector<FrameId> to_free;         // freed only after the shootdown
    // stamps[i] is to_free[i]'s last-owner stamp (a deferred shootdown);
    // entries past its end carry none.
    std::vector<ReuseStamp> stamps;
  };
  // Reclaims one page of this mapping whose frame the caller claimed
  // (kEvicting) under the page's entry lock: demotes its huge span, removes
  // the PTE and the trap mapping, captures the shootdown, and routes the
  // frame — dirty to the planner (which owns the entry lock from here),
  // clean to `to_free` with the entry lock released. `defer_clean` defers a
  // clean mapped page's shootdown (kReuseElide on Advise(kDontNeed) only).
  void ReclaimPage(Vcpu& vcpu, FrameId frame, uint64_t page, bool defer_clean,
                   ReclaimBatch* batch);
  // One batched shootdown for the batch, then the frees. Call after
  // planner.SubmitReclaim. Returns frames freed.
  size_t FinishReclaim(Vcpu& vcpu, const ReclaimBatch& batch);
  // Fills `frame` for (vaddr,key) from the backing and publishes it.
  Status FillAndPublish(Vcpu& vcpu, FrameId frame, uint64_t vaddr, uint64_t key, bool write);

  // Records the outcome of one writeback batch (sync) or completion (async):
  // failures count toward the degradation limit, a success resets the count.
  void NoteWritebackResult(const Status& status);
  // Re-publishes a claimed-but-unwritten dirty frame after a writeback
  // failure: frame re-marked dirty and resident. `reinsert_mapping` is true
  // on the synchronous path (which removed the cache mapping when claiming)
  // and false on the async path (which keeps it for waiting faulters).
  void RestoreDirtyFrame(Vcpu& vcpu, FrameId frame, uint64_t sort_key, bool reinsert_mapping);

  // The async pipeline, present iff Options::async_writeback.
  AsyncWritebackEngine* writeback_engine() { return engine_.get(); }

  // Maps up to Options::fault_around_pages already-resident forward
  // neighbors of a just-faulted page under their entry locks (read-only, so
  // no shootdown is needed) — the cheap tier below promotion. Advances
  // next_readahead_ past what it mapped so the readahead engine does not
  // resubmit fills for those pages.
  void FaultAround(Vcpu& vcpu, uint64_t file_page);
  // True when `span` is full-size, still 4K, and dense enough to promote.
  bool PromotionEligible(uint64_t span) const;
  // Runs the promotion protocol for `span` (must be called with NO entry
  // locks held). Counts an abort when the span cannot be promoted safely.
  void MaybePromote(Vcpu& vcpu, uint64_t span);
  // Body of MaybePromote once the span is CASed to kPromoting; returns
  // success and leaves the span kHuge, or unwinds and leaves it k4K.
  bool TryPromote(Vcpu& vcpu, uint64_t span);
  // Splits the span covering `file_page` back to 4K if it is huge (or
  // becoming huge). Safe to call with one entry lock of the span held.
  void DemoteSpanForPage(Vcpu& vcpu, uint64_t file_page);
  void DemoteSpan(Vcpu& vcpu, uint64_t span);
  void DemoteAllSpans(Vcpu& vcpu);

  // Internal setup/teardown used by Aquila::Map/Unmap.
  Status Install();
  Status TearDown();

  Aquila* runtime_;
  Backing* backing_;
  uint64_t length_;
  Vma vma_;
  std::atomic<Advice> advice_{Advice::kNormal};
  uint8_t* transparent_base_ = nullptr;  // set for trap-mode mappings
  std::atomic<uint32_t> writeback_failures_{0};
  std::atomic<bool> degraded_{false};
  std::unique_ptr<AsyncWritebackEngine> engine_;  // iff Options::async_writeback
  // High-water mark of async-prefetched file pages (sequential streams): an
  // in-flight fill is invisible to the cache hash, so without it a re-armed
  // window would resubmit every fill still in the queue.
  std::atomic<uint64_t> next_readahead_{0};
  // One tracker per 2 MB-aligned span of the mapping; allocated by Install()
  // iff Options::huge_pages and the mapping is soft-mode. Null means every
  // huge-page branch in the hot paths collapses to one predictable test.
  std::unique_ptr<HugeSpan[]> spans_;
  uint64_t span_count_ = 0;  // fixed at Install()
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_MMIO_REGION_H_
