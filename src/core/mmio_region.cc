#include "src/core/mmio_region.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/core/trap_driver.h"
#include "src/telemetry/scoped_timer.h"
#include "src/telemetry/span.h"
#include "src/util/bitops.h"
#include "src/util/race_injector.h"

namespace aquila {

namespace {

// Victims between a prefetch and the reclaim that consumes it: far enough
// ahead to cover a cold miss behind one victim's reclaim work, near enough
// that the lines are still cached. 8 and 16 measure the same.
constexpr size_t kReclaimPrefetchAhead = 8;

// Pay-as-you-go reclaim (DESIGN.md §5). A slice reclaims at most this many
// victims: one per fault holds the supply level, two catch up.
constexpr size_t kSliceVictims = PendingReclaim::kMaxCandidates;
// Clock slots one slice's sweep may visit looking for clean candidates.
constexpr uint64_t kCandidateSteps = 16;
// A dry allocation that neither gains a frame nor frees one for this many
// rounds in a row reports the allocator state and fails.
constexpr uint64_t kAllocNoProgressRounds = 1u << 17;
// Poll's twin: rounds in a row that complete no task and free no frame. A
// round that only re-parks is a fraction of a microsecond, so the bound is
// higher: ~0.4 s of spinning, long enough to outlast a descheduled thread
// between marking a frame kWritingBack and submitting its write.
constexpr uint64_t kPollNoProgressRounds = 1u << 20;

// A pending batch flushes at `bound` frames; a fault reclaims while its
// core's supply is under `low`. The bound is one core's share of an
// eviction batch (at most half of it), so all cores' free and pending
// frames together stay near today's half batch; but it never drops under
// 64 pages, where the local invalidation clamp (tlb_full_flush) still
// costs under 10 cycles a page, unless the whole batch is smaller; and it
// never exceeds 1/16 of the cache. The low mark leaves a slice margin over
// the bound, so the queue a flush refilled lasts until the next flush.
struct ReclaimMarks {
  uint64_t bound;
  uint64_t low;
};

ReclaimMarks MarksFor(const PageCache& cache, int cores) {
  constexpr uint64_t kMinFlush = 64;
  const uint64_t batch = cache.eviction_batch();
  const uint64_t share = std::min<uint64_t>(batch / 2, batch / std::max(cores, 1));
  const uint64_t bound = std::max<uint64_t>(
      1, std::min({batch, std::max(share, kMinFlush), cache.capacity_pages() / 16}));
  return ReclaimMarks{bound, bound + std::max<uint64_t>(bound / 8, kSliceVictims)};
}

#if AQUILA_TELEMETRY_ENABLED
// Fault-path latency histograms, classified at handler exit (a fault only
// learns whether it was major, minor, or a write upgrade at the end).
struct FaultMetrics {
  Histogram* fault_major = telemetry::Registry().GetHistogram("aquila.core.fault_major_cycles");
  Histogram* fault_minor = telemetry::Registry().GetHistogram("aquila.core.fault_minor_cycles");
  Histogram* fault_upgrade =
      telemetry::Registry().GetHistogram("aquila.core.fault_upgrade_cycles");
  Histogram* msync = telemetry::Registry().GetHistogram("aquila.core.msync_cycles");
};

const FaultMetrics& GetFaultMetrics() {
  static FaultMetrics metrics;
  return metrics;
}
#endif

}  // namespace

AquilaMap::AquilaMap(Aquila* runtime, Backing* backing, uint64_t length, int prot)
    : runtime_(runtime), backing_(backing), length_(length) {
  vma_.page_count = AlignUp(length, kPageSize) / kPageSize;
  vma_.prot = prot;
  vma_.mapping_id = runtime_->next_mapping_id_.fetch_add(1, std::memory_order_relaxed);
  vma_.backing = this;
  engine_ = std::make_unique<AsyncWritebackEngine>(runtime_, this,
                                                   runtime_->options().async_queue_depth);
}

Status AquilaMap::Install() {
  if (transparent_base_ != nullptr) {
    vma_.start_page = reinterpret_cast<uint64_t>(transparent_base_) >> kPageShift;
  } else if (runtime_->options().huge_pages) {
    // 2 MB-aligned VA, so every kSpanPages-aligned file span is also a 2 MB-
    // aligned virtual span (InstallHuge requires the alignment).
    vma_.start_page =
        runtime_->va_allocator_.AllocateAligned(vma_.page_count, kSpanPages) >> kPageShift;
    span_count_ = (vma_.page_count + kSpanPages - 1) / kSpanPages;
    spans_ = std::make_unique<HugeSpan[]>(span_count_);
  } else {
    vma_.start_page = runtime_->va_allocator_.Allocate(vma_.page_count) >> kPageShift;
  }
  return runtime_->vma_tree().Insert(&vma_);
}

Status AquilaMap::TearDown() {
  Vcpu& vcpu = ThisVcpu();
  // Removing the VMA first drains in-flight faults and makes the range
  // unreachable; afterwards no store can dirty a page, and the sweeps below
  // cannot race with new faults.
  AQUILA_RETURN_IF_ERROR(runtime_->vma_tree().Remove(&vma_));

  // Reap every async writeback/fill still in flight: completions free their
  // frames or restore failures dirty-in-place, where the write pass below
  // finds them.
  (void)engine_->Drain(vcpu);
  // Pending reclaim batches may hold this mapping's clean victims, out of
  // the hash where the sweep below cannot see them. With the VMA gone no
  // slice can add more, so one flush of every core's batch returns them.
  (void)runtime_->FlushPendingReclaim();

  // Huge spans split back to 4K first: the sweep below removes PTEs page by
  // page, and Remove() on a vaddr covered by a 2 MB leaf no-ops — it would
  // silently leak the live translation and the whole run.
  DemoteAllSpans(vcpu);

  PageCache& cache = runtime_->cache();
  // Claims the frame of `file_page` (kEvicting) against concurrent evictors;
  // kInvalidFrame once no frame holds the page.
  auto claim = [&](uint64_t file_page) {
    const uint64_t key = MakeKey(vma_.mapping_id, file_page);
    FrameId frame;
    while (cache.Peek(key, &frame)) {
      Frame& f = cache.frame(frame);
      FrameState expected = FrameState::kResident;
      if (f.state.compare_exchange_strong(expected, FrameState::kEvicting,
                                          std::memory_order_acq_rel)) {
        if (f.key.load(std::memory_order_relaxed) == key) {
          return frame;
        }
        f.state.store(FrameState::kResident, std::memory_order_release);  // recycled
      } else if (expected == FrameState::kWritingBack) {
        // A concurrent evictor submitted this page between our drain and
        // the claim; reap until its completion resolves the frame.
        (void)engine_->WaitOne(vcpu);
      }
      CpuRelax();
    }
    return kInvalidFrame;
  };

  // The dirty pages go out through the engine, kept cached for the sweep,
  // and the drain waits them out. A writeback error at teardown loses the
  // unwritten dirty data (there is nowhere left to requeue it — the mapping
  // is going away), but it must not leak frames, TLB entries, or the VA
  // range: capture the first failure, finish the teardown, and report it to
  // the caller.
  Status result;
  WritebackPlanner planner;
  for (uint64_t file_page : DirtyPages(vcpu, 0, vma_.page_count - 1)) {
    const FrameId frame = claim(file_page);
    if (frame == kInvalidFrame) {
      continue;
    }
    Frame& f = cache.frame(frame);
    FrameState next = FrameState::kResident;
    if (f.dirty.load(std::memory_order_relaxed) != 0) {
      NoteWriteClaimed(vcpu);
      cache.ClearDirty(frame);
      planner.Add(WritebackItem{SortKey(file_page * kPageSize), file_page * kPageSize,
                                cache.FrameData(vcpu, frame), frame, this, &result});
      next = FrameState::kWritingBack;
    }
    f.state.store(next, std::memory_order_release);
  }
  (void)planner.SubmitQueued(vcpu, /*keep_resident=*/true);
  (void)engine_->Drain(vcpu);
  if (result.ok()) {
    result = backing_->Flush(vcpu);
  }

  std::vector<PageShootdown> vpns;
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < vma_.page_count; i++) {
    const FrameId frame = claim(i);
    if (frame == kInvalidFrame) {
      continue;
    }
    Frame& f = cache.frame(frame);
    const uint64_t page = vma_.start_page + i;
    (void)runtime_->page_table().Remove(page << kPageShift);
    cache.RemoveMapping(MakeKey(vma_.mapping_id, i));
    // Unified capture rule (CaptureShootdownPage): frame claimed (kEvicting),
    // PTE removed above.
    vpns.push_back(CaptureShootdownPage(f, page));
    if (f.dirty.load(std::memory_order_relaxed) != 0) {
      // A failed write of teardown's own (its error is in `result`), or one
      // the write pass missed: an evictor's claimed before the VMA went, or a
      // dirty flag without its tree item. Write the latter now.
      if (result.ok()) {
        const uint64_t offsets[1] = {i * kPageSize};
        const uint8_t* const pages[1] = {cache.FrameData(vcpu, frame)};
        result = backing_->WritePages(vcpu, offsets, pages, kPageSize);
        if (result.ok()) {
          result = backing_->Flush(vcpu);
        }
        NoteWritebackResult(result);
      }
      cache.ClearDirty(frame);
    }
    frames.push_back(frame);
  }

  // Deferrals parked for this region can never be elided once it is gone
  // (the region id dies with the mapping): fold them into the final batch.
  runtime_->tlb().DrainDeferredRegion(vma_.mapping_id, &vpns);
  runtime_->ShootdownPages(vcpu, vpns);
  // One burst to the NUMA level: the unmapping thread may never allocate
  // again, and frames left in its core queue are out of every other core's
  // reach.
  cache.FreeFrames(vcpu.core(), frames, FreeLevel::kNuma);
  if (transparent_base_ != nullptr) {
    TrapDriver::ReleaseRange(transparent_base_, vma_.page_count * kPageSize);
    transparent_base_ = nullptr;
  }
  return result;
}

std::vector<uint64_t> AquilaMap::DirtyPages(Vcpu& vcpu, uint64_t first_page,
                                            uint64_t last_page) const {
  PageCache& cache = runtime_->cache();
  std::vector<FrameId> frames;
  {
    telemetry::ChildSpan collect_span(vcpu.clock(), telemetry::SpanPhase::kDirtyTrack);
    ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
    const uint64_t lo = vma_.mapping_id << 40;
    cache.DirtyFramesInRange(lo, lo | ((1ull << 40) - 1), &frames);
  }
  std::vector<uint64_t> pages;
  for (FrameId frame : frames) {
    const uint64_t key = cache.frame(frame).key.load(std::memory_order_relaxed);
    const uint64_t file_page = FilePageOfKey(key);
    if (key == MakeKey(vma_.mapping_id, file_page) && file_page >= first_page &&
        file_page <= last_page) {
      pages.push_back(file_page);
    }
  }
  for (const std::atomic<uint32_t>& count : unqueued_writes_) {
    SpinBackoff backoff;
    while (count.load() != 0) {
      backoff.Pause();
    }
  }
  return pages;
}

void AquilaMap::NoteWritebackResult(const Status& status) {
  if (status.ok()) {
    writeback_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  runtime_->fault_stats().writeback_errors.fetch_add(1, std::memory_order_relaxed);
  uint32_t failures = writeback_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= runtime_->options().writeback_failure_limit) {
    degraded_.store(true, std::memory_order_release);
  }
}

Status AquilaMap::RearmWriteback() {
  DeviceHealth& health = backing_->device()->health();
  if (health.enabled() && health.state() == DeviceHealth::State::kFailed) {
    return Status::FailedPrecondition("backing device health is failed; heal it first");
  }
  writeback_failures_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_release);
  return Status::Ok();
}

void AquilaMap::RestoreDirtyFrame(Vcpu& vcpu, FrameId frame, uint64_t sort_key,
                                  bool reinsert_mapping) {
  // The frame was claimed for writeback (PTE removed, dirty bit cleared) but
  // its data never reached the device. Dropping it would be silent
  // corruption, so put it back: the next access takes a minor fault and the
  // next writeback retries. The synchronous path removed the cache mapping
  // when claiming and re-inserts it here; the async path kept it.
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  if (reinsert_mapping) {
    AQUILA_CHECK(cache.InsertMapping(f.key.load(std::memory_order_relaxed), frame));
  }
  cache.MarkDirty(vcpu.core(), frame, sort_key);
  f.referenced.store(1, std::memory_order_relaxed);
  f.state.store(FrameState::kResident, std::memory_order_release);
  restored_writes_.fetch_add(1, std::memory_order_acq_rel);
}

Status AquilaMap::HandleTrapFault(uint64_t vaddr, bool write) {
  uint64_t base = reinterpret_cast<uint64_t>(transparent_base_);
  if (transparent_base_ == nullptr || vaddr < base || vaddr >= base + length_) {
    return Status::InvalidArgument("fault outside this mapping");
  }
  if (write && (vma_.prot & kProtWrite) == 0) {
    return Status::FailedPrecondition("real write fault on read-only mapping");
  }
  uint64_t offset = vaddr - base;
  StatusOr<PageRef> ref = AccessPage(offset, write);
  if (!ref.ok()) {
    return ref.status();
  }
  UnlockPage(vma_.start_page + (offset >> kPageShift));
  return Status::Ok();
}

StatusOr<AquilaMap::PageRef> AquilaMap::AccessPage(uint64_t offset, bool write,
                                                   CoopContext* coop,
                                                   const uint8_t* overwrite) {
  if (offset >= length_) {
    return Status::InvalidArgument("access beyond mapping");
  }
  if (write && (vma_.prot & kProtWrite) == 0) {
    return Status::FailedPrecondition("write to read-only mapping");
  }
  if (write && degraded_.load(std::memory_order_acquire)) {
    // Repeated writeback failures demoted the mapping: accepting more dirty
    // data would only grow the set of pages that can never be cleaned.
    return Status::IoError("mapping degraded to read-only after writeback failures");
  }
  Vcpu& vcpu = ThisVcpu();
  uint64_t page = vma_.start_page + (offset >> kPageShift);
  uint64_t vaddr = page << kPageShift;

  // Hardware translation attempt (statistical TLB).
  TlbSet::LookupResult tlb = runtime_->tlb().Lookup(vcpu.core(), page);

  Vma* vma = runtime_->vma_tree().LockEntry(page);
  if (vma == nullptr) {
    return Status::FailedPrecondition("address no longer mapped");
  }
  AQUILA_DCHECK(vma == &vma_);

  uint64_t pte = runtime_->page_table().Lookup(vaddr);
  PageRef ref;
  FrameId frame;
  if (Pte::Present(pte) && (!write || Pte::Writable(pte))) {
    // Cache hit: translation exists; no software on the real machine. We
    // charge only the hardware walk when the TLB missed.
    frame = static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift);
    if (!tlb.hit || (write && !tlb.writable)) {
      vcpu.clock().Charge(CostCategory::kPageTable, GlobalCostModel().hardware_walk);
      uint64_t epoch = runtime_->tlb().Insert(vcpu.core(), page, Pte::Writable(pte), frame);
      // Publish under the entry lock: evictors capture the mask only after
      // their claim CAS, which the same lock orders against this insert.
      NoteTlbInsert(runtime_->cache().frame(frame), vcpu.core(), epoch);
    }
    ref.faulted = false;
  } else {
    StatusOr<FrameId> faulted = HandleFault(vcpu, vaddr, write, coop, overwrite, &ref.filled);
    if (coop != nullptr && coop->parked) {
      // The fault parked as a continuation; the scheduler re-runs the whole
      // access on wake. Nothing to hand out yet.
      UnlockPage(page);
      return PageRef{};
    }
    if (!faulted.ok()) {
      UnlockPage(page);
      return faulted.status();
    }
    frame = *faulted;
    uint64_t epoch = runtime_->tlb().Insert(vcpu.core(), page, write, frame);
    NoteTlbInsert(runtime_->cache().frame(frame), vcpu.core(), epoch);
    ref.faulted = true;
    if (spans_ != nullptr) {
      uint64_t file_page = offset >> kPageShift;
      FaultAround(vcpu, file_page);
      uint64_t span = SpanOf(file_page);
      if (PromotionEligible(span)) {
        // The wrapper promotes after UnlockPage — see PageRef::promote_span.
        ref.promote_span = span;
      }
    }
  }
  Frame& f = runtime_->cache().frame(frame);
  f.referenced.store(1, std::memory_order_relaxed);
  ref.data = runtime_->cache().FrameData(vcpu, frame);
  return ref;
}

StatusOr<FrameId> AquilaMap::HandleFault(Vcpu& vcpu, uint64_t vaddr, bool write,
                                         CoopContext* coop, const uint8_t* overwrite,
                                         bool* filled) {
  // Entry lock held by the caller. This is operation ①: an exception taken
  // and handled entirely in non-root ring 0 — no protection-domain switch.
  runtime_->fabric().Absorb(vcpu.clock(), vcpu.core());
  vcpu.ChargeRing0Exception();
  AQUILA_TELEMETRY_ONLY(const uint64_t fault_start = vcpu.clock().Now());
  // Root of this request's span tree (no-op unless sampled). Opened after
  // the trap charge so the root's wall time is the handler body — the part
  // the child phases below decompose. Classified major/minor/upgrade at the
  // exit that resolves it.
  telemetry::RequestSpan req_span(vcpu.clock(), telemetry::SpanOp::kFaultMajor, vaddr);
  if (coop != nullptr && coop->resumed) {
    // Marker child: this handler run is the resumption of a parked request
    // (the park itself was marked in the previous run's tree).
    telemetry::ChildSpan resume_span(vcpu.clock(), telemetry::SpanPhase::kResume, vaddr);
  }

  PageCache& cache = runtime_->cache();
  uint64_t page = vaddr >> kPageShift;
  uint64_t file_page = page - vma_.start_page;
  uint64_t key = MakeKey(vma_.mapping_id, file_page);

  uint64_t pte = runtime_->page_table().Lookup(vaddr);
  if (spans_ != nullptr && Pte::Present(pte) && Pte::Huge(pte)) {
    // Write fault on a 2 MB span (huge mappings are never writable — reads
    // hit in AccessPage and never reach here): dirty divergence. Split back
    // to 4K and re-read the now-4K PTE; the upgrade below dirties just this
    // page while its 511 neighbors stay clean.
    DemoteSpanForPage(vcpu, file_page);
    pte = runtime_->page_table().Lookup(vaddr);
  }
  if (Pte::Present(pte)) {
    // Write fault on a read-only mapping: the dirty-tracking fault (§3.2).
    AQUILA_DCHECK(write && !Pte::Writable(pte));
    req_span.set_op(telemetry::SpanOp::kFaultUpgrade);
    // Span before measure: the measure's charge lands at ITS destructor,
    // which must run inside the span's clock window.
    telemetry::ChildSpan dirty_span(vcpu.clock(), telemetry::SpanPhase::kDirtyTrack, vaddr);
    ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
    FrameId frame = static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift);
    // The frame may already be dirty with only its PTE write-protected
    // (mprotect downgrade); re-inserting it would corrupt the dirty tree.
    if (cache.frame(frame).dirty.load(std::memory_order_relaxed) == 0) {
      cache.MarkDirty(vcpu.core(), frame, SortKey(file_page * kPageSize));
    }
    runtime_->page_table().Walk(vaddr)->fetch_or(Pte::kWritable | Pte::kDirty,
                                                 std::memory_order_acq_rel);
    if (transparent_base_ != nullptr) {
      TrapDriver::UpgradeRealMapping(vaddr);
    }
    runtime_->fault_stats().write_upgrades.fetch_add(1, std::memory_order_relaxed);
    AQUILA_TELEMETRY_ONLY(telemetry::RecordSpanSince(GetFaultMetrics().fault_upgrade,
                                                     vcpu.clock(), fault_start));
    return frame;
  }

  FrameId frame;
  // Minor-fault path: the page may already be in the cache (read-ahead or
  // a prior mapping). Frames without a translation (read-ahead) can be
  // evicted concurrently — an evictor for a *mapped* page would need our
  // entry lock, but a read-ahead frame is evictable lock-free — so the frame
  // must be PINNED before we touch it: claim kResident -> kFilling (which
  // makes every evictor's claim CAS fail), re-validate the key under
  // ownership, and only then install the translation and republish. Checking
  // state/key and then writing unpinned would let an evictor free the frame
  // under our feet and leave the PTE pointing at a recycled frame. The wait
  // itself stays outside the measured scopes (it is host-scheduling noise,
  // not modeled work).
  {
    SpinBackoff backoff;
    while (true) {
      // A fill for this page may be in flight — invisible until its
      // completion publishes it into the hash. HasPendingFill says so without
      // the engine lock (and one load when the mapping has no fills), so only
      // a page whose fill is in flight takes the lock. The engine is asked
      // before the hash: a sequential stream's page is usually still in
      // flight, and AwaitFill hands back the frame it publishes, sparing the
      // lookup.
      bool found = false;
      if (engine_->HasPendingFill(key)) {
        if (coop != nullptr && coop->sched != nullptr) {
          // Park point (a): someone else's fill is in flight for this page.
          // Reserve the parked-table entry FIRST, then re-check — a
          // completion that raced the reservation is visible to the re-check
          // (see HasPendingFill) and we cancel instead of sleeping on a wake
          // that already happened.
          uint64_t token = coop->sched->PrePark(key, kInvalidFrame);
          if (token != 0) {
            if (engine_->HasPendingFill(key)) {
              telemetry::ChildSpan park_span(vcpu.clock(), telemetry::SpanPhase::kPark, vaddr);
              coop->sched->CommitPark(token);
              coop->token = token;
              coop->parked = true;
              return kInvalidFrame;
            }
            coop->sched->CancelPark(token);
            continue;  // published (or failed) already; re-run the lookup
          }
          // Parked table full: fall through to the blocking wait.
        }
        telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
        frame = engine_->AwaitFill(vcpu, key);
        found = frame != kInvalidFrame;
      }
      if (!found) {
        // No fill for this page in flight: the hash is authoritative.
        telemetry::ChildSpan lookup_span(vcpu.clock(), telemetry::SpanPhase::kCacheLookup);
        ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
        found = cache.Lookup(key, &frame);
      }
      if (!found) {
        break;
      }
      Frame& f = cache.frame(frame);
      FrameState expected = FrameState::kResident;
      if (f.state.compare_exchange_strong(expected, FrameState::kFilling,
                                          std::memory_order_acq_rel)) {
        if (f.key.load(std::memory_order_relaxed) != key) {
          // Between the lookup and the pin the frame was evicted, freed, and
          // refilled for a different page (a refill for OUR key is impossible
          // — it would need the entry lock we hold). Unpin and retry: the
          // next lookup misses and takes the major-fault path.
          f.state.store(FrameState::kResident, std::memory_order_release);
          backoff.Pause();
          continue;
        }
        req_span.set_op(telemetry::SpanOp::kFaultMinor);
        InstallPinned(vcpu, frame, vaddr, write);
        runtime_->fault_stats().minor_faults.fetch_add(1, std::memory_order_relaxed);
        // Read-ahead consumed this frame: the stream's faults reclaim for it.
        if (runtime_->reclaim_ahead()) {
          if (const uint64_t cycles = ReclaimAhead(vcpu); cycles > 0) {
            cache.NoteEvictCycles(cycles);
          }
        }
        if (advice_.load(std::memory_order_relaxed) == Advice::kSequential) {
          MaybeRearmReadAhead(vcpu, file_page);
        }
        AQUILA_TELEMETRY_ONLY(
            telemetry::RecordSpanSince(GetFaultMetrics().fault_minor, vcpu.clock(), fault_start));
        return frame;
      }
      if (expected == FrameState::kWritingBack) {
        if (coop != nullptr && coop->sched != nullptr) {
          // Park point (b): an async writeback owns this frame; its
          // completion Wakes every parked entry for the key (non-terminal).
          // Reserve first, then re-read the state — a completion that landed
          // before the reservation left the frame kResident/kFree, in which
          // case we cancel and retry the pin instead of parking forever.
          uint64_t token = coop->sched->PrePark(key, kInvalidFrame);
          if (token != 0) {
            if (f.state.load(std::memory_order_acquire) == FrameState::kWritingBack) {
              telemetry::ChildSpan park_span(vcpu.clock(),
                                             telemetry::SpanPhase::kPark, vaddr);
              coop->sched->CommitPark(token);
              coop->token = token;
              coop->parked = true;
              return kInvalidFrame;
            }
            coop->sched->CancelPark(token);
            backoff.Pause();
            continue;
          }
          // Parked table full: fall through to the blocking wait.
        }
        // Async writeback in flight on this page: reap completions, advancing
        // simulated time when nothing is ready yet. The frame either frees —
        // the retry then refills the now-durable page from the device — or
        // returns resident on a write failure, where the pin CAS succeeds.
        telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
        (void)engine_->WaitOne(vcpu);
      }
      backoff.Pause();  // eviction, fill, or msync in flight; re-validate
    }
  }

  ReuseStamp stamp;
  StatusOr<FrameId> allocated = AllocFaultFrame(vcpu, &stamp);
  if (!allocated.ok()) {
    return allocated.status();
  }
  frame = *allocated;

  // Resolve the frame's last-owner stamp before filling: same-owner reuse
  // elides the deferred shootdown outright (the stale translations point at
  // this frame, about to hold the same bytes again); any other pending
  // deferral — the stamp's or this page's — executes first (DESIGN.md §10).
  // This is the only elision-eligible allocation site, which keeps the
  // failure backstop below a single call. A cooperative demand fill forgoes
  // elision: its fill completes in CompleteLocked, where the failure
  // backstop below cannot run (same reason read-ahead fills never elide).
  // An overwrite fill keeps elision: stale entries for this page see its
  // current bytes, copied in before any translation goes live, and the copy
  // cannot fail, so the backstop is never needed for it.
  // A read queued behind held MS_ASYNC writes (ReadBehindHeld) forgoes it
  // for the same reason.
  AQUILA_DCHECK(overwrite == nullptr || coop == nullptr);
  const bool coop_fill = coop != nullptr && coop->sched != nullptr;
  const bool queued = !coop_fill && overwrite == nullptr && engine_->holding();
  const bool elided = runtime_->ResolveReuseStamp(vcpu, stamp, frame, page,
                                                  vma_.mapping_id,
                                                  /*allow_elide=*/!coop_fill && !queued);

  if (coop_fill) {
    // Park point (c): submit the device read asynchronously and park as this
    // fill's OWNER — the completion publishes the page (counting the major
    // fault) and delivers its status terminally to us. The frame stays
    // kFilling across the park, exactly like a read-ahead fill: invisible to
    // evictors, owned by the pipeline.
    uint64_t token = coop->sched->PrePark(key, frame);
    if (token != 0) {
      PageCache& pc = runtime_->cache();
      Frame& f = pc.frame(frame);
      f.key.store(key, std::memory_order_relaxed);
      f.vaddr.store(0, std::memory_order_relaxed);
      const FillRequest demand_fill{frame, key, file_page * kPageSize, /*demand=*/true};
      size_t submitted;
      Status submit = engine_->SubmitFills(vcpu, std::span(&demand_fill, 1), &submitted);
      if (submit.ok()) {
        telemetry::ChildSpan park_span(vcpu.clock(), telemetry::SpanPhase::kPark, vaddr);
        coop->sched->CommitPark(token);
        coop->token = token;
        coop->parked = true;
        coop->owner_park = true;
        if (advice_.load(std::memory_order_relaxed) == Advice::kSequential) {
          (void)ReadAhead(vcpu, file_page);
        }
        return kInvalidFrame;
      }
      // Submission machinery rejected the fill (not an I/O error): un-park
      // and fall through to the blocking path. We still own the frame in
      // kFilling, and elision was disabled above, so the synchronous
      // FillAndPublish below is safe.
      coop->sched->CancelPark(token);
    }
    // Parked table full (token == 0) or submission rejected: block instead.
  }

  if (queued) {
    bool consumed = false;
    const FrameId installed = ReadBehindHeld(vcpu, frame, vaddr, key, write, &consumed);
    if (installed != kInvalidFrame) {
      // The fill's publication counted the major fault.
      AQUILA_TELEMETRY_ONLY(
          telemetry::RecordSpanSince(GetFaultMetrics().fault_major, vcpu.clock(), fault_start));
      return installed;
    }
    if (consumed) {
      // The queued read failed (or its page was evicted before the pin):
      // the synchronous read below retries with its own retry budget.
      allocated = AllocFaultFrame(vcpu, &stamp);
      if (!allocated.ok()) {
        return allocated.status();
      }
      frame = *allocated;
      (void)runtime_->ResolveReuseStamp(vcpu, stamp, frame, page, vma_.mapping_id,
                                        /*allow_elide=*/false);
    }
  }

  Status fill = FillAndPublish(vcpu, frame, vaddr, key, write, overwrite);
  if (!fill.ok()) {
    if (elided) {
      // The elision re-legitimized stale entries against this frame's old
      // identity; the fill failed, so that identity is gone — flush them
      // before the frame recycles.
      runtime_->ExecuteElidedShootdown(vcpu, page, vma_.mapping_id, frame);
    }
    cache.FreeFrame(vcpu.core(), frame);
    return fill;
  }
  runtime_->fault_stats().major_faults.fetch_add(1, std::memory_order_relaxed);
  if (overwrite != nullptr) {
    // No device read, so no read-ahead either: a writer replacing whole
    // pages would only overwrite what the window fetched.
    runtime_->fault_stats().overwrite_fills.fetch_add(1, std::memory_order_relaxed);
    *filled = true;
  } else if (advice_.load(std::memory_order_relaxed) == Advice::kSequential) {
    (void)ReadAhead(vcpu, file_page);  // best effort: a failed prefetch is not a fault error
  }
  AQUILA_TELEMETRY_ONLY(
      telemetry::RecordSpanSince(GetFaultMetrics().fault_major, vcpu.clock(), fault_start));
  return frame;
}

StatusOr<FrameId> AquilaMap::AllocFaultFrame(Vcpu& vcpu, ReuseStamp* stamp) {
  // Reclaim normally ran ahead of need (the slice below); a dry allocator
  // reaps async completions, then flushes a pending batch (its own, or one a
  // quiet core left), and only then evicts a full batch itself (§3.2: batch
  // of 512 — written back synchronously, or submitted to the device queue
  // with completions reaped as fault handling continues).
  PageCache& cache = runtime_->cache();
  FrameId frame;
  uint64_t reclaim_cycles = 0;
  uint64_t idle_rounds = 0;
  SpinBackoff backoff;
  while (true) {
    {
      telemetry::ChildSpan alloc_span(vcpu.clock(), telemetry::SpanPhase::kCacheLookup);
      ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
      frame = cache.AllocFrame(vcpu, vcpu.core(), stamp);
    }
    if (frame != kInvalidFrame) {
      break;
    }
    runtime_->NoteAllocatorDry();
    // Ready async completions hand frames back without any device waiting.
    {
      telemetry::ChildSpan harvest_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
      if (runtime_->HarvestAsyncWritebacks(vcpu) > 0) {
        idle_rounds = 0;
        continue;
      }
    }
    const uint64_t reclaim_start = vcpu.clock().Now();
    size_t freed = runtime_->FlushPendingForAlloc(vcpu);
    if (freed == 0) {
      StatusOr<size_t> evicted = EvictBatch(vcpu);
      if (!evicted.ok()) {
        return evicted.status();
      }
      freed = *evicted;
    }
    reclaim_cycles += vcpu.clock().Now() - reclaim_start;
    if (freed > 0) {
      idle_rounds = 0;
      continue;
    }
    telemetry::ChildSpan harvest_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
    if (runtime_->HarvestAsyncWritebacks(vcpu, HarvestMode::kWaitOne) > 0) {
      idle_rounds = 0;
      continue;
    }
    // Every frame is busy: other threads' fills and evictions own them and
    // will hand them back. A loop that never gains one is a stall.
    if (++idle_rounds >= kAllocNoProgressRounds) {
      runtime_->FailAllocNoProgress(vcpu, idle_rounds);
    }
    backoff.Pause();
  }
  if (runtime_->reclaim_ahead()) {
    reclaim_cycles += ReclaimAhead(vcpu);
  }
  if (reclaim_cycles > 0) {
    cache.NoteEvictCycles(reclaim_cycles);
  }
  return frame;
}

void AquilaMap::InstallPinned(Vcpu& vcpu, FrameId frame, uint64_t vaddr, bool write) {
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  const uint64_t page = vaddr >> kPageShift;
  const uint64_t file_page = page - vma_.start_page;
  // This install may map `page` onto a frame a pending deferral does not
  // cover (e.g. a readahead frame re-reading a previously evicted file
  // page): execute that deferral before the translation goes live. One
  // relaxed load when the deferred table is empty.
  runtime_->ResolveDeferredForVpn(vcpu, page, frame);
  telemetry::ChildSpan install_span(vcpu.clock(), telemetry::SpanPhase::kFillCopy, vaddr);
  ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
  f.vaddr.store(vaddr, std::memory_order_relaxed);
  uint64_t flags = write ? (Pte::kWritable | Pte::kDirty | Pte::kAccessed) : Pte::kAccessed;
  AQUILA_CHECK(
      runtime_->page_table().Install(vaddr, static_cast<uint64_t>(frame) << kPageShift, flags));
  NotePteInstalled(file_page);
  if (write && f.dirty.load(std::memory_order_relaxed) == 0) {
    cache.MarkDirty(vcpu.core(), frame, SortKey(file_page * kPageSize));
  }
  if (transparent_base_ != nullptr) {
    TrapDriver::InstallRealMapping(runtime_, vaddr, f.gpa, write);
  }
  f.state.store(FrameState::kResident, std::memory_order_release);
}

FrameId AquilaMap::ReadBehindHeld(Vcpu& vcpu, FrameId frame, uint64_t vaddr, uint64_t key,
                                  bool write, bool* consumed) {
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  f.key.store(key, std::memory_order_relaxed);
  f.vaddr.store(0, std::memory_order_relaxed);
  const FillRequest fill{frame, key, FilePageOfKey(key) * kPageSize, /*demand=*/true};
  size_t submitted = 0;
  *consumed = engine_->SubmitFills(vcpu, std::span(&fill, 1), &submitted).ok() && submitted == 1;
  if (!*consumed) {
    return kInvalidFrame;
  }
  engine_->ReleaseBehindFill(vcpu, key);
  FrameId published;
  {
    telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
    published = engine_->AwaitFill(vcpu, key);
  }
  // Published unmapped (vaddr 0), the frame is evictable without our entry
  // lock until pinned, exactly like a read-ahead frame; and another thread's
  // harvest may have published it before AwaitFill looked. So pin it like
  // the minor-fault path does, until the pin holds or the hash has no page
  // left (the read failed, or an evictor took it).
  SpinBackoff backoff;
  while (published != kInvalidFrame || cache.Lookup(key, &published)) {
    Frame& pf = cache.frame(published);
    FrameState expected = FrameState::kResident;
    if (pf.state.compare_exchange_strong(expected, FrameState::kFilling,
                                         std::memory_order_acq_rel)) {
      if (pf.key.load(std::memory_order_relaxed) == key) {
        InstallPinned(vcpu, published, vaddr, write);
        return published;
      }
      pf.state.store(FrameState::kResident, std::memory_order_release);
    }
    published = kInvalidFrame;
    backoff.Pause();
  }
  return kInvalidFrame;
}

Status AquilaMap::FillAndPublish(Vcpu& vcpu, FrameId frame, uint64_t vaddr, uint64_t key,
                                 bool write, const uint8_t* overwrite) {
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  uint64_t file_page = FilePageOfKey(key);
  uint64_t file_offset = file_page * kPageSize;

  // The frame's bytes land before anything below publishes it: a recycled
  // frame still holds its last page, which no reader may see.
  uint8_t* data = cache.FrameData(vcpu, frame);
  if (overwrite != nullptr) {
    std::memcpy(data, overwrite, kPageSize);
  } else {
    uint64_t read_len = std::min<uint64_t>(kPageSize, backing_->size_bytes() - file_offset);
    Status status;
    {
      telemetry::ChildSpan device_span(vcpu.clock(), telemetry::SpanPhase::kDevice, file_offset);
      status = backing_->ReadRange(vcpu, file_offset, std::span(data, read_len));
    }
    if (!status.ok()) {
      return status;
    }
    if (read_len < kPageSize) {
      std::memset(data + read_len, 0, kPageSize - read_len);
    }
  }

  telemetry::ChildSpan publish_span(vcpu.clock(), telemetry::SpanPhase::kFillCopy, vaddr);
  ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
  // Identity writes happen while the frame is kFilling (owned by us); the
  // release store of kResident below is the publication point that makes
  // them visible to claimants.
  f.key.store(key, std::memory_order_relaxed);
  f.vaddr.store(vaddr, std::memory_order_relaxed);
  uint64_t flags = write ? (Pte::kWritable | Pte::kDirty | Pte::kAccessed) : Pte::kAccessed;
  AQUILA_CHECK(
      runtime_->page_table().Install(vaddr, static_cast<uint64_t>(frame) << kPageShift, flags));
  NotePteInstalled(file_page);
  AQUILA_CHECK(cache.InsertMapping(key, frame));
  if (write) {
    cache.MarkDirty(vcpu.core(), frame, SortKey(file_offset));
  }
  if (transparent_base_ != nullptr) {
    TrapDriver::InstallRealMapping(runtime_, vaddr, f.gpa, write);
  }
  f.state.store(FrameState::kResident, std::memory_order_release);
  return Status::Ok();
}

void AquilaMap::MaybeRearmReadAhead(Vcpu& vcpu, uint64_t file_page) {
  // The readahead marker: the stream's lead is how far the submitted window
  // (this core's mark) runs past this page. Re-arm once it has fallen by a
  // quarter of the window, so the next stretch goes out under one engine lock
  // while enough stays in flight to cover the device latency. A mark more
  // than a window ahead is a re-read of ground already covered; the fault
  // that misses there restarts the stream.
  const uint64_t window = runtime_->options().readahead_pages;
  const uint64_t mark = ReadaheadMark(vcpu).load(std::memory_order_relaxed);
  if (mark + std::max<uint64_t>(window / 4, 1) <= file_page + 1 + window) {
    (void)ReadAhead(vcpu, file_page);
  }
}

Status AquilaMap::ReadAhead(Vcpu& vcpu, uint64_t file_page) {
  // A degraded/failed device sheds speculative prefetch first: demand reads
  // keep their queue slots and the sick medium sees less traffic.
  if (!std::as_const(*backing_->device()).health().allows_readahead()) {
    return Status::Ok();
  }
  telemetry::ChildSpan readahead_span(vcpu.clock(), telemetry::SpanPhase::kReadahead, file_page);
  const uint32_t window = runtime_->options().readahead_pages;

  uint64_t first = file_page + 1;
  const uint64_t last = file_page + window;
  const bool track_stream = advice_.load(std::memory_order_relaxed) == Advice::kSequential;
  std::atomic<uint64_t>& stream_mark = ReadaheadMark(vcpu);
  if (track_stream) {
    // Fills are invisible to the hash until published; start past the
    // high-water mark so a re-armed window extends the stream instead of
    // resubmitting fills still in flight.
    const uint64_t mark = stream_mark.load(std::memory_order_relaxed);
    if (first + window < mark) {
      // Faulting more than a window below the mark means a new stream over
      // ground already covered (e.g. a second scan of the file): retreat the
      // mark so the window re-opens here. A monotonic mark would silently
      // disable readahead at every offset below a previous scan's end. A
      // duplicate fill racing a straggler from the old stream is benign —
      // the losing completion is discarded at publication.
      stream_mark.store(first, std::memory_order_relaxed);
    } else {
      first = std::max(first, mark);
      if (first > last) {
        return Status::Ok();
      }
    }
  }
  uint64_t advance_to;
  Status status = FillPages(vcpu, first, last, /*demand=*/false, &advance_to);
  if (track_stream && status.ok() && stream_mark.load(std::memory_order_relaxed) < advance_to) {
    stream_mark.store(advance_to, std::memory_order_relaxed);
  }
  return status;
}

Status AquilaMap::FillPages(Vcpu& vcpu, uint64_t first, uint64_t last, bool demand,
                            uint64_t* stopped_at) {
  PageCache& cache = runtime_->cache();
  // Each fill is prepared under its page's entry lock and the stretch is
  // submitted under one engine lock; the entry locks drop after submission.
  // The frames stay kFilling — invisible to evictors and to Lookup — until
  // their completions publish them. The fault that wants a page either finds
  // it published (minor fault) or waits out its fill (AwaitFill) rather than
  // duplicating the read; submitting under the entry lock is what makes that
  // handshake race-free.
  constexpr size_t kStretch = 16;
  std::array<FillRequest, kStretch> fills;
  std::array<uint64_t, kStretch> locked;
  size_t n = 0;
  Status status;
  auto submit = [&] {
    size_t submitted = 0;
    Status s = engine_->SubmitFills(vcpu, std::span(fills.data(), n), &submitted);
    for (size_t i = submitted; i < n; i++) {
      cache.FreeFrame(vcpu.core(), fills[i].frame);
    }
    for (size_t i = 0; i < n; i++) {
      UnlockPage(locked[i]);
    }
    n = 0;
    return s;
  };
  uint64_t stop = last + 1;
  for (uint64_t file_page = first; file_page <= last && status.ok(); file_page++) {
    if (file_page >= vma_.page_count || (file_page + 1) * kPageSize > backing_->size_bytes()) {
      break;
    }
    uint64_t page = vma_.start_page + file_page;
    if (Pte::Present(runtime_->page_table().Lookup(page << kPageShift))) {
      continue;  // mapped: a hint taken without the lock, enough to skip a hit
    }
    Vma* vma;
    if (!runtime_->vma_tree().TryLockEntry(page, &vma)) {
      continue;
    }
    uint64_t key = MakeKey(vma_.mapping_id, file_page);
    // Under the entry lock both checks are authoritative: a page with a fill
    // in flight (another core's stream, whose mark this core does not see)
    // or already in the hash is never read twice.
    FrameId existing;
    if (engine_->HasPendingFill(key) || cache.Lookup(key, &existing)) {
      UnlockPage(page);
      continue;
    }
    ReuseStamp stamp;
    FrameId frame = cache.AllocFrame(vcpu, vcpu.core(), &stamp);
    if (frame == kInvalidFrame) {
      UnlockPage(page);
      stop = file_page;  // not covered: the fault path fetches it
      break;             // never evict for a queued fill
    }
    // Queued fills never elide (allow_elide=false): they can fail on paths
    // that free the frame asynchronously, where the elide-failure backstop
    // could not run. Any deferral the stamp or target page carries is
    // executed instead.
    (void)runtime_->ResolveReuseStamp(vcpu, stamp, frame, page, vma_.mapping_id,
                                      /*allow_elide=*/false);
    Frame& f = cache.frame(frame);
    f.key.store(key, std::memory_order_relaxed);
    // No translation yet: the actual access takes a minor fault. vaddr == 0
    // is also what marks the frame evictable without the entry lock.
    f.vaddr.store(0, std::memory_order_relaxed);
    fills[n] = FillRequest{frame, key, file_page * kPageSize, demand};
    locked[n] = page;
    if (++n == kStretch) {
      status = submit();
    }
  }
  if (n > 0) {
    status = submit();
  }
  if (stopped_at != nullptr) {
    *stopped_at = stop;
  }
  return status;
}

StatusOr<size_t> AquilaMap::EvictBatch(Vcpu& vcpu) {
  PageCache& cache = runtime_->cache();
  runtime_->fault_stats().direct_reclaims.fetch_add(1, std::memory_order_relaxed);
  const uint64_t evict_start = vcpu.clock().Now();
  // One child for the whole batch; writeback/shootdown below nest under it.
  telemetry::ChildSpan evict_span(vcpu.clock(), telemetry::SpanPhase::kEvict);

  std::vector<FrameId> victims(cache.eviction_batch());
  size_t n;
  {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    n = cache.SelectVictims(victims.size(), victims.data());
  }
  if (n == 0) {
    return size_t{0};
  }

  ReclaimBatch batch;
  batch.vpns.reserve(n);
  batch.to_free.reserve(n);
  {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    (void)ReclaimVictims(vcpu, std::span(victims.data(), n), ReclaimMode::kDirect, &batch);
  }

  if (!batch.planner.empty()) {
    telemetry::ChildSpan wb_span(vcpu.clock(), telemetry::SpanPhase::kWriteback,
                                 batch.planner.size());
    // Dirty victims go to the device while fault handling continues (async)
    // or before it does (sync). A failure is not a fault error: the planner
    // already charged each failing owner and restored its pages dirty, so
    // the round just makes less progress — and the shootdown plus release
    // below must still run, because every victim's PTE is already gone.
    (void)batch.planner.SubmitReclaim(vcpu, &batch.to_free);
  }

  size_t freed = runtime_->FinishReclaim(vcpu, batch, FreeLevel::kCoreFirst);
  runtime_->NoteReclaimFlush(vcpu, evict_start, freed);
  evict_span.set_arg(freed);
  return freed;
}

uint64_t AquilaMap::ReclaimAhead(Vcpu& vcpu) {
  PageCache& cache = runtime_->cache();
  PendingReclaim& pending = runtime_->pending_reclaim(vcpu.core());
  const ReclaimMarks marks = MarksFor(cache, runtime_->active_cores());
  const uint64_t start = vcpu.clock().Now();
  if (pending.frames.load(std::memory_order_relaxed) >= marks.bound) {
    // The batch is full: this fault pays its one shootdown and reclaims
    // nothing more, so no fault pays both a flush and a slice.
    std::lock_guard<SpinLock> guard(pending.lock);
    (void)runtime_->FlushPendingLocked(vcpu, pending, FreeLevel::kCoreFirst);
    return vcpu.clock().Now() - start;
  }
  const uint64_t supply =
      cache.ReachableFreeFrames(vcpu.core()) + pending.frames.load(std::memory_order_relaxed);
  if (supply >= marks.low) {
    return 0;
  }
  // One victim per fault holds the supply where it is; a core further
  // behind (after a dry flush, or when victims were handed back) takes two.
  const size_t want = supply + kSliceVictims < marks.low ? kSliceVictims : 1;
  telemetry::ChildSpan evict_span(vcpu.clock(), telemetry::SpanPhase::kEvict);
  bool write_back = false;
  {
    std::lock_guard<SpinLock> guard(pending.lock);
    size_t freed_now;
    {
      ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
      // The victims were chosen one fault ago and their lines prefetched
      // then: the eviction loop's prefetch-ahead, without holding a claim
      // across faults (a thread that stops faulting would strand the frame).
      std::array<FrameId, kSliceVictims> victims;
      size_t n = 0;
      size_t used = 0;
      for (; used < pending.candidate_count && n < want; used++) {
        if (cache.ClaimCandidate(pending.candidates[used])) {
          victims[n++] = pending.candidates[used];
        }
      }
      std::copy(pending.candidates.begin() + used,
                pending.candidates.begin() + pending.candidate_count,
                pending.candidates.begin());
      pending.candidate_count -= used;
      freed_now = ReclaimVictims(vcpu, std::span(victims.data(), n), ReclaimMode::kAhead,
                                 &pending.batch);
      FrameId* next = pending.candidates.data() + pending.candidate_count;
      const size_t found =
          cache.NextCandidates(&pending.sweep, kSliceVictims - pending.candidate_count,
                               kCandidateSteps, next, &pending.dirty_passed);
      for (size_t i = 0; i < found; i++) {
        PrefetchVictim(next[i]);
      }
      pending.candidate_count += found;
    }
    if (freed_now > 0) {
      runtime_->fault_stats().evicted_pages.fetch_add(freed_now, std::memory_order_relaxed);
    }
    AQUILA_RACE_POINT("reclaim.pending.append");
    pending.frames.store(static_cast<uint32_t>(pending.batch.to_free.size()),
                         std::memory_order_relaxed);
    evict_span.set_arg(pending.batch.to_free.size());
    // Cold dirty frames are the clock's victims too, and only the batch path
    // writes them back. A dry allocation runs it; so does the fault whose
    // sweep has passed half the cache's worth of them, lest clean victims
    // keep them cached unwritten indefinitely.
    if (pending.dirty_passed >= cache.capacity_pages() / 2) {
      pending.dirty_passed = 0;
      write_back = true;
    }
  }
  if (write_back) {
    (void)EvictBatch(vcpu);  // a best-effort slice: a failed writeback only frees less
  }
  return vcpu.clock().Now() - start;
}

void AquilaMap::PrefetchVictim(FrameId frame) const {
  // Read unclaimed for a candidate: a stale identity only wastes a prefetch.
  // The frame's own line is requested for writing too: the claim CAS and
  // the release store that free the frame both write it.
  const Frame& f = runtime_->cache().frame(frame);
  PrefetchForWrite(&f);
  const uint64_t vaddr = f.vaddr.load(std::memory_order_relaxed);
  runtime_->cache().PrefetchMapping(f.key.load(std::memory_order_relaxed));
  if (vaddr != 0) {
    runtime_->vma_tree().PrefetchEntry(vaddr >> kPageShift);
    runtime_->page_table().Prefetch(vaddr);
  }
}

size_t AquilaMap::ReclaimVictims(Vcpu& vcpu, std::span<const FrameId> victims, ReclaimMode mode,
                                 ReclaimBatch* batch) {
  PageCache& cache = runtime_->cache();
  VmaTree& tree = runtime_->vma_tree();
  // Software pipeline: each victim's reclaim stalls on three cold lines
  // (its VMA entry, its PTE, its hash home slot), so request them
  // kReclaimPrefetchAhead victims early. The caller's kCacheMgmt scope
  // consumes them, so what they save shows up as a shorter measured scope
  // rather than as work moved off the sim clock.
  const size_t n = victims.size();
  // A slice's victims were prefetched when the sweep chose them.
  for (size_t i = 0; mode == ReclaimMode::kDirect && i < std::min(n, kReclaimPrefetchAhead);
       i++) {
    PrefetchVictim(victims[i]);
  }
  size_t freed_now = 0;
  for (size_t i = 0; i < n; i++) {
    if (i + kReclaimPrefetchAhead < n) {
      PrefetchVictim(victims[i + kReclaimPrefetchAhead]);
    }
    FrameId frame = victims[i];
    Frame& f = cache.frame(frame);
    // The claim CAS (SelectVictims, ClaimCandidate; acquire) synchronizes
    // with the publisher's kResident release store, so the identity fields
    // read below are the published values; we own them until the frame is
    // freed or republished.
    uint64_t vaddr = f.vaddr.load(std::memory_order_relaxed);
    uint64_t page = vaddr >> kPageShift;
    if (vaddr == 0) {
      // Read-ahead page with no translation yet: evictable without a
      // lock or a shootdown.
      cache.RemoveMapping(f.key.load(std::memory_order_relaxed));
      if (mode == ReclaimMode::kAhead) {
        cache.FreeFrame(vcpu.core(), frame);
        freed_now++;
      } else {
        batch->to_free.push_back(frame);
      }
      continue;
    }
    Vma* vma;
    if (!tree.TryLockEntry(page, &vma)) {
      // A fault in flight on that page: give it a second chance.
      f.referenced.store(1, std::memory_order_relaxed);
      f.state.store(FrameState::kResident, std::memory_order_release);
      continue;
    }
    if (mode == ReclaimMode::kAhead && f.dirty.load(std::memory_order_relaxed) != 0) {
      // Dirtied since the sweep chose it: writeback stays on the batch
      // path, so hand it back with a second chance.
      f.referenced.store(1, std::memory_order_relaxed);
      f.state.store(FrameState::kResident, std::memory_order_release);
      tree.UnlockEntry(page);
      continue;
    }
    // Clean victims stay on the batched shootdown even under kReuseElide.
    // Bulk eviction recycles frames across owners almost always once
    // several cores churn, so deferring here trades the batch clamp
    // (~tlb_full_flush amortized over the whole batch) for one retail
    // invalidate/IPI per recycled frame — measured as a net loss beyond a
    // few cores. The deferral is scoped to Advise(kDontNeed), where a
    // discard-then-retouch by the same owner is the expected pattern
    // (DESIGN.md §10).
    static_cast<AquilaMap*>(vma->backing)
        ->ReclaimPage(vcpu, frame, page, /*defer_clean=*/false, batch);
  }
  return freed_now;
}

void AquilaMap::ReclaimPage(Vcpu& vcpu, FrameId frame, uint64_t page, bool defer_clean,
                            ReclaimBatch* batch) {
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  const uint64_t file_page = page - vma_.start_page;
  const uint64_t vaddr = f.vaddr.load(std::memory_order_relaxed);
  if (spans_ != nullptr) {
    // Demote-before-sweep: Remove() refuses to descend through a 2 MB leaf,
    // so reclaiming a huge-covered page without splitting first would free
    // the frame while its translation stays live.
    DemoteSpanForPage(vcpu, file_page);
  }
  if (vaddr != 0) {
    uint64_t old_pte = runtime_->page_table().Remove(vaddr);
    if (Pte::Present(old_pte)) {
      NotePteRemoved(file_page);
    }
    if (transparent_base_ != nullptr) {
      TrapDriver::RemoveRealMapping(vaddr);
    }
  }
  // Unified capture rule (CaptureShootdownPage): frame claimed (kEvicting)
  // and entry lock held, PTE removed above — after this point a completion
  // or FreeFrame may recycle the frame, so the routing state must travel
  // with the batch (or the deferral).
  PageShootdown captured = CaptureShootdownPage(f, page);
  if (f.dirty.load(std::memory_order_relaxed) != 0) {
    // Dirty pages are never deferred: the shootdown must precede the write.
    batch->vpns.push_back(captured);
    NoteWriteClaimed(vcpu);
    cache.ClearDirty(frame);
    batch->planner.AddReclaim(WritebackItem{f.dirty_item.sort_key, file_page * kPageSize,
                                            cache.FrameData(vcpu, frame), frame, this});
    return;
  }
  cache.RemoveMapping(f.key.load(std::memory_order_relaxed));
  ReuseStamp stamp;
  if (defer_clean && vaddr != 0) {
    // A discard-then-retouch is exactly the same-owner reuse the elision
    // targets — a clean page's refill re-reads the same device bytes, so
    // the stale translations stay harmless until the frame changes hands.
    stamp = runtime_->DeferPageShootdown(captured, vma_.mapping_id, vcpu.core(), frame);
  } else {
    batch->vpns.push_back(captured);
  }
  UnlockPage(page);
  if (stamp.valid) {
    // Earlier entries of to_free carry no stamp; stamps stays a prefix of it.
    batch->stamps.resize(batch->to_free.size());
    batch->stamps.push_back(stamp);
  }
  batch->to_free.push_back(frame);
}

Status AquilaMap::Read(uint64_t offset, std::span<uint8_t> dst) {
  if (offset + dst.size() > length_) {
    return Status::InvalidArgument("read beyond mapping");
  }
  if (dst.size() > kPageSize - offset % kPageSize) {
    // One device wait for the whole range (DESIGN.md §8): every missing page
    // after the first goes to the queue before the walk faults the first, so
    // their reads overlap its read; the walk then finds each one published
    // or still in flight (AwaitFill).
    (void)FillPages(ThisVcpu(), (offset >> kPageShift) + 1,
                    (offset + dst.size() - 1) >> kPageShift, /*demand=*/true);
  }
  uint64_t done = 0;
  while (done < dst.size()) {
    uint64_t in_page = (offset + done) % kPageSize;
    uint64_t run = std::min<uint64_t>(dst.size() - done, kPageSize - in_page);
    StatusOr<PageRef> ref = AccessPage(offset + done, /*write=*/false);
    if (!ref.ok()) {
      return ref.status();
    }
    std::memcpy(dst.data() + done, ref->data + in_page, run);
    UnlockPage(vma_.start_page + ((offset + done) >> kPageShift));
    if (ref->promote_span != kNoSpan) {
      MaybePromote(ThisVcpu(), ref->promote_span);
    }
    done += run;
  }
  return Status::Ok();
}

Status AquilaMap::Write(uint64_t offset, std::span<const uint8_t> src) {
  if (offset + src.size() > length_) {
    return Status::InvalidArgument("write beyond mapping");
  }
  uint64_t done = 0;
  while (done < src.size()) {
    uint64_t in_page = (offset + done) % kPageSize;
    uint64_t run = std::min<uint64_t>(src.size() - done, kPageSize - in_page);
    // A run that replaces its whole page needs none of the page's old bytes:
    // a miss fills the frame from the run instead of the device (DESIGN.md
    // §8). The run lies inside length_, so inside the backing too. Huge-page
    // mappings keep the device read.
    const uint8_t* overwrite =
        run == kPageSize && spans_ == nullptr ? src.data() + done : nullptr;
    StatusOr<PageRef> ref = AccessPage(offset + done, /*write=*/true, nullptr, overwrite);
    if (!ref.ok()) {
      return ref.status();
    }
    if (!ref->filled) {
      std::memcpy(ref->data + in_page, src.data() + done, run);
    }
    UnlockPage(vma_.start_page + ((offset + done) >> kPageShift));
    if (ref->promote_span != kNoSpan) {
      MaybePromote(ThisVcpu(), ref->promote_span);
    }
    done += run;
  }
  return Status::Ok();
}

AccessResult AquilaMap::TouchRead(uint64_t offset) {
  StatusOr<PageRef> ref = AccessPage(offset, /*write=*/false);
  if (!ref.ok()) {
    return AccessResult{/*faulted=*/false, ref.status()};
  }
  // One load from the page (the microbenchmark's access).
  volatile uint8_t sink = ref->data[offset % kPageSize];
  (void)sink;
  bool faulted = ref->faulted;
  UnlockPage(vma_.start_page + (offset >> kPageShift));
  if (ref->promote_span != kNoSpan) {
    MaybePromote(ThisVcpu(), ref->promote_span);
  }
  return AccessResult{faulted, Status::Ok()};
}

AccessResult AquilaMap::TouchWrite(uint64_t offset) {
  StatusOr<PageRef> ref = AccessPage(offset, /*write=*/true);
  if (!ref.ok()) {
    return AccessResult{/*faulted=*/false, ref.status()};
  }
  ref->data[offset % kPageSize]++;
  bool faulted = ref->faulted;
  UnlockPage(vma_.start_page + (offset >> kPageShift));
  if (ref->promote_span != kNoSpan) {
    MaybePromote(ThisVcpu(), ref->promote_span);
  }
  return AccessResult{faulted, Status::Ok()};
}

void AquilaMap::CoopStep(Vcpu& vcpu, CoreScheduler* sched, CoreScheduler::Task* task) {
  bool resumed = false;
  if (task->park_token != 0) {
    Status wake;
    if (!sched->ConsumeIfReady(task->park_token, &wake)) {
      return;  // still parked; its completion has not arrived
    }
    task->park_token = 0;
    const bool owner = task->owner_park;
    task->owner_park = false;
    if (owner && !wake.ok()) {
      // Our own demand fill failed (device EIO, watchdog kUnavailable /
      // kDeadlineExceeded): terminal. CompleteLocked already freed the frame.
      task->completion = MmioCompletion{task->request.user_tag, wake, /*faulted=*/true};
      task->done = true;
      return;
    }
    resumed = true;  // re-run the access from scratch; parks again if needed
  }

  const MmioRequest& req = task->request;
  if (req.kind == MmioRequest::Kind::kPrefetch) {
    uint64_t len = req.data.empty() ? kPageSize : req.data.size();
    Status status = Advise(req.offset, len, Advice::kWillNeed);
    task->completion = MmioCompletion{req.user_tag, status, /*faulted=*/false};
    task->done = true;
    return;
  }
  if (!req.data.empty()) {
    // Bulk transfers run synchronously for now; only touch accesses park.
    Status status =
        req.kind == MmioRequest::Kind::kWrite
            ? Write(req.offset, std::span<const uint8_t>(req.data.data(), req.data.size()))
            : Read(req.offset, req.data);
    task->completion = MmioCompletion{req.user_tag, status, /*faulted=*/false};
    task->done = true;
    return;
  }

  CoopContext ctx;
  ctx.sched = sched;
  ctx.resumed = resumed;
  const bool write = req.kind == MmioRequest::Kind::kWrite;
  StatusOr<PageRef> ref = AccessPage(req.offset, write, &ctx);
  if (ctx.parked) {
    task->park_token = ctx.token;
    task->owner_park = ctx.owner_park;
    task->completion.faulted = true;  // parked at a fault-path wait point
    return;
  }
  if (!ref.ok()) {
    task->completion = MmioCompletion{req.user_tag, ref.status(), task->completion.faulted};
    task->done = true;
    return;
  }
  uint64_t in_page = req.offset % kPageSize;
  if (write) {
    ref->data[in_page]++;
  } else {
    volatile uint8_t sink = ref->data[in_page];
    (void)sink;
  }
  const bool faulted = ref->faulted || task->completion.faulted;
  UnlockPage(vma_.start_page + (req.offset >> kPageShift));
  if (ref->promote_span != kNoSpan) {
    MaybePromote(vcpu, ref->promote_span);
  }
  task->completion = MmioCompletion{req.user_tag, Status::Ok(), faulted};
  task->done = true;
}

Status AquilaMap::SubmitBatch(std::span<const MmioRequest> requests) {
  SchedRegistry* registry = runtime_->sched();
  if (registry == nullptr) {
    return MemoryMap::SubmitBatch(requests);  // synchronous fallback
  }
  CoreScheduler* sched = registry->ForCore(ThisVcpu().core());
  for (const MmioRequest& req : requests) {
    sched->Enqueue(this, req);
  }
  return Status::Ok();
}

size_t AquilaMap::Poll(std::span<MmioCompletion> out) {
  SchedRegistry* registry = runtime_->sched();
  if (registry == nullptr) {
    return MemoryMap::Poll(out);
  }
  if (out.empty()) {
    return 0;
  }
  Vcpu& vcpu = ThisVcpu();
  CoreScheduler* sched = registry->ForCore(vcpu.core());
  SpinBackoff backoff;
  uint64_t idle_rounds = 0;
  while (true) {
    const size_t ran = sched->RunReady(vcpu);
    size_t n = sched->PopCompleted(this, out);
    if (n > 0 || !sched->HasTasks(this)) {
      return n;
    }
    // Every remaining task is parked on a device completion: reap, advancing
    // simulated time when nothing is ready, then re-run the woken tasks.
    size_t freed;
    {
      telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
      freed = runtime_->HarvestAsyncWritebacks(vcpu, HarvestMode::kWaitOne);
    }
    if (ran > 0 || freed > 0) {
      idle_rounds = 0;
    } else if (++idle_rounds >= kPollNoProgressRounds) {
      // Every round re-parks the same tasks and nothing completes: a park
      // whose wake cannot come. Report it instead of spinning forever.
      runtime_->FailPollNoProgress(vcpu, *sched, idle_rounds);
    }
    if (freed == 0 && engine_->in_flight() == 0) {
      // Nothing in flight on this mapping yet tasks are still parked (e.g.
      // another thread's harvest consumed the completion between our
      // RunReady and this check, or an evictor marked the page kWritingBack
      // and has not submitted its write yet). Re-running from scratch is
      // always correct.
      sched->KickParked();
      backoff.Pause();
    }
  }
}

Status AquilaMap::Sync(uint64_t offset, uint64_t length) {
  if (offset + length > AlignUp(length_, kPageSize) || length == 0) {
    return Status::InvalidArgument("bad msync range");
  }
  Vcpu& vcpu = ThisVcpu();
  AQUILA_TELEMETRY_ONLY(const uint64_t msync_start = vcpu.clock().Now());
  telemetry::RequestSpan req_span(vcpu.clock(), telemetry::SpanOp::kMsync, offset);

  // Every held MS_ASYNC page goes out first, in the range or not, and the
  // pipeline empties: an msync settles every write advised before it.
  if (engine_->busy() || engine_->holding()) {
    telemetry::ChildSpan drain_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
    (void)engine_->Drain(vcpu);
  }

  const uint64_t first_page = offset >> kPageShift;
  const uint64_t last_page = (offset + length - 1) >> kPageShift;
  // A page claimed by another owner (an evictor, a held-page release) before
  // the trees are read is listed nowhere but in that owner's write, which
  // DirtyPages lets reach the engine; there AwaitWritebacks waits for it. If
  // it fails, its page is dirty again and restored_writes_ has moved.
  uint64_t restored = restored_writes_.load(std::memory_order_acquire);
  std::vector<uint64_t> pages = DirtyPages(vcpu, first_page, last_page);
  // Each round claims and writes what it can, as MS_ASYNC does
  // (WriteBackHeld), then waits out every write in the range, its own and
  // other owners'. The next round takes the pages it could not claim (busy,
  // or another owner's claim still dirty or mid-write) and, after a failed
  // write, those the trees list again. A page this msync wrote is not taken
  // again, so a writer re-dirtying it cannot keep msync looping.
  Status result;
  std::vector<uint64_t> written;
  std::vector<uint64_t> busy;
  SpinBackoff backoff;
  while (true) {
    const size_t written_before = written.size();
    if (!pages.empty()) {
      telemetry::ChildSpan wb_span(vcpu.clock(), telemetry::SpanPhase::kWriteback, pages.size());
      WriteBackHeld(vcpu, pages, &result, &busy, &written);
    }
    {
      telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
      engine_->AwaitWritebacks(vcpu, first_page, last_page);
    }
    if (const uint64_t now = restored_writes_.load(std::memory_order_acquire); now != restored) {
      restored = now;
      std::sort(written.begin(), written.end());
      for (uint64_t page : DirtyPages(vcpu, first_page, last_page)) {
        if (!std::binary_search(written.begin(), written.end(), page)) {
          busy.push_back(page);
        }
      }
      std::sort(busy.begin(), busy.end());
      busy.erase(std::unique(busy.begin(), busy.end()), busy.end());
    }
    if (busy.empty()) {
      break;
    }
    if (written.size() == written_before) {
      backoff.Pause();  // only busy pages this round: let their owners finish
    }
    pages.swap(busy);
    busy.clear();
  }
  if (result.ok()) {
    result = backing_->Flush(vcpu);
    if (!result.ok() && !written.empty()) {
      NoteWritebackResult(result);
    }
  }
  if (!result.ok()) {
    return result;
  }
  AQUILA_TELEMETRY_ONLY(
      telemetry::RecordSpanSince(GetFaultMetrics().msync, vcpu.clock(), msync_start));
  return Status::Ok();
}

void AquilaMap::WriteProtect(uint64_t vaddr) {
  std::atomic<uint64_t>* pte = vaddr != 0 ? runtime_->page_table().WalkExisting(vaddr) : nullptr;
  if (pte == nullptr) {
    return;
  }
  pte->fetch_and(~(Pte::kWritable | Pte::kDirty), std::memory_order_acq_rel);
  if (transparent_base_ != nullptr && Pte::Present(pte->load(std::memory_order_relaxed))) {
    TrapDriver::DowngradeRealMapping(vaddr);
  }
}

void AquilaMap::WriteBackHeld(Vcpu& vcpu, std::span<const uint64_t> file_pages,
                              Status* result, std::vector<uint64_t>* busy,
                              std::vector<uint64_t>* written) {
  PageCache& cache = runtime_->cache();
  WritebackPlanner planner;
  std::vector<PageShootdown> vpns;
  for (uint64_t file_page : file_pages) {
    const uint64_t page = vma_.start_page + file_page;
    Vma* vma;
    if (!runtime_->vma_tree().TryLockEntry(page, &vma)) {
      // A fault in flight there, or the mapping is going away.
      if (busy != nullptr) {
        busy->push_back(file_page);
      }
      continue;
    }
    const uint64_t key = MakeKey(vma_.mapping_id, file_page);
    FrameId frame;
    if (!cache.Peek(key, &frame)) {
      UnlockPage(page);
      continue;  // evicted (and so written) since it was found dirty
    }
    Frame& f = cache.frame(frame);
    FrameState expected = FrameState::kResident;
    if (!f.state.compare_exchange_strong(expected, FrameState::kWritingBack,
                                         std::memory_order_acq_rel)) {
      // An evictor, a fill or another writeback owns it. A clean claimed
      // frame is that owner's to write; a dirty one, or one whose write is
      // in flight and may fail, may still need this caller.
      if (busy != nullptr && (expected == FrameState::kWritingBack ||
                              f.dirty.load(std::memory_order_relaxed) != 0)) {
        busy->push_back(file_page);
      }
      UnlockPage(page);
      continue;
    }
    if (f.key.load(std::memory_order_relaxed) != key ||
        f.dirty.load(std::memory_order_relaxed) == 0) {
      // Recycled, or written since it was found dirty: nothing to write.
      f.state.store(FrameState::kResident, std::memory_order_release);
      UnlockPage(page);
      continue;
    }
    AQUILA_RACE_POINT("writeback.release.claim");
    NoteWriteClaimed(vcpu);
    {
      ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
      cache.ClearDirty(frame);
    }
    // Under the entry lock no access is mid-store through the writable
    // translation, and the next store takes the write-upgrade fault, which
    // re-dirties the page.
    WriteProtect(f.vaddr.load(std::memory_order_relaxed));
    // Unified capture rule (CaptureShootdownPage): frame claimed
    // (kWritingBack), W bit cleared above; the page stays mapped, so the
    // mask is read but not cleared.
    vpns.push_back(CaptureShootdownPage(f, page));
    UnlockPage(page);
    planner.Add(WritebackItem{SortKey(file_page * kPageSize), file_page * kPageSize,
                              cache.FrameData(vcpu, frame), frame, this, result});
    if (written != nullptr) {
      written->push_back(file_page);
    }
  }
  if (planner.empty()) {
    return;
  }
  // One shootdown for the whole release, before any write reads a page.
  runtime_->ShootdownPages(vcpu, vpns);
  AQUILA_RACE_POINT("writeback.release.submit");
  (void)planner.SubmitQueued(vcpu, /*keep_resident=*/true);
}

Status AquilaMap::Advise(uint64_t offset, uint64_t length, Advice advice) {
  Vcpu& vcpu = ThisVcpu();
  PageCache& cache = runtime_->cache();
  switch (advice) {
    case Advice::kNormal:
    case Advice::kRandom:
    case Advice::kSequential:
      advice_.store(advice, std::memory_order_relaxed);
      if (advice == Advice::kSequential) {
        // A fresh kSequential hint starts a new stream: re-open the
        // readahead window wherever the next fault lands.
        for (std::atomic<uint64_t>& mark : next_readahead_) {
          mark.store(0, std::memory_order_relaxed);
        }
      }
      return Status::Ok();
    case Advice::kWillNeed: {
      // Queue the range's missing pages, never evicting. Best effort, and
      // shed by a sick device like read-ahead.
      if (std::as_const(*backing_->device()).health().allows_readahead()) {
        uint64_t first = offset >> kPageShift;
        uint64_t last = std::min((offset + length - 1) >> kPageShift, vma_.page_count - 1);
        (void)FillPages(vcpu, first, last, /*demand=*/false);
      }
      return Status::Ok();
    }
    case Advice::kWriteBack: {
      // Hold the range's dirty pages for a background write (DESIGN.md §8).
      // Each is found by key: walking the per-core dirty trees per call
      // costs more than the write saves.
      uint64_t first = offset >> kPageShift;
      uint64_t last = std::min((offset + length - 1) >> kPageShift, vma_.page_count - 1);
      std::array<uint64_t, 16> dirty;
      size_t n = 0;
      for (uint64_t file_page = first; file_page <= last; file_page++) {
        FrameId frame;
        if (cache.Peek(MakeKey(vma_.mapping_id, file_page), &frame) &&
            cache.frame(frame).dirty.load(std::memory_order_relaxed) != 0) {
          dirty[n++] = file_page;
        }
        if (n == dirty.size() || (n > 0 && file_page == last)) {
          engine_->HoldWritebacks(vcpu, std::span(dirty.data(), n));
          n = 0;
        }
      }
      return Status::Ok();
    }
    case Advice::kDontNeed: {
      uint64_t first = offset >> kPageShift;
      uint64_t last = std::min((offset + length - 1) >> kPageShift, vma_.page_count - 1);
      const bool reuse_defer =
          runtime_->options().shootdown_mask_mode == ShootdownMaskMode::kReuseElide;
      ReclaimBatch batch;
      for (uint64_t file_page = first; file_page <= last; file_page++) {
        uint64_t page = vma_.start_page + file_page;
        Vma* vma;
        if (!runtime_->vma_tree().TryLockEntry(page, &vma)) {
          continue;
        }
        uint64_t key = MakeKey(vma_.mapping_id, file_page);
        FrameId frame;
        if (!cache.Peek(key, &frame)) {
          UnlockPage(page);
          continue;
        }
        Frame& f = cache.frame(frame);
        FrameState expected = FrameState::kResident;
        if (!f.state.compare_exchange_strong(expected, FrameState::kEvicting,
                                             std::memory_order_acq_rel)) {
          UnlockPage(page);
          continue;
        }
        if (f.key.load(std::memory_order_relaxed) != key) {
          // A read-ahead frame (evictable without our entry lock) was freed
          // and recycled between the lookup and the claim; it is not ours.
          f.state.store(FrameState::kResident, std::memory_order_release);
          UnlockPage(page);
          continue;
        }
        ReclaimPage(vcpu, frame, page, reuse_defer, &batch);
      }
      // Failed dirty pages stay cached and dirty and madvise reports the
      // EIO; the clean pages are still dropped.
      Status status = batch.planner.SubmitReclaim(vcpu, &batch.to_free);
      (void)runtime_->FinishReclaim(vcpu, batch, FreeLevel::kCoreFirst);
      return status;
    }
  }
  return Status::InvalidArgument("unknown advice");
}

// --- Transparent 2 MB huge pages (DESIGN.md §14) -----------------------------

void AquilaMap::FaultAround(Vcpu& vcpu, uint64_t file_page) {
  const uint32_t budget = runtime_->options().fault_around_pages;
  if (budget == 0) {
    return;
  }
  PageCache& cache = runtime_->cache();
  // Forward window, clamped to this 2 MB span (like Linux's PMD-bounded
  // fault-around) and to the mapping.
  const uint64_t span_end = (SpanOf(file_page) + 1) * kSpanPages;
  const uint64_t last =
      std::min({file_page + budget, span_end - 1, vma_.page_count - 1});
  uint64_t mapped = 0;
  uint64_t highest = 0;
  ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
  for (uint64_t fp = file_page + 1; fp <= last; fp++) {
    uint64_t page = vma_.start_page + fp;
    uint64_t vaddr = page << kPageShift;
    Vma* vma;
    if (!runtime_->vma_tree().TryLockEntry(page, &vma)) {
      continue;
    }
    if (Pte::Present(runtime_->page_table().Lookup(vaddr))) {
      UnlockPage(page);
      continue;
    }
    uint64_t key = MakeKey(vma_.mapping_id, fp);
    FrameId frame;
    if (!cache.Lookup(key, &frame)) {
      UnlockPage(page);
      continue;
    }
    Frame& f = cache.frame(frame);
    // Pin before touching, exactly like the minor-fault path: a readahead
    // frame (vaddr == 0) is evictable without our entry lock.
    FrameState expected = FrameState::kResident;
    if (!f.state.compare_exchange_strong(expected, FrameState::kFilling,
                                         std::memory_order_acq_rel)) {
      UnlockPage(page);
      continue;  // fill/eviction/writeback in flight; it can fault in later
    }
    if (f.key.load(std::memory_order_relaxed) != key) {
      // Evicted and recycled for another page between lookup and pin.
      f.state.store(FrameState::kResident, std::memory_order_release);
      UnlockPage(page);
      continue;
    }
    runtime_->ResolveDeferredForVpn(vcpu, page, frame);
    f.vaddr.store(vaddr, std::memory_order_relaxed);
    AQUILA_RACE_POINT("huge.fault_around.pre_install");
    // Read-only even when the triggering fault was a write: the neighbor
    // itself was not written, and its first write takes the upgrade fault.
    AQUILA_CHECK(runtime_->page_table().Install(
        vaddr, static_cast<uint64_t>(frame) << kPageShift, Pte::kAccessed));
    NotePteInstalled(fp);
    f.referenced.store(1, std::memory_order_relaxed);
    f.state.store(FrameState::kResident, std::memory_order_release);
    UnlockPage(page);
    mapped++;
    highest = fp;
  }
  if (mapped == 0) {
    return;
  }
  runtime_->huge_stats().fault_around_mapped.fetch_add(mapped, std::memory_order_relaxed);
  // Fault-around consumed these pages: advance the readahead high-water mark
  // past them so the windowed prefetcher does not resubmit their fills.
  std::atomic<uint64_t>& mark = ReadaheadMark(vcpu);
  if (mark.load(std::memory_order_relaxed) < highest + 1) {
    mark.store(highest + 1, std::memory_order_relaxed);
  }
}

bool AquilaMap::PromotionEligible(uint64_t span) const {
  const uint32_t threshold = runtime_->options().huge_promote_threshold;
  if (threshold == 0) {
    return false;  // fault-around only; never promote
  }
  // Only full-size spans promote: the 2 MB leaf maps all kSpanPages pages,
  // so every one must exist in both the mapping and the backing file.
  if ((span + 1) * kSpanPages > vma_.page_count ||
      (span + 1) * kSpanPages * kPageSize > backing_->size_bytes()) {
    return false;
  }
  const HugeSpan& s = spans_[span];
  if (static_cast<SpanState>(s.state.load(std::memory_order_acquire)) != SpanState::k4K) {
    return false;
  }
  // An explicit sequential hint promotes on first touch (the madvise analog
  // of MADV_HUGEPAGE); otherwise wait for the density signal.
  uint32_t needed = advice_.load(std::memory_order_relaxed) == Advice::kSequential
                        ? 1
                        : std::min<uint32_t>(threshold, kSpanPages);
  return s.resident.load(std::memory_order_relaxed) >= needed;
}

void AquilaMap::MaybePromote(Vcpu& vcpu, uint64_t span) {
  HugeSpan& s = spans_[span];
  // Cheap pre-check: without an intact run the full protocol (512 TryLocks,
  // up to 512 claims, unwind) can only discover the same answer the hard
  // way — and a dense span that cannot promote re-arms on EVERY fault, so
  // the waste compounds. Approximate is fine: a lost race just aborts below.
  if (!runtime_->cache().RunAvailable()) {
    runtime_->huge_stats().promote_aborts.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint8_t expected = static_cast<uint8_t>(SpanState::k4K);
  if (!s.state.compare_exchange_strong(expected, static_cast<uint8_t>(SpanState::kPromoting),
                                       std::memory_order_acq_rel)) {
    return;  // another promoter or a demotion won the span; not an abort
  }
  if (!TryPromote(vcpu, span)) {
    runtime_->huge_stats().promote_aborts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AquilaMap::TryPromote(Vcpu& vcpu, uint64_t span) {
  PageCache& cache = runtime_->cache();
  HugeSpan& s = spans_[span];
  const uint64_t base_fp = span * kSpanPages;
  const uint64_t base_page = vma_.start_page + base_fp;
  const uint64_t base_vaddr = base_page << kPageShift;

  // (1) Entry locks for the whole span, TryLock only — this is what makes a
  // demoter's spin on kPromoting deadlock-free (see the SpanState comment).
  struct OldFrame {
    uint64_t fp;
    FrameId frame;
  };
  std::vector<OldFrame> old_frames;
  old_frames.reserve(kSpanPages);
  uint64_t locked = 0;
  FrameId run = kInvalidFrame;
  bool ok = true;
  for (; locked < kSpanPages; locked++) {
    Vma* vma;
    if (!runtime_->vma_tree().TryLockEntry(base_page + locked, &vma)) {
      ok = false;
      break;
    }
  }

  // (2) Claim every resident page of the span; abort on anything in flight
  // (writeback, eviction) or dirty — the 2 MB leaf is read-only, so
  // promoting over a dirty 4K page would lose its dirtiness. A readahead
  // fill in flight would publish into our hash slot mid-promotion; with
  // every entry lock of the span held no new one can start, so wait out the
  // ones in flight (outside the measured scope) and claim what they publish.
  if (ok) {
    engine_->AwaitFills(vcpu, MakeKey(vma_.mapping_id, base_fp),
                        MakeKey(vma_.mapping_id, base_fp + kSpanPages - 1));
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    for (uint64_t i = 0; i < kSpanPages; i++) {
      uint64_t key = MakeKey(vma_.mapping_id, base_fp + i);
      FrameId frame;
      if (!cache.Lookup(key, &frame)) {
        continue;  // not resident; the run fill below reads it from the device
      }
      Frame& f = cache.frame(frame);
      AQUILA_RACE_POINT("huge.promote.pre_claim");
      FrameState expected = FrameState::kResident;
      if (!f.state.compare_exchange_strong(expected, FrameState::kEvicting,
                                           std::memory_order_acq_rel)) {
        ok = false;  // a fill, writeback, or eviction owns the frame
        break;
      }
      if (f.key.load(std::memory_order_relaxed) != key ||
          f.dirty.load(std::memory_order_relaxed) != 0) {
        // Recycled under us, or dirty divergence: unclaim and abort.
        f.state.store(FrameState::kResident, std::memory_order_release);
        ok = false;
        break;
      }
      old_frames.push_back({base_fp + i, frame});
    }
  }

  // (3) The aligned frame run.
  if (ok) {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    run = cache.AllocRun(vcpu.core());
    ok = run != kInvalidFrame;
  }

  // (4) Fill the whole span with ONE batched device submission. Clean
  // resident pages equal the device bytes by definition, so re-reading the
  // full 2 MB is correct and keeps this a single request instead of a
  // scatter of copies plus a sub-batch read.
  if (ok) {
    std::vector<uint64_t> offsets(kSpanPages);
    std::vector<uint8_t*> buffers(kSpanPages);
    for (uint64_t i = 0; i < kSpanPages; i++) {
      offsets[i] = (base_fp + i) * kPageSize;
      buffers[i] = cache.FrameData(vcpu, run + static_cast<FrameId>(i));
    }
    Status fill;
    {
      telemetry::ChildSpan device_span(vcpu.clock(), telemetry::SpanPhase::kDevice,
                                       base_fp * kPageSize);
      fill = backing_->ReadPages(vcpu, offsets, buffers, kPageSize);
    }
    ok = fill.ok();
  }

  if (!ok) {
    // Unwind in reverse: run, claims, locks, span state.
    if (run != kInvalidFrame) {
      cache.FreeRun(vcpu.core(), run);
    }
    for (const OldFrame& of : old_frames) {
      cache.frame(of.frame).state.store(FrameState::kResident, std::memory_order_release);
    }
    for (uint64_t i = 0; i < locked; i++) {
      UnlockPage(base_page + i);
    }
    s.state.store(static_cast<uint8_t>(SpanState::k4K), std::memory_order_release);
    return false;
  }

  runtime_->huge_stats().runs_carved.fetch_add(1, std::memory_order_relaxed);

  // (5) Retire the 4K frames: PTE out, shootdown captured, mapping dropped,
  // frame freed — all under the entry locks, so no faulter can re-install.
  std::vector<PageShootdown> vpns;
  vpns.reserve(old_frames.size());
  std::vector<FrameId> retired;
  retired.reserve(old_frames.size());
  {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    for (const OldFrame& of : old_frames) {
      Frame& f = cache.frame(of.frame);
      uint64_t fvaddr = f.vaddr.load(std::memory_order_relaxed);
      if (fvaddr != 0) {
        uint64_t old_pte = runtime_->page_table().Remove(fvaddr);
        if (Pte::Present(old_pte)) {
          NotePteRemoved(of.fp);
        }
        // Unified capture rule (CaptureShootdownPage): frame claimed
        // (kEvicting), PTE removed above.
        vpns.push_back(CaptureShootdownPage(f, fvaddr >> kPageShift));
      }
      cache.RemoveMapping(MakeKey(vma_.mapping_id, of.fp));
      retired.push_back(of.frame);
    }
    // One batched free to the NUMA level: up to 512 frames retired at a
    // stroke would vanish into this core's queue (under the overflow
    // threshold) while other cores, out of singles and runs, spin through
    // empty eviction sweeps waiting for exactly these frames.
    cache.FreeFrames(vcpu.core(), retired, FreeLevel::kNuma);

    // (6) Publish the run's frames as the span's residents: the cache keeps
    // seeing per-4K entries (msync, DONTNEED, and eviction stay
    // huge-oblivious up to the demote hooks), they just happen to be
    // id-contiguous.
    for (uint64_t i = 0; i < kSpanPages; i++) {
      FrameId frame = run + static_cast<FrameId>(i);
      uint64_t key = MakeKey(vma_.mapping_id, base_fp + i);
      uint64_t vaddr = (base_page + i) << kPageShift;
      runtime_->ResolveDeferredForVpn(vcpu, base_page + i, frame);
      Frame& f = cache.frame(frame);
      f.key.store(key, std::memory_order_relaxed);
      f.vaddr.store(vaddr, std::memory_order_relaxed);
      AQUILA_CHECK(cache.InsertMapping(key, frame));
      f.referenced.store(1, std::memory_order_relaxed);
      f.state.store(FrameState::kResident, std::memory_order_release);
    }
  }

  // (7) Shoot down the retired translations BEFORE the huge install: while
  // we hold every entry lock no new 4K TLB entry for the span can be minted,
  // so the flush cannot race a fresh insert.
  runtime_->ShootdownPages(vcpu, vpns);

  // (8) One 2 MB guest-PT leaf over the run, read-only — the first write
  // demotes (dirty divergence) rather than dirtying 2 MB at a stroke. The
  // guest PT's "GPA" space is frame_id << 12, where contiguous run frames
  // are exactly a 2 MB extent; the EPT-side assert checks the hypervisor-GPA
  // run (aligned by the freelist's carve anchor) sits under one large
  // mapping, i.e. the hardware could genuinely serve this as a huge page.
  {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kPageTable);
    AQUILA_RACE_POINT("huge.promote.pre_install");
    AQUILA_CHECK(runtime_->page_table().InstallHuge(
        base_vaddr, static_cast<uint64_t>(run) << kPageShift, Pte::kAccessed));
  }
  // Sub-2MB EPT chunks can never satisfy this (the run then spans chunks);
  // the promotion still works in the simulation, it just is not
  // hardware-realizable, so only assert when chunks are large enough.
  AQUILA_DCHECK(runtime_->hypervisor().chunk_size() < kHugePage2M ||
                runtime_->hypervisor().GuestEpt(runtime_->guest())
                        .MappedPageSize(cache.frame(run).gpa) >= kHugePage2M);

  s.run_first.store(run, std::memory_order_relaxed);
  AQUILA_DCHECK(s.resident.load(std::memory_order_relaxed) == 0);
  s.resident.store(0, std::memory_order_relaxed);
  s.state.store(static_cast<uint8_t>(SpanState::kHuge), std::memory_order_release);
  runtime_->huge_stats().promotions.fetch_add(1, std::memory_order_relaxed);

  for (uint64_t i = 0; i < kSpanPages; i++) {
    UnlockPage(base_page + i);
  }
  return true;
}

void AquilaMap::DemoteSpan(Vcpu& vcpu, uint64_t span) {
  HugeSpan& s = spans_[span];
  SpinBackoff backoff;
  while (true) {
    uint8_t state = s.state.load(std::memory_order_acquire);
    if (state == static_cast<uint8_t>(SpanState::k4K)) {
      return;
    }
    if (state == static_cast<uint8_t>(SpanState::kHuge)) {
      if (s.state.compare_exchange_strong(state, static_cast<uint8_t>(SpanState::kDemoting),
                                          std::memory_order_acq_rel)) {
        break;
      }
      continue;
    }
    // kPromoting or another demoter: wait it out. Safe even while holding
    // one entry lock of the span — the promoter only TryLocks, so it aborts
    // against our lock instead of blocking on it.
    backoff.Pause();
  }

  ScopedMeasure measure(vcpu.clock(), CostCategory::kPageTable);
  uint64_t base_vaddr = (vma_.start_page + span * kSpanPages) << kPageShift;
  AQUILA_RACE_POINT("huge.demote.pre_split");
  uint64_t huge = runtime_->page_table().SplitHuge(base_vaddr);
  AQUILA_CHECK(Pte::Huge(huge));
  // No shootdown: the 512 fresh 4K PTEs translate identically to the huge
  // leaf (same frames, same read-only flags), so every cached TLB entry
  // stays correct through the split.
  s.run_first.store(kInvalidFrame, std::memory_order_relaxed);
  s.resident.store(static_cast<uint32_t>(kSpanPages), std::memory_order_relaxed);
  s.state.store(static_cast<uint8_t>(SpanState::k4K), std::memory_order_release);
  runtime_->huge_stats().demotions.fetch_add(1, std::memory_order_relaxed);
  // The run's frames now evict/writeback/discard individually; the run
  // fragments and its frames return to the freelist as singles.
}

void AquilaMap::DemoteSpanForPage(Vcpu& vcpu, uint64_t file_page) {
  uint64_t span = SpanOf(file_page);
  if (span >= span_count_) {
    return;
  }
  if (static_cast<SpanState>(spans_[span].state.load(std::memory_order_acquire)) !=
      SpanState::k4K) {
    DemoteSpan(vcpu, span);
  }
}

void AquilaMap::DemoteAllSpans(Vcpu& vcpu) {
  for (uint64_t span = 0; span < span_count_; span++) {
    DemoteSpan(vcpu, span);
  }
}

Status AquilaMap::Protect(int prot) {
  if ((prot & (kProtRead | kProtWrite)) == 0) {
    return Status::InvalidArgument("mprotect needs read or write");
  }
  Vcpu& vcpu = ThisVcpu();
  bool dropping_write = (vma_.prot & kProtWrite) != 0 && (prot & kProtWrite) == 0;
  vma_.prot = prot;
  if (!dropping_write) {
    return Status::Ok();
  }
  // Downgrade: clear W on every present PTE and shoot down stale entries.
  std::vector<PageShootdown> vpns;
  for (uint64_t i = 0; i < vma_.page_count; i++) {
    uint64_t vaddr = (vma_.start_page + i) << kPageShift;
    std::atomic<uint64_t>* pte = runtime_->page_table().WalkExisting(vaddr);
    if (pte == nullptr) {
      continue;
    }
    uint64_t old = pte->fetch_and(~Pte::kWritable, std::memory_order_acq_rel);
    if (Pte::Present(old) && Pte::Writable(old)) {
      if (transparent_base_ != nullptr) {
        TrapDriver::DowngradeRealMapping(vaddr);
      }
      // Unified capture rule (CaptureShootdownPage): this is the ONE
      // unclaimed site, by design — the atomic W clear above precedes the
      // capture, so a racing faulter can only insert a read-only entry and
      // a conservatively stale mask/epoch costs at most an elidable IPI.
      Frame& f = runtime_->cache().frame(static_cast<FrameId>(Pte::Gpa(old) >> kPageShift));
      vpns.push_back(CaptureShootdownPage(f, vma_.start_page + i));
    }
  }
  runtime_->ShootdownPages(vcpu, vpns);
  return Status::Ok();
}

}  // namespace aquila
