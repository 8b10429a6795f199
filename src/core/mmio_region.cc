#include "src/core/mmio_region.h"

#include <algorithm>
#include <cstring>
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

#if AQUILA_TELEMETRY_ENABLED
// Fault-path latency histograms, classified at handler exit (a fault only
// learns whether it was major, minor, or a write upgrade at the end).
struct FaultMetrics {
  Histogram* fault_major = telemetry::Registry().GetHistogram("aquila.core.fault_major_cycles");
  Histogram* fault_minor = telemetry::Registry().GetHistogram("aquila.core.fault_minor_cycles");
  Histogram* fault_upgrade =
      telemetry::Registry().GetHistogram("aquila.core.fault_upgrade_cycles");
  Histogram* evict_batch = telemetry::Registry().GetHistogram("aquila.core.evict_batch_cycles");
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
  if (runtime_->options().async_writeback) {
    engine_ = std::make_unique<AsyncWritebackEngine>(runtime_, this,
                                                     runtime_->options().async_queue_depth);
  }
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
  // unreachable; afterwards the sweep below cannot race with new faults.
  AQUILA_RETURN_IF_ERROR(runtime_->vma_tree().Remove(&vma_));

  // Reap every async writeback/fill still in flight: completions free their
  // frames or restore failures dirty-in-place, where the sweep below
  // re-collects them for the final synchronous pass.
  if (engine_ != nullptr) {
    (void)engine_->Drain(vcpu);
  }

  // Huge spans split back to 4K first: the sweep below removes PTEs page by
  // page, and Remove() on a vaddr covered by a 2 MB leaf no-ops — it would
  // silently leak the live translation and the whole run.
  DemoteAllSpans(vcpu);

  PageCache& cache = runtime_->cache();
  WritebackPlanner planner;
  std::vector<PageShootdown> vpns;
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < vma_.page_count; i++) {
    uint64_t page = vma_.start_page + i;
    uint64_t vaddr = page << kPageShift;
    uint64_t key = MakeKey(vma_.mapping_id, i);
    FrameId frame;
    if (!cache.Lookup(key, &frame)) {
      continue;
    }
    Frame& f = cache.frame(frame);
    // Claim against concurrent evictors.
    FrameState expected = FrameState::kResident;
    while (!f.state.compare_exchange_weak(expected, FrameState::kEvicting,
                                          std::memory_order_acq_rel)) {
      if (expected != FrameState::kResident) {
        if (engine_ != nullptr && expected == FrameState::kWritingBack) {
          // A concurrent evictor submitted this page between our drain and
          // the claim; reap until its completion resolves the frame.
          (void)engine_->WaitOne(vcpu);
        }
        CpuRelax();
        expected = FrameState::kResident;
        if (!cache.Lookup(key, &frame)) {
          break;  // evictor took it
        }
      }
    }
    if (f.state.load(std::memory_order_acquire) != FrameState::kEvicting ||
        f.key.load(std::memory_order_relaxed) != key) {
      continue;
    }
    (void)runtime_->page_table().Remove(vaddr);
    cache.RemoveMapping(key);
    // Unified capture rule (CaptureShootdownPage): frame claimed (kEvicting),
    // PTE removed above.
    vpns.push_back(CaptureShootdownPage(f, page));
    if (f.dirty.load(std::memory_order_relaxed) != 0) {
      cache.ClearDirty(frame);
      planner.Add(WritebackItem{SortKey(i * kPageSize), i * kPageSize,
                                cache.FrameData(vcpu, frame), frame, this});
    }
    frames.push_back(frame);
  }

  // A writeback error at teardown loses the unwritten dirty data (there is
  // nowhere left to requeue it — the mapping is going away), but it must
  // not leak frames, TLB entries, or the VA range: capture the first
  // failure, finish the teardown, and report it to the caller.
  Status result = planner.SubmitSync(vcpu);
  if (result.ok()) {
    result = backing_->Flush(vcpu);
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
                                                   CoopContext* coop) {
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
    StatusOr<FrameId> faulted = HandleFault(vcpu, vaddr, write, coop);
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
                                         CoopContext* coop) {
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
      bool found;
      {
        telemetry::ChildSpan lookup_span(vcpu.clock(), telemetry::SpanPhase::kCacheLookup);
        ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
        found = cache.Lookup(key, &frame);
      }
      if (!found) {
        if (engine_ != nullptr) {
          // An async read-ahead fill for this page may be in flight —
          // invisible until its completion publishes it into the hash. Wait
          // it out instead of issuing a duplicate device read, then re-check:
          // the fill may also have been published by a concurrent harvester
          // between our lookup and the engine lock.
          if (coop != nullptr && coop->sched != nullptr &&
              engine_->HasPendingFill(key)) {
            // Park point (a): someone else's fill is in flight for this page.
            // Reserve the parked-table entry FIRST, then re-check — the
            // completion's Wake runs under the engine lock we re-take in
            // HasPendingFill, so a completion that raced the reservation is
            // visible to the re-check and we cancel instead of sleeping on a
            // wake that already happened.
            uint64_t token = coop->sched->PrePark(key, kInvalidFrame);
            if (token != 0) {
              if (engine_->HasPendingFill(key)) {
                telemetry::ChildSpan park_span(vcpu.clock(),
                                               telemetry::SpanPhase::kPark, vaddr);
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
          bool drained;
          {
            telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
            drained = engine_->AwaitFill(vcpu, key);
          }
          bool hit;
          {
            telemetry::ChildSpan lookup_span(vcpu.clock(), telemetry::SpanPhase::kCacheLookup);
            ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
            hit = cache.Lookup(key, &frame);
          }
          if (hit) {
            if (drained && advice_.load(std::memory_order_relaxed) == Advice::kSequential) {
              // Landing on a page we had to wait for means the stream caught
              // up with the prefetcher: re-arm the window now (the minor-
              // fault path below won't), like the kernel's readahead marker.
              (void)ReadAhead(vcpu, file_page);
            }
            continue;
          }
        }
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
        // This install may map `page` onto a frame a pending deferral does
        // not cover (e.g. a readahead frame re-reading a previously evicted
        // file page): execute that deferral before the translation goes
        // live. One relaxed load when the deferred table is empty.
        runtime_->ResolveDeferredForVpn(vcpu, page, frame);
        telemetry::ChildSpan install_span(vcpu.clock(), telemetry::SpanPhase::kFillCopy, vaddr);
        ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
        f.vaddr.store(vaddr, std::memory_order_relaxed);
        uint64_t flags =
            write ? (Pte::kWritable | Pte::kDirty | Pte::kAccessed) : Pte::kAccessed;
        AQUILA_CHECK(runtime_->page_table().Install(
            vaddr, static_cast<uint64_t>(frame) << kPageShift, flags));
        NotePteInstalled(file_page);
        if (write && f.dirty.load(std::memory_order_relaxed) == 0) {
          cache.MarkDirty(vcpu.core(), frame, SortKey(file_page * kPageSize));
        }
        if (transparent_base_ != nullptr) {
          TrapDriver::InstallRealMapping(runtime_, vaddr, f.gpa, write);
        }
        f.state.store(FrameState::kResident, std::memory_order_release);
        runtime_->fault_stats().minor_faults.fetch_add(1, std::memory_order_relaxed);
        AQUILA_TELEMETRY_ONLY(
            telemetry::RecordSpanSince(GetFaultMetrics().fault_minor, vcpu.clock(), fault_start));
        return frame;
      }
      if (engine_ != nullptr && expected == FrameState::kWritingBack) {
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

  // Major fault: allocate a frame, evicting when the cache is full (§3.2:
  // batch of 512 — written back synchronously, or submitted to the device
  // queue with completions reaped as fault handling continues).
  ReuseStamp stamp;
  while (true) {
    {
      telemetry::ChildSpan alloc_span(vcpu.clock(), telemetry::SpanPhase::kCacheLookup);
      ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
      frame = cache.AllocFrame(vcpu, vcpu.core(), &stamp);
    }
    if (frame != kInvalidFrame) {
      break;
    }
    // Ready async completions hand frames back without any device waiting.
    {
      telemetry::ChildSpan harvest_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
      if (runtime_->HarvestAsyncWritebacks(vcpu) > 0) {
        continue;
      }
    }
    StatusOr<size_t> evicted = EvictBatch(vcpu);
    if (!evicted.ok()) {
      return evicted.status();
    }
    if (*evicted == 0) {
      telemetry::ChildSpan harvest_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
      if (runtime_->HarvestAsyncWritebacks(vcpu, HarvestMode::kWaitOne) == 0) {
        CpuRelax();  // every frame busy; another thread is making progress
      }
    }
  }

  // Resolve the frame's last-owner stamp before filling: same-owner reuse
  // elides the deferred shootdown outright (the stale translations point at
  // this frame, about to hold the same bytes again); any other pending
  // deferral — the stamp's or this page's — executes first (DESIGN.md §10).
  // This is the only elision-eligible allocation site, which keeps the
  // failure backstop below a single call. A cooperative demand fill forgoes
  // elision: its fill completes in CompleteLocked, where the failure
  // backstop below cannot run (same reason read-ahead fills never elide).
  const bool coop_fill = coop != nullptr && coop->sched != nullptr && engine_ != nullptr;
  const bool elided = runtime_->ResolveReuseStamp(vcpu, stamp, frame, page,
                                                  vma_.mapping_id,
                                                  /*allow_elide=*/!coop_fill);

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
      Status submit =
          engine_->SubmitFill(vcpu, frame, key, file_page * kPageSize, /*demand=*/true);
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

  Status fill = FillAndPublish(vcpu, frame, vaddr, key, write);
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

  if (advice_.load(std::memory_order_relaxed) == Advice::kSequential) {
    (void)ReadAhead(vcpu, file_page);  // best effort: a failed prefetch is not a fault error
  }
  AQUILA_TELEMETRY_ONLY(
      telemetry::RecordSpanSince(GetFaultMetrics().fault_major, vcpu.clock(), fault_start));
  return frame;
}

Status AquilaMap::FillAndPublish(Vcpu& vcpu, FrameId frame, uint64_t vaddr, uint64_t key,
                                 bool write) {
  PageCache& cache = runtime_->cache();
  Frame& f = cache.frame(frame);
  uint64_t file_page = FilePageOfKey(key);
  uint64_t file_offset = file_page * kPageSize;

  uint8_t* data = cache.FrameData(vcpu, frame);
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

Status AquilaMap::ReadAhead(Vcpu& vcpu, uint64_t file_page) {
  // A degraded/failed device sheds speculative prefetch first: demand reads
  // keep their queue slots and the sick medium sees less traffic.
  if (!backing_->device()->health().allows_readahead()) {
    return Status::Ok();
  }
  telemetry::ChildSpan readahead_span(vcpu.clock(), telemetry::SpanPhase::kReadahead, file_page);
  PageCache& cache = runtime_->cache();
  uint32_t window = runtime_->options().readahead_pages;
  std::vector<uint64_t> offsets;
  std::vector<uint8_t*> buffers;
  std::vector<FrameId> frames;
  std::vector<uint64_t> pages;

  uint64_t first = file_page + 1;
  const uint64_t last = file_page + window;
  const bool track_stream =
      engine_ != nullptr && advice_.load(std::memory_order_relaxed) == Advice::kSequential;
  if (track_stream) {
    // Async fills are invisible to the hash until published; start past the
    // high-water mark so a re-armed window extends the stream instead of
    // resubmitting fills still in flight.
    uint64_t mark = next_readahead_.load(std::memory_order_relaxed);
    if (first + window < mark) {
      // Faulting more than a window below the mark means a new stream over
      // ground already covered (e.g. a second scan of the file): retreat the
      // mark so the window re-opens here. A monotonic mark would silently
      // disable readahead at every offset below a previous scan's end. A
      // duplicate fill racing a straggler from the old stream is benign —
      // the losing completion is discarded at publication.
      next_readahead_.compare_exchange_strong(mark, first, std::memory_order_relaxed);
    } else {
      first = std::max(first, mark);
      if (first > last) {
        return Status::Ok();
      }
    }
  }
  uint64_t advance_to = last + 1;
  for (uint64_t next_file_page = first; next_file_page <= last; next_file_page++) {
    if (next_file_page >= vma_.page_count ||
        (next_file_page + 1) * kPageSize > backing_->size_bytes()) {
      break;
    }
    uint64_t page = vma_.start_page + next_file_page;
    Vma* vma;
    if (!runtime_->vma_tree().TryLockEntry(page, &vma)) {
      continue;
    }
    uint64_t key = MakeKey(vma_.mapping_id, next_file_page);
    FrameId existing;
    if (cache.Lookup(key, &existing)) {
      UnlockPage(page);
      continue;
    }
    ReuseStamp stamp;
    FrameId frame = cache.AllocFrame(vcpu, vcpu.core(), &stamp);
    if (frame == kInvalidFrame) {
      UnlockPage(page);
      advance_to = next_file_page;  // not covered; eligible for the next window
      break;                        // never evict for read-ahead
    }
    // Read-ahead never elides (allow_elide=false): its fills can fail on
    // paths that free the frame asynchronously, where the elide-failure
    // backstop could not run. Any deferral the stamp or target page carries
    // is executed instead.
    (void)runtime_->ResolveReuseStamp(vcpu, stamp, frame, page, vma_.mapping_id,
                                      /*allow_elide=*/false);
    Frame& f = cache.frame(frame);
    f.key.store(key, std::memory_order_relaxed);
    // No translation yet: the actual access takes a minor fault. vaddr == 0
    // is also what marks the frame evictable without the entry lock.
    f.vaddr.store(0, std::memory_order_relaxed);
    if (engine_ != nullptr) {
      // Async fill: the frame stays kFilling — invisible to evictors and to
      // Lookup — until its completion publishes it into the hash. The fault
      // that wanted the page either finds it published (minor fault) or
      // waits out the in-flight fill (AwaitFill) rather than duplicating the
      // read. Submitting under the page's entry lock is what makes that
      // handshake race-free.
      Status status = engine_->SubmitFill(vcpu, frame, key, next_file_page * kPageSize);
      UnlockPage(page);
      if (!status.ok()) {
        cache.FreeFrame(vcpu.core(), frame);
        return status;
      }
      continue;
    }
    offsets.push_back(next_file_page * kPageSize);
    buffers.push_back(cache.FrameData(vcpu, frame));
    frames.push_back(frame);
    pages.push_back(page);
  }
  if (track_stream) {
    uint64_t seen = next_readahead_.load(std::memory_order_relaxed);
    while (seen < advance_to &&
           !next_readahead_.compare_exchange_weak(seen, advance_to,
                                                  std::memory_order_relaxed)) {
    }
  }
  if (frames.empty()) {
    return Status::Ok();
  }

  Status status = backing_->ReadPages(vcpu, offsets, buffers, kPageSize);
  for (size_t i = 0; i < frames.size(); i++) {
    Frame& f = cache.frame(frames[i]);
    if (status.ok()) {
      AQUILA_CHECK(cache.InsertMapping(f.key.load(std::memory_order_relaxed), frames[i]));
      f.state.store(FrameState::kResident, std::memory_order_release);
    } else {
      cache.FreeFrame(vcpu.core(), frames[i]);
    }
    UnlockPage(pages[i]);
  }
  if (status.ok()) {
    runtime_->fault_stats().readahead_pages.fetch_add(frames.size(),
                                                      std::memory_order_relaxed);
  }
  return status;
}

StatusOr<size_t> AquilaMap::EvictBatch(Vcpu& vcpu) {
  PageCache& cache = runtime_->cache();
  FaultStats& stats = runtime_->fault_stats();
  stats.evict_batches.fetch_add(1, std::memory_order_relaxed);
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
    cache.NoteEvictCycles(vcpu.clock().Now() - evict_start);
    return size_t{0};
  }

  ReclaimBatch batch;
  batch.vpns.reserve(n);
  batch.to_free.reserve(n);
  {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    // Software pipeline: each victim's reclaim stalls on three cold lines
    // (its VMA entry, its PTE, its hash home slot), so request them
    // kReclaimPrefetchAhead victims early. The prefetches are issued inside
    // this scope, which consumes them, so what they save shows up as a
    // shorter measured scope rather than as work moved off the sim clock.
    VmaTree& tree = runtime_->vma_tree();
    const PageTable& page_table = runtime_->page_table();
    auto prefetch_victim = [&](FrameId frame) {
      // Claimed by SelectVictims, so the identity fields are ours to read.
      const Frame& f = cache.frame(frame);
      uint64_t vaddr = f.vaddr.load(std::memory_order_relaxed);
      cache.PrefetchMapping(f.key.load(std::memory_order_relaxed));
      if (vaddr != 0) {
        tree.PrefetchEntry(vaddr >> kPageShift);
        page_table.Prefetch(vaddr);
      }
    };
    for (size_t i = 0; i < std::min(n, kReclaimPrefetchAhead); i++) {
      prefetch_victim(victims[i]);
    }
    for (size_t i = 0; i < n; i++) {
      if (i + kReclaimPrefetchAhead < n) {
        prefetch_victim(victims[i + kReclaimPrefetchAhead]);
      }
      FrameId frame = victims[i];
      Frame& f = cache.frame(frame);
      // The claim CAS in SelectVictims (acquire) synchronizes with the
      // publisher's kResident release store, so the identity fields read
      // below are the published values; we own them until the frame is
      // freed or republished.
      uint64_t vaddr = f.vaddr.load(std::memory_order_relaxed);
      uint64_t page = vaddr >> kPageShift;
      if (vaddr == 0) {
        // Read-ahead page with no translation yet: evictable without a
        // lock or a shootdown.
        cache.RemoveMapping(f.key.load(std::memory_order_relaxed));
        batch.to_free.push_back(frame);
        continue;
      }
      Vma* vma;
      if (!tree.TryLockEntry(page, &vma)) {
        // A fault in flight on that page: give it a second chance.
        f.referenced.store(1, std::memory_order_relaxed);
        f.state.store(FrameState::kResident, std::memory_order_release);
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
          ->ReclaimPage(vcpu, frame, page, /*defer_clean=*/false, &batch);
    }
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

  size_t freed = FinishReclaim(vcpu, batch);
  stats.evicted_pages.fetch_add(freed, std::memory_order_relaxed);
  cache.NoteEvictCycles(vcpu.clock().Now() - evict_start);
  evict_span.set_arg(freed);
  AQUILA_TELEMETRY_ONLY(
      telemetry::RecordSpanSince(GetFaultMetrics().evict_batch, vcpu.clock(), evict_start));
  return freed;
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

size_t AquilaMap::FinishReclaim(Vcpu& vcpu, const ReclaimBatch& batch) {
  // One batched shootdown for the whole batch (§4.1); the masked path
  // splits it into per-victim-core coalesced IPIs and elides cores that
  // never mapped any page of the batch. Frames free only after it.
  runtime_->ShootdownPages(vcpu, batch.vpns);
  // One chain push per queue level: the freeing core's queue refills first
  // (its thread allocates next), the rest goes to the NUMA level.
  runtime_->cache().FreeFrames(vcpu.core(), batch.to_free, FreeLevel::kCoreFirst,
                               batch.stamps);
  return batch.to_free.size();
}

Status AquilaMap::Read(uint64_t offset, std::span<uint8_t> dst) {
  if (offset + dst.size() > length_) {
    return Status::InvalidArgument("read beyond mapping");
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
    StatusOr<PageRef> ref = AccessPage(offset + done, /*write=*/true);
    if (!ref.ok()) {
      return ref.status();
    }
    std::memcpy(ref->data + in_page, src.data() + done, run);
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
  if (registry == nullptr || engine_ == nullptr) {
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
  if (registry == nullptr || engine_ == nullptr) {
    return MemoryMap::Poll(out);
  }
  if (out.empty()) {
    return 0;
  }
  Vcpu& vcpu = ThisVcpu();
  CoreScheduler* sched = registry->ForCore(vcpu.core());
  while (true) {
    (void)sched->RunReady(vcpu);
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
    if (freed == 0 && engine_->in_flight() == 0) {
      // Nothing in flight on this mapping yet tasks are still parked (e.g.
      // another thread's harvest consumed the completion between our
      // RunReady and this check). Re-running from scratch is always correct.
      sched->KickParked();
    }
  }
}

Status AquilaMap::Sync(uint64_t offset, uint64_t length) {
  if (offset + length > AlignUp(length_, kPageSize) || length == 0) {
    return Status::InvalidArgument("bad msync range");
  }
  Vcpu& vcpu = ThisVcpu();
  PageCache& cache = runtime_->cache();
  AQUILA_TELEMETRY_ONLY(const uint64_t msync_start = vcpu.clock().Now());
  telemetry::RequestSpan req_span(vcpu.clock(), telemetry::SpanOp::kMsync, offset);

  // msync promises durability, so the async pipeline must empty first: reap
  // every in-flight writeback of this mapping. Failures restore their pages
  // dirty, the collection below re-claims them, and the synchronous pass
  // surfaces the EIO.
  if (engine_ != nullptr) {
    telemetry::ChildSpan drain_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
    (void)engine_->Drain(vcpu);
  }

  const uint64_t lo = vma_.mapping_id << 40;
  const uint64_t hi = lo | ((1ull << 40) - 1);
  const uint64_t first_page = offset >> kPageShift;
  const uint64_t last_page = (offset + length - 1) >> kPageShift;
  WritebackPlanner planner;
  std::vector<PageShootdown> vpns;
  std::vector<FrameId> claimed;
  std::vector<FrameId> collected;
  // Claim dirty frames of this mapping from the per-core trees.
  auto collect_and_claim = [&] {
    collected.clear();
    {
      ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
      cache.CollectDirtyRange(lo, hi, &collected);
    }
    for (FrameId frame : collected) {
      Frame& f = cache.frame(frame);
      // Claim the frame BEFORE reading its identity: the unlinked dirty item
      // proves nothing about the frame itself, which a concurrent evictor may
      // have already claimed, written back, freed — and the freelist may have
      // recycled it for a different page. Classifying (or re-marking) on the
      // stale key would write the new page's data to the old page's device
      // offset. kFilling is transient (a fill or a minor-fault pin), so wait
      // it out; kEvicting/kFree/kOffline mean another owner took over the
      // writeback responsibility, so skip.
      bool owned = false;
      SpinBackoff backoff;
      while (true) {
        FrameState expected = FrameState::kResident;
        if (f.state.compare_exchange_strong(expected, FrameState::kEvicting,
                                            std::memory_order_acq_rel)) {
          owned = true;
          break;
        }
        if (expected != FrameState::kFilling) {
          break;
        }
        backoff.Pause();
      }
      if (!owned) {
        continue;
      }
      // Re-validate identity under ownership. A recycled frame that now
      // belongs to another mapping (or was cleaned) is not ours to sync.
      uint64_t fkey = f.key.load(std::memory_order_relaxed);
      uint64_t file_page = FilePageOfKey(fkey);
      if (f.dirty.load(std::memory_order_relaxed) == 0 ||
          fkey != MakeKey(vma_.mapping_id, file_page)) {
        f.state.store(FrameState::kResident, std::memory_order_release);
        continue;
      }
      if (file_page < first_page || file_page > last_page) {
        // Outside the msync range: keep it dirty. ClearDirty-then-MarkDirty
        // (rather than a bare insert) stays correct even when the frame was
        // recycled within this mapping and its item already re-linked.
        ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
        cache.ClearDirty(frame);
        cache.MarkDirty(vcpu.core(), frame, SortKey(file_page * kPageSize));
        f.state.store(FrameState::kResident, std::memory_order_release);
        continue;
      }
      // ClearDirty (not a bare flag store) unlinks the item if a recycled
      // incarnation re-inserted it, keeping flag and tree consistent.
      cache.ClearDirty(frame);
      // Write-protect so future stores re-fault and re-mark dirty.
      uint64_t fvaddr = f.vaddr.load(std::memory_order_relaxed);
      std::atomic<uint64_t>* pte =
          fvaddr != 0 ? runtime_->page_table().WalkExisting(fvaddr) : nullptr;
      if (pte != nullptr) {
        pte->fetch_and(~(Pte::kWritable | Pte::kDirty), std::memory_order_acq_rel);
        if (transparent_base_ != nullptr &&
            Pte::Present(pte->load(std::memory_order_relaxed))) {
          TrapDriver::DowngradeRealMapping(fvaddr);
        }
      }
      if (fvaddr != 0) {
        // Unified capture rule (CaptureShootdownPage): frame claimed
        // (kEvicting), W bit cleared above. The mask is read but NOT
        // cleared: the page stays resident, and unclaimed hit-path readers
        // may be OR-ing bits in concurrently.
        vpns.push_back(CaptureShootdownPage(f, fvaddr >> kPageShift));
      }
      planner.Add(WritebackItem{SortKey(file_page * kPageSize), file_page * kPageSize,
                                cache.FrameData(vcpu, frame), frame, this});
      claimed.push_back(frame);
    }
  };
  {
    telemetry::ChildSpan collect_span(vcpu.clock(), telemetry::SpanPhase::kDirtyTrack);
    collect_and_claim();
  }
  // The drain above cannot close the pipeline for good: a concurrent evictor
  // may have submitted async writebacks of in-range pages since, and those
  // frames' dirty bits were cleared at claim, so the collection missed them.
  // Wait them out before promising durability — a success is on the device
  // before msync returns, a failure is restored dirty-in-place, and the
  // re-collection claims it for the synchronous pass below.
  auto await_in_range = [&] {
    telemetry::ChildSpan wait_span(vcpu.clock(), telemetry::SpanPhase::kQueueWait);
    return engine_->AwaitWritebacks(vcpu, first_page, last_page);
  };
  while (engine_ != nullptr && await_in_range()) {
    telemetry::ChildSpan collect_span(vcpu.clock(), telemetry::SpanPhase::kDirtyTrack);
    collect_and_claim();
  }

  // Shoot down stale writable TLB entries before reading page contents.
  runtime_->ShootdownPages(vcpu, vpns);

  Status status;
  {
    telemetry::ChildSpan wb_span(vcpu.clock(), telemetry::SpanPhase::kWriteback,
                                 planner.size());
    status = planner.SubmitSync(vcpu);
    if (status.ok()) {
      status = backing_->Flush(vcpu);
    }
  }
  if (!planner.empty()) {
    NoteWritebackResult(status);
  }
  if (!status.ok()) {
    // msync failed: nothing was durably acknowledged. Re-mark every claimed
    // frame dirty (they are still mapped; only the PTEs were write-protected)
    // so the data survives for a retry, then surface the EIO to the caller.
    {
      ScopedMeasure measure(vcpu.clock(), CostCategory::kDirtyTracking);
      for (const WritebackItem& item : planner.items()) {
        cache.MarkDirty(vcpu.core(), item.frame, item.sort_key);
      }
    }
    for (FrameId frame : claimed) {
      cache.frame(frame).state.store(FrameState::kResident, std::memory_order_release);
    }
    return status;
  }
  runtime_->fault_stats().writeback_pages.fetch_add(planner.size(),
                                                    std::memory_order_relaxed);
  for (FrameId frame : claimed) {
    cache.frame(frame).state.store(FrameState::kResident, std::memory_order_release);
  }
  AQUILA_TELEMETRY_ONLY(
      telemetry::RecordSpanSince(GetFaultMetrics().msync, vcpu.clock(), msync_start));
  return Status::Ok();
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
        next_readahead_.store(0, std::memory_order_relaxed);
      }
      return Status::Ok();
    case Advice::kWillNeed: {
      // Prefetch like read-ahead, page by page, never evicting.
      uint64_t first = offset >> kPageShift;
      uint64_t last = std::min((offset + length - 1) >> kPageShift, vma_.page_count - 1);
      if (first > 0) {
        (void)ReadAhead(vcpu, first - 1);  // best effort, like the fault path
      }
      for (uint64_t file_page = first; file_page < last;
           file_page += runtime_->options().readahead_pages) {
        (void)ReadAhead(vcpu, file_page);
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
        if (!cache.Lookup(key, &frame)) {
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
      (void)FinishReclaim(vcpu, batch);
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
  uint64_t target = highest + 1;
  uint64_t seen = next_readahead_.load(std::memory_order_relaxed);
  while (seen < target &&
         !next_readahead_.compare_exchange_weak(seen, target, std::memory_order_relaxed)) {
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
  // (pending fill, writeback, eviction) or dirty — the 2 MB leaf is
  // read-only, so promoting over a dirty 4K page would lose its dirtiness.
  if (ok) {
    ScopedMeasure measure(vcpu.clock(), CostCategory::kCacheMgmt);
    for (uint64_t i = 0; i < kSpanPages; i++) {
      uint64_t key = MakeKey(vma_.mapping_id, base_fp + i);
      FrameId frame;
      bool hit = cache.Lookup(key, &frame);
      if (!hit && engine_ != nullptr) {
        if (engine_->HasPendingFill(key)) {
          // An in-flight readahead fill would publish into our hash slot
          // mid-promotion. Its completion publishes under the engine lock
          // HasPendingFill just took, so the re-check below cannot miss a
          // fill that completed before the verdict.
          ok = false;
          break;
        }
        hit = cache.Lookup(key, &frame);
      }
      if (!hit) {
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
