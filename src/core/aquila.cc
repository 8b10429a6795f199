#include "src/core/aquila.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/core/mmio_region.h"
#include "src/core/sched.h"
#include "src/core/trap_driver.h"
#include "src/telemetry/scoped_timer.h"
#include "src/telemetry/span.h"
#include "src/telemetry/stats_server.h"
#include "src/util/bitops.h"
#include "src/util/logging.h"
#include "src/util/race_injector.h"

namespace aquila {

Aquila::Aquila(const Options& options)
    : options_(options),
      hypervisor_(options.hypervisor),
      guest_(hypervisor_.CreateGuest()),
      fabric_(options.ipi_send_path) {
  EnterThread();
  // Huge pages need aligned runs carved at Grow time; with the option off
  // the freelist keeps its exact pre-huge-page layout (byte-identical off
  // path).
  options_.cache.freelist.carve_runs = options_.huge_pages;
  // Keep one intact run in reserve for promotion — broken runs never
  // re-form, so a 4K-heavy warmup phase would otherwise spend every run as
  // singles and lock the mapping out of huge pages for its whole lifetime.
  // Only when the cache is comfortably larger than the reserve; a tiny
  // cache keeps every frame available for 4K demand.
  if (options_.huge_pages && options_.cache.capacity_pages > 2 * kRunFrames) {
    options_.cache.freelist.reserve_runs = 1;
  }
  cache_ = std::make_unique<PageCache>(&hypervisor_, guest_, ThisVcpu(), options_.cache);
  pending_ = std::make_unique<PendingReclaim[]>(CoreRegistry::kMaxCores);

  metrics_.AddCounter("aquila.core.major_faults", fault_stats_.major_faults);
  metrics_.AddCounter("aquila.core.overwrite_fills", fault_stats_.overwrite_fills);
  metrics_.AddCounter("aquila.core.minor_faults", fault_stats_.minor_faults);
  metrics_.AddCounter("aquila.core.write_upgrades", fault_stats_.write_upgrades);
  metrics_.AddCounter("aquila.core.evict_batches", fault_stats_.evict_batches);
  metrics_.AddCounter("aquila.core.evicted_pages", fault_stats_.evicted_pages);
  metrics_.AddCounter("aquila.core.writeback_pages", fault_stats_.writeback_pages);
  metrics_.AddCounter("aquila.core.readahead_pages", fault_stats_.readahead_pages);
  metrics_.AddCounter("aquila.core.writeback_errors", fault_stats_.writeback_errors);
  metrics_.AddCounter("aquila.cache.direct_reclaims", fault_stats_.direct_reclaims);
  metrics_.AddGauge("aquila.cache.pending_reclaim_frames",
                    [this] { return PendingReclaimFrames(); });
  metrics_.Add("aquila.tlb.hits", telemetry::MetricKind::kCounter,
               [this] { return tlb_.hits(); });
  metrics_.Add("aquila.tlb.misses", telemetry::MetricKind::kCounter,
               [this] { return tlb_.misses(); });
  metrics_.Add("aquila.tlb.shootdown_rounds", telemetry::MetricKind::kCounter,
               [this] { return tlb_.shootdowns(); });
  metrics_.Add("aquila.tlb.ipis_sent", telemetry::MetricKind::kCounter,
               [this] { return tlb_.ipis_sent(); });
  metrics_.Add("aquila.tlb.ipis_elided", telemetry::MetricKind::kCounter,
               [this] { return tlb_.ipis_elided(); });
  metrics_.Add("aquila.tlb.shootdowns_local", telemetry::MetricKind::kCounter,
               [this] { return tlb_.shootdowns_local(); });
  metrics_.Add("aquila.tlb.reuse_elided", telemetry::MetricKind::kCounter,
               [this] { return tlb_.reuse_elided(); });
  metrics_.Add("aquila.tlb.reuse_mismatch", telemetry::MetricKind::kCounter,
               [this] { return tlb_.reuse_mismatch(); });
  // Process-wide (the clock is per thread, not per runtime): a second live
  // runtime reports the same count again.
  metrics_.Add("aquila.clock.preempt_corrections", telemetry::MetricKind::kCounter,
               [] { return PreemptCorrections(); });

  if (options_.huge_pages) {
    // Registered only when the feature is on, keeping off-mode metric dumps
    // identical to pre-huge-page builds.
    metrics_.AddCounter("aquila.huge.promotions", huge_stats_.promotions);
    metrics_.AddCounter("aquila.huge.demotions", huge_stats_.demotions);
    metrics_.AddCounter("aquila.huge.fault_around_mapped", huge_stats_.fault_around_mapped);
    metrics_.AddCounter("aquila.huge.runs_carved", huge_stats_.runs_carved);
    metrics_.AddCounter("aquila.huge.promote_aborts", huge_stats_.promote_aborts);
  }

  if (options_.coop_sched) {
    AQUILA_CHECK(options_.async_writeback);  // parks resume on async completions
    sched_ = std::make_unique<SchedRegistry>(options_.sched_max_parked);
    metrics_.AddCounter("aquila.sched.parked", sched_->parked_total);
    metrics_.AddCounter("aquila.sched.resumed", sched_->resumed_total);
    metrics_.AddCounter("aquila.sched.steals", sched_->steals);
    metrics_.Add("aquila.sched.park_depth", telemetry::MetricKind::kGauge, [this] {
      int64_t depth = sched_->parked_depth.load(std::memory_order_relaxed);
      return static_cast<uint64_t>(depth > 0 ? depth : 0);
    });
  }

  if (options_.span_sample_every > 0) {
    telemetry::SpanCollector::Options span_options =
        telemetry::SpanCollector::Global().options();
    span_options.sample_every = options_.span_sample_every;
    span_options.slow_threshold_cycles =
        static_cast<uint64_t>(options_.slow_trace_us) * GlobalCostModel().cycles_per_us;
    telemetry::SpanCollector::Global().Configure(span_options);
  }
  if (options_.stats_server_port >= 0) {
    telemetry::StatsServer::Options server_options;
    server_options.port = options_.stats_server_port;
    server_options.cycles_per_us = GlobalCostModel().cycles_per_us;
    std::string error;
    stats_server_ = telemetry::StatsServer::Start(server_options, &error);
    if (stats_server_ == nullptr) {
      // Stats are observability, never availability: run without them.
      std::fprintf(stderr, "aquila: stats server disabled (%s)\n", error.c_str());
    }
  }
}

Aquila::~Aquila() {
  // Tear down any mappings the application leaked; writeback must still run
  // (shared file mappings persist after exit, §2.1).
  std::vector<std::unique_ptr<AquilaMap>> maps;
  {
    std::lock_guard<SpinLock> guard(maps_lock_);
    maps.swap(maps_);
  }
  for (auto& map : maps) {
    (void)map->TearDown();
  }
  TrapDriver::UnregisterRuntime(this);
}

void Aquila::EnterThread() {
  CoreRegistry::RegisterThisThread();
  ThisVcpu().set_mode(CpuMode::kGuestRing0);
  if (trap_mode_used_.load(std::memory_order_acquire)) {
    TrapDriver::Install();  // idempotent; sets up this thread's signal stack
  }
}

int Aquila::active_cores() const {
  if (options_.active_cores > 0) {
    return options_.active_cores;
  }
  return CoreRegistry::RegisteredCores();
}

void Aquila::ShootdownPages(Vcpu& vcpu, std::span<const PageShootdown> pages) {
  if (pages.empty()) {
    return;
  }
  telemetry::ChildSpan span(vcpu.clock(), telemetry::SpanPhase::kShootdown, pages.size());
  for (size_t i = 0; i < pages.size(); i += options_.shootdown_batch) {
    size_t n = std::min<size_t>(options_.shootdown_batch, pages.size() - i);
    tlb_.Shootdown(vcpu.clock(), vcpu.core(), active_cores(), pages.subspan(i, n),
                   fabric_, options_.shootdown_mask_mode);
  }
}

size_t Aquila::FinishReclaim(Vcpu& vcpu, const ReclaimBatch& batch, FreeLevel level) {
  // One batched shootdown for the whole batch (§4.1); the masked path
  // splits it into per-victim-core coalesced IPIs and elides cores that
  // never mapped any page of the batch. Frames free only after it.
  ShootdownPages(vcpu, batch.vpns);
  AQUILA_RACE_POINT("reclaim.flush.pre_free");
  // One chain push per queue level. kCoreFirst: the freeing core's queue
  // refills first (its thread allocates next), the rest goes to the NUMA
  // level.
  cache_->FreeFrames(vcpu.core(), batch.to_free, level, batch.stamps);
  return batch.to_free.size();
}

size_t Aquila::FlushPendingLocked(Vcpu& vcpu, PendingReclaim& pending, FreeLevel level) {
  ReclaimBatch& batch = pending.batch;
  if (batch.to_free.empty()) {
    return 0;
  }
  AQUILA_DCHECK(batch.planner.empty() && batch.stamps.empty());
  const uint64_t start = vcpu.clock().Now();
  telemetry::ChildSpan evict_span(vcpu.clock(), telemetry::SpanPhase::kEvict,
                                  batch.to_free.size());
  const size_t freed = FinishReclaim(vcpu, batch, level);
  batch.vpns.clear();
  batch.to_free.clear();
  pending.frames.store(0, std::memory_order_relaxed);
  NoteReclaimFlush(vcpu, start, freed);
  return freed;
}

void Aquila::NoteReclaimFlush(Vcpu& vcpu, uint64_t start, size_t freed) {
  fault_stats_.evict_batches.fetch_add(1, std::memory_order_relaxed);
  fault_stats_.evicted_pages.fetch_add(freed, std::memory_order_relaxed);
#if AQUILA_TELEMETRY_ENABLED
  static Histogram* evict_batch =
      telemetry::Registry().GetHistogram("aquila.core.evict_batch_cycles");
  telemetry::RecordSpanSince(evict_batch, vcpu.clock(), start);
#else
  (void)vcpu;
  (void)start;
#endif
}

size_t Aquila::FlushPendingForAlloc(Vcpu& vcpu) {
  // This core's batch first. Failing that, steal: a core whose thread
  // stopped faulting (or exited; threads never unregister) may still hold
  // one. Its frames free into this core's queue, where the retry finds them.
  for (int i = 0; i < CoreRegistry::kMaxCores; i++) {
    PendingReclaim& pending = pending_[(vcpu.core() + i) % CoreRegistry::kMaxCores];
    if (pending.frames.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    if (i > 0) {
      AQUILA_RACE_POINT("reclaim.steal.pre_lock");
    }
    std::lock_guard<SpinLock> guard(pending.lock);
    if (size_t freed = FlushPendingLocked(vcpu, pending, FreeLevel::kCoreFirst); freed > 0) {
      return freed;
    }
  }
  return 0;
}

size_t Aquila::FlushPendingReclaim() {
  Vcpu& vcpu = ThisVcpu();
  size_t freed = 0;
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    PendingReclaim& pending = pending_[core];
    if (pending.frames.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    std::lock_guard<SpinLock> guard(pending.lock);
    freed += FlushPendingLocked(vcpu, pending, FreeLevel::kNuma);
  }
  return freed;
}

uint64_t Aquila::PendingReclaimFrames(int core) const {
  return pending_[core].frames.load(std::memory_order_relaxed);
}

uint64_t Aquila::PendingReclaimFrames() const {
  uint64_t total = 0;
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    total += PendingReclaimFrames(core);
  }
  return total;
}

bool Aquila::FindPendingReclaim(uint64_t vpn, PageShootdown* row, FrameId* frame) const {
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    const ReclaimBatch& batch = pending_[core].batch;
    // Clean victims only: vpns[i] is the translation of to_free[i].
    for (size_t i = 0; i < batch.vpns.size(); i++) {
      if (batch.vpns[i].vpn == vpn) {
        *row = batch.vpns[i];
        *frame = batch.to_free[i];
        return true;
      }
    }
  }
  return false;
}

void Aquila::FailAllocNoProgress(Vcpu& vcpu, uint64_t rounds) {
  const TwoLevelFreelist::Stats& fl = cache_->freelist_stats();
  AQUILA_LOG(ERROR,
             "frame allocation made no progress in %llu rounds (core %d): approx_free=%llu "
             "reachable_free=%llu freelist core_hits=%llu numa_hits=%llu remote_hits=%llu "
             "batch_moves=%llu parked=%lld",
             static_cast<unsigned long long>(rounds), vcpu.core(),
             static_cast<unsigned long long>(cache_->ApproxFreeFrames()),
             static_cast<unsigned long long>(cache_->ReachableFreeFrames(vcpu.core())),
             static_cast<unsigned long long>(fl.core_hits.load()),
             static_cast<unsigned long long>(fl.numa_hits.load()),
             static_cast<unsigned long long>(fl.remote_hits.load()),
             static_cast<unsigned long long>(fl.batch_moves.load()),
             static_cast<long long>(
                 sched_ != nullptr ? sched_->parked_depth.load(std::memory_order_relaxed) : 0));
  // Every core's pending batch; a core past the registered ones is listed
  // only when it holds frames (tests pin core ids without registering).
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    const uint64_t pending = PendingReclaimFrames(core);
    if (core < CoreRegistry::RegisteredCores() || pending > 0) {
      AQUILA_LOG(ERROR, "  core %d: pending_reclaim=%llu", core,
                 static_cast<unsigned long long>(pending));
    }
  }
  AQUILA_CHECK(!"frame allocation loop made no progress");
  std::abort();
}

void Aquila::FailPollNoProgress(Vcpu& vcpu, const CoreScheduler& sched, uint64_t rounds) {
  AQUILA_LOG(ERROR,
             "Poll made no progress in %llu rounds (core %d): parked_depth=%lld approx_free=%llu",
             static_cast<unsigned long long>(rounds), vcpu.core(),
             static_cast<long long>(sched_->parked_depth.load(std::memory_order_relaxed)),
             static_cast<unsigned long long>(cache_->ApproxFreeFrames()));
  sched.LogState();
  {
    std::lock_guard<SpinLock> guard(maps_lock_);
    for (auto& map : maps_) {
      map->engine_->LogInFlight(vcpu);
    }
  }
  const TwoLevelFreelist& freelist = cache_->freelist();
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    const uint32_t free = freelist.CoreQueueFree(core);
    if (core < CoreRegistry::RegisteredCores() || free > 0) {
      AQUILA_LOG(ERROR, "  core %d queue: free=%u", core, free);
    }
  }
  for (int node = 0; node < freelist.numa_nodes(); node++) {
    AQUILA_LOG(ERROR, "  numa %d queue: free=%u", node, freelist.NumaQueueFree(node));
  }
  AQUILA_CHECK(!"Poll made no progress");
  std::abort();
}

ReuseStamp Aquila::DeferPageShootdown(const PageShootdown& page, uint64_t region,
                                      int core, FrameId frame) {
  DeferredShootdown d;
  d.vpn = page.vpn;
  d.region = region;
  d.frame = frame;
  d.cpu_mask = page.cpu_mask;
  d.tlb_epoch = page.tlb_epoch;
  tlb_.Defer(d);
  ReuseStamp stamp;
  stamp.vpn = page.vpn;
  stamp.region = region;
  stamp.cpu_mask = page.cpu_mask;
  stamp.tlb_epoch = page.tlb_epoch;
  stamp.core = core;
  stamp.deferred = true;
  stamp.valid = true;
  return stamp;
}

void Aquila::ResolveDeferredForVpn(Vcpu& vcpu, uint64_t vpn, FrameId frame) {
  if (options_.shootdown_mask_mode != ShootdownMaskMode::kReuseElide) {
    return;
  }
  if (vpn == 0 || tlb_.deferred_pending() == 0) {
    return;
  }
  DeferredShootdown d;
  if (!tlb_.TakeDeferred(vpn, &d)) {
    return;
  }
  // The same-frame case is the alloc-path elide; a deferral found here must
  // belong to a different (freed or re-owned) frame.
  AQUILA_DCHECK(d.frame != frame);
  (void)frame;
  tlb_.ExecuteDeferred(vcpu.clock(), vcpu.core(), active_cores(), d, fabric_);
  tlb_.NoteReuseMismatch();
}

bool Aquila::ResolveReuseStamp(Vcpu& vcpu, const ReuseStamp& stamp, FrameId frame,
                               uint64_t fault_vpn, uint64_t region, bool allow_elide) {
  if (options_.shootdown_mask_mode != ShootdownMaskMode::kReuseElide) {
    return false;
  }
  bool elided = false;
  bool took_fault_vpn = false;
  if (stamp.valid && stamp.deferred) {
    DeferredShootdown d;
    if (tlb_.TakeDeferred(stamp.vpn, &d)) {
      took_fault_vpn = (stamp.vpn == fault_vpn);
      if (allow_elide && took_fault_vpn && d.frame == frame && d.region == region) {
        // Same-owner reuse: the stale translations named by d.cpu_mask point
        // at this very frame, which is about to hold the same (region, vpn)
        // contents again — they become live-correct instead of stale.
        // RESTORE (not reset) the routing state so the next eviction still
        // targets those cores, and skip the flush entirely.
        Frame& f = cache_->frame(frame);
        f.cpu_mask.fetch_or(d.cpu_mask, std::memory_order_relaxed);
        uint64_t seen = f.tlb_epoch.load(std::memory_order_relaxed);
        while (seen < d.tlb_epoch &&
               !f.tlb_epoch.compare_exchange_weak(seen, d.tlb_epoch,
                                                  std::memory_order_relaxed)) {
        }
        tlb_.NoteReuseElided();
        elided = true;
      } else {
        tlb_.ExecuteDeferred(vcpu.clock(), vcpu.core(), active_cores(), d, fabric_);
        tlb_.NoteReuseMismatch();
      }
    }
  }
  if (!took_fault_vpn) {
    // The fault vpn itself may have a deferral parked against a different
    // frame (that frame went elsewhere, but cores on its mask still hold
    // stale entries for fault_vpn): flush before the new install.
    ResolveDeferredForVpn(vcpu, fault_vpn, frame);
  }
  return elided;
}

void Aquila::ExecuteElidedShootdown(Vcpu& vcpu, uint64_t vpn, uint64_t region,
                                    FrameId frame) {
  Frame& f = cache_->frame(frame);
  DeferredShootdown d;
  d.vpn = vpn;
  d.region = region;
  d.frame = frame;
  d.cpu_mask = f.cpu_mask.load(std::memory_order_relaxed);
  d.tlb_epoch = f.tlb_epoch.load(std::memory_order_relaxed);
  // Not a mismatch: this deferral was already counted elided; the execute is
  // the failure backstop, not a cross-owner handout.
  tlb_.ExecuteDeferred(vcpu.clock(), vcpu.core(), active_cores(), d, fabric_);
}

StatusOr<MemoryMap*> Aquila::Map(Backing* backing, uint64_t length, int prot) {
  if (length == 0 || backing == nullptr) {
    return Status::InvalidArgument("empty mapping");
  }
  if (length > backing->size_bytes()) {
    return Status::InvalidArgument("mapping longer than backing object");
  }
  if ((prot & (kProtRead | kProtWrite)) == 0) {
    return Status::InvalidArgument("mapping needs read or write protection");
  }
  auto map = std::make_unique<AquilaMap>(this, backing, length, prot);
  AQUILA_RETURN_IF_ERROR(map->Install());
  AquilaMap* raw = map.get();
  std::lock_guard<SpinLock> guard(maps_lock_);
  maps_.push_back(std::move(map));
  return static_cast<MemoryMap*>(raw);
}

Status Aquila::Unmap(MemoryMap* map) {
  std::unique_ptr<AquilaMap> owned;
  {
    std::lock_guard<SpinLock> guard(maps_lock_);
    auto it = std::find_if(maps_.begin(), maps_.end(),
                           [map](const auto& m) { return m.get() == map; });
    if (it == maps_.end()) {
      return Status::NotFound("not an active mapping");
    }
    owned = std::move(*it);
    maps_.erase(it);
  }
  return owned->TearDown();
}

StatusOr<MemoryMap*> Aquila::Remap(MemoryMap* map, uint64_t new_length) {
  auto* old_map = static_cast<AquilaMap*>(map);
  if (old_map->transparent()) {
    // Moving a transparent mapping would relocate PTEs but not the live
    // hardware translations the application's pointers depend on.
    return Status::Unimplemented("mremap of transparent mappings");
  }
  if (new_length == 0 || new_length > old_map->backing()->size_bytes()) {
    return Status::InvalidArgument("bad mremap length");
  }
  Vcpu& vcpu = ThisVcpu();

  // Build the replacement mapping at a fresh VA range, reusing the mapping
  // id so cache keys (and therefore cached frames) carry over.
  auto new_map =
      std::make_unique<AquilaMap>(this, old_map->backing(), new_length, old_map->vma_.prot);
  new_map->vma_.mapping_id = old_map->vma_.mapping_id;
  AQUILA_RETURN_IF_ERROR(new_map->Install());

  // Huge spans of the old mapping split back to 4K first: the per-page
  // Remove below cannot see through a 2 MB leaf, so moving a promoted span
  // without demoting would silently drop all 512 translations.
  old_map->DemoteAllSpans(vcpu);

  // Move resident translations: for every present PTE in the overlapping
  // prefix, re-point the frame at its new virtual address.
  uint64_t move_pages = std::min(old_map->vma_.page_count, new_map->vma_.page_count);
  std::vector<PageShootdown> old_vpns;
  for (uint64_t i = 0; i < move_pages; i++) {
    uint64_t old_page = old_map->vma_.start_page + i;
    Vma* vma = vma_tree_.LockEntry(old_page);
    if (vma == nullptr) {
      continue;
    }
    uint64_t old_vaddr = old_page << kPageShift;
    uint64_t pte = page_table_.Remove(old_vaddr);
    if (Pte::Present(pte)) {
      uint64_t new_vaddr = (new_map->vma_.start_page + i) << kPageShift;
      FrameId frame = static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift);
      Frame& f = cache_->frame(frame);
      f.vaddr = new_vaddr;
      page_table_.Install(new_vaddr, Pte::Gpa(pte), pte & Pte::kFlagsMask & ~Pte::kPresent);
      new_map->NotePteInstalled(i);
      // Unified capture rule (CaptureShootdownPage): entry lock held, PTE
      // already removed above.
      old_vpns.push_back(CaptureShootdownPage(f, old_page));
    }
    vma_tree_.UnlockEntry(old_page);
  }

  // Pages beyond the new length (shrink) must leave the cache.
  if (old_map->vma_.page_count > move_pages) {
    (void)old_map->Advise(move_pages * kPageSize,
                          (old_map->vma_.page_count - move_pages) * kPageSize,
                          Advice::kDontNeed);
  }

  AQUILA_RETURN_IF_ERROR(vma_tree_.Remove(&old_map->vma_));
  // The old mapping is destroyed below without TearDown (its frames carry
  // over); any writebacks still in flight on its engine must reap first.
  (void)old_map->engine_->Drain(vcpu);
  ShootdownPages(vcpu, old_vpns);

  MemoryMap* result = new_map.get();
  {
    std::lock_guard<SpinLock> guard(maps_lock_);
    maps_.push_back(std::move(new_map));
    auto it = std::find_if(maps_.begin(), maps_.end(),
                           [map](const auto& m) { return m.get() == map; });
    if (it != maps_.end()) {
      maps_.erase(it);
    }
  }
  return result;
}

StatusOr<MemoryMap*> Aquila::MapTransparent(Backing* backing, uint64_t length, int prot) {
  if (length == 0 || backing == nullptr || length > backing->size_bytes()) {
    return Status::InvalidArgument("bad transparent mapping arguments");
  }
  if ((prot & (kProtRead | kProtWrite)) == 0) {
    return Status::InvalidArgument("mapping needs read or write protection");
  }
  if (hypervisor_.backing_fd() < 0) {
    return Status::FailedPrecondition("trap mode needs memfd-backed host memory");
  }
  auto map = std::make_unique<AquilaMap>(this, backing, length, prot);
  uint8_t* base = TrapDriver::ReserveRange(map->vma_.page_count * kPageSize);
  if (base == nullptr) {
    return Status::OutOfSpace("cannot reserve transparent address range");
  }
  map->transparent_base_ = base;
  Status installed = map->Install();
  if (!installed.ok()) {
    TrapDriver::ReleaseRange(base, map->vma_.page_count * kPageSize);
    return installed;
  }
  trap_mode_used_.store(true, std::memory_order_release);
  TrapDriver::RegisterRuntime(this);
  TrapDriver::Install();
  AquilaMap* raw = map.get();
  std::lock_guard<SpinLock> guard(maps_lock_);
  maps_.push_back(std::move(map));
  return static_cast<MemoryMap*>(raw);
}

void Aquila::WakeParked(uint64_t key, FrameId frame, const Status& status,
                        int waker_core) {
  if (sched_ == nullptr) {
    return;
  }
  (void)sched_->Wake(key, frame, status, waker_core);
}

size_t Aquila::HarvestAsyncWritebacks(Vcpu& vcpu, HarvestMode mode) {
  // maps_lock_ held across the whole sweep so Unmap cannot destroy a mapping
  // mid-harvest. Lock order: entry locks -> maps_lock_ -> engine lock. An
  // idle engine costs one load (Harvest and busy() skip its lock).
  std::lock_guard<SpinLock> guard(maps_lock_);
  size_t freed = 0;
  for (auto& map : maps_) {
    freed += map->engine_->Harvest(vcpu);
  }
  if (freed == 0 && mode == HarvestMode::kWaitOne) {
    for (auto& map : maps_) {
      if (map->engine_->busy()) {
        freed += map->engine_->WaitOne(vcpu);
        break;
      }
    }
  }
  return freed;
}

Status Aquila::GrowCache(uint64_t add_bytes) {
  return cache_->Grow(ThisVcpu(), AlignUp(add_bytes, kPageSize) / kPageSize);
}

StatusOr<uint64_t> Aquila::ShrinkCache(uint64_t remove_bytes) {
  Vcpu& vcpu = ThisVcpu();
  std::vector<uint64_t> deferred_vpns;
  StatusOr<uint64_t> pages = cache_->Shrink(
      vcpu, AlignUp(remove_bytes, kPageSize) / kPageSize, &deferred_vpns);
  // Offlined frames can never satisfy a reuse elision again (their contents
  // are released to the host): execute their parked shootdowns now.
  for (uint64_t vpn : deferred_vpns) {
    DeferredShootdown d;
    if (tlb_.TakeDeferred(vpn, &d)) {
      tlb_.ExecuteDeferred(vcpu.clock(), vcpu.core(), active_cores(), d, fabric_);
      tlb_.NoteReuseMismatch();
    }
  }
  if (!pages.ok()) {
    return pages.status();
  }
  return *pages * kPageSize;
}

}  // namespace aquila
