#include "src/cache/page_cache.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/race_injector.h"

namespace aquila {

PageCache::PageCache(Hypervisor* hypervisor, int guest, Vcpu& vcpu, const Options& options)
    : hypervisor_(hypervisor),
      guest_(guest),
      options_(options),
      frames_(std::make_unique<Frame[]>(options.max_pages)),
      hash_(options.max_pages * 2),
      freelist_(static_cast<uint32_t>(options.max_pages), options.freelist) {
  AQUILA_CHECK(options_.capacity_pages <= options_.max_pages);
  Status status = Grow(vcpu, options_.capacity_pages);
  AQUILA_CHECK(status.ok());

  metrics_.AddCounter("aquila.cache.lookups", stats_.lookups);
  metrics_.AddCounter("aquila.cache.lookup_hits", stats_.lookup_hits);
  metrics_.AddCounter("aquila.cache.evictions", stats_.evictions);
  metrics_.AddCounter("aquila.cache.clock_sweeps", stats_.clock_sweeps);
  metrics_.AddCounter("aquila.cache.evict_cycles", stats_.evict_cycles);
  metrics_.AddGauge("aquila.cache.capacity_pages", [this] { return capacity_pages(); });
  metrics_.Add("aquila.cache.hash_inserts", telemetry::MetricKind::kCounter,
               [this] { return hash_.probe_stats().insert_calls; });
  metrics_.Add("aquila.cache.hash_insert_probes", telemetry::MetricKind::kCounter,
               [this] { return hash_.probe_stats().insert_probes; });
  metrics_.AddCounter("aquila.freelist.core_hits", freelist_.stats().core_hits);
  metrics_.AddCounter("aquila.freelist.numa_hits", freelist_.stats().numa_hits);
  metrics_.AddCounter("aquila.freelist.remote_hits", freelist_.stats().remote_hits);
  metrics_.AddCounter("aquila.freelist.batch_moves", freelist_.stats().batch_moves);
  metrics_.AddGauge("aquila.freelist.free_frames", [this] { return freelist_.ApproxFree(); });
}

bool PageCache::Lookup(uint64_t key, FrameId* frame) {
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  uint64_t value;
  if (!hash_.Lookup(key, &value)) {
    return false;
  }
  stats_.lookup_hits.fetch_add(1, std::memory_order_relaxed);
  *frame = static_cast<FrameId>(value);
  return true;
}

bool PageCache::InsertMapping(uint64_t key, FrameId frame) { return hash_.Insert(key, frame); }

bool PageCache::RemoveMapping(uint64_t key) { return hash_.Remove(key); }

uint8_t* PageCache::FrameData(Vcpu& vcpu, FrameId id) {
  Frame& f = frames_[id];
  uint8_t* data = f.data.load(std::memory_order_acquire);
  if (data == nullptr) {
    // Racing resolvers are fine: ResolveGpa is idempotent (the EPT mapping is
    // established under the hypervisor's locks), so both compute the same
    // pointer and the second store is a no-op.
    data = hypervisor_->ResolveGpa(vcpu, guest_, f.gpa);
    f.data.store(data, std::memory_order_release);
  }
  return data;
}

FrameId PageCache::AllocFrame(Vcpu& vcpu, int core) {
  return AllocFrame(vcpu, core, nullptr);
}

FrameId PageCache::AllocFrame(Vcpu& vcpu, int core, ReuseStamp* stamp_out) {
  ReuseStamp stamp;
  FrameId id = freelist_.Alloc(core, &stamp);
  if (id == kInvalidFrame) {
    return kInvalidFrame;
  }
  Frame& f = frames_[id];
  AQUILA_DCHECK(f.state.load(std::memory_order_relaxed) == FrameState::kFree);
  // FreeFrame's routing-state resets are sequenced before the freelist Push
  // CAS (release) and this read is sequenced after the Pop CAS (acquire), so
  // a previous incarnation's mask/epoch can never leak into the new one.
  // This ordering is load-bearing for kReuseElide: the reuse stamp rides the
  // same edge.
  AQUILA_DCHECK(f.cpu_mask.load(std::memory_order_relaxed) == 0);
  AQUILA_DCHECK(f.tlb_epoch.load(std::memory_order_relaxed) == 0);
  // A deferred stamp must reach a resolver; a caller that discards it would
  // leave the parked shootdown dangling in the TLB's deferred table.
  AQUILA_DCHECK(stamp_out != nullptr || !stamp.deferred);
  if (stamp_out != nullptr) {
    *stamp_out = stamp;
  }
  AQUILA_RACE_POINT("page_cache.alloc.pre_filling");
  f.state.store(FrameState::kFilling, std::memory_order_relaxed);
  f.referenced.store(1, std::memory_order_relaxed);
  return id;
}

void PageCache::FreeFrame(int core, FrameId id) { FreeFrame(core, id, ReuseStamp{}); }

void PageCache::ResetForFree(Frame& f) {
  f.key.store(0, std::memory_order_relaxed);
  f.vaddr.store(0, std::memory_order_relaxed);
  f.dirty.store(0, std::memory_order_relaxed);
  // Recycle resets the shootdown-routing state: the next identity this frame
  // takes starts with no mapped cores and no insert epoch (DESIGN.md §10).
  // The stores may be relaxed ONLY because the freelist push that follows is
  // a release edge and AllocFrame reads after the matching acquire Pop: the
  // resets (and the reuse stamp, which rides the same edge) happen-before
  // the next allocation. A concurrently allocating core can therefore never
  // observe this incarnation's mask/epoch — AllocFrame DCHECKs it, and the
  // race points in FreeFrame let the stress harness stretch the window.
  f.cpu_mask.store(0, std::memory_order_relaxed);
  f.tlb_epoch.store(0, std::memory_order_relaxed);
  AQUILA_RACE_POINT("page_cache.free.pre_publish");
  f.state.store(FrameState::kFree, std::memory_order_release);
}

void PageCache::FreeFrame(int core, FrameId id, const ReuseStamp& stamp) {
  ResetForFree(frames_[id]);
  AQUILA_RACE_POINT("page_cache.free.pre_freelist");
  freelist_.Free(core, id, stamp);
}

void PageCache::FreeFrames(int core, std::span<const FrameId> frames, FreeLevel level,
                           std::span<const ReuseStamp> stamps) {
  for (FrameId id : frames) {
    ResetForFree(frames_[id]);
  }
  AQUILA_RACE_POINT("page_cache.free.pre_freelist");
  freelist_.FreeBatch(core, frames, stamps, level);
}

size_t PageCache::SelectVictims(size_t max, FrameId* out) {
  stats_.clock_sweeps.fetch_add(1, std::memory_order_relaxed);
  uint64_t total = total_frames_.load(std::memory_order_acquire);
  if (total == 0) {
    return 0;
  }
  size_t n = 0;
  // Bound the sweep: with every frame referenced, two full rotations clear
  // all bits and then claim.
  uint64_t limit = total * 2 + max;
  uint64_t step = 0;
  while (step < limit && n < max) {
    // One shared fetch_add per chunk of slots, not per slot: concurrent
    // sweepers would otherwise bounce the hand's cache line on every frame.
    // A chunk never exceeds the victims still wanted, so every claimed slot
    // is visited: no call stops inside its chunk and leaves slots behind.
    uint64_t chunk = std::min<uint64_t>({kSweepChunk, max - n, limit - step});
    uint64_t slot = clock_hand_.fetch_add(chunk, std::memory_order_relaxed) % total;
    step += chunk;
    for (uint64_t i = 0; i < chunk; i++, slot = (slot + 1 == total) ? 0 : slot + 1) {
      Frame& f = frames_[slot];
      FrameState state = f.state.load(std::memory_order_acquire);
      if (state != FrameState::kResident) {
        continue;
      }
      // Read the bit and write it only when set: an unconditional exchange
      // would dirty every resident slot's line the sweep passes. A fault
      // that sets the bit between the load and the store loses one second
      // chance, which the clock approximation tolerates.
      if (f.referenced.load(std::memory_order_relaxed) != 0) {
        f.referenced.store(0, std::memory_order_relaxed);
        continue;  // second chance
      }
      AQUILA_RACE_POINT("page_cache.sweep.pre_claim");
      FrameState expected = FrameState::kResident;
      if (f.state.compare_exchange_strong(expected, FrameState::kEvicting,
                                          std::memory_order_acq_rel)) {
        out[n++] = static_cast<FrameId>(slot);
      }
    }
  }
  stats_.evictions.fetch_add(n, std::memory_order_relaxed);
  return n;
}

void PageCache::MarkDirty(int core, FrameId id, uint64_t sort_key) {
  Frame& f = frames_[id];
  // The dirty flag's 0 -> 1 edge owns the tree insertion. Losing the race
  // (e.g. msync's restore path vs. a write-upgrade fault that re-dirtied the
  // page right after the shootdown) means the item is already linked with
  // the same sort key; inserting again would corrupt the RB tree.
  if (f.dirty.exchange(1, std::memory_order_acq_rel) != 0) {
    return;
  }
  f.dirty_item.sort_key = sort_key;
  AQUILA_RACE_POINT("page_cache.mark_dirty.pre_insert");
  dirty_.Insert(core, &f.dirty_item);
}

void PageCache::ClearDirty(FrameId id) {
  Frame& f = frames_[id];
  dirty_.Remove(&f.dirty_item);
  f.dirty.store(0, std::memory_order_relaxed);
}

size_t PageCache::CollectDirtyBatch(int start_core, size_t max, FrameId* out) {
  std::vector<DirtyItem*> items(max);
  size_t n = dirty_.CollectBatch(start_core, max, items.data());
  for (size_t i = 0; i < n; i++) {
    Frame* f = reinterpret_cast<Frame*>(reinterpret_cast<char*>(items[i]) -
                                        offsetof(Frame, dirty_item));
    out[i] = IndexOf(f);
  }
  return n;
}

void PageCache::CollectDirtyRange(uint64_t lo, uint64_t hi, std::vector<FrameId>* out) {
  std::vector<DirtyItem*> items;
  dirty_.CollectRange(lo, hi, &items);
  out->reserve(out->size() + items.size());
  for (DirtyItem* item : items) {
    Frame* f = reinterpret_cast<Frame*>(reinterpret_cast<char*>(item) -
                                        offsetof(Frame, dirty_item));
    out->push_back(IndexOf(f));
  }
}

Status PageCache::Grow(Vcpu& vcpu, uint64_t add_pages) {
  if (add_pages == 0) {
    return Status::Ok();
  }
  std::lock_guard<SpinLock> guard(grow_lock_);
  uint64_t current = total_frames_.load(std::memory_order_relaxed);
  if (current + add_pages > options_.max_pages) {
    return Status::OutOfSpace("cache growth beyond max_pages");
  }
  StatusOr<uint64_t> gpa = hypervisor_->VmcallGrantGpaRange(vcpu, guest_, add_pages * kPageSize);
  if (!gpa.ok()) {
    return gpa.status();
  }
  auto range = std::make_unique<GpaRange>();
  range->base_gpa = *gpa;
  range->first_frame = static_cast<FrameId>(current);
  range->frame_count = static_cast<uint32_t>(add_pages);
  // gpa is written here, before AddFrames' release publication hands the
  // frames to other cores, and never again — hence plain (see Frame).
  for (uint64_t i = 0; i < add_pages; i++) {
    Frame& f = frames_[current + i];
    f.gpa = *gpa + i * kPageSize;
    f.data.store(nullptr, std::memory_order_relaxed);
    f.state.store(FrameState::kFree, std::memory_order_relaxed);
  }
  ranges_.push_back(std::move(range));
  total_frames_.store(current + add_pages, std::memory_order_release);
  // The GPA page of the first frame anchors run carving: runs are aligned in
  // GPA space, so each one's 2 MB of backing is naturally aligned and falls
  // inside a single EPT chunk mapping (grants are chunk-aligned).
  freelist_.AddFrames(static_cast<FrameId>(current), static_cast<uint32_t>(add_pages),
                      *gpa >> kPageShift);
  capacity_pages_.fetch_add(add_pages, std::memory_order_relaxed);
  return Status::Ok();
}

FrameId PageCache::AllocRun(int core) {
  FrameId first = freelist_.AllocRun(core);
  if (first == kInvalidFrame) {
    return kInvalidFrame;
  }
  for (uint32_t i = 0; i < kRunFrames; i++) {
    Frame& f = frames_[first + i];
    AQUILA_DCHECK(f.state.load(std::memory_order_relaxed) == FrameState::kFree);
    // Same contract as AllocFrame: the run queue's Pop acquire pairs with the
    // release that published the frames, so the previous incarnations'
    // routing-state resets are visible here. Run frames carry no reuse
    // stamps — the promotion path resolves per-page deferrals itself before
    // any translation goes live.
    AQUILA_DCHECK(f.cpu_mask.load(std::memory_order_relaxed) == 0);
    AQUILA_DCHECK(f.tlb_epoch.load(std::memory_order_relaxed) == 0);
    f.state.store(FrameState::kFilling, std::memory_order_relaxed);
    f.referenced.store(1, std::memory_order_relaxed);
  }
  return first;
}

void PageCache::FreeRun(int core, FrameId first) {
  for (uint32_t i = 0; i < kRunFrames; i++) {
    ResetForFree(frames_[first + i]);
  }
  freelist_.FreeRun(core, first);
}

StatusOr<uint64_t> PageCache::Shrink(Vcpu& vcpu, uint64_t remove_pages,
                                     std::vector<uint64_t>* deferred_vpns) {
  std::lock_guard<SpinLock> guard(grow_lock_);
  uint64_t removed = 0;
  int core = CoreRegistry::CurrentCore();
  while (removed < remove_pages) {
    ReuseStamp stamp;
    FrameId id = freelist_.Alloc(core, &stamp);
    if (id == kInvalidFrame) {
      break;  // no more free frames; caller may evict and retry
    }
    if (stamp.deferred) {
      // The frame leaves circulation, so its parked shootdown can never be
      // elided again — surface the vpn for the caller to execute.
      AQUILA_DCHECK(deferred_vpns != nullptr);
      if (deferred_vpns != nullptr) {
        deferred_vpns->push_back(stamp.vpn);
      }
    }
    Frame& f = frames_[id];
    f.state.store(FrameState::kOffline, std::memory_order_release);
    removed++;
    // Find the owning range and count the offline frame.
    for (auto& range : ranges_) {
      if (id >= range->first_frame && id < range->first_frame + range->frame_count) {
        uint32_t off = range->offline_frames.fetch_add(1, std::memory_order_relaxed) + 1;
        if (off == range->frame_count && !range->released) {
          Status status = hypervisor_->VmcallReleaseGpaRange(
              vcpu, guest_, range->base_gpa,
              static_cast<uint64_t>(range->frame_count) * kPageSize);
          if (status.ok()) {
            range->released = true;
            for (uint32_t i = 0; i < range->frame_count; i++) {
              frames_[range->first_frame + i].data.store(nullptr, std::memory_order_relaxed);
            }
          }
        }
        break;
      }
    }
  }
  capacity_pages_.fetch_sub(removed, std::memory_order_relaxed);
  return removed;
}

}  // namespace aquila
