#include "src/mem/tlb.h"

#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/scoped_timer.h"
#include "src/util/logging.h"
#include "src/util/race_injector.h"
#include "src/vmx/cost_model.h"

namespace aquila {

TlbSet::LookupResult TlbSet::Lookup(int core, uint64_t vpn) const {
  uint64_t packed = cores_[core].entries[SlotFor(vpn)].load(std::memory_order_relaxed);
  if ((packed & 1u) != 0 && (packed >> 2) == vpn) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return LookupResult{true, (packed & 2u) != 0};
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return LookupResult{false, false};
}

uint64_t TlbSet::Insert(int core, uint64_t vpn, bool writable, uint32_t frame) {
  // Read the epoch BEFORE publishing the entry: a FlushCore racing in
  // between wipes the slot we are about to fill, and the stale entry we then
  // store is exactly what the pre-flush epoch admits — the frame's CAS-max
  // keeps the insert visible to the generation check, so the shootdown still
  // targets this core. The reverse order could stamp a post-flush epoch on
  // an entry the flush missed, eliding an IPI the core still needs.
  uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  AQUILA_RACE_POINT("tlb.insert.pre_store");
  // Payload before entry word so a quiesced reader that sees the entry sees
  // its frame; mid-flight the pair is best-effort by design.
  cores_[core].frames[SlotFor(vpn)].store(frame, std::memory_order_relaxed);
  cores_[core].entries[SlotFor(vpn)].store(Pack(vpn, writable), std::memory_order_relaxed);
  return epoch;
}

TlbSet::EntrySnapshot TlbSet::ReadEntryForTest(int core, int slot) const {
  EntrySnapshot snap;
  uint64_t packed = cores_[core].entries[slot].load(std::memory_order_relaxed);
  if ((packed & 1u) == 0) {
    return snap;
  }
  snap.valid = true;
  snap.writable = (packed & 2u) != 0;
  snap.vpn = packed >> 2;
  snap.frame = cores_[core].frames[slot].load(std::memory_order_relaxed);
  return snap;
}

void TlbSet::InvalidatePage(int core, uint64_t vpn) {
  std::atomic<uint64_t>& slot = cores_[core].entries[SlotFor(vpn)];
  uint64_t packed = slot.load(std::memory_order_relaxed);
  AQUILA_RACE_POINT("tlb.invalidate.pre_store");
  if ((packed & 1u) != 0 && (packed >> 2) == vpn) {
    slot.store(0, std::memory_order_relaxed);
  }
}

void TlbSet::FlushCore(int core) {
  for (auto& slot : cores_[core].entries) {
    slot.store(0, std::memory_order_relaxed);
  }
  // Epoch advances strictly after the wipe: an entry inserted mid-wipe
  // carries the pre-bump epoch, so the generation check (strict >) still
  // sends this core an IPI for it. CAS-max because two concurrent flushes of
  // the same core may publish out of order — the epoch must never go
  // backwards (understating the flush point is conservative: at worst an
  // elidable IPI is sent anyway).
  uint64_t flushed_at = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  AQUILA_RACE_POINT("tlb.flush.pre_epoch_publish");
  std::atomic<uint64_t>& mark = flush_epochs_[core].flushed;
  uint64_t seen = mark.load(std::memory_order_relaxed);
  while (seen < flushed_at &&
         !mark.compare_exchange_weak(seen, flushed_at, std::memory_order_relaxed)) {
  }
}

bool TlbSet::CoreNeedsPage(int core, const PageShootdown& page,
                           ShootdownMaskMode mode) const {
  if (mode == ShootdownMaskMode::kBroadcast) {
    return true;
  }
  if ((page.cpu_mask & (1ull << (core & 63))) == 0) {
    return false;  // core never installed a translation for this page
  }
  if (flush_epochs_[core].flushed.load(std::memory_order_relaxed) > page.tlb_epoch) {
    return false;  // whole TLB flushed since the page's last insert
  }
  return true;
}

void TlbSet::Shootdown(SimClock& clock, int initiator_core, int active_cores,
                       std::span<const uint64_t> vpns, PostedIpiFabric& fabric) {
  std::vector<PageShootdown> pages(vpns.size());
  for (size_t i = 0; i < vpns.size(); i++) {
    pages[i].vpn = vpns[i];  // default mask/epoch: all cores, never flushed
  }
  Shootdown(clock, initiator_core, active_cores, pages, fabric,
            ShootdownMaskMode::kBroadcast);
}

void TlbSet::Shootdown(SimClock& clock, int initiator_core, int active_cores,
                       std::span<const PageShootdown> pages, PostedIpiFabric& fabric,
                       ShootdownMaskMode mode) {
  if (pages.empty()) {
    return;  // no IPIs, no counters, no histogram sample for an empty batch
  }
  if (active_cores > CoreRegistry::kMaxCores) {
    active_cores = CoreRegistry::kMaxCores;
  }
#ifndef NDEBUG
  // A capture must never carry an epoch from the future: tlb_epoch is read
  // off a frame the caller owns (claim and/or entry lock), so an epoch
  // beyond the current global epoch means the capture raced a free/recycle
  // (capture-after-free) and would silently over-elide under kMaskGen and
  // kReuseElide. The broadcast default (~0) is the documented exception.
  const uint64_t now_epoch = CurrentEpoch();
  for (const PageShootdown& page : pages) {
    AQUILA_DCHECK(page.tlb_epoch == ~0ull || page.tlb_epoch <= now_epoch);
  }
#endif
  const CostModel& costs = GlobalCostModel();
  shootdowns_.fetch_add(1, std::memory_order_relaxed);
#if AQUILA_TELEMETRY_ENABLED
  static Histogram* shootdown_hist =
      telemetry::Registry().GetHistogram("aquila.tlb.shootdown_cycles");
  static telemetry::Counter* shootdown_pages =
      telemetry::Registry().GetCounter("aquila.tlb.shootdown_pages");
  shootdown_pages->Add(pages.size());
  const uint64_t start_cycles = clock.Now();
#endif

  // Initiator phase: the whole batch is invalidated locally (the initiator
  // removed the PTEs; its own TLB must not outlive them). A batch whose
  // per-page cost exceeds one full flush is applied as a flush so the
  // simulated TLB state matches the charged cost.
  uint64_t local_cost = pages.size() * costs.tlb_invalidate_page;
  if (local_cost > costs.tlb_full_flush) {
    local_cost = costs.tlb_full_flush;
    FlushCore(initiator_core);
  } else {
    for (const PageShootdown& page : pages) {
      InvalidatePage(initiator_core, page.vpn);
    }
  }
  clock.Charge(CostCategory::kTlbShootdown, local_cost);

  // Remote phase: one coalesced IPI per victim core, covering only the batch
  // pages whose mask (and, under kMaskGen, flush generation) name it. Cores
  // with no surviving page are elided entirely.
  bool any_remote = false;
  for (int core = 0; core < active_cores; core++) {
    if (core == initiator_core) {
      continue;
    }
    size_t count = 0;
    for (const PageShootdown& page : pages) {
      if (CoreNeedsPage(core, page, mode)) {
        count++;
      }
    }
    if (count == 0) {
      ipis_elided_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    any_remote = true;
    uint64_t handler_cost = count * costs.tlb_invalidate_page;
    if (handler_cost > costs.tlb_full_flush) {
      handler_cost = costs.tlb_full_flush;
      // The victim's handler resolves the clamped batch as one full flush —
      // which also advances its flush epoch, feeding the kMaskGen elision
      // for every page it still holds.
      FlushCore(core);
    } else {
      for (const PageShootdown& page : pages) {
        if (CoreNeedsPage(core, page, mode)) {
          InvalidatePage(core, page.vpn);
        }
      }
    }
    AQUILA_RACE_POINT("tlb.shootdown.pre_send");
    fabric.Send(clock, core, handler_cost);
    ipis_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!any_remote) {
    shootdowns_local_.fetch_add(1, std::memory_order_relaxed);
  }
#if AQUILA_TELEMETRY_ENABLED
  telemetry::RecordSpanSince(shootdown_hist, telemetry::TraceEventType::kShootdown, clock,
                             start_cycles, pages.size());
#endif
}

void TlbSet::Defer(const DeferredShootdown& d) {
  DeferredShard& shard = ShardFor(d.vpn);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto [it, inserted] = shard.entries.insert_or_assign(d.vpn, d);
  (void)it;
  // At most one deferral per vpn can be live: the page must be refaulted
  // before it can be evicted again, and the refault Takes the entry.
  AQUILA_DCHECK(inserted);
  if (inserted) {
    deferred_pending_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TlbSet::TakeDeferred(uint64_t vpn, DeferredShootdown* out) {
  DeferredShard& shard = ShardFor(vpn);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto it = shard.entries.find(vpn);
  if (it == shard.entries.end()) {
    return false;
  }
  if (out != nullptr) {
    *out = it->second;
  }
  shard.entries.erase(it);
  deferred_pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool TlbSet::PeekDeferred(uint64_t vpn, DeferredShootdown* out) const {
  const DeferredShard& shard = ShardFor(vpn);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto it = shard.entries.find(vpn);
  if (it == shard.entries.end()) {
    return false;
  }
  if (out != nullptr) {
    *out = it->second;
  }
  return true;
}

void TlbSet::DrainDeferredRegion(uint64_t region, std::vector<PageShootdown>* out) {
  for (DeferredShard& shard : deferred_) {
    std::lock_guard<SpinLock> guard(shard.lock);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second.region == region) {
        if (out != nullptr) {
          out->push_back(PageShootdown{it->second.vpn, it->second.cpu_mask,
                                       it->second.tlb_epoch});
        }
        it = shard.entries.erase(it);
        deferred_pending_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

void TlbSet::ExecuteDeferred(SimClock& clock, int initiator_core, int active_cores,
                             const DeferredShootdown& d, PostedIpiFabric& fabric) {
  if (active_cores > CoreRegistry::kMaxCores) {
    active_cores = CoreRegistry::kMaxCores;
  }
#ifndef NDEBUG
  // Same capture-after-free guard as the batched overload (satellite rule):
  // a deferred epoch newer than the global epoch would over-elide below.
  AQUILA_DCHECK(d.tlb_epoch == ~0ull || d.tlb_epoch <= CurrentEpoch());
#endif
  const CostModel& costs = GlobalCostModel();
  shootdowns_.fetch_add(1, std::memory_order_relaxed);
  const PageShootdown page{d.vpn, d.cpu_mask, d.tlb_epoch};
  bool any_remote = false;
  for (int core = 0; core < active_cores; core++) {
    // The executing core is mask/gen-elided like any other: the deferral's
    // PTE was removed when it was captured, so — unlike the batched
    // initiator phase — there is no freshly removed local translation to
    // protect here.
    if (!CoreNeedsPage(core, page, ShootdownMaskMode::kMaskGen)) {
      if (core != initiator_core) {
        ipis_elided_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    // Debt escalation: single-page executes lose the batch clamp's
    // amortization, so once a core has accrued one full flush worth of
    // page invalidations we flush it instead — advancing its epoch so the
    // backlog of other deferrals gen-elides it from then on.
    uint32_t debt = deferred_debt_[core].pages.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool upgrade = debt * costs.tlb_invalidate_page >= costs.tlb_full_flush;
    uint64_t handler_cost = costs.tlb_invalidate_page;
    if (upgrade) {
      handler_cost = costs.tlb_full_flush;
      deferred_debt_[core].pages.store(0, std::memory_order_relaxed);
      FlushCore(core);
    } else {
      InvalidatePage(core, d.vpn);
    }
    if (core == initiator_core) {
      clock.Charge(CostCategory::kTlbShootdown, handler_cost);
    } else {
      any_remote = true;
      AQUILA_RACE_POINT("tlb.shootdown.pre_send");
      fabric.Send(clock, core, handler_cost);
      ipis_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!any_remote) {
    shootdowns_local_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace aquila
