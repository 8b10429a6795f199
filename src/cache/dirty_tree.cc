#include "src/cache/dirty_tree.h"

#include "src/telemetry/scoped_timer.h"

namespace aquila {

#if AQUILA_TELEMETRY_ENABLED
namespace {
// Real-TSC timers: these are spinlock-protected software sections executed
// for real, with no SimClock in scope.
Histogram* DirtyInsertHist() {
  static Histogram* hist =
      telemetry::Registry().GetHistogram("aquila.cache.dirty_insert_tsc");
  return hist;
}
Histogram* DirtyCollectHist() {
  static Histogram* hist =
      telemetry::Registry().GetHistogram("aquila.cache.dirty_collect_tsc");
  return hist;
}
}  // namespace
#endif

void DirtyTreeSet::Insert(int core, DirtyItem* item) {
  AQUILA_DCHECK(core >= 0 && core < CoreRegistry::kMaxCores);
  AQUILA_TELEMETRY_ONLY(telemetry::ScopedTscTimer timer(DirtyInsertHist()));
  PerCore& pc = cores_[core];
  std::lock_guard<SpinLock> guard(pc.lock);
  // owner_core is published under the tree lock, after which the item is
  // discoverable by collectors; writing it before the lock would let a racy
  // Remove lock the *new* core while the node is still being linked.
  item->owner_core.store(static_cast<int16_t>(core), std::memory_order_relaxed);
  pc.tree.Insert(&item->node);
}

void DirtyTreeSet::Remove(DirtyItem* item) {
  // owner_core is only a routing hint outside the lock: a collector may
  // unlink the item (owner -> -1) between our load and the lock acquisition,
  // so re-validate under the lock and retry until the hint is stable.
  while (true) {
    int core = item->owner_core.load(std::memory_order_acquire);
    if (core < 0) {
      return;
    }
    PerCore& pc = cores_[core];
    std::lock_guard<SpinLock> guard(pc.lock);
    if (item->owner_core.load(std::memory_order_relaxed) != core) {
      continue;  // moved or unlinked while we were acquiring; re-route
    }
    if (item->node.linked) {
      pc.tree.Remove(&item->node);
    }
    // Release keeps the invariant uniform: every unlink publishes -1 with
    // release so the acquire fast path above is always a full handoff edge.
    item->owner_core.store(-1, std::memory_order_release);
    return;
  }
}

size_t DirtyTreeSet::CollectBatch(int start_core, size_t max, DirtyItem** out) {
  AQUILA_TELEMETRY_ONLY(telemetry::ScopedTscTimer timer(DirtyCollectHist()));
  size_t n = 0;
  for (int i = 0; i < CoreRegistry::kMaxCores && n < max; i++) {
    PerCore& pc = cores_[(start_core + i) % CoreRegistry::kMaxCores];
    std::lock_guard<SpinLock> guard(pc.lock);
    while (n < max && !pc.tree.empty()) {
      RbNode* node = pc.tree.First();
      pc.tree.Remove(node);
      DirtyItem* item = ItemOf(node);
      // Release, not relaxed: collectors run WITHOUT the frame claim that
      // orders every other dirty-state transition, so this store is the only
      // happens-before edge between our tree-node writes and a later
      // re-Insert on another core (which reaches us through Remove's
      // owner_core acquire fast path when the re-dirtier clears first).
      item->owner_core.store(-1, std::memory_order_release);
      out[n++] = item;
    }
  }
  return n;
}

void DirtyTreeSet::ItemsInRange(uint64_t lo, uint64_t hi, std::vector<DirtyItem*>* out) const {
  for (const PerCore& pc : cores_) {
    std::lock_guard<SpinLock> guard(pc.lock);
    for (RbNode* node = pc.tree.LowerBound(lo); node != nullptr; node = RbTree<KeyOf>::Next(node)) {
      DirtyItem* item = ItemOf(node);
      if (item->sort_key > hi) {
        break;
      }
      out->push_back(item);
    }
  }
}

size_t DirtyTreeSet::TotalDirty() const {
  size_t total = 0;
  for (const PerCore& pc : cores_) {
    std::lock_guard<SpinLock> guard(pc.lock);
    total += pc.tree.size();
  }
  return total;
}

}  // namespace aquila
