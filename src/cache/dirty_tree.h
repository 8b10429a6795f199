// Per-core dirty-page trees (§3.2 "Dirty page write-back").
//
// Dirty pages live in a structure separate from the clean-page hash so that
// writeback and msync never scan the cache: per-core red-black trees keyed
// by device offset, each behind its own short spinlock. Multiple sorted
// trees trade a little global order (writeback emits per-tree sorted runs,
// which is what the paper merges into large I/Os) for the elimination of a
// single contended dirty-list lock — the exact contention FastMap found in
// Linux.
#ifndef AQUILA_SRC_CACHE_DIRTY_TREE_H_
#define AQUILA_SRC_CACHE_DIRTY_TREE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/cache/rbtree.h"
#include "src/util/cpu.h"
#include "src/util/spinlock.h"

namespace aquila {

// The cache frame embeds one of these; DirtyTreeSet is agnostic to the
// containing type beyond the sort key and node.
//
// owner_core is the item's routing word: it names the per-core lock that
// guards `node` and is itself written only while holding that lock. Readers
// outside any lock (Remove's first step) use it as a hint and re-validate
// after locking — hence atomic, not guarded.
struct DirtyItem {
  RbNode node;            // guarded-by: cores_[owner_core].lock in DirtyTreeSet
  uint64_t sort_key = 0;  // guarded-by: frame owner (set before insert, stable while linked)
  std::atomic<int16_t> owner_core{-1};
};

class DirtyTreeSet {
 public:
  DirtyTreeSet() = default;

  // Inserts `item` into `core`'s tree. The caller guarantees the item is not
  // currently in any tree (dirty-bit 0 -> 1 transition under the page's VMA
  // entry lock).
  void Insert(int core, DirtyItem* item);

  // Removes `item` from whichever tree holds it. No-op if not linked.
  void Remove(DirtyItem* item);

  // Claims up to `max` dirty items for writeback, in per-core sorted runs
  // starting at `start_core` (the evicting core drains its own tree first).
  // Claimed items are unlinked; returns the count.
  size_t CollectBatch(int start_core, size_t max, DirtyItem** out);

  // Appends every item with sort_key in [lo, hi] to `out` and leaves it
  // linked (msync reads one mapping's dirty pages; each page's own claim
  // decides what is written).
  void ItemsInRange(uint64_t lo, uint64_t hi, std::vector<DirtyItem*>* out) const;

  size_t TotalDirty() const;

 private:
  struct KeyOf {
    uint64_t operator()(const RbNode* node) const {
      return reinterpret_cast<const DirtyItem*>(
                 reinterpret_cast<const char*>(node) - offsetof(DirtyItem, node))
          ->sort_key;
    }
  };

  struct alignas(kCacheLineSize) PerCore {
    mutable SpinLock lock;
    RbTree<KeyOf> tree;
  };

  static DirtyItem* ItemOf(RbNode* node) {
    return reinterpret_cast<DirtyItem*>(reinterpret_cast<char*>(node) -
                                        offsetof(DirtyItem, node));
  }

  std::array<PerCore, CoreRegistry::kMaxCores> cores_{};
};

}  // namespace aquila

#endif  // AQUILA_SRC_CACHE_DIRTY_TREE_H_
