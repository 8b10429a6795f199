// Scalable virtual-memory-area management (§3.4).
//
// Linux guards its VMA red-black tree with a single read-write semaphore;
// even read acquisitions limit many-core scalability. Following RadixVM,
// Aquila replaces the tree with a radix tree over page indices, which gives
// two things to the fault path:
//   (1) a lock-free validity lookup (is this address mapped, and by what?);
//   (2) a per-page entry lock that serializes concurrent faults/evictions
//       on the SAME page without any shared lock across different pages.
// Range updates (mmap/munmap) walk the affected entries only; they touch no
// global state, so an mmap in one part of the address space never stalls
// faults in another.
//
// A leaf entry packs the owning Vma pointer with a lock bit in bit 0
// (pointers are 8-aligned). Interior nodes are installed with CAS and are
// only reclaimed at tree destruction, keeping the fault path free of
// lifetime hazards (the paper likewise forgoes RadixVM's refcache, §3.4).
#ifndef AQUILA_SRC_VMA_VMA_TREE_H_
#define AQUILA_SRC_VMA_VMA_TREE_H_

#include <atomic>
#include <cstdint>

#include "src/util/bitops.h"
#include "src/util/status.h"

namespace aquila {

// One mapping created by mmap. The mmio layer owns these; the tree stores
// non-owning pointers.
struct Vma {
  uint64_t start_page = 0;  // first page index (vaddr >> 12)
  uint64_t page_count = 0;
  int prot = 0;  // kProtRead | kProtWrite
  uint64_t mapping_id = 0;
  uint64_t file_offset = 0;  // backing offset of start_page
  void* backing = nullptr;   // the mmio region that owns this mapping
};

inline constexpr int kProtRead = 1;
inline constexpr int kProtWrite = 2;

class VmaTree {
 public:
  VmaTree();
  ~VmaTree();

  VmaTree(const VmaTree&) = delete;
  VmaTree& operator=(const VmaTree&) = delete;

  // Registers `vma` for every page in its range. Fails without side effects
  // if any page is already mapped.
  Status Insert(Vma* vma);

  // Unregisters `vma`'s pages. Acquires each entry lock, so in-flight faults
  // on those pages drain first.
  Status Remove(Vma* vma);

  // Lock-free validity lookup (no entry lock taken).
  Vma* Find(uint64_t page) const;

  // Fault path: looks up `page` and acquires its entry lock. Returns null
  // (no lock held) for unmapped addresses.
  Vma* LockEntry(uint64_t page);

  // Non-blocking variant for evictors (lock-ordering safety): returns false
  // if the entry is locked or unmapped.
  bool TryLockEntry(uint64_t page, Vma** vma);

  void UnlockEntry(uint64_t page);

  // Prefetches `page`'s leaf slot for writing (a later TryLockEntry CASes
  // it). Walks the interior levels, which stay cache-hot, and touches
  // nothing when they do not reach a leaf.
  void PrefetchEntry(uint64_t page) const;

  uint64_t mapped_pages() const { return mapped_pages_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kLevels = 4;  // 9*4 = 36 bits of page index (48-bit VA)
  static constexpr int kEntriesPerNode = 512;
  static constexpr uint64_t kLockBit = 1;

  struct Node;

  static int IndexAt(uint64_t page, int level) {
    return static_cast<int>((page >> (9 * level)) & (kEntriesPerNode - 1));
  }

  Node* EnsureChild(Node* node, int index);
  std::atomic<uint64_t>* SlotFor(uint64_t page, bool create) const;
  static void FreeRecursive(Node* node, int level);

  Node* root_;
  std::atomic<uint64_t> mapped_pages_{0};
};

// Process-wide virtual-address allocator for mmio mappings. Hands out
// page-aligned ranges with one-page guard gaps; ranges are not recycled
// (address space is plentiful and reuse would reintroduce ABA hazards).
class VaAllocator {
 public:
  // mmio mappings live high in the canonical lower half.
  static constexpr uint64_t kBase = 0x500000000000ull;

  // Returns the start address (not page index) of a fresh range.
  uint64_t Allocate(uint64_t pages) {
    uint64_t span = (pages + 1) * kPageSize;  // +1 guard page
    return next_.fetch_add(span, std::memory_order_relaxed);
  }

  // Like Allocate, but the returned start is aligned to `align_pages` pages.
  // Huge-page mappings use this so every 2 MB file span coincides with one
  // level-1 page-table slot. Over-reserves by the alignment; the skipped
  // gap doubles as guard space.
  uint64_t AllocateAligned(uint64_t pages, uint64_t align_pages) {
    uint64_t span = (pages + align_pages + 1) * kPageSize;
    uint64_t base = next_.fetch_add(span, std::memory_order_relaxed);
    return AlignUp(base, align_pages * kPageSize);
  }

 private:
  std::atomic<uint64_t> next_{kBase};
};

}  // namespace aquila

#endif  // AQUILA_SRC_VMA_VMA_TREE_H_
