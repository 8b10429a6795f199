// Software x86-64-style 4-level page table: guest-virtual -> guest-physical.
//
// Aquila keeps a single page table shared by all threads of the process
// (§3.4): RadixVM's per-core tables are rejected because they multiply page
// faults. This is that table, with the same 9-9-9-9-12 radix as hardware.
// Leaf PTEs are single atomics so the fault handler can install and update
// translations with plain CAS/fetch_or, and the dirty bit is authoritative:
// a store through a mapping marks the PTE dirty before touching data, so
// writeback never loses a concurrent write (the same contract hardware
// provides by setting the D bit on the TLB fill).
//
// Intermediate tables are installed lock-free with CAS and never freed until
// the table is destroyed (address-space teardown), which removes all ABA and
// use-after-free concerns from the fault path.
#ifndef AQUILA_SRC_MEM_PAGE_TABLE_H_
#define AQUILA_SRC_MEM_PAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/util/bitops.h"
#include "src/util/sharded_counter.h"
#include "src/util/spinlock.h"

namespace aquila {

// PTE layout (mirrors hardware where it matters):
//   bit 0   P   present
//   bit 1   W   writable
//   bit 5   A   accessed
//   bit 6   D   dirty
//   bit 7   PS  huge (2 MB leaf parked in a level-1 interior slot)
//   bits 12..51 guest-physical frame base (GPA >> 12 << 12)
struct Pte {
  static constexpr uint64_t kPresent = 1ull << 0;
  static constexpr uint64_t kWritable = 1ull << 1;
  static constexpr uint64_t kAccessed = 1ull << 5;
  static constexpr uint64_t kDirty = 1ull << 6;
  // Hardware's PS bit position. Deliberately NOT in kFlagsMask: paths that
  // copy flags between PTEs (remap, upgrade) must never propagate hugeness.
  static constexpr uint64_t kHuge = 1ull << 7;
  static constexpr uint64_t kFlagsMask = kPresent | kWritable | kAccessed | kDirty;
  static constexpr uint64_t kAddrMask = 0x000ffffffffff000ull;

  static uint64_t Make(uint64_t gpa, uint64_t flags) { return (gpa & kAddrMask) | flags; }
  static uint64_t Gpa(uint64_t pte) { return pte & kAddrMask; }
  static bool Present(uint64_t pte) { return (pte & kPresent) != 0; }
  static bool Writable(uint64_t pte) { return (pte & kWritable) != 0; }
  static bool Dirty(uint64_t pte) { return (pte & kDirty) != 0; }
  static bool Huge(uint64_t pte) { return (pte & kHuge) != 0; }
};

class PageTable {
 public:
  PageTable();
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Returns the leaf PTE slot for `vaddr`, creating intermediate tables on
  // demand. Never fails (aborts on OOM). The returned pointer stays valid
  // for the table's lifetime. CHECK-fails if the descent hits a 2 MB leaf:
  // every 4K-granular mutation protocol demotes (SplitHuge) first.
  std::atomic<uint64_t>* Walk(uint64_t vaddr);

  // Returns the leaf PTE slot if all intermediate tables exist, else null.
  // A 2 MB leaf covering `vaddr` also returns null — huge mappings are
  // read-only by protocol, so callers that probe-and-modify (protect, sync,
  // remove) correctly treat the span as having nothing to modify.
  std::atomic<uint64_t>* WalkExisting(uint64_t vaddr) const;

  // Convenience: current PTE value (0 if nothing installed). For a vaddr
  // covered by a 2 MB leaf this synthesizes the equivalent 4K view —
  // Gpa() advanced to the covering 4K page, flags preserved, kHuge set —
  // so hit paths derive the frame without knowing about huge mappings.
  uint64_t Lookup(uint64_t vaddr) const;

  // Installs a 2 MB leaf in the level-1 slot covering `vaddr` (both `vaddr`
  // and `gpa` 2 MB-aligned). The caller must have already removed every 4K
  // PTE under the slot and must hold whatever locks keep concurrent installs
  // out of the span. Returns false if the slot already holds a huge leaf.
  // A replaced (empty) child table is kept on a retired list until table
  // destruction so concurrent lock-free descents stay safe.
  bool InstallHuge(uint64_t vaddr, uint64_t gpa, uint64_t flags);

  // Splits the 2 MB leaf covering `vaddr` back into 512 4K PTEs with
  // identical translations (GPA-contiguous by construction), so the swap
  // needs no TLB shootdown. Single demoter per span by protocol. Returns
  // the old huge PTE value, or 0 if the slot held no huge leaf.
  uint64_t SplitHuge(uint64_t vaddr);

  // Installs a translation; returns false if a present mapping already
  // existed (lost the race to a concurrent fault).
  bool Install(uint64_t vaddr, uint64_t gpa, uint64_t flags);

  // Clears the PTE and returns its previous value.
  uint64_t Remove(uint64_t vaddr);

  // Prefetches the leaf PTE of `vaddr` for writing (a later Remove
  // exchanges it). Walks the interior levels, which stay cache-hot, and
  // touches nothing when no 4K leaf exists.
  void Prefetch(uint64_t vaddr) const;

  uint64_t present_count() const { return present_.load(); }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kEntriesPerTable = 512;

  struct Node;  // table of 512 slots; interior slots hold Node*, leaves hold PTEs

  static int IndexAt(uint64_t vaddr, int level) {
    return static_cast<int>((vaddr >> (kPageShift + 9 * level)) & (kEntriesPerTable - 1));
  }

  Node* EnsureChild(Node* node, int index);
  static void FreeRecursive(Node* node, int level);

  Node* root_;
  ShardedCounter present_;
  // Child tables displaced by InstallHuge. They hold no present PTEs, but a
  // concurrent WalkExisting may still be dereferencing them, so (like every
  // interior node) they live until the table is destroyed.
  SpinLock retired_lock_;
  std::vector<Node*> retired_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_MEM_PAGE_TABLE_H_
