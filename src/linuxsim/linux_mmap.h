// Linux mmap baseline simulator (and the kmmap variant).
//
// This is the comparator for Figures 5, 6, 8, 9 and 10: a faithful model of
// the behaviors the paper measures against —
//   * every page fault is a ring3 -> ring0 protection-domain switch
//     (1287 cycles) plus the kernel's generic fault path;
//   * a single per-file tree lock serializes fault handling, page insertion,
//     AND dirty marking (§6.5 finds this lock is why a shared file does not
//     scale) — modeled as a SerializedResource so the collapse is
//     deterministic;
//   * a global LRU/allocation lock (lru_lock) adds a second, smaller
//     serialization point that hits even the file-per-thread case;
//   * mmap read-ahead fetches 128 KB (32 pages) on every miss — the reason
//     Fig 5(b) shows mmap losing badly when 1 KB values miss in the cache;
//   * writeback is aggressive: once dirty pages exceed a ratio, fault paths
//     synchronously clean a batch (Tucana's observed stalls).
//
// The kmmap variant (Kreon's custom kernel path, §7.2) disables read-ahead
// and uses lazy writeback but keeps kernel traps and the shared locks.
//
// Functional state is guarded by one real mutex (we model contention in
// simulated time, not wall-clock), while data copies and device I/O execute
// for real so applications read correct bytes.
#ifndef AQUILA_SRC_LINUXSIM_LINUX_MMAP_H_
#define AQUILA_SRC_LINUXSIM_LINUX_MMAP_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/mmio.h"
#include "src/telemetry/metrics.h"
#include "src/util/sim_clock.h"
#include "src/vma/vma_tree.h"
#include "src/vmx/vcpu.h"

namespace aquila {

class LinuxMap;

class LinuxMmapEngine : public MmioEngine {
 public:
  struct Options {
    // cgroup memory limit for the page cache, in pages.
    uint64_t cache_pages = (64ull << 20) / 4096;
    // Fault read-ahead window (Linux: 128 KB = 32 pages). kmmap: 0.
    uint32_t readahead_pages = 32;
    // Aggressive background writeback (Linux). kmmap: lazy.
    bool aggressive_writeback = true;
    // Dirty threshold (fraction of cache, x/256) that triggers synchronous
    // cleaning in the fault path.
    uint32_t dirty_ratio_256 = 64;
    // Kernel software path lengths (cycles) charged per operation, on top of
    // the architectural trap cost.
    uint64_t fault_path_cycles = 1200;   // generic fault entry + vma walk
    uint64_t tree_lock_cycles = 900;     // per-file tree critical section
    uint64_t lru_lock_cycles = 250;      // global lru/alloc critical section
    uint64_t dirty_mark_cycles = 500;    // tree-locked dirty accounting
  };

  static Options KmmapOptions(uint64_t cache_pages) {
    Options options;
    options.cache_pages = cache_pages;
    options.readahead_pages = 0;
    options.aggressive_writeback = false;
    return options;
  }

  explicit LinuxMmapEngine(const Options& options);
  ~LinuxMmapEngine() override;

  const char* name() const override { return options_.readahead_pages == 0 ? "kmmap" : "mmap"; }
  StatusOr<MemoryMap*> Map(Backing* backing, uint64_t length, int prot) override;
  Status Unmap(MemoryMap* map) override;
  void EnterThread() override { CoreRegistry::RegisterThisThread(); }

  struct Stats {
    std::atomic<uint64_t> major_faults{0};
    std::atomic<uint64_t> minor_faults{0};
    std::atomic<uint64_t> dirty_marks{0};
    std::atomic<uint64_t> evicted_pages{0};
    std::atomic<uint64_t> writeback_pages{0};
    std::atomic<uint64_t> readahead_pages{0};
    std::atomic<uint64_t> writeback_errors{0};
  };
  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  uint64_t resident_pages() const { return resident_pages_; }

 private:
  friend class LinuxMap;

  struct PageEntry {
    LinuxMap* owner = nullptr;
    uint64_t file_page = 0;
    uint8_t* data = nullptr;
    bool dirty = false;
    bool referenced = false;
    std::list<PageEntry*>::iterator lru_pos;
  };

  // All callers hold mu_.
  uint8_t* AllocPageLocked(Vcpu& vcpu);
  void EvictLocked(Vcpu& vcpu, uint64_t target_pages);
  void WritebackLocked(Vcpu& vcpu, uint64_t max_pages);
  // Unhooks and frees `entry`, writing dirty data back first when
  // `write_dirty`. On writeback failure the entry stays resident and dirty
  // (the kernel keeps EIO pages in the cache) and the error is returned.
  Status DropEntryLocked(Vcpu& vcpu, PageEntry* entry, bool write_dirty);
  void TouchLruLocked(PageEntry* entry);

  Options options_;
  Stats stats_;

  std::mutex mu_;                      // real protection (coarse)
  SerializedResource lru_lock_;        // modeled global lru/alloc lock
  std::vector<uint8_t*> free_pages_;
  std::unique_ptr<uint8_t[]> pool_;
  uint64_t resident_pages_ = 0;
  uint64_t dirty_pages_ = 0;
  std::list<PageEntry*> global_lru_;   // front = oldest

  std::vector<std::unique_ptr<LinuxMap>> maps_;

  // Last member: callbacks read stats_, so they unregister first.
  telemetry::CallbackGroup metrics_;
};

class LinuxMap : public MemoryMap {
 public:
  LinuxMap(LinuxMmapEngine* engine, Backing* backing, uint64_t length, int prot);
  ~LinuxMap() override;

  uint64_t length() const override { return length_; }
  Status Read(uint64_t offset, std::span<uint8_t> dst) override;
  Status Write(uint64_t offset, std::span<const uint8_t> src) override;
  AccessResult TouchRead(uint64_t offset) override;
  AccessResult TouchWrite(uint64_t offset) override;
  Status Sync(uint64_t offset, uint64_t length) override;
  Status Advise(uint64_t offset, uint64_t length, Advice advice) override;

 private:
  friend class LinuxMmapEngine;
  using PageEntry = LinuxMmapEngine::PageEntry;

  // Returns the entry for `file_page`, faulting it in if needed. Caller
  // holds engine->mu_. `faulted` reports whether a fault was taken.
  // `overwrite` is a whole-page Write's kPageSize source bytes: a major fault
  // copies them into the new page instead of reading (and reads no window
  // around it), and `*filled` reports that it did.
  StatusOr<PageEntry*> ResolveLocked(Vcpu& vcpu, uint64_t file_page, bool write, bool* faulted,
                                     const uint8_t* overwrite = nullptr, bool* filled = nullptr);

  LinuxMmapEngine* engine_;
  Backing* backing_;
  uint64_t length_;
  int prot_;
  Advice advice_ = Advice::kNormal;

  // The per-file radix tree (page index -> entry) and its modeled lock.
  std::unordered_map<uint64_t, PageEntry*> pages_;
  SerializedResource tree_lock_;
  // Pages whose PTE is "writable": a store to a page not in this set takes a
  // dirty-marking fault through the tree lock (§6.5).
  std::unordered_set<uint64_t> writable_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_LINUXSIM_LINUX_MMAP_H_
