// Lock-free, hierarchical two-level freelist for DRAM-cache frames (§3.2).
//
// Level 1: one queue per NUMA node. Level 2: one queue per core. A core
// allocates from, in order: its own queue, its NUMA node's queue, remote
// NUMA queues. Frees go to the core queue; when the core queue exceeds a
// threshold, a batch is moved to the NUMA queue ("all page movement between
// first and second level queues is performed in batches", 4096 pages in the
// paper, scaled here). The combination of per-core queues, batching, and
// lock-free stacks is what keeps allocation contention negligible.
//
// Frames are dense 32-bit ids; the stacks are intrusive over a shared
// next[] array (one slot per frame), so no allocation ever happens on the
// fault path. ABA on the Treiber stacks is prevented with a 32-bit tag
// packed next to the top-of-stack id.
#ifndef AQUILA_SRC_CACHE_FREELIST_H_
#define AQUILA_SRC_CACHE_FREELIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/util/cpu.h"
#include "src/util/logging.h"
#include "src/util/sharded_counter.h"

namespace aquila {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = ~0u;

// Frames per 2 MB aligned run (kHugePage2M / kPageSize). Runs are the unit
// the huge-page promotion path allocates: 512 frames whose backing GPAs are
// contiguous and 2 MB-aligned, so one guest-PT entry and one EPT chunk cover
// all of them.
inline constexpr uint32_t kRunFrames = 512;

// Last-owner stamp carried with a frame through the freelist (DESIGN.md
// §10): written by the freeing core immediately before the Push CAS and read
// by the allocating core only after the Pop CAS, so the acq_rel edges on the
// stack heads are what publish it — the stamp needs no atomics of its own.
// Batch moves between levels travel by frame id (Pop acquire + PushChain
// release), so the happens-before chain extends through every hop, including
// cross-NUMA steals. Fields mirror DeferredShootdown in src/mem/tlb.h but
// stay POD here so the cache layer does not depend on the TLB layer.
struct ReuseStamp {
  uint64_t vpn = 0;        // last mapped virtual page (0 = never mapped)
  uint64_t region = 0;     // owning mapping id at free time
  uint64_t cpu_mask = 0;   // cores that held a translation at free time
  uint64_t tlb_epoch = 0;  // global flush epoch at the page's last insert
  int32_t core = -1;       // core that freed the frame
  bool deferred = false;   // a DeferredShootdown for vpn is parked in TlbSet
  bool valid = false;      // written by a stamped Free (vs a default reset)
};

// Where a batch free publishes its frames.
enum class FreeLevel {
  // The freeing core's queue up to its overflow threshold, the rest to the
  // core's NUMA queue: for eviction, whose caller allocates next.
  kCoreFirst,
  // All to the NUMA queue: for retirement bursts whose freeing thread may
  // never allocate again. Core queues are owner-only, so a burst parked in
  // one is out of every other core's reach, and those cores then grind
  // through fruitless eviction sweeps while hundreds of frames idle.
  kNuma,
};

// Treiber stack of frame ids, intrusive over a shared next[] array.
class FrameStack {
 public:
  // `next` must outlive the stack and have one slot per possible frame id.
  explicit FrameStack(std::atomic<uint32_t>* next = nullptr) : next_(next) {}

  void BindNextArray(std::atomic<uint32_t>* next) { next_ = next; }

  void Push(FrameId frame);

  // Pushes a locally pre-linked chain [first..last] of `count` frames with a
  // single CAS. next[last] is overwritten.
  void PushChain(FrameId first, FrameId last, uint32_t count);

  // Pops one frame; kInvalidFrame when empty.
  FrameId Pop();

  uint32_t ApproxSize() const { return size_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint64_t kNil = 0xffffffffull;
  static uint64_t Pack(uint64_t tag, uint64_t top) { return (tag << 32) | top; }
  static uint32_t Top(uint64_t packed) { return static_cast<uint32_t>(packed & 0xffffffffull); }
  static uint64_t Tag(uint64_t packed) { return packed >> 32; }

  alignas(kCacheLineSize) std::atomic<uint64_t> head_{Pack(0, kNil)};
  std::atomic<uint32_t> size_{0};
  std::atomic<uint32_t>* next_;
};

class TwoLevelFreelist {
 public:
  struct Options {
    // Core-queue occupancy above which a batch moves to the NUMA queue.
    uint32_t core_queue_threshold = 512;
    // Frames moved per core->NUMA transfer.
    uint32_t move_batch = 256;
    int numa_nodes = NumaTopology::kNumaNodes;
    // Carve 2 MB-aligned kRunFrames-frame runs out of AddFrames and serve
    // them intact via AllocRun/FreeRun. Off by default: seeding order,
    // allocation behavior, and ApproxFree are byte-identical to the runless
    // freelist. Run integrity is structural — a run sits in a run queue as
    // one node and only moves whole (no batch migration path touches run
    // queues), so cross-NUMA steals can never tear one.
    bool carve_runs = false;
    // Intact runs the break-run fallback must leave for AllocRun. Broken
    // runs never re-form, so unbounded breaking permanently starves
    // promotion whenever sustained 4K demand precedes it (a graph build
    // before the read-mostly phase, say) — the watermark analog of the
    // kernel's high-order atomic reserves. Approximate: concurrent breakers
    // may dip slightly below. 0 = break freely. Only meaningful with
    // carve_runs; keep it well under the smallest expected run count or 4K
    // allocation degenerates to eviction-only.
    uint32_t reserve_runs = 0;
  };

  struct Stats {
    ShardedCounter core_hits;
    ShardedCounter numa_hits;
    ShardedCounter remote_hits;
    ShardedCounter batch_moves;
    ShardedCounter run_allocs;   // intact runs handed out
    ShardedCounter run_frees;    // intact runs returned
    ShardedCounter run_steals;   // AllocRun served from a remote node
    ShardedCounter runs_broken;  // runs split into singles under 4K pressure
  };

  // `max_frames` is the hard capacity: the largest frame id the cache can
  // ever grow to (bounded by the hypervisor's host memory). Fixed at
  // construction so the intrusive next[] array never reallocates under
  // concurrent lock-free pushes.
  TwoLevelFreelist(uint32_t max_frames, const Options& options);

  uint32_t capacity() const { return static_cast<uint32_t>(capacity_); }

  // Seeds the freelist with frames [first, first + count), spread across
  // NUMA queues. With Options::carve_runs, `align_page` is the global page
  // number of frame `first` in the space runs must be aligned in (the cache
  // passes its backing GPA >> 12): maximal runs are carved at offsets where
  // (align_page + (f - first)) % kRunFrames == 0, so every run's 2 MB of
  // backing GPA is naturally aligned and sits inside one EPT chunk. Leftover
  // frames outside aligned runs are spread as singles.
  void AddFrames(FrameId first, uint32_t count, uint64_t align_page = 0);

  // Allocates a frame for `core`; kInvalidFrame when every queue is empty
  // (the caller must evict).
  FrameId Alloc(int core);

  // Allocation that also reads back the frame's last-owner stamp (written by
  // the stamped Free below; default-valued for seeded or plainly freed
  // frames). The read is sequenced after the Pop, so the pop edge publishes
  // it.
  FrameId Alloc(int core, ReuseStamp* stamp_out);

  // Returns a frame from `core` (eviction places frames in the local core
  // queue, §3.2).
  void Free(int core, FrameId frame);

  // Free that records `stamp` as the frame's last owner. The stamp is
  // written before the Push, so the push edge publishes it with the frame.
  void Free(int core, FrameId frame, const ReuseStamp& stamp);

  // Returns a batch of frames with at most one PushChain per queue level
  // and one free-count add. `stamps[i]` is recorded for `frames[i]` as in
  // the stamped Free; frames past the end of `stamps` get a default stamp.
  // kCoreFirst fills `core`'s queue only up to the overflow threshold, so a
  // batch never leaves more there than MaybeOverflow would.
  void FreeBatch(int core, std::span<const FrameId> frames, std::span<const ReuseStamp> stamps,
                 FreeLevel level);

  // Pops an intact aligned run (local NUMA node first, then remote steal).
  // Returns the first frame id of the run — frames [first, first+kRunFrames)
  // are all owned by the caller — or kInvalidFrame when no intact run is
  // left (the caller falls back to 4K). Requires Options::carve_runs.
  FrameId AllocRun(int core);

  // Returns an intact run previously handed out by AllocRun (or carved by
  // AddFrames). The caller must own every frame of the run; partial returns
  // go through Free() frame by frame instead.
  void FreeRun(int core, FrameId first);

  // Cheap (approximate) "would AllocRun succeed" probe: promotion uses it to
  // skip the 512-lock protocol outright when every run is spent, instead of
  // discovering that after claiming the whole span.
  bool RunAvailable() const {
    for (const FrameStack& q : run_queues_) {
      if (q.ApproxSize() > 0) {
        return true;
      }
    }
    return false;
  }

  const Stats& stats() const { return stats_; }
  // Frames on the queues: exact when quiescent, never above capacity.
  uint64_t ApproxFree() const;

 private:
  void AddSingles(FrameId first, uint32_t count);
  // Links frames[i] -> frames[i+1] through next_ and records each frame's
  // stamp (default past the end of `stamps`); the caller publishes the
  // chain with one PushChain.
  void LinkChain(std::span<const FrameId> frames, std::span<const ReuseStamp> stamps);
  FrameId PopFrame(int core);
  FrameId PopRun(int local_node);
  void MaybeOverflow(int core);

  Options options_;
  uint64_t capacity_;
  std::unique_ptr<std::atomic<uint32_t>[]> next_;
  // One stamp slot per frame, parallel to next_. Plain fields on purpose:
  // guarded-by: the owning stack's head CAS (written before Push, read after
  // Pop; a frame is reachable from exactly one queue at a time).
  std::unique_ptr<ReuseStamp[]> stamps_;
  std::vector<FrameStack> core_queues_;  // one per logical core
  std::vector<FrameStack> numa_queues_;  // one per NUMA node
  // One run queue per NUMA node, intrusive over the same next_[] array: a
  // run is linked into a queue by its first frame only, so a frame is
  // reachable from exactly one queue — a single queue or, via its run head,
  // a run queue. Populated only under Options::carve_runs.
  std::vector<FrameStack> run_queues_;
  // Frames on any queue, a queued run counting kRunFrames; level moves
  // leave it alone.
  alignas(kCacheLineSize) std::atomic<int64_t> free_frames_{0};
  Stats stats_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_CACHE_FREELIST_H_
