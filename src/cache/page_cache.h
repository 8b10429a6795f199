// Aquila's DRAM I/O cache (§3.2, Figure 4).
//
// Composition:
//   - LockFreeHash      : page key -> frame, for fault-time lookups;
//   - TwoLevelFreelist  : per-core / per-NUMA frame allocation;
//   - DirtyTreeSet      : per-core red-black trees of dirty frames;
//   - clock sweep       : LRU approximation driven by fault-set reference
//                         bits, claiming eviction batches of 512 frames;
//   - Hypervisor grants : frames live in guest-physical ranges granted via
//                         vmcall and backed lazily through EPT faults
//                         (dynamic cache resizing, §3.5).
//
// The cache itself is policy-free about *what* eviction means: the fault
// handler (src/core) owns unmapping, TLB shootdown, and writeback, using
// SelectVictims() / CollectDirtyBatch() from here. Same-page races are
// excluded by the VMA per-entry lock held by callers; this layer guarantees
// internal consistency across different pages.
#ifndef AQUILA_SRC_CACHE_PAGE_CACHE_H_
#define AQUILA_SRC_CACHE_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cache/dirty_tree.h"
#include "src/cache/freelist.h"
#include "src/cache/lockfree_hash.h"
#include "src/telemetry/metrics.h"
#include "src/util/bitops.h"
#include "src/util/race_injector.h"
#include "src/util/sharded_counter.h"
#include "src/vmx/hypervisor.h"

namespace aquila {

enum class FrameState : uint32_t {
  kFree = 0,     // in a freelist queue
  kFilling,      // claimed by a fault, I/O in flight
  kResident,     // mapped, in the hash table
  kEvicting,     // claimed by an evictor
  kWritingBack,  // dirty contents in flight to the device (async writeback);
                 // still in the hash table so faulters wait instead of
                 // re-reading a stale page from the device
  kOffline,      // removed by a cache shrink
};

// Frame identity fields follow an ownership-handoff protocol rather than a
// lock: key/vaddr are written by whoever owns the frame in a transient state
// (kFilling / kEvicting) and published by the release store of kResident;
// claimants (evictors, msync, the minor-fault pin) acquire ownership with a
// CAS kResident -> kEvicting/kFilling before touching them. They are atomics
// because *unclaimed* readers exist by design — the clock sweep and eviction
// classify candidates by key/vaddr before deciding to claim, and tolerate
// stale values by re-validating after the claim CAS.
struct Frame {
  std::atomic<FrameState> state{FrameState::kFree};
  std::atomic<uint8_t> referenced{0};  // clock ref bit, set on fault
  std::atomic<uint8_t> dirty{0};
  std::atomic<uint64_t> key{0};    // hash key while resident
  std::atomic<uint64_t> vaddr{0};  // mapped guest-virtual page; 0 = readahead
  uint64_t gpa = 0;                // guarded-by: written once under grow_lock_ before
                                   // the frame is published through the freelist
  std::atomic<uint8_t*> data{nullptr};  // resolved host pointer (EPT walk cached);
                                        // lazily resolved, idempotent, monotone
  DirtyItem dirty_item;  // guarded-by: owner core's DirtyTreeSet lock (+ frame claim)
  // mm_cpumask analog (DESIGN.md §10): bit c set <=> core c may hold a TLB
  // entry for this frame's translation. Grows monotonically while the frame
  // is in circulation — faulters OR their bit in under the page's VMA entry
  // lock; shootdown paths read it after claiming the frame (the entry lock /
  // claim CAS orders publication). Reset only on recycle (FreeFrame), never
  // on writeback or msync, because unclaimed hit-path readers may be setting
  // bits concurrently.
  std::atomic<uint64_t> cpu_mask{0};
  // Global TLB flush epoch at the frame's most recent Insert (CAS-max so a
  // slow faulter can never regress it). A core whose whole-TLB flush epoch
  // exceeds this value cannot hold the translation: the generation elision
  // input for ShootdownMaskMode::kMaskGen.
  std::atomic<uint64_t> tlb_epoch{0};
};

// Publishes a TLB insert on `core` into the frame's shootdown-routing state:
// called by the fault/hit paths right after TlbSet::Insert, with `epoch` the
// value Insert returned. Monotone on both fields — safe against concurrent
// publishers; the caller orders it against eviction via the VMA entry lock.
inline void NoteTlbInsert(Frame& frame, int core, uint64_t epoch) {
  AQUILA_RACE_POINT("page_cache.note_insert.pre_mask");
  frame.cpu_mask.fetch_or(1ull << (core & 63), std::memory_order_relaxed);
  uint64_t seen = frame.tlb_epoch.load(std::memory_order_relaxed);
  while (seen < epoch &&
         !frame.tlb_epoch.compare_exchange_weak(seen, epoch, std::memory_order_relaxed)) {
  }
}

class PageCache {
 public:
  struct Options {
    uint64_t capacity_pages = (64ull << 20) / kPageSize;  // initial size
    uint64_t max_pages = (512ull << 20) / kPageSize;      // growth ceiling
    uint32_t eviction_batch = 512;                        // paper's batch
    TwoLevelFreelist::Options freelist;
  };

  struct Stats {
    ShardedCounter lookups;
    ShardedCounter lookup_hits;
    ShardedCounter evictions;
    ShardedCounter clock_sweeps;
    // Simulated cycles of reclaim billed to faults: sweep, reclaim,
    // writeback, shootdown and frame release (NoteEvictCycles).
    ShardedCounter evict_cycles;
  };

  // Grants the initial capacity from the hypervisor (one vmcall), charged to
  // `vcpu`.
  PageCache(Hypervisor* hypervisor, int guest, Vcpu& vcpu, const Options& options);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // --- Lookup / mapping bookkeeping (lock-free) --------------------------------
  // A fault's lookup: counted in `lookups` and `lookup_hits`, so
  // aquila.cache.lookup_hits / lookups is the share of faults served from
  // the cache.
  bool Lookup(uint64_t key, FrameId* frame);
  // The same lookup uncounted, for control paths (advice, msync, the
  // held-page release, teardown).
  bool Peek(uint64_t key, FrameId* frame) const;
  bool InsertMapping(uint64_t key, FrameId frame);
  bool RemoveMapping(uint64_t key);
  // Prefetches the hash home slot of `key` for writing: eviction issues it
  // a few victims ahead of the RemoveMapping that consumes it.
  void PrefetchMapping(uint64_t key) const { hash_.Prefetch(key); }

  // --- Frames -------------------------------------------------------------------
  Frame& frame(FrameId id) { return frames_[id]; }
  FrameId IndexOf(const Frame* f) const { return static_cast<FrameId>(f - frames_.get()); }

  // Host memory of the frame; resolves GPA->HPA through the hypervisor on
  // first touch (EPT fault per chunk) and caches the pointer.
  uint8_t* FrameData(Vcpu& vcpu, FrameId id);

  // Allocation from the freelist; kInvalidFrame when empty (caller evicts).
  // The returned frame is in state kFilling. The stamped overload also
  // returns the frame's last-owner ReuseStamp (kReuseElide input); a caller
  // that may receive a deferred stamp MUST use it — dropping a deferred
  // stamp would leave its parked shootdown dangling.
  FrameId AllocFrame(Vcpu& vcpu, int core);
  FrameId AllocFrame(Vcpu& vcpu, int core, ReuseStamp* stamp_out);
  // Returns a frame to `core`'s queue (state -> kFree). The stamped overload
  // records the frame's last owner for the next allocator; both reset the
  // frame's routing state first — see the ordering contract in FreeFrame.
  void FreeFrame(int core, FrameId id);
  void FreeFrame(int core, FrameId id, const ReuseStamp& stamp);
  // Bulk free: the same reset as FreeFrame for every frame, then one chain
  // push per queue level (TwoLevelFreelist::FreeBatch); `stamps[i]` is
  // frames[i]'s stamp, and frames past the end of `stamps` carry none.
  // Eviction frees kCoreFirst; retirement bursts (unmap, huge-page
  // promotion) free kNuma.
  void FreeFrames(int core, std::span<const FrameId> frames, FreeLevel level,
                  std::span<const ReuseStamp> stamps = {});

  // Allocates a 2 MB-aligned kRunFrames-frame run for huge-page promotion;
  // every frame comes back in state kFilling, owned by the caller. Returns
  // kInvalidFrame when no intact run is available (the caller stays at 4K).
  // Requires the freelist's carve_runs option.
  FrameId AllocRun(int core);
  // Returns an intact run handed out by AllocRun, resetting every frame like
  // FreeFrame. A fragmented run (demoted span) goes back frame by frame
  // through FreeFrame instead and never re-forms — runs are carved once at
  // Grow time.
  void FreeRun(int core, FrameId first);
  // Approximate "would AllocRun succeed": promotion's cheap pre-check.
  bool RunAvailable() const { return freelist_.RunAvailable(); }

  // --- Eviction support -----------------------------------------------------------
  // Clock sweep: claims up to `max` resident frames (state -> kEvicting) and
  // returns them. Frames with the reference bit set get a second chance.
  // The hand advances up to kSweepChunk slots per atomic step; within a
  // chunk a slot costs loads only, plus a store for a set reference bit and
  // the claim CAS for a victim.
  size_t SelectVictims(size_t max, FrameId* out);
  static constexpr uint64_t kSweepChunk = 64;
  // One core's private stretch of the clock: NextCandidates draws
  // kSweepChunk slots at a time from the shared hand into it, so a sweep
  // that wants one victim per fault does not bounce the hand's line per
  // slot. Owned by its caller (guarded by the caller's lock).
  struct SweepCursor {
    uint64_t slot = 0;
    uint64_t left = 0;  // slots of the drawn chunk not yet visited
  };
  // The same clock step over `cursor`'s stretch, but it claims nothing:
  // returns up to `max` unreferenced, clean resident frames found within
  // `max_steps` slots — candidates a later ClaimCandidate re-validates.
  // Unreferenced dirty frames are passed over for the batch path to write
  // back, and counted into `*dirty_passed`. Prefetches the stretch's next
  // slots for the following call.
  size_t NextCandidates(SweepCursor* cursor, size_t max, uint64_t max_steps, FrameId* out,
                        uint64_t* dirty_passed);
  // Claims a candidate (kResident -> kEvicting) unless it left the resident
  // state or was referenced since NextCandidates passed it (then it keeps
  // its second chance). Counts a claimed victim like SelectVictims.
  bool ClaimCandidate(FrameId id);
  // Bills one fault's reclaim cycles to Stats::evict_cycles and to the
  // per-fault maximum; the fault path calls it once per fault that
  // reclaimed.
  void NoteEvictCycles(uint64_t cycles) {
    stats_.evict_cycles.fetch_add(cycles, std::memory_order_relaxed);
    uint64_t seen = max_fault_evict_cycles_.load(std::memory_order_relaxed);
    while (seen < cycles && !max_fault_evict_cycles_.compare_exchange_weak(
                                seen, cycles, std::memory_order_relaxed)) {
    }
  }
  // The largest reclaim bill one fault paid (NoteEvictCycles).
  uint64_t max_fault_evict_cycles() const {
    return max_fault_evict_cycles_.load(std::memory_order_relaxed);
  }

  // --- Dirty tracking --------------------------------------------------------------
  // Idempotent: the dirty flag's 0 -> 1 edge (atomic exchange) decides which
  // caller links the item; an already-dirty frame is left untouched.
  void MarkDirty(int core, FrameId id, uint64_t sort_key);
  void ClearDirty(FrameId id);
  size_t CollectDirtyBatch(int start_core, size_t max, FrameId* out);
  // Appends the frames whose dirty items have sort keys in [lo, hi]; the
  // items stay linked. A frame read here is only a hint: its owner may clean,
  // evict or recycle it at any time, so callers re-validate after a claim.
  void DirtyFramesInRange(uint64_t lo, uint64_t hi, std::vector<FrameId>* out) const;
  size_t TotalDirty() const { return dirty_.TotalDirty(); }

  // --- Dynamic resizing (operation ⑤) -----------------------------------------------
  Status Grow(Vcpu& vcpu, uint64_t add_pages);
  // Takes up to `remove_pages` free frames out of circulation; whole grants
  // whose frames are all offline are returned to the host. Returns how many
  // frames went offline. Frames carrying a deferred reuse stamp report their
  // vpn through `deferred_vpns` so the caller can execute the parked
  // shootdown (an offlined frame's contents are gone, so the deferral can no
  // longer be elided).
  StatusOr<uint64_t> Shrink(Vcpu& vcpu, uint64_t remove_pages,
                            std::vector<uint64_t>* deferred_vpns = nullptr);

  uint64_t capacity_pages() const { return capacity_pages_.load(std::memory_order_relaxed); }
  uint64_t max_pages() const { return options_.max_pages; }
  uint32_t eviction_batch() const { return options_.eviction_batch; }
  const Stats& stats() const { return stats_; }
  const TwoLevelFreelist::Stats& freelist_stats() const { return freelist_.stats(); }
  const TwoLevelFreelist& freelist() const { return freelist_; }
  uint64_t ApproxFreeFrames() const { return freelist_.ApproxFree(); }
  uint64_t ReachableFreeFrames(int core) const { return freelist_.ReachableFree(core); }

 private:
  // Clears a frame's identity and shootdown-routing state and marks it
  // kFree; the caller's freelist push is the release edge that publishes it
  // (see the ordering contract in FreeFrame).
  void ResetForFree(Frame& f);
  // One clock step: true when `f` is resident and unreferenced. A set
  // reference bit is cleared on the way: the frame's second chance.
  static bool SweepSlot(Frame& f);

  struct GpaRange {
    uint64_t base_gpa = 0;      // guarded-by: immutable after Grow publishes the range
    FrameId first_frame = 0;    // guarded-by: immutable after Grow publishes the range
    uint32_t frame_count = 0;   // guarded-by: immutable after Grow publishes the range
    std::atomic<uint32_t> offline_frames{0};
    bool released = false;      // guarded-by: grow_lock_
  };

  Hypervisor* hypervisor_;
  int guest_;
  Options options_;
  std::unique_ptr<Frame[]> frames_;  // preallocated to max_pages
  std::atomic<uint64_t> total_frames_{0};
  std::atomic<uint64_t> capacity_pages_{0};
  LockFreeHash hash_;
  TwoLevelFreelist freelist_;
  DirtyTreeSet dirty_;
  // Own line: every sweeper's claim RMWs it, and nothing read-mostly may
  // share that line.
  alignas(kCacheLineSize) std::atomic<uint64_t> clock_hand_{0};
  Stats stats_;
  // Written only when it grows, so its line stays shared.
  std::atomic<uint64_t> max_fault_evict_cycles_{0};
  SpinLock grow_lock_;
  std::vector<std::unique_ptr<GpaRange>> ranges_;
  // Last member: callbacks read stats_/freelist_, so they unregister first.
  telemetry::CallbackGroup metrics_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_CACHE_PAGE_CACHE_H_
