// Aquila: the library OS runtime (§3, §4).
//
// An Aquila instance plays the role of the guest OS the paper collocates
// with the application in VMX non-root ring 0. It owns:
//   - one guest context on the simulated hypervisor (EPT, GPA grants);
//   - a single process-wide page table (GVA -> frame) and per-core TLBs;
//   - the DRAM I/O cache (lock-free hash, 2-level freelist, dirty trees);
//   - the radix-tree VMA manager and a VA allocator;
//   - the posted-IPI fabric for batched TLB shootdowns.
//
// Application integration mirrors the paper (§4): one call to construct the
// runtime at startup, one EnterThread() per thread; thereafter mmap-like
// calls (Map/Unmap/Sync/Advise/Protect/Remap) are handled entirely inside
// non-root ring 0 — no vmcall — while cache growth and shrink go to the
// hypervisor (operation ⑤).
#ifndef AQUILA_SRC_CORE_AQUILA_H_
#define AQUILA_SRC_CORE_AQUILA_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/core/mmio.h"
#include "src/core/writeback.h"
#include "src/mem/page_table.h"
#include "src/mem/tlb.h"
#include "src/telemetry/metrics.h"
#include "src/util/sharded_counter.h"
#include "src/util/spinlock.h"
#include "src/vma/vma_tree.h"
#include "src/vmx/hypervisor.h"
#include "src/vmx/ipi.h"

namespace aquila {

namespace telemetry {
class StatsServer;
}  // namespace telemetry

class AquilaMap;
class CoreScheduler;
class SchedRegistry;

// How HarvestAsyncWritebacks behaves when no completion is ready: kPoll
// returns immediately; kWaitOne advances simulated time until one in-flight
// completion reaps (the backstop when every frame is tied up in the
// pipeline).
enum class HarvestMode : uint8_t { kPoll = 0, kWaitOne };

// Captures a frame's shootdown-routing state into a PageShootdown row. This
// is the ONE rule every capture site (eviction, msync, DONTNEED, teardown,
// mremap, mprotect) follows:
//
//   The caller owns the frame's publication edge at capture time — a claim
//   CAS out of kResident and/or the page's VMA entry lock — which orders the
//   capture after every NoteTlbInsert a faulter could have published for
//   this incarnation. Capture happens AFTER the PTE was removed (or its W
//   bit cleared, for downgrades), so no new translation can be minted for
//   the page afterwards; the relaxed loads below therefore see a complete
//   mask/epoch, and the epoch can never exceed the global flush epoch (the
//   masked TlbSet::Shootdown debug-asserts exactly that).
//
//   The only unclaimed site, by design, is Protect's write-downgrade: the
//   atomic W-bit clear precedes the capture, so a racing faulter can only
//   insert a read-only entry, and a conservatively stale mask/epoch merely
//   costs an elidable IPI — never a missed one.
inline PageShootdown CaptureShootdownPage(const Frame& frame, uint64_t vpn) {
  return PageShootdown{vpn, frame.cpu_mask.load(std::memory_order_relaxed),
                       frame.tlb_epoch.load(std::memory_order_relaxed)};
}

// Transparent 2 MB huge-page counters (DESIGN.md §14).
struct HugeStats {
  ShardedCounter promotions;           // spans switched to a 2 MB leaf
  ShardedCounter demotions;            // spans split back to 4K
  ShardedCounter fault_around_mapped;  // neighbors mapped by fault-around
  ShardedCounter runs_carved;          // aligned runs consumed by promotion
  ShardedCounter promote_aborts;       // promotions unwound mid-protocol
};

// Fault-path statistics. Like every Stats struct on the fault, eviction and
// device paths, each field is a ShardedCounter (DESIGN.md §8): a read is a
// sum of per-core shards, exact only at quiesce.
struct FaultStats {
  ShardedCounter major_faults;    // miss that allocated a frame
  // Major faults of a whole-page Write filled from the writer's bytes, with
  // no device read.
  ShardedCounter overwrite_fills;
  ShardedCounter minor_faults;    // page was in cache, mapping installed
  ShardedCounter write_upgrades;  // write fault on a read-only mapping
  ShardedCounter evict_batches;  // shootdown-and-free flushes of reclaimed pages
  ShardedCounter evicted_pages;
  // Full eviction batches a fault ran itself (EvictBatch): a dry
  // allocation's fallback when no pending batch had frames to flush, or the
  // write-back of cold dirty frames the slices passed over.
  ShardedCounter direct_reclaims;
  ShardedCounter writeback_pages;
  ShardedCounter readahead_pages;
  // Writeback batches that failed after the device's retry budget. Feeds
  // the per-mapping degradation counter (Options::writeback_failure_limit).
  ShardedCounter writeback_errors;
};

// A reclaim batch between claim and free: victims' translations and frames
// wait here for one batched shootdown (§3.2, §4.1), dirty victims for the
// offset-sorted writeback that must precede it.
struct ReclaimBatch {
  WritebackPlanner planner;             // dirty victims
  std::vector<PageShootdown> vpns;      // translations to shoot down
  std::vector<FrameId> to_free;         // freed only after the shootdown
  // stamps[i] is to_free[i]'s last-owner stamp (a deferred shootdown);
  // entries past its end carry none.
  std::vector<ReuseStamp> stamps;
};

// One core's pay-as-you-go reclaim state (DESIGN.md §5). Faults on the core
// reclaim clean victims a slice at a time into `batch`; the frames stay
// kEvicting and out of the hash until the batch is flushed by one shootdown
// and one FreeFrames. Any core may flush it under `lock`: a dry allocator
// steals the batches of cores that stopped faulting. Lock order: a fault
// takes `lock` while holding its page's entry lock, so with `lock` held
// entry locks are only ever try-locked.
struct alignas(kCacheLineSize) PendingReclaim {
  static constexpr size_t kMaxCandidates = 2;
  SpinLock lock;
  // batch.to_free.size(), readable without the lock.
  std::atomic<uint32_t> frames{0};
  ReclaimBatch batch;  // guarded-by: lock; clean victims only (no planner items)
  // The core's stretch of the clock and the victims it chose one fault
  // ahead (unclaimed; their lines prefetched for the next slice).
  PageCache::SweepCursor sweep;                        // guarded-by: lock
  std::array<FrameId, kMaxCandidates> candidates{};    // guarded-by: lock
  size_t candidate_count = 0;                          // guarded-by: lock
  // Cold dirty frames the sweep passed over since this core last ran the
  // batch path, which is where they are written back.
  uint64_t dirty_passed = 0;  // guarded-by: lock
};

class Aquila : public MmioEngine {
 public:
  struct Options {
    Hypervisor::Options hypervisor;
    PageCache::Options cache;
    PostedIpiFabric::SendPath ipi_send_path = PostedIpiFabric::SendPath::kVmexitProtected;
    // Mappings removed per TLB shootdown batch (512 in the paper, §4.1).
    uint32_t shootdown_batch = 512;
    // Pages prefetched on a sequential-advice miss.
    uint32_t readahead_pages = 8;
    // Cores participating in shootdowns; defaults to all registered cores.
    int active_cores = 0;
    // IPI targeting for shootdown batches (DESIGN.md §10): kBroadcast sends
    // to every active core (paper §4.1 baseline); kMaskGen skips cores with
    // no bit in the victims' Frame::cpu_mask and cores whose whole TLB was
    // flushed after the page's last insert; kReuseElide
    // additionally DEFERS the shootdown for clean evicted pages — if the
    // frame returns to the same (region, page) before any other use, the
    // flush is skipped outright; any cross-owner handout executes it
    // (debt-amortized) first. See the safety argument in DESIGN.md §10.
    ShootdownMaskMode shootdown_mask_mode = ShootdownMaskMode::kMaskGen;
    // Consecutive writeback failures (each already past the device retry
    // budget) before a mapping degrades to read-only. Mirrors how the
    // kernel remounts a filesystem read-only after repeated EIO.
    uint32_t writeback_failure_limit = 3;
    // Asynchronous overlapped reclaim writeback: eviction and
    // madvise(DONTNEED) submit their offset-sorted dirty batch on the
    // mapping's device queue and continue fault handling while the device
    // works; dirty frames sit in kWritingBack until their completions reap on
    // the fault path. Off by default: reclaim writes back synchronously.
    // Every mapping has a queue engine either way — readahead always runs
    // through it — and devices without queueing get a synchronous-emulation
    // shim (same semantics, no overlap).
    bool async_writeback = false;
    // Per-mapping device queue depth for the queue engine.
    uint32_t async_queue_depth = 32;
    // Completion watchdog for async device ops (sim-clock driven). 0
    // (default) keeps the raw device queue — no watchdog state on the hot
    // path, bit-identical sim metrics. > 0 wraps the engine's queue in a
    // WatchdogQueue: each submission attempt must complete within this many
    // simulated microseconds or it is cancelled/abandoned and retried with
    // capped backoff + decorrelated jitter, and the device's health state
    // machine (DeviceHealth) is armed as a circuit breaker — `degraded`
    // sheds readahead and caps queue depth, `failed` fails fast with
    // kUnavailable so repeated failures flip the mapping into the existing
    // degraded-read-only mode.
    uint32_t device_op_timeout_us = 0;
    // Hedged reads on the watchdog queue: after a p99-based delay, issue a
    // read a second time; first completion wins, the loser is reconciled.
    bool hedge_reads = false;
    // Cooperative fault scheduling (src/core/sched.h): batch requests
    // submitted through MemoryMap::SubmitBatch park at fault-path wait
    // points (in-flight fill, kWritingBack pin, demand device read) instead
    // of blocking, and resume as async completions are harvested — turning
    // device queue depth into per-core request throughput. Requires
    // async_writeback. Off by default: the fault path never consults the
    // scheduler (one null-context branch), SubmitBatch degrades to the
    // synchronous loop, and sim metrics are bit-identical to pre-scheduler
    // builds.
    bool coop_sched = false;
    // Per-core cap on simultaneously parked requests; a park attempt past
    // the cap falls back to the blocking protocol for that access.
    uint32_t sched_max_parked = 64;
    // Simulated microseconds in kFailed before the prober re-admits one op
    // to test the device.
    uint32_t device_probe_interval_us = 1000;
    // Transparent 2 MB huge pages (DESIGN.md §14): the freelist carves
    // aligned 512-frame runs at Grow time, soft-mode mappings get 2 MB-
    // aligned VA plus a per-span density tracker, the 4K fault path maps
    // already-resident neighbors (fault-around), and dense spans promote to
    // a single 2 MB guest-PT leaf filled by one batched device read. Off by
    // default: no runs are carved, no spans are allocated, and sim metrics
    // are bit-identical to pre-huge-page builds.
    bool huge_pages = false;
    // 4K PTEs resident in a 2 MB span before the next fault promotes it
    // (kSequential advice promotes on first touch). 0 disables promotion,
    // leaving fault-around only.
    uint32_t huge_promote_threshold = 64;
    // Already-resident forward neighbors mapped per 4K fault (clamped to the
    // faulting page's 2 MB span, like Linux's PMD-bounded fault-around).
    // 0 disables fault-around. Only consulted when huge_pages is on.
    uint32_t fault_around_pages = 16;
    // Request-scoped causal tracing (src/telemetry/span.h): sample one
    // request in N into the span collector, which decomposes each sampled
    // fault/msync into child phases and keeps the slowest trees. 0
    // (default) disables sampling — span call sites cost two thread-local
    // reads.
    uint32_t span_sample_every = 0;
    // Sampled requests at least this slow (simulated microseconds) keep
    // their whole span tree in the flight recorder regardless of rank.
    uint32_t slow_trace_us = 0;
    // Live stats endpoint (src/telemetry/stats_server.h) on 127.0.0.1:
    // -1 (default) disabled, 0 ephemeral port, >0 that port. Serves
    // /metrics, /metrics.json, /traces, /slow.
    int stats_server_port = -1;
    // Invoked from the trap driver's signal handler when a REAL fault on a
    // transparent mapping cannot be resolved because of an I/O error — the
    // analog of the SIGBUS the kernel raises for a failed mmap read. The
    // handler typically siglongjmps; if it returns (or is unset) the fault
    // falls through to the default disposition and the process dies, just
    // like an unhandled SIGBUS.
    std::function<void(uint64_t vaddr, const Status& status)> sigbus_handler;
  };

  explicit Aquila(const Options& options);
  ~Aquila() override;

  Aquila(const Aquila&) = delete;
  Aquila& operator=(const Aquila&) = delete;

  // --- MmioEngine -------------------------------------------------------------
  const char* name() const override { return "aquila"; }
  StatusOr<MemoryMap*> Map(Backing* backing, uint64_t length, int prot) override;
  Status Unmap(MemoryMap* map) override;
  void EnterThread() override;

  // mremap: moves `map` to a mapping of `new_length` (data and cache state
  // preserved; virtual addresses change, old TLB entries shot down).
  StatusOr<MemoryMap*> Remap(MemoryMap* map, uint64_t new_length);

  // Transparent (trap-mode) mapping: the returned map's data() pointer is
  // directly dereferenceable; misses take REAL page faults served by the
  // Aquila fault path, and hits cost nothing at all (hardware TLB). See
  // src/core/trap_driver.h. Linux/x86-64 only.
  StatusOr<MemoryMap*> MapTransparent(Backing* backing, uint64_t length, int prot);

  // Dynamic cache resizing (operation ⑤): interacts with the hypervisor.
  Status GrowCache(uint64_t add_bytes);
  StatusOr<uint64_t> ShrinkCache(uint64_t remove_bytes);

  // --- Pay-as-you-go reclaim (DESIGN.md §5) ---------------------------------
  // Frames reclaimed into pending batches and not yet freed: all cores, or
  // one. Approximate while faults run.
  uint64_t PendingReclaimFrames() const;
  uint64_t PendingReclaimFrames(int core) const;
  // Flushes every core's pending batch (shootdown, then the frames go to the
  // NUMA level, reachable from every core). Returns frames freed. Unmap runs
  // it; tests use it to quiesce.
  size_t FlushPendingReclaim();
  // Test introspection at quiesce: true when some pending batch holds `vpn`;
  // fills the batch's shootdown row and the frame it will free.
  bool FindPendingReclaim(uint64_t vpn, PageShootdown* row, FrameId* frame) const;

  // Reaps ready async writeback/fill completions across every mapping;
  // returns the number of frames released to the freelist. No-op (returns 0)
  // when async writeback is off. See HarvestMode for the idle behavior.
  size_t HarvestAsyncWritebacks(Vcpu& vcpu, HarvestMode mode = HarvestMode::kPoll);

  // --- Introspection ----------------------------------------------------------
  Hypervisor& hypervisor() { return hypervisor_; }
  PageCache& cache() { return *cache_; }
  PageTable& page_table() { return page_table_; }
  TlbSet& tlb() { return tlb_; }
  VmaTree& vma_tree() { return vma_tree_; }
  PostedIpiFabric& fabric() { return fabric_; }
  FaultStats& fault_stats() { return fault_stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }
  HugeStats& huge_stats() { return huge_stats_; }
  const HugeStats& huge_stats() const { return huge_stats_; }
  const Options& options() const { return options_; }
  int guest() const { return guest_; }
  int active_cores() const;
  // The live stats endpoint, or nullptr when disabled (or bind failed).
  telemetry::StatsServer* stats_server() const { return stats_server_.get(); }
  // The cooperative-scheduler registry, or nullptr when coop_sched is off.
  SchedRegistry* sched() { return sched_.get(); }

  // Completion->continuation bridge: wakes requests parked on `key` across
  // every core's scheduler. Called from AsyncWritebackEngine::CompleteLocked
  // (engine lock held; the sched table lock nests under it). `frame` is the
  // completed fill's frame so the demand owner receives `status` as
  // terminal; kInvalidFrame for writeback completions. No-op (one null
  // check) when coop_sched is off.
  void WakeParked(uint64_t key, FrameId frame, const Status& status, int waker_core);

  // Shoots down `pages` in Options::shootdown_batch-sized sub-batches under
  // the configured shootdown_mask_mode, with `vcpu` as the initiator. The
  // per-page masks/epochs must have been captured from the owning frames
  // while they were claimed (before FreeFrame could recycle them).
  void ShootdownPages(Vcpu& vcpu, std::span<const PageShootdown> pages);

  // --- kReuseElide plumbing (DESIGN.md §10) -----------------------------------
  // Parks the shootdown for a clean evicted page in the TLB's deferred table
  // and returns the ReuseStamp the freeing path must hand to FreeFrame.
  ReuseStamp DeferPageShootdown(const PageShootdown& page, uint64_t region, int core,
                                FrameId frame);
  // Resolves a freshly allocated frame's reuse stamp on the fault path.
  // Same-owner reuse (stamp's vpn == fault_vpn, same frame and region, and
  // `allow_elide`) restores the frame's cpu_mask/tlb_epoch from the deferral
  // and elides the flush; any other pending deferral — the stamp's, or one
  // parked for `fault_vpn` against a different frame — is executed first.
  // Returns true when the flush was elided (the caller must call
  // ExecuteElidedShootdown before freeing the frame if its fill later
  // fails). No-op outside kReuseElide.
  bool ResolveReuseStamp(Vcpu& vcpu, const ReuseStamp& stamp, FrameId frame,
                         uint64_t fault_vpn, uint64_t region, bool allow_elide);
  // Executes (and counts as a mismatch) any deferral parked for `vpn`:
  // required before installing a translation for `vpn` backed by a frame the
  // deferral does not cover (e.g. the minor-fault path mapping a readahead
  // frame). No-op outside kReuseElide; one relaxed load when the table is
  // empty.
  void ResolveDeferredForVpn(Vcpu& vcpu, uint64_t vpn, FrameId frame);
  // Failure backstop: after an elided resolve, a failed fill must flush the
  // routing state the elision restored before FreeFrame recycles the frame —
  // otherwise the re-legitimized stale entries would outlive the frame's
  // identity untracked.
  void ExecuteElidedShootdown(Vcpu& vcpu, uint64_t vpn, uint64_t region, FrameId frame);

 private:
  friend class AquilaMap;

  // One batched shootdown for the batch, then the frees at `level`. Call
  // after planner.SubmitReclaim. Returns frames freed.
  size_t FinishReclaim(Vcpu& vcpu, const ReclaimBatch& batch, FreeLevel level);
  PendingReclaim& pending_reclaim(int core) { return pending_[core]; }
  // Flushes `pending` (its lock held by the caller) and empties it: one
  // shootdown, one FreeFrames, one evict_batch sample. Returns frames freed.
  size_t FlushPendingLocked(Vcpu& vcpu, PendingReclaim& pending, FreeLevel level);
  // Counts one reclaim flush of `freed` frames begun at `start` (simulated
  // cycles) and records its evict_batch_cycles sample: once per flush,
  // never per slice.
  void NoteReclaimFlush(Vcpu& vcpu, uint64_t start, size_t freed);
  // A dry allocator's reclaim before it evicts a full batch itself: flushes
  // its own core's pending batch, or else steals the first other core's
  // non-empty one. Returns frames freed to this core.
  size_t FlushPendingForAlloc(Vcpu& vcpu);
  // Pay-as-you-go reclaim starts at the first allocation that finds every
  // reachable queue empty: a cache that never ran dry has no eviction to
  // spread, and reclaiming ahead of it would only shrink it.
  bool reclaim_ahead() const { return reclaim_ahead_.load(std::memory_order_relaxed); }
  void NoteAllocatorDry() {
    if (!reclaim_ahead()) {
      reclaim_ahead_.store(true, std::memory_order_relaxed);
    }
  }
  // The allocation loop's bounded-progress failure: dumps the freelist, the
  // pending batches and the parked table, then fails.
  [[noreturn]] void FailAllocNoProgress(Vcpu& vcpu, uint64_t rounds);
  // Poll's bounded-progress failure: dumps the polling core's run queue and
  // parked table, every engine's in-flight set and the per-queue free
  // counts, then fails.
  [[noreturn]] void FailPollNoProgress(Vcpu& vcpu, const CoreScheduler& sched, uint64_t rounds);

  Options options_;
  Hypervisor hypervisor_;
  int guest_;
  PageTable page_table_;
  TlbSet tlb_;
  PostedIpiFabric fabric_;
  VmaTree vma_tree_;
  VaAllocator va_allocator_;
  std::unique_ptr<PageCache> cache_;
  FaultStats fault_stats_;
  HugeStats huge_stats_;
  std::unique_ptr<PendingReclaim[]> pending_;  // one per core (kMaxCores)
  std::atomic<bool> reclaim_ahead_{false};

  SpinLock maps_lock_;
  std::vector<std::unique_ptr<AquilaMap>> maps_;
  std::atomic<uint64_t> next_mapping_id_{1};
  std::atomic<bool> trap_mode_used_{false};
  std::unique_ptr<SchedRegistry> sched_;  // iff Options::coop_sched
  std::unique_ptr<telemetry::StatsServer> stats_server_;
  // Last member: callbacks read the stats above, so they unregister first.
  telemetry::CallbackGroup metrics_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_AQUILA_H_
