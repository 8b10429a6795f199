// Per-core software TLBs with batched, core-mask-tracked shootdown
// (§3.1, §4.1; fan-out model in DESIGN.md §10).
//
// The TLBs are *statistical*: translations are always re-validated against
// the page table (whose PTE dirty/present bits are authoritative), so a
// stale TLB entry can only mis-account a hit as such — it can never corrupt
// data. This mirrors the role the real TLB plays for the paper's accounting:
// hits are free, misses pay the hardware walk, and invalidations cost IPIs.
//
// Shootdown protocol (Aquila): the initiator removes a batch of PTEs, then
// invalidates the batch locally and sends ONE IPI per remote core for the
// whole batch through the posted-IPI fabric (vmexit-protected send path,
// §4.1). The remote handler cost scales with the batch size and is charged
// to the victim core's mailbox.
//
// Fan-out reduction (mm_cpumask analog): each cache frame tracks the set of
// cores that installed a translation for it (Frame::cpu_mask) plus the
// global flush epoch at its last insert (Frame::tlb_epoch). The masked
// Shootdown overload uses both to shrink the IPI fan-out from
// O(active_cores) to O(cores-that-mapped-it):
//   - a core with no bit in any page of the batch is skipped entirely;
//   - with ShootdownMaskMode::kMaskGen, a core whose whole TLB was flushed
//     after a page's last insert is skipped for that page (the reused-pages
//     elision; see PAPERS.md "Skip TLB flushes for reused pages");
//   - when every surviving target is the initiator itself, the remote phase
//     is fully elided (the common case for private streams).
// Both the mask and the epoch are conservative under races (an insert
// racing a concurrent flush or shootdown may leave a stale-but-benign entry
// behind); because the TLB is statistical, the failure mode is a
// mis-accounted hit, never corruption — see DESIGN.md §10.
#ifndef AQUILA_SRC_MEM_TLB_H_
#define AQUILA_SRC_MEM_TLB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/util/cpu.h"
#include "src/util/sharded_counter.h"
#include "src/util/sim_clock.h"
#include "src/util/spinlock.h"
#include "src/vmx/ipi.h"

namespace aquila {

// How Shootdown picks its IPI targets (Options::shootdown_mask_mode). The
// values are fixed because benchmark configurations print them as integers.
enum class ShootdownMaskMode : uint8_t {
  kBroadcast = 0,   // one IPI per active core, the paper's §4.1 baseline
  kMaskGen = 2,     // skip cores with no bit in the batch's per-page cpu
                    // masks, and cores fully flushed since a page's insert
  kReuseElide = 3,  // kMaskGen, plus defer the flush for clean recycled
                    // frames: the fault path elides it entirely on
                    // same-owner reuse and executes it (debt-amortized) on a
                    // cross-owner handout
};

// A shootdown whose execution was deferred at frame-recycle time under
// kReuseElide (DESIGN.md §10): a clean page's routing state, keyed by vpn,
// parked until the frame's next allocation decides elide-vs-execute. `frame`
// is the owning cache frame id, kept as a raw u32 because src/mem cannot
// depend on src/cache types.
struct DeferredShootdown {
  uint64_t vpn = 0;
  uint64_t region = 0;  // owning mapping id at capture time
  uint32_t frame = 0;
  uint64_t cpu_mask = 0;
  uint64_t tlb_epoch = 0;
};

// One page of a masked shootdown batch: the vpn to invalidate plus the
// routing state captured from the owning frame while the caller held its
// claim. The defaults (all cores, never-flushed) make an entry equivalent to
// a broadcast shootdown of that page.
struct PageShootdown {
  uint64_t vpn = 0;
  uint64_t cpu_mask = ~0ull;   // cores whose TLB may cache this translation
  uint64_t tlb_epoch = ~0ull;  // global flush epoch at the page's last insert
};

class TlbSet {
 public:
  // Entries per core. Direct-mapped; sized like a big L2 STLB.
  static constexpr int kEntries = 2048;

  struct LookupResult {
    bool hit = false;
    bool writable = false;
  };

  // Statistical lookup for virtual page number `vpn` on `core`.
  LookupResult Lookup(int core, uint64_t vpn) const;

  // Sentinel for the per-entry frame payload: "no frame recorded".
  static constexpr uint32_t kNoFramePayload = ~0u;

  // Fills the entry after a walk. `writable` caches the PTE W bit. `frame`
  // is an optional best-effort payload (the cache frame id backing the
  // translation) used by the stale-translation detector; it rides a parallel
  // relaxed array, so it is exact only at quiesce. Returns the current
  // global flush epoch so the caller can stamp the owning frame's tlb_epoch
  // (the kMaskGen elision input).
  uint64_t Insert(int core, uint64_t vpn, bool writable,
                  uint32_t frame = kNoFramePayload);

  // Local single-page invalidation (invlpg analog).
  void InvalidatePage(int core, uint64_t vpn);

  // Drops every entry on `core` and advances its flush epoch: pages whose
  // last insert predates the flush need no IPI to this core afterwards.
  void FlushCore(int core);

  // Broadcast compatibility wrapper: invalidates `vpns` on all active cores
  // exactly like a masked shootdown whose every page carries the default
  // (all-ones) mask.
  void Shootdown(SimClock& clock, int initiator_core, int active_cores,
                 std::span<const uint64_t> vpns, PostedIpiFabric& fabric);

  // Masked batched shootdown. The initiator (`initiator_core`, whose clock
  // is `clock`) always invalidates the whole batch locally and pays for it;
  // each remaining core in [0, active_cores) receives one coalesced IPI
  // covering only the batch pages whose mask names it (per `mode`), charged
  // through the fabric. Cores with no surviving page are elided. A batch
  // whose per-core cost exceeds one full flush is applied as FlushCore on
  // that core (so simulated TLB state matches the charged cost) and bumps
  // its flush epoch. Empty batches are free: no IPI, no histogram sample.
  void Shootdown(SimClock& clock, int initiator_core, int active_cores,
                 std::span<const PageShootdown> pages, PostedIpiFabric& fabric,
                 ShootdownMaskMode mode);

  // Global flush epoch (bumped by every FlushCore) and the epoch at which
  // `core` last had its whole TLB flushed.
  uint64_t CurrentEpoch() const { return epoch_.load(std::memory_order_relaxed); }
  uint64_t CoreFlushEpoch(int core) const {
    return flush_epochs_[core].flushed.load(std::memory_order_relaxed);
  }

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  uint64_t shootdowns() const { return shootdowns_.load(); }
  // Fan-out accounting: IPIs actually sent by shootdowns, remote cores
  // skipped (mask or generation), and shootdowns that stayed fully local.
  uint64_t ipis_sent() const { return ipis_sent_.load(); }
  uint64_t ipis_elided() const { return ipis_elided_.load(); }
  uint64_t shootdowns_local() const { return shootdowns_local_.load(); }
  // kReuseElide accounting: shootdowns skipped outright because the freed
  // frame returned to its previous (region, vpn) owner, and deferred
  // shootdowns forced to execute because the frame (or vpn) was handed to a
  // different owner first.
  uint64_t reuse_elided() const { return reuse_elided_.load(); }
  uint64_t reuse_mismatch() const { return reuse_mismatch_.load(); }
  void NoteReuseElided() { reuse_elided_.fetch_add(1); }
  void NoteReuseMismatch() { reuse_mismatch_.fetch_add(1); }

  // --- Deferred shootdowns (ShootdownMaskMode::kReuseElide) ---------------
  // The table is keyed by vpn; because VaAllocator never recycles virtual
  // ranges, a vpn names one (region, page) incarnation for the process
  // lifetime, so a lookup can never confuse two incarnations.

  // Parks `d` for later elide-or-execute. At most one deferral per vpn can
  // be live (the page must be refaulted before it can be evicted again), so
  // insertion never collides with a live entry.
  void Defer(const DeferredShootdown& d);

  // Removes and returns the deferral for `vpn`, if any.
  bool TakeDeferred(uint64_t vpn, DeferredShootdown* out);

  // Non-destructive lookup for tests/detectors.
  bool PeekDeferred(uint64_t vpn, DeferredShootdown* out) const;

  // Removes every deferral belonging to `region` and appends the equivalent
  // PageShootdown rows to `out` (for a final batched flush at teardown).
  void DrainDeferredRegion(uint64_t region, std::vector<PageShootdown>* out);

  uint64_t deferred_pending() const {
    return deferred_pending_.load(std::memory_order_relaxed);
  }

  // Executes one previously deferred shootdown on a cross-owner handout.
  // Unlike the batched Shootdown, the initiator core is gen/mask-elided too:
  // its PTE was already removed when the deferral was captured, so there is
  // no local translation to protect. Per-core invalidation debt is
  // accumulated and, once it exceeds one full flush, upgraded to FlushCore —
  // restoring the batch-clamp amortization single-page executes would lose.
  void ExecuteDeferred(SimClock& clock, int initiator_core, int active_cores,
                       const DeferredShootdown& d, PostedIpiFabric& fabric);

  // Test/debug snapshot of TLB slot `slot` on `core`, including the frame
  // payload recorded at insert. The loads are relaxed and not mutually
  // atomic; meaningful only at quiesce.
  struct EntrySnapshot {
    bool valid = false;
    bool writable = false;
    uint64_t vpn = 0;
    uint32_t frame = kNoFramePayload;
  };
  EntrySnapshot ReadEntryForTest(int core, int slot) const;

 private:
  // Packed entry: (vpn << 2) | (writable << 1) | valid. vpn of ~0 unused.
  static uint64_t Pack(uint64_t vpn, bool writable) {
    return (vpn << 2) | (writable ? 2u : 0u) | 1u;
  }

  struct alignas(kCacheLineSize) CoreTlb {
    std::array<std::atomic<uint64_t>, kEntries> entries{};
    // Best-effort frame-id payload, parallel to entries (relaxed stores, not
    // atomic with the entry word; exact only at quiesce — detector input).
    std::array<std::atomic<uint32_t>, kEntries> frames{};
  };

  struct alignas(kCacheLineSize) CoreEpoch {
    std::atomic<uint64_t> flushed{0};
  };

  static int SlotFor(uint64_t vpn) { return static_cast<int>(vpn) & (kEntries - 1); }

  // True when `core` must invalidate `page` under `mode`.
  bool CoreNeedsPage(int core, const PageShootdown& page, ShootdownMaskMode mode) const;

  // Deferred-shootdown table shard: vpn → parked shootdown. Sharded to keep
  // the fault-path Take cheap under multi-core churn.
  static constexpr int kDeferredShards = 16;
  struct alignas(kCacheLineSize) DeferredShard {
    mutable SpinLock lock;
    std::unordered_map<uint64_t, DeferredShootdown> entries;  // guarded-by: lock
  };
  DeferredShard& ShardFor(uint64_t vpn) {
    return deferred_[(vpn >> 4) & (kDeferredShards - 1)];
  }
  const DeferredShard& ShardFor(uint64_t vpn) const {
    return deferred_[(vpn >> 4) & (kDeferredShards - 1)];
  }

  // Invalidation debt a core has accrued from single-page deferred executes;
  // upgraded to a full flush once it costs more than one (cost_model).
  struct alignas(kCacheLineSize) DeferredDebt {
    std::atomic<uint32_t> pages{0};
  };

  std::array<CoreTlb, CoreRegistry::kMaxCores> cores_{};
  std::array<CoreEpoch, CoreRegistry::kMaxCores> flush_epochs_{};
  std::array<DeferredShard, kDeferredShards> deferred_{};
  std::array<DeferredDebt, CoreRegistry::kMaxCores> deferred_debt_{};
  std::atomic<uint64_t> deferred_pending_{0};
  // Read by every Insert, bumped by every flush: its own line, apart from
  // deferred_pending_'s writers.
  alignas(kCacheLineSize) std::atomic<uint64_t> epoch_{0};
  mutable ShardedCounter hits_;
  mutable ShardedCounter misses_;
  ShardedCounter shootdowns_;
  ShardedCounter ipis_sent_;
  ShardedCounter ipis_elided_;
  ShardedCounter shootdowns_local_;
  ShardedCounter reuse_elided_;
  ShardedCounter reuse_mismatch_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_MEM_TLB_H_
