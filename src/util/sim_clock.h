// Simulated-time framework.
//
// The reproduction runs every software path for real (hash tables, trees,
// page tables, memcpy) but *time* is accounted on per-thread simulated
// clocks, for two reasons:
//   1. Privilege transitions (ring3 traps, vmexits, IPIs) cannot be executed
//      in an unprivileged container; their costs are charged from the
//      paper's measured constants (see src/vmx/cost_model.h).
//   2. The host has a single physical CPU; genuine 32-thread parallelism is
//      not observable. Per-thread clocks advance independently (cores run in
//      parallel in the model) and *shared* resources — the Linux baseline's
//      page-tree lock, device bandwidth — are modeled as FCFS servers whose
//      queueing delay is charged to the waiting thread. This reproduces the
//      contention collapse of the single-lock baseline deterministically.
//
// Every charge lands in a CostCategory so benches can print the paper's
// breakdown figures (Fig 7, Fig 8) directly from the accounting.
#ifndef AQUILA_SRC_UTIL_SIM_CLOCK_H_
#define AQUILA_SRC_UTIL_SIM_CLOCK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace aquila {

enum class CostCategory : int {
  kTrap = 0,        // protection-domain switch (ring3 -> ring0 or ring0 exception)
  kVmExit,          // vmexit/vmentry round trips, vmcalls, EPT faults
  kPageTable,       // page-table walk / install / remove
  kCacheMgmt,       // DRAM-cache lookup, allocation, eviction bookkeeping
  kDirtyTracking,   // dirty-tree insert/remove, writeback sorting
  kTlbShootdown,    // IPI send/receive + invalidation
  kDeviceIo,        // time on the storage device itself
  kMemcpy,          // DRAM<->pmem copies (incl. FPU save/restore)
  kSyscall,         // kernel entry/exit + kernel I/O path for explicit I/O
  kUserWork,        // application-level processing (KV get, BFS, ...)
  kIdle,            // queueing delay on shared resources (lock / device)
  kCategories,      // count sentinel
};

const char* CostCategoryName(CostCategory c);

// Per-category cycle totals. Copyable snapshot type.
struct CostBreakdown {
  std::array<uint64_t, static_cast<size_t>(CostCategory::kCategories)> cycles{};

  uint64_t Total() const;
  uint64_t operator[](CostCategory c) const { return cycles[static_cast<size_t>(c)]; }
  CostBreakdown& operator+=(const CostBreakdown& other);
  CostBreakdown operator-(const CostBreakdown& other) const;
  std::string ToString() const;
};

// A per-thread simulated clock. Not thread-safe; each worker owns one.
class SimClock {
 public:
  // Advances simulated time by `cycles`, attributed to `category`.
  void Charge(CostCategory category, uint64_t cycles) {
    now_ += cycles;
    breakdown_.cycles[static_cast<size_t>(category)] += cycles;
  }

  // Advances simulated time to at least `deadline` (used when a shared
  // resource releases this thread at a later simulated time). The wait is
  // charged to `category` (idle/queueing by default; device polling loops
  // charge kDeviceIo because the CPU busy-waits).
  void AdvanceTo(uint64_t deadline, CostCategory category = CostCategory::kIdle) {
    if (deadline > now_) {
      breakdown_.cycles[static_cast<size_t>(category)] += deadline - now_;
      now_ = deadline;
    }
  }

  // Synchronizes this clock forward to `t` WITHOUT charging anything: cores
  // of one machine share wall-clock time, so a freshly spawned worker thread
  // jumps to the coordinator's current simulated time before doing work (and
  // the coordinator jumps to the slowest worker's end after a join). Never
  // moves backwards.
  void JumpTo(uint64_t t) {
    if (t > now_) {
      now_ = t;
    }
  }

  uint64_t Now() const { return now_; }
  const CostBreakdown& Breakdown() const { return breakdown_; }

  void Reset() {
    now_ = 0;
    breakdown_ = CostBreakdown{};
  }

 private:
  uint64_t now_ = 0;
  CostBreakdown breakdown_;
};

// Returns the calling thread's simulated clock (one per OS thread; defined
// in src/vmx/vcpu.cc — it aliases the thread's vCPU clock).
SimClock& ThisThreadClock();

// A serialized server shared between threads: a lock's critical section, a
// device channel, the hypervisor. The server can perform at most one cycle
// of service per cycle of simulated time; a request arriving at simulated
// time `t` for `service_cycles` completes once the server has spare capacity
// after `t`, and the gap is queueing delay.
//
// Capacity is accounted in fixed windows of simulated time (a bucket ring),
// NOT as a single free-at timestamp. This makes the model insensitive to
// host scheduling order: worker threads of a simulation are time-sliced
// arbitrarily on however many host CPUs exist, so reservations arrive in
// wall-clock order, not simulated-time order — a thread that happens to run
// first must not book the server solid into the simulated future when the
// server was actually idle at the other threads' simulated arrival times.
// Each bucket packs (epoch, used) into one atomic, so accounting is exact
// under concurrency.
class SerializedResource {
 public:
  // `window_cycles` is the capacity-accounting granularity (and the largest
  // single-bucket grab); larger requests span consecutive windows.
  explicit SerializedResource(uint64_t window_cycles = 16384);

  // Reserves the resource and advances `clock` past the queueing delay and
  // the service time. `service_category` receives the service cycles; the
  // queueing delay lands in kIdle. Returns the simulated completion time.
  uint64_t Acquire(SimClock& clock, CostCategory service_category, uint64_t service_cycles);

  // Non-blocking reservation for asynchronous users (e.g. NVMe submission
  // queues): books `service_cycles` of server capacity for a request
  // arriving at `arrival` and returns its completion time without touching
  // any clock. The caller later advances its clock to the returned deadline
  // when it polls for the completion.
  uint64_t Reserve(uint64_t arrival, uint64_t service_cycles);

  // Server capacity, in cycles, that requests arriving at `arrival` could
  // still book and finish by `deadline`, given what is already reserved.
  // Books nothing.
  uint64_t FreeCyclesBy(uint64_t arrival, uint64_t deadline) const;

  // Total cycles threads spent queueing on this resource.
  uint64_t TotalQueueingCycles() const { return queueing_.load(std::memory_order_relaxed); }
  uint64_t TotalServiceCycles() const { return service_.load(std::memory_order_relaxed); }
  uint64_t Acquisitions() const { return acquisitions_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  static constexpr size_t kBuckets = 8192;
  static constexpr uint64_t kUsedBits = 24;
  static constexpr uint64_t kUsedMask = (1ull << kUsedBits) - 1;

  static uint64_t Pack(uint64_t epoch, uint64_t used) { return (epoch << kUsedBits) | used; }
  static uint64_t EpochOf(uint64_t packed) { return packed >> kUsedBits; }
  static uint64_t UsedOf(uint64_t packed) { return packed & kUsedMask; }

  uint64_t window_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // packed (epoch, used)
  std::atomic<uint64_t> queueing_{0};
  std::atomic<uint64_t> service_{0};
  std::atomic<uint64_t> acquisitions_{0};
};

// RAII cycle measurement: charges the real duration of a scope to a category
// on a SimClock, converted to cycles at the modeled 2.4 cycles/ns. Used for
// software paths we execute for real (hash lookups, tree ops, memcpy).
//
// The duration is read with vDSO clock_gettime(CLOCK_MONOTONIC) at both ends
// (no syscall), minus the empty-scope cost: the median of back-to-back reads,
// calibrated once per process. Monotonic time also runs while the thread is
// descheduled, so each thread keeps a checkpoint of (monotonic time, thread
// CPU time). A scope longer than 20 us reads CLOCK_THREAD_CPUTIME_ID once,
// subtracts the thread's off-CPU time since the checkpoint (capped at the
// scope's own duration), moves the checkpoint and counts the correction in
// PreemptCorrections(). Any scope end refreshes a checkpoint older than 1 ms,
// so the subtracted time is off-CPU time of about this scope's span. There is
// no length cap: only off-CPU time is removed, so long real work (an eviction
// batch) charges in full.
class ScopedMeasure {
 public:
  ScopedMeasure(SimClock& clock, CostCategory category);
  ~ScopedMeasure();

  ScopedMeasure(const ScopedMeasure&) = delete;
  ScopedMeasure& operator=(const ScopedMeasure&) = delete;

 private:
  SimClock& clock_;
  CostCategory category_;
  uint64_t start_;  // CLOCK_MONOTONIC ns
};

// Scopes (process-wide) whose charge had descheduled time subtracted.
uint64_t PreemptCorrections();

}  // namespace aquila

#endif  // AQUILA_SRC_UTIL_SIM_CLOCK_H_
