// Cooperative fault scheduling: core-local run queues and parked-request
// tables (ROADMAP item 5).
//
// The async pipeline (PR 4) gives the device queue depth, but a blocking
// faulter still burns the whole round-trip in AwaitFill. With the scheduler,
// a batch request that hits a park point in the fault path is suspended as an
// explicit continuation — the captured state is tiny because re-running the
// access is always safe: the cache key it waits on, the demand-fill frame it
// owns (if any), and a resume ticket. The core then services other ready
// requests from its run queue and resumes parked ones as completions are
// harvested, so N overlapped fills cost one device round-trip of core idle
// time instead of N.
//
// Park points (all under the page's VMA entry lock; see mmio_region.cc):
//   a) cache miss with another request's fill in flight for the key
//      (blocking path: AwaitFill);
//   b) minor-fault pin lost to kWritingBack (blocking path: WaitOne);
//   c) major fault — the request allocates a frame and submits its own
//      demand fill (blocking path: a synchronous device read).
// Every committed park has a completion pending on some engine, whose
// CompleteLocked fires SchedRegistry::Wake; the lost-wakeup-free protocol is
// PrePark -> re-check the awaited condition -> park or CancelPark (wakes run
// under the engine lock, parks re-check under it, so a completion that beat
// the PrePark is always seen by the re-check).
//
// Lock hierarchy: entry locks -> engine lock -> sched table lock. The table
// lock is a leaf (PrePark/Wake/Consume touch nothing else); the run queue is
// single-threaded by construction (only its core's submitting thread touches
// it) and needs no lock at all — the northport kernel/scheduling idiom of
// per-core queues with cross-core communication only through the wake path.
#ifndef AQUILA_SRC_CORE_SCHED_H_
#define AQUILA_SRC_CORE_SCHED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/core/mmio.h"
#include "src/util/cpu.h"
#include "src/util/spinlock.h"
#include "src/util/status.h"
#include "src/vmx/vcpu.h"

namespace aquila {

class AquilaMap;
class SchedRegistry;

// One suspended fault: what the continuation needs to resume. The frame is
// kInvalidFrame unless this request owns a demand fill (park point c), whose
// kFilling pin survives the park — the frame is invisible to evictors until
// its completion publishes or frees it, exactly like a readahead fill.
struct ParkedRequest {
  uint64_t token = 0;  // resume-once ticket; 0 is never issued
  uint64_t key = 0;    // cache key the request waits on
  FrameId frame = kInvalidFrame;
  bool ready = false;
  Status wake_status;
};

class CoreScheduler {
 public:
  CoreScheduler(SchedRegistry* registry, int core);

  // --- Run queue (this core's submitting thread only; no locking) -------------
  struct Task {
    AquilaMap* map = nullptr;
    MmioRequest request;
    MmioCompletion completion;
    uint64_t park_token = 0;  // nonzero while parked
    bool owner_park = false;  // parked on its own demand fill (point c)
    bool done = false;
  };

  void Enqueue(AquilaMap* map, const MmioRequest& request);
  // Services the run queue once: steps every runnable task (new, or parked
  // and woken) until it completes or parks again. Returns tasks completed.
  size_t RunReady(Vcpu& vcpu);
  // Drains completions belonging to `map` into `out`; returns count written.
  size_t PopCompleted(AquilaMap* map, std::span<MmioCompletion> out);
  // True while `map` still has tasks in flight (runnable or parked).
  bool HasTasks(const AquilaMap* map) const;
  // Force-resumes every parked task (consuming or cancelling its table
  // entry). The idle loop's wedge valve: re-running is always correct, so
  // when nothing is in flight anywhere a stuck task re-checks its condition
  // from scratch instead of waiting for a wake that cannot come.
  void KickParked();

  // --- Parked table (cross-thread; table lock) --------------------------------
  // Reserves a parked entry and returns its ticket, or 0 when the table is
  // at Options::sched_max_parked — the fault path then falls back to the
  // blocking protocol for this access. Call BEFORE the condition re-check.
  uint64_t PrePark(uint64_t key, FrameId frame);
  // Drops a reservation whose condition vanished before the park committed.
  void CancelPark(uint64_t token);
  // Marks the park committed (counted; the entry was reserved by PrePark).
  void CommitPark(uint64_t token);
  // If `token` was woken: removes the entry, returns true with the wake
  // status. A not-yet-woken entry stays parked and returns false.
  bool ConsumeIfReady(uint64_t token, Status* status);
  // Wakes every entry parked on `key`. `frame` identifies the completed
  // fill's frame so the demand owner (entry.frame == frame) receives
  // `status` as terminal; other waiters just become runnable and re-check.
  // `waker_core` charges cross-core wakeups as steals. Returns entries woken.
  size_t Wake(uint64_t key, FrameId frame, const Status& status, int waker_core);

  int core() const { return core_; }
  size_t parked_now() const;
  // Logs the run queue and the parked table for a stall report (run queue:
  // this core's thread only).
  void LogState() const;

 private:
  SchedRegistry* registry_;
  int core_;

  std::deque<Task> run_queue_;

  mutable SpinLock table_lock_;
  std::vector<ParkedRequest> parked_;  // guarded by table_lock_
};

// Process-wide owner of the per-core schedulers plus the aquila.sched.*
// counters. Wake fans out across cores; the fast path (nothing parked
// anywhere) is one relaxed load of parked_depth_.
class SchedRegistry {
 public:
  explicit SchedRegistry(uint32_t max_parked) : max_parked_(max_parked) {}

  // The calling core's scheduler, created on first use.
  CoreScheduler* ForCore(int core);
  // The scheduler for `core` if one exists (never creates); may be null.
  CoreScheduler* PeekCore(int core) const;

  // Wakes matching parked entries on every core. Called from
  // AsyncWritebackEngine::CompleteLocked under the engine lock; returns
  // immediately when nothing is parked anywhere.
  size_t Wake(uint64_t key, FrameId frame, const Status& status, int waker_core);

  uint32_t max_parked() const { return max_parked_; }

  // --- aquila.sched.* ---------------------------------------------------------
  std::atomic<uint64_t> parked_total{0};   // parks committed
  std::atomic<uint64_t> resumed_total{0};  // parked tasks resumed
  std::atomic<uint64_t> steals{0};         // wakes delivered by another core
  std::atomic<int64_t> parked_depth{0};    // entries currently in the tables

 private:
  friend class CoreScheduler;

  uint32_t max_parked_;
  std::atomic<uint64_t> next_token_{1};

  mutable SpinLock cores_lock_;
  std::array<std::unique_ptr<CoreScheduler>, CoreRegistry::kMaxCores> cores_{};
  std::atomic<int> cores_created_{0};
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_SCHED_H_
