// Per-device health tracking and the hang-robust watchdog queue decorator.
//
// PR 2 hardened the storage stack against I/O that *fails* (error returns,
// torn writes, crash consistency); this layer hardens it against I/O that
// *stalls* — commands that never complete (firmware hang), complete 10-100x
// late (brownout), or flap between the two. Both pieces sit at the
// DeviceQueue seam so every backend (native NVMe queue, sync-emulation shim,
// fault decorator) inherits them:
//
//   - DeviceHealth: one per BlockDevice. A sliding window over recent op
//     outcomes (ok / error / timeout) drives a five-state machine
//       healthy -> suspect -> degraded -> failed -> probing -> healthy
//     acting as a circuit breaker: `degraded` sheds read-ahead and caps the
//     effective queue depth; `failed` fails submissions fast (kUnavailable,
//     no timeout wait) so the existing writeback_failure_limit machinery
//     flips affected regions into degraded-read-only mode; after a probe
//     interval the next submission is let through as a probe whose outcome
//     either re-admits the device or re-opens the breaker. Passive until
//     Enable() — the default build records nothing and sheds nothing.
//
//   - WatchdogQueue: a DeviceQueue decorator created by the async engine
//     when Options::device_op_timeout_us > 0. Every submission carries a
//     sim-clock deadline; the reaper-side sweep in Poll() detects overdue
//     ops, withdraws hung commands (Cancel) or abandons them to complete as
//     discarded zombies, and retries with capped exponential backoff plus
//     decorrelated jitter before synthesizing a kDeadlineExceeded
//     completion. Reads can additionally be hedged: a second submission
//     into a side buffer after a p99-based delay, first completion wins,
//     the loser is reconciled (discarded, or memcpy'd over on a hedge win).
//     NextReadyAt() always reports the earliest deadline/backoff expiry, so
//     WaitMin/Drain keep advancing simulated time past a hung command
//     instead of wedging the faulting core.
//
// Neither piece exists on the hot path unless opted in: with the timeout at
// its default 0 the engine uses the raw device queue and DeviceHealth stays
// disabled, so simulated metrics are bit-identical to the pre-watchdog
// pipeline.
#ifndef AQUILA_SRC_STORAGE_DEVICE_HEALTH_H_
#define AQUILA_SRC_STORAGE_DEVICE_HEALTH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/device_queue.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aquila {

class DeviceHealth {
 public:
  enum class State : uint8_t {
    kHealthy = 0,
    kSuspect,   // elevated error/timeout rate; observe only
    kDegraded,  // shed read-ahead, cap queue depth
    kFailed,    // breaker open: fail fast, wait for the probe interval
    kProbing,   // one op in flight as the re-admission probe
  };
  enum class Outcome : uint8_t { kOk = 0, kError, kTimeout };

  struct Options {
    // Sliding outcome window (op count). Rates below are computed over it.
    uint32_t window_ops = 32;
    // No upward state transition before this many samples are in the window
    // (one unlucky first op must not open the breaker).
    uint32_t min_samples = 8;
    double suspect_threshold = 0.125;
    double degraded_threshold = 0.375;
    double failed_threshold = 0.625;
    // Simulated cycles after entering kFailed before the next submission is
    // admitted as a probe.
    uint64_t probe_interval_cycles = 2'400'000;  // 1ms at 2.4GHz
    // kDegraded caps the effective queue depth to depth / divisor (min 1).
    uint32_t degraded_depth_divisor = 4;
  };

  struct Stats {
    std::atomic<uint64_t> timeouts{0};        // watchdog deadlines that fired
    std::atomic<uint64_t> watchdog_retries{0};
    std::atomic<uint64_t> abandoned{0};       // ops given up as kDeadlineExceeded
    std::atomic<uint64_t> hedges{0};          // hedge reads submitted
    std::atomic<uint64_t> hedge_wins{0};      // hedge completed before primary
    std::atomic<uint64_t> fail_fast{0};       // submissions short-circuited
    std::atomic<uint64_t> probes{0};          // ops admitted as probes
    std::atomic<uint64_t> state_changes{0};
  };

  DeviceHealth();
  ~DeviceHealth();

  DeviceHealth(const DeviceHealth&) = delete;
  DeviceHealth& operator=(const DeviceHealth&) = delete;

  // Arms outcome recording and the circuit breaker. Idempotent; later calls
  // update the thresholds. Until enabled every query answers "healthy".
  void Enable(const Options& options);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Shown in the /health endpoint next to the state (set once, first wins).
  // After the first successful set this is a lock-free no-op, so callers may
  // invoke it on every access without adding hot-path mutex traffic.
  void set_label(const char* label);

  // Feeds the sliding window and advances the state machine. `now` is the
  // recording thread's simulated time (timestamps only order the window).
  void RecordOutcome(uint64_t now, Outcome outcome);

  // Circuit breaker check at submit. True: fail the op fast (kUnavailable)
  // without touching the device. When the probe interval has elapsed the
  // state flips to kProbing and this returns false — the caller's op goes
  // through as the probe and its outcome decides re-admission.
  bool ShouldFailFast(uint64_t now);

  State state() const { return state_.load(std::memory_order_acquire); }
  // False while degraded/failed/probing: speculative prefetch is the first
  // load a sick device should shed.
  bool allows_readahead() const;
  // Effective queue depth under the current state (full_depth when healthy).
  uint32_t CapDepth(uint32_t full_depth) const;

  // Sim time at which a kFailed device admits its next probe (0 when the
  // breaker is not open). Per-thread clocks diverge, so a recovering caller
  // whose own clock lags the thread that tripped the breaker can idle up to
  // this point instead of guessing how far ahead that thread ran.
  uint64_t probe_due_at() const;

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

  // One JSON object for the /health endpoint.
  std::string ToJson() const;

  static const char* StateName(State state);

 private:
  void TransitionLocked(State next);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> label_set_{false};  // fast-path guard for set_label
  std::atomic<State> state_{State::kHealthy};
  Stats stats_;

  mutable std::mutex mu_;
  Options options_;            // guarded by mu_
  std::deque<Outcome> window_;  // guarded by mu_
  uint32_t window_bad_ = 0;     // errors+timeouts currently in window_
  uint64_t failed_at_ = 0;      // sim time kFailed was entered
  std::string label_;           // guarded by mu_
  // Last member: the gauge reads state_, so it unregisters first.
  telemetry::CallbackGroup metrics_;
};

// Serializes every live DeviceHealth instance for the stats server's
// /health route (registered as the telemetry-layer health provider).
std::string DeviceHealthRegistryJson();

// DeviceQueue decorator implementing the completion watchdog (deadlines,
// retries with backoff+jitter, hedged reads) on top of any inner queue.
// Single-owner like every DeviceQueue; the async engine's lock serializes
// all calls.
class WatchdogQueue : public DeviceQueue {
 public:
  struct Options {
    // Per-attempt completion deadline in simulated cycles (> 0), counted
    // from the inner queue's promised ready time (DeviceQueue::ReadyAt) when
    // it has one, else from submission.
    uint64_t timeout_cycles = 0;
    // Total submissions per op, the first included.
    uint32_t max_attempts = 3;
    // Retry backoff: decorrelated jitter in [base, min(cap, 3*prev)].
    uint64_t backoff_base_cycles = 20'000;
    uint64_t backoff_cap_cycles = 2'000'000;
    // Jitter seed (deterministic runs; vary for different schedules).
    uint64_t jitter_seed = 0x77a7c0de;
    // Hedged reads: after a p99-based delay, submit the read a second time
    // into a side buffer; first completion wins, the loser is discarded.
    bool hedge_reads = false;
    // Floor for the hedge delay while the latency reservoir warms up.
    uint64_t hedge_min_delay_cycles = 48'000;  // 20us at 2.4GHz
  };

  WatchdogQueue(DeviceHealth* health, std::unique_ptr<DeviceQueue> inner,
                const Options& options);
  ~WatchdogQueue() override;

  const char* name() const override { return "watchdog"; }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override;
  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override;
  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override;
  uint64_t NextReadyAt() const override;

 private:
  struct Op {
    bool is_read = false;
    uint64_t offset = 0;
    uint64_t user_data = 0;  // caller's tag, returned in the completion
    std::span<uint8_t> read_dst;
    std::span<const uint8_t> write_src;
    uint64_t first_submit_at = 0;
    uint64_t deadline = 0;      // active while at least one leg is in flight
    uint64_t resubmit_at = 0;   // nonzero: waiting out backoff before a retry
    uint64_t backoff = 0;       // previous backoff (decorrelated jitter state)
    uint32_t attempts = 0;      // submissions so far (legs, retries included)
    uint32_t outstanding = 0;   // legs in flight on the inner queue
    bool hedged = false;        // a hedge leg was issued for this op
    bool done = false;          // caller completion delivered; legs are zombies
    bool has_error = false;     // stashed failure awaiting the last leg
    Status error;
    std::vector<uint8_t> hedge_buf;  // hedge leg's side buffer
  };
  struct Leg {
    uint64_t op_id = 0;
    bool is_hedge = false;
  };

  Status SubmitOp(Vcpu& vcpu, bool is_read, uint64_t offset, std::span<uint8_t> dst,
                  std::span<const uint8_t> src, uint64_t user_data);
  // Issues one leg of `op` on the inner queue (initial, retry, or hedge).
  Status SubmitLeg(Vcpu& vcpu, uint64_t op_id, Op& op, bool hedge);
  void HandleInnerCompletion(Vcpu& vcpu, const Completion& c, uint64_t now);
  // Deadline/backoff/hedge sweep: the reaper-side watchdog.
  void Sweep(Vcpu& vcpu, uint64_t now);
  void FinishOp(uint64_t op_id, Op& op, Completion completion, uint64_t now);
  void MaybeEraseOp(uint64_t op_id, const Op& op);
  uint64_t NextBackoff(Op& op);
  uint64_t HedgeDelay() const;
  uint32_t EffectiveDepth() const;

  DeviceHealth* health_;
  std::unique_ptr<DeviceQueue> inner_;
  Options options_;
  uint64_t next_op_ = 1;
  uint64_t next_token_ = 1;   // inner user_data; fresh per leg so a stale
                              // completion can never match a retry
  Rng jitter_;                // decorrelated-jitter draws (deterministic)
  std::map<uint64_t, Op> ops_;      // op_id -> op
  std::map<uint64_t, Leg> tokens_;  // inner token -> leg
  std::vector<Completion> ready_;   // synthesized completions (fail-fast,
                                    // abandoned) awaiting the next Poll
  std::vector<uint64_t> latencies_; // recent ok-completion cycles (p99 feed)
  size_t latency_next_ = 0;
};

}  // namespace aquila

#endif  // AQUILA_SRC_STORAGE_DEVICE_HEALTH_H_
