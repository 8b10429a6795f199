#include "src/storage/device_health.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/telemetry/span.h"
#include "src/telemetry/stats_server.h"

namespace aquila {

namespace {

// Live DeviceHealth instances, serialized by the /health endpoint. The
// provider hook keeps the dependency arrow pointing the right way: telemetry
// exposes a generic hook, this storage-side file installs it.
std::mutex& HealthRegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<DeviceHealth*>& HealthRegistry() {
  static std::vector<DeviceHealth*> instances;
  return instances;
}

void RegisterHealthInstance(DeviceHealth* health) {
  static std::once_flag provider_once;
  std::call_once(provider_once, [] {
    telemetry::SetHealthJsonProvider([] { return DeviceHealthRegistryJson(); });
  });
  std::lock_guard<std::mutex> lock(HealthRegistryMutex());
  HealthRegistry().push_back(health);
}

void UnregisterHealthInstance(DeviceHealth* health) {
  std::lock_guard<std::mutex> lock(HealthRegistryMutex());
  auto& instances = HealthRegistry();
  instances.erase(std::remove(instances.begin(), instances.end(), health), instances.end());
}

}  // namespace

DeviceHealth::DeviceHealth() {
  RegisterHealthInstance(this);
  metrics_.AddGauge("aquila.device.health_state",
                    [this] { return static_cast<uint64_t>(state_.load(std::memory_order_relaxed)); });
  metrics_.AddCounter("aquila.device.timeouts", stats_.timeouts);
  metrics_.AddCounter("aquila.device.watchdog_retries", stats_.watchdog_retries);
  metrics_.AddCounter("aquila.device.abandoned", stats_.abandoned);
  metrics_.AddCounter("aquila.device.hedges", stats_.hedges);
  metrics_.AddCounter("aquila.device.hedge_wins", stats_.hedge_wins);
  metrics_.AddCounter("aquila.device.fail_fast", stats_.fail_fast);
  metrics_.AddCounter("aquila.device.probes", stats_.probes);
  metrics_.AddCounter("aquila.device.state_changes", stats_.state_changes);
}

DeviceHealth::~DeviceHealth() { UnregisterHealthInstance(this); }

void DeviceHealth::Enable(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  if (options_.window_ops == 0) options_.window_ops = 1;
  if (options_.min_samples == 0) options_.min_samples = 1;
  if (options_.degraded_depth_divisor == 0) options_.degraded_depth_divisor = 1;
  enabled_.store(true, std::memory_order_release);
}

void DeviceHealth::set_label(const char* label) {
  if (label == nullptr || label_set_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (label_.empty()) {
    label_ = label;
  }
  label_set_.store(true, std::memory_order_release);
}

const char* DeviceHealth::StateName(State state) {
  switch (state) {
    case State::kHealthy: return "healthy";
    case State::kSuspect: return "suspect";
    case State::kDegraded: return "degraded";
    case State::kFailed: return "failed";
    case State::kProbing: return "probing";
  }
  return "unknown";
}

void DeviceHealth::TransitionLocked(State next) {
  state_.store(next, std::memory_order_release);
  stats_.state_changes.fetch_add(1, std::memory_order_relaxed);
}

void DeviceHealth::RecordOutcome(uint64_t now, Outcome outcome) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  State s = state_.load(std::memory_order_relaxed);
  if (s == State::kProbing) {
    // The probe's verdict: re-admit with a clean slate or re-open the
    // breaker and wait out another probe interval.
    if (outcome == Outcome::kOk) {
      window_.clear();
      window_bad_ = 0;
      TransitionLocked(State::kHealthy);
    } else {
      failed_at_ = now;
      TransitionLocked(State::kFailed);
    }
    return;
  }
  window_.push_back(outcome);
  if (outcome != Outcome::kOk) {
    window_bad_++;
  }
  while (window_.size() > options_.window_ops) {
    if (window_.front() != Outcome::kOk) {
      window_bad_--;
    }
    window_.pop_front();
  }
  if (s == State::kFailed) {
    // Straggler completions from before the breaker opened; only a probe
    // can exit kFailed.
    return;
  }
  if (window_.size() < options_.min_samples) {
    return;
  }
  double bad = static_cast<double>(window_bad_) / static_cast<double>(window_.size());
  State next = State::kHealthy;
  if (bad >= options_.failed_threshold) {
    next = State::kFailed;
  } else if (bad >= options_.degraded_threshold) {
    next = State::kDegraded;
  } else if (bad >= options_.suspect_threshold) {
    next = State::kSuspect;
  }
  if (next != s) {
    if (next == State::kFailed) {
      failed_at_ = now;
    }
    TransitionLocked(next);
  }
}

bool DeviceHealth::ShouldFailFast(uint64_t now) {
  if (!enabled()) {
    return false;
  }
  if (state_.load(std::memory_order_acquire) != State::kFailed) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) != State::kFailed) {
    return false;
  }
  if (now >= failed_at_ + options_.probe_interval_cycles) {
    TransitionLocked(State::kProbing);
    stats_.probes.fetch_add(1, std::memory_order_relaxed);
    return false;  // the caller's op goes through as the probe
  }
  stats_.fail_fast.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DeviceHealth::allows_readahead() const {
  if (!enabled()) {
    return true;
  }
  State s = state();
  return s == State::kHealthy || s == State::kSuspect;
}

uint64_t DeviceHealth::probe_due_at() const {
  if (!enabled() || state() != State::kFailed) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return failed_at_ + options_.probe_interval_cycles;
}

uint32_t DeviceHealth::CapDepth(uint32_t full_depth) const {
  if (!enabled()) {
    return full_depth;
  }
  State s = state();
  if (s == State::kHealthy || s == State::kSuspect) {
    return full_depth;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t capped = full_depth / options_.degraded_depth_divisor;
  return capped > 0 ? capped : 1;
}

std::string DeviceHealth::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"device\":\"" << (label_.empty() ? "unnamed" : label_) << "\""
      << ",\"enabled\":" << (enabled_.load(std::memory_order_relaxed) ? "true" : "false")
      << ",\"state\":\"" << StateName(state_.load(std::memory_order_relaxed)) << "\""
      << ",\"window_ops\":" << window_.size()
      << ",\"window_bad\":" << window_bad_
      << ",\"timeouts\":" << stats_.timeouts.load(std::memory_order_relaxed)
      << ",\"watchdog_retries\":" << stats_.watchdog_retries.load(std::memory_order_relaxed)
      << ",\"abandoned\":" << stats_.abandoned.load(std::memory_order_relaxed)
      << ",\"hedges\":" << stats_.hedges.load(std::memory_order_relaxed)
      << ",\"hedge_wins\":" << stats_.hedge_wins.load(std::memory_order_relaxed)
      << ",\"fail_fast\":" << stats_.fail_fast.load(std::memory_order_relaxed)
      << ",\"probes\":" << stats_.probes.load(std::memory_order_relaxed)
      << ",\"state_changes\":" << stats_.state_changes.load(std::memory_order_relaxed) << "}";
  return out.str();
}

std::string DeviceHealthRegistryJson() {
  std::lock_guard<std::mutex> lock(HealthRegistryMutex());
  std::ostringstream out;
  out << "{\"devices\":[";
  bool first = true;
  for (const DeviceHealth* health : HealthRegistry()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << health->ToJson();
  }
  out << "]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// WatchdogQueue

WatchdogQueue::WatchdogQueue(DeviceHealth* health, std::unique_ptr<DeviceQueue> inner,
                             const Options& options)
    : DeviceQueue(inner->depth()),
      health_(health),
      inner_(std::move(inner)),
      options_(options),
      jitter_(options.jitter_seed) {
  AQUILA_CHECK(health_ != nullptr);
  AQUILA_CHECK(options_.timeout_cycles > 0);
  if (options_.max_attempts == 0) {
    options_.max_attempts = 1;
  }
  if (options_.backoff_base_cycles == 0) {
    options_.backoff_base_cycles = 1;
  }
  latencies_.reserve(64);
}

WatchdogQueue::~WatchdogQueue() = default;

uint32_t WatchdogQueue::EffectiveDepth() const { return health_->CapDepth(depth()); }

Status WatchdogQueue::SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                                 uint64_t user_data) {
  return SubmitOp(vcpu, /*is_read=*/true, offset, dst, {}, user_data);
}

Status WatchdogQueue::SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                                  uint64_t user_data) {
  return SubmitOp(vcpu, /*is_read=*/false, offset, {}, src, user_data);
}

Status WatchdogQueue::SubmitOp(Vcpu& vcpu, bool is_read, uint64_t offset,
                               std::span<uint8_t> dst, std::span<const uint8_t> src,
                               uint64_t user_data) {
  // Gate on the caller-op count AND the inner queue's real occupancy: hedge
  // legs, retries, and uncancellable zombies hold inner slots that don't
  // count as watchdog ops, and the inner queue's raw rejection must never
  // leak to a caller that passed our depth check. Either way the caller
  // sheds load exactly as it would on a full queue.
  if (in_flight() >= EffectiveDepth() || inner_->in_flight() >= inner_->depth()) {
    return Status::OutOfSpace("watchdog queue at effective depth");
  }
  uint64_t now = vcpu.clock().Now();
  if (health_->ShouldFailFast(now)) {
    // Breaker open: synthesize the failure without touching the device so
    // the caller's writeback-failure machinery reacts immediately instead
    // of waiting out a timeout per op.
    Completion c;
    c.user_data = user_data;
    c.status = Status::Unavailable("device breaker open: failing fast");
    c.submit_at = now;
    c.ready_at = now;
    ready_.push_back(std::move(c));
    NoteSubmit();
    return Status::Ok();
  }
  uint64_t op_id = next_op_++;
  Op& op = ops_[op_id];
  op.is_read = is_read;
  op.offset = offset;
  op.user_data = user_data;
  op.read_dst = dst;
  op.write_src = src;
  op.first_submit_at = now;
  Status s = SubmitLeg(vcpu, op_id, op, /*hedge=*/false);
  if (!s.ok()) {
    ops_.erase(op_id);
    return s;
  }
  NoteSubmit();
  return Status::Ok();
}

Status WatchdogQueue::SubmitLeg(Vcpu& vcpu, uint64_t op_id, Op& op, bool hedge) {
  uint64_t token = next_token_++;
  Status s;
  if (!op.is_read) {
    s = inner_->SubmitWrite(vcpu, op.offset, op.write_src, token);
  } else if (hedge) {
    op.hedge_buf.resize(op.read_dst.size());
    s = inner_->SubmitRead(vcpu, op.offset, std::span<uint8_t>(op.hedge_buf), token);
  } else {
    s = inner_->SubmitRead(vcpu, op.offset, op.read_dst, token);
  }
  if (!s.ok()) {
    return s;
  }
  tokens_[token] = Leg{op_id, hedge};
  op.outstanding++;
  if (!hedge) {
    // Every new attempt buys the op a fresh deadline (per-attempt timeout).
    // A hedge rides the primary attempt's existing deadline: refreshing it
    // here would silently stretch the attempt to HedgeDelay + timeout and
    // delay timeout detection for exactly the ops that are already slow.
    op.attempts++;
    // From the medium's promised completion (now, for a swallowed command):
    // a lagging thread's clock finds the channel booked far past it by other
    // threads' bursts, and that queueing is not silence.
    const uint64_t ready = inner_->ReadyAt(token);
    op.deadline = std::max(vcpu.clock().Now(), ready == UINT64_MAX ? 0 : ready) +
                  options_.timeout_cycles;
  }
  op.resubmit_at = 0;
  return s;
}

uint32_t WatchdogQueue::Poll(Vcpu& vcpu, std::vector<Completion>* out) {
  uint64_t now = vcpu.clock().Now();
  std::vector<Completion> inner_done;
  inner_->Poll(vcpu, &inner_done);
  for (const Completion& c : inner_done) {
    HandleInnerCompletion(vcpu, c, now);
  }
  Sweep(vcpu, now);
  uint32_t reaped = 0;
  for (Completion& c : ready_) {
    NoteComplete();
    out->push_back(std::move(c));
    reaped++;
  }
  ready_.clear();
  return reaped;
}

void WatchdogQueue::HandleInnerCompletion(Vcpu& vcpu, const Completion& c, uint64_t now) {
  (void)vcpu;
  auto it = tokens_.find(c.user_data);
  if (it == tokens_.end()) {
    return;  // leg was cancelled and forgotten
  }
  Leg leg = it->second;
  tokens_.erase(it);
  auto oit = ops_.find(leg.op_id);
  AQUILA_CHECK(oit != ops_.end());
  Op& op = oit->second;
  AQUILA_CHECK(op.outstanding > 0);
  op.outstanding--;
  if (op.done) {
    // Zombie leg of an already-answered op (abandoned, or the losing side
    // of a hedge/retry race): the data landed idempotently; discard.
    MaybeEraseOp(leg.op_id, op);
    return;
  }
  if (c.status.ok()) {
    uint64_t latency = c.ready_at >= c.submit_at ? c.ready_at - c.submit_at : 0;
    if (latencies_.size() < 64) {
      latencies_.push_back(latency);
    } else {
      latencies_[latency_next_] = latency;
      latency_next_ = (latency_next_ + 1) % latencies_.size();
    }
    health_->RecordOutcome(now, DeviceHealth::Outcome::kOk);
    if (leg.is_hedge) {
      // Hedge won: reconcile its side buffer into the caller's destination.
      std::memcpy(op.read_dst.data(), op.hedge_buf.data(), op.read_dst.size());
      health_->stats().hedge_wins.fetch_add(1, std::memory_order_relaxed);
    }
    Completion done;
    done.user_data = op.user_data;
    done.status = Status::Ok();
    done.submit_at = c.submit_at;
    done.ready_at = c.ready_at;
    FinishOp(leg.op_id, op, std::move(done), now);
    return;
  }
  health_->RecordOutcome(now, DeviceHealth::Outcome::kError);
  if (op.outstanding > 0 || op.resubmit_at != 0) {
    // Another leg (or a scheduled retry) may still succeed; hold the error
    // until the op's fate is decided. The deadline bounds the wait.
    op.has_error = true;
    op.error = c.status;
    return;
  }
  Completion done;
  done.user_data = op.user_data;
  done.status = c.status;
  done.submit_at = c.submit_at;
  done.ready_at = c.ready_at;
  FinishOp(leg.op_id, op, std::move(done), now);
}

void WatchdogQueue::Sweep(Vcpu& vcpu, uint64_t now) {
  std::vector<uint64_t> ids;
  ids.reserve(ops_.size());
  for (const auto& [id, op] : ops_) {
    if (!op.done) {
      ids.push_back(id);
    }
  }
  for (uint64_t id : ids) {
    auto it = ops_.find(id);
    if (it == ops_.end()) {
      continue;
    }
    Op& op = it->second;
    if (op.done) {
      continue;
    }
    if (op.resubmit_at != 0) {
      if (now >= op.resubmit_at) {
        telemetry::ChildSpan span(vcpu.clock(), telemetry::SpanPhase::kWatchdog, op.offset);
        Status s = SubmitLeg(vcpu, id, op, /*hedge=*/false);
        if (s.ok()) {
          health_->stats().watchdog_retries.fetch_add(1, std::memory_order_relaxed);
        } else if (s.code() != StatusCode::kOutOfSpace) {
          // Unretryable submission failure: answer with it.
          Completion done;
          done.user_data = op.user_data;
          done.status = s;
          done.submit_at = op.first_submit_at;
          done.ready_at = now;
          health_->stats().abandoned.fetch_add(1, std::memory_order_relaxed);
          FinishOp(id, op, std::move(done), now);
        }
        // kOutOfSpace: inner full; resubmit_at stands, try next poll.
      }
      continue;
    }
    if (op.deadline != 0 && now >= op.deadline) {
      telemetry::ChildSpan span(vcpu.clock(), telemetry::SpanPhase::kWatchdog, op.offset);
      health_->stats().timeouts.fetch_add(1, std::memory_order_relaxed);
      health_->RecordOutcome(now, DeviceHealth::Outcome::kTimeout);
      // Withdraw whatever the inner queue will give back; legs that cannot
      // be cancelled stay mapped and still win if they complete before the
      // retry does (brownout reconciliation).
      for (auto tit = tokens_.begin(); tit != tokens_.end();) {
        if (tit->second.op_id == id && inner_->Cancel(tit->first)) {
          tit = tokens_.erase(tit);
          AQUILA_CHECK(op.outstanding > 0);
          op.outstanding--;
        } else {
          ++tit;
        }
      }
      if (op.attempts >= options_.max_attempts) {
        Completion done;
        done.user_data = op.user_data;
        done.status = op.has_error ? op.error
                                   : Status::DeadlineExceeded("device op overran watchdog deadline");
        done.submit_at = op.first_submit_at;
        done.ready_at = now;
        health_->stats().abandoned.fetch_add(1, std::memory_order_relaxed);
        FinishOp(id, op, std::move(done), now);
      } else {
        op.deadline = 0;
        op.resubmit_at = now + NextBackoff(op);
      }
      continue;
    }
    if (options_.hedge_reads && op.is_read && !op.hedged && op.outstanding == 1 &&
        now >= op.first_submit_at + HedgeDelay()) {
      Status s = SubmitLeg(vcpu, id, op, /*hedge=*/true);
      if (s.ok()) {
        op.hedged = true;
        health_->stats().hedges.fetch_add(1, std::memory_order_relaxed);
      }
      // A full inner queue skips the hedge silently; the primary leg still
      // has its deadline.
    }
  }
}

void WatchdogQueue::FinishOp(uint64_t op_id, Op& op, Completion completion, uint64_t now) {
  (void)now;
  op.done = true;
  op.deadline = 0;
  op.resubmit_at = 0;
  ready_.push_back(std::move(completion));
  // Withdraw every leg still in flight for this op — the hung primary a
  // hedge just beat, or the losing side of a retry race. Cancellable legs
  // hand their inner slot back now; without this, a hung leg's token and
  // slot would leak past the op's lifetime and permanently shrink the
  // queue's effective depth. Legs that refuse cancellation still complete
  // and drain as discarded zombies.
  for (auto tit = tokens_.begin(); tit != tokens_.end();) {
    if (tit->second.op_id == op_id && inner_->Cancel(tit->first)) {
      tit = tokens_.erase(tit);
      AQUILA_CHECK(op.outstanding > 0);
      op.outstanding--;
    } else {
      ++tit;
    }
  }
  MaybeEraseOp(op_id, op);
}

void WatchdogQueue::MaybeEraseOp(uint64_t op_id, const Op& op) {
  if (op.done && op.outstanding == 0) {
    ops_.erase(op_id);
  }
}

uint64_t WatchdogQueue::NextBackoff(Op& op) {
  // Decorrelated jitter (Brooker): uniform in [base, min(cap, 3 * prev)],
  // so concurrent retriers spread out instead of synchronizing into bursts.
  uint64_t prev = op.backoff != 0 ? op.backoff : options_.backoff_base_cycles;
  uint64_t lo = options_.backoff_base_cycles;
  uint64_t hi = std::min(options_.backoff_cap_cycles, prev * 3);
  if (hi <= lo) {
    op.backoff = lo;
  } else {
    op.backoff = lo + jitter_.Uniform(hi - lo + 1);
  }
  return op.backoff;
}

uint64_t WatchdogQueue::HedgeDelay() const {
  uint64_t delay = options_.hedge_min_delay_cycles;
  if (latencies_.size() >= 16) {
    std::vector<uint64_t> sorted(latencies_);
    size_t idx = sorted.size() * 99 / 100;
    if (idx >= sorted.size()) {
      idx = sorted.size() - 1;
    }
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(idx), sorted.end());
    delay = std::max(delay, sorted[idx]);
  }
  if (delay >= options_.timeout_cycles && options_.timeout_cycles > 1) {
    delay = options_.timeout_cycles - 1;  // hedge before the deadline fires
  }
  return delay;
}

uint64_t WatchdogQueue::NextReadyAt() const {
  if (!ready_.empty()) {
    return 0;
  }
  uint64_t next = inner_->NextReadyAt();
  // Only count resubmits/hedges the inner queue could actually accept; when
  // it is full, progress is gated on an inner completion (or a deadline),
  // both already in the min — reporting a stale past time here would let
  // WaitMin spin without advancing.
  bool inner_has_room = inner_->in_flight() < inner_->depth();
  for (const auto& [id, op] : ops_) {
    (void)id;
    if (op.done) {
      continue;
    }
    if (op.resubmit_at != 0) {
      if (inner_has_room) {
        next = std::min(next, op.resubmit_at);
      }
      continue;
    }
    if (op.deadline != 0) {
      next = std::min(next, op.deadline);
      if (options_.hedge_reads && op.is_read && !op.hedged && inner_has_room) {
        next = std::min(next, op.first_submit_at + HedgeDelay());
      }
    }
  }
  return next;
}

}  // namespace aquila
