#include "src/vmx/ipi.h"

#include "src/util/logging.h"

namespace aquila {

PostedIpiFabric::PostedIpiFabric(SendPath path) : send_path_(path) {
  metrics_.AddCounter("aquila.vmx.ipi_sent", total_sent_);
  metrics_.AddCounter("aquila.vmx.ipi_throttled", total_throttled_);
  metrics_.Add("aquila.vmx.ipi_received", telemetry::MetricKind::kCounter, [this] {
    uint64_t received = 0;
    for (const Mailbox& box : mailboxes_) {
      received += box.received.load(std::memory_order_relaxed);
    }
    return received;
  });
}

void PostedIpiFabric::Send(SimClock& sender, int target_core, uint64_t handler_cycles) {
  AQUILA_CHECK(target_core >= 0 && target_core < CoreRegistry::kMaxCores);
  const CostModel& costs = GlobalCostModel();

  int sender_core = CoreRegistry::CurrentCore();
  if (rate_limit_per_ms_ != 0) {
    // Token-bucket per sender over simulated time; exceeding the limit stalls
    // the sender in the hypervisor until the next window.
    SenderBucket& bucket = buckets_[sender_core];
    uint64_t window_cycles = GlobalCostModel().cycles_per_us * 1000;
    uint64_t now = sender.Now();
    if (now - bucket.window_start >= window_cycles) {
      bucket.window_start = now;
      bucket.sends_in_window = 0;
    }
    if (++bucket.sends_in_window > rate_limit_per_ms_) {
      sender.AdvanceTo(bucket.window_start + window_cycles);
      bucket.window_start = sender.Now();
      bucket.sends_in_window = 1;
      total_throttled_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  uint64_t send_cost =
      send_path_ == SendPath::kPosted ? costs.ipi_send_posted : costs.ipi_send_vmexit;
  sender.Charge(CostCategory::kTlbShootdown, send_cost);

  Mailbox& box = mailboxes_[target_core];
  box.stolen_cycles.fetch_add(costs.ipi_receive + handler_cycles, std::memory_order_relaxed);
  box.received.fetch_add(1, std::memory_order_relaxed);
  total_sent_.fetch_add(1, std::memory_order_relaxed);
}

void PostedIpiFabric::Absorb(SimClock& clock, int core) {
  AQUILA_CHECK(core >= 0 && core < CoreRegistry::kMaxCores);
  // Load before exchanging: most fault entries find the mailbox empty, and a
  // plain load leaves its line shared instead of taking it exclusive.
  std::atomic<uint64_t>& mailbox = mailboxes_[core].stolen_cycles;
  if (mailbox.load(std::memory_order_relaxed) == 0) {
    return;
  }
  clock.Charge(CostCategory::kTlbShootdown, mailbox.exchange(0, std::memory_order_relaxed));
}

}  // namespace aquila
