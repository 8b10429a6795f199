#include "src/util/sim_clock.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace aquila {

const char* CostCategoryName(CostCategory c) {
  switch (c) {
    case CostCategory::kTrap:
      return "trap";
    case CostCategory::kVmExit:
      return "vmexit";
    case CostCategory::kPageTable:
      return "page_table";
    case CostCategory::kCacheMgmt:
      return "cache_mgmt";
    case CostCategory::kDirtyTracking:
      return "dirty_tracking";
    case CostCategory::kTlbShootdown:
      return "tlb_shootdown";
    case CostCategory::kDeviceIo:
      return "device_io";
    case CostCategory::kMemcpy:
      return "memcpy";
    case CostCategory::kSyscall:
      return "syscall";
    case CostCategory::kUserWork:
      return "user_work";
    case CostCategory::kIdle:
      return "idle";
    case CostCategory::kCategories:
      break;
  }
  return "unknown";
}

uint64_t CostBreakdown::Total() const {
  uint64_t total = 0;
  for (uint64_t c : cycles) {
    total += c;
  }
  return total;
}

CostBreakdown& CostBreakdown::operator+=(const CostBreakdown& other) {
  for (size_t i = 0; i < cycles.size(); i++) {
    cycles[i] += other.cycles[i];
  }
  return *this;
}

CostBreakdown CostBreakdown::operator-(const CostBreakdown& other) const {
  CostBreakdown result = *this;
  for (size_t i = 0; i < cycles.size(); i++) {
    result.cycles[i] -= other.cycles[i];
  }
  return result;
}

std::string CostBreakdown::ToString() const {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < cycles.size(); i++) {
    if (cycles[i] == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s%s=%llu", out.empty() ? "" : " ",
                  CostCategoryName(static_cast<CostCategory>(i)),
                  static_cast<unsigned long long>(cycles[i]));
    out += buf;
  }
  return out;
}

SerializedResource::SerializedResource(uint64_t window_cycles)
    : window_(window_cycles),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(kBuckets)) {
  for (size_t i = 0; i < kBuckets; i++) {
    buckets_[i].store(Pack(0, 0), std::memory_order_relaxed);
  }
}

uint64_t SerializedResource::Acquire(SimClock& clock, CostCategory service_category,
                                     uint64_t service_cycles) {
  uint64_t arrival = clock.Now();
  uint64_t done = Reserve(arrival, service_cycles);
  // done >= arrival + service (Reserve clamps); the surplus is queueing.
  clock.AdvanceTo(done - service_cycles);
  clock.Charge(service_category, service_cycles);
  return done;
}

uint64_t SerializedResource::Reserve(uint64_t arrival, uint64_t service_cycles) {
  uint64_t remaining = service_cycles;
  uint64_t last_portion_end = 0;
  uint64_t epoch = arrival / window_;
  while (remaining > 0) {
    std::atomic<uint64_t>& bucket = buckets_[epoch % kBuckets];
    uint64_t packed = bucket.load(std::memory_order_acquire);
    uint64_t cur_epoch = EpochOf(packed);
    uint64_t cur_used = UsedOf(packed);
    if (cur_epoch > epoch) {
      // The ring already wrapped past this window (another thread's clock is
      // far ahead); treat the window as fully consumed.
      epoch++;
      continue;
    }
    if (cur_epoch < epoch) {
      // Stale window: reset and take in one CAS.
      uint64_t take = remaining < window_ ? remaining : window_;
      if (!bucket.compare_exchange_weak(packed, Pack(epoch, take),
                                        std::memory_order_acq_rel)) {
        continue;  // raced; re-read this bucket
      }
      last_portion_end = epoch * window_ + take;
      remaining -= take;
      epoch++;
      continue;
    }
    uint64_t space = window_ - cur_used;
    if (space == 0) {
      epoch++;
      continue;
    }
    uint64_t take = remaining < space ? remaining : space;
    if (!bucket.compare_exchange_weak(packed, Pack(epoch, cur_used + take),
                                      std::memory_order_acq_rel)) {
      continue;
    }
    last_portion_end = epoch * window_ + cur_used + take;
    remaining -= take;
    epoch++;
  }
  // Completion can never precede the uncontended arrival + service.
  uint64_t completion =
      last_portion_end > arrival + service_cycles ? last_portion_end : arrival + service_cycles;
  queueing_.fetch_add(completion - arrival - service_cycles, std::memory_order_relaxed);
  service_.fetch_add(service_cycles, std::memory_order_relaxed);
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return completion;
}

uint64_t SerializedResource::FreeCyclesBy(uint64_t arrival, uint64_t deadline) const {
  // Reserve's walk without the CAS: a portion taken in window `epoch` ends at
  // epoch * window_ + used + take, which must not pass the deadline.
  uint64_t free = 0;
  for (uint64_t epoch = arrival / window_; epoch * window_ < deadline; epoch++) {
    const uint64_t packed = buckets_[epoch % kBuckets].load(std::memory_order_acquire);
    uint64_t used = 0;
    if (EpochOf(packed) == epoch) {
      used = UsedOf(packed);
    } else if (EpochOf(packed) > epoch) {
      used = window_;  // wrapped past: Reserve treats it as full
    }
    const uint64_t begin = epoch * window_ + used;
    const uint64_t end = std::min(deadline, (epoch + 1) * window_);
    if (end > begin) {
      free += end - begin;
    }
  }
  return free;
}

void SerializedResource::Reset() {
  for (size_t i = 0; i < kBuckets; i++) {
    buckets_[i].store(Pack(0, 0), std::memory_order_relaxed);
  }
  queueing_.store(0, std::memory_order_relaxed);
  service_.store(0, std::memory_order_relaxed);
  acquisitions_.store(0, std::memory_order_relaxed);
}

namespace {

// A scope whose wall time exceeds this may have been descheduled; it pays
// one thread-CPU-time read to find out. Fault-path scopes are far shorter
// (eviction batches and bulk writeback are not); a timeslice is milliseconds.
constexpr uint64_t kPreemptCheckNs = 20000;
// Off-CPU time below this is skew between the two clocks (a context switch
// alone costs more), not descheduling.
constexpr uint64_t kClockSkewNs = 1000;
// A checkpoint older than this is refreshed at the next scope end, so the
// off-CPU time a long scope subtracts is confined to roughly its own span.
constexpr uint64_t kCheckpointMaxAgeNs = 1000000;

uint64_t ReadNs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// vDSO read: no syscall, but it also counts time the thread is descheduled.
uint64_t MonotonicNs() { return ReadNs(CLOCK_MONOTONIC); }

// A real syscall (~10x a vDSO read); excludes descheduled time.
uint64_t ThreadCpuNs() { return ReadNs(CLOCK_THREAD_CPUTIME_ID); }

// The clock-read overhead an empty scope measures: the median of
// back-to-back monotonic reads, taken once per process.
uint64_t EmptyScopeNs() {
  static const uint64_t empty_ns = [] {
    std::array<uint64_t, 1023> samples{};
    for (uint64_t& sample : samples) {
      uint64_t start = MonotonicNs();
      sample = MonotonicNs() - start;
    }
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
  }();
  return empty_ns;
}

// The last (monotonic, thread CPU) time pair this thread read; their
// difference since then is the time it spent off-CPU.
struct CpuCheckpoint {
  uint64_t mono_ns = 0;
  uint64_t cpu_ns = 0;
};
thread_local CpuCheckpoint t_checkpoint;

std::atomic<uint64_t> g_preempt_corrections{0};

}  // namespace

uint64_t PreemptCorrections() { return g_preempt_corrections.load(std::memory_order_relaxed); }

ScopedMeasure::ScopedMeasure(SimClock& clock, CostCategory category)
    : clock_(clock), category_(category), start_(MonotonicNs()) {
  CpuCheckpoint& checkpoint = t_checkpoint;
  if (checkpoint.mono_ns == 0) {
    checkpoint = {start_, ThreadCpuNs()};  // the thread's first scope
  }
}

ScopedMeasure::~ScopedMeasure() {
  uint64_t end = MonotonicNs();
  uint64_t elapsed_ns = end - start_;
  uint64_t empty_ns = EmptyScopeNs();
  elapsed_ns = elapsed_ns > empty_ns ? elapsed_ns - empty_ns : 0;
  CpuCheckpoint& checkpoint = t_checkpoint;
  if (elapsed_ns > kPreemptCheckNs || end - checkpoint.mono_ns > kCheckpointMaxAgeNs) {
    uint64_t cpu = ThreadCpuNs();
    int64_t off_cpu_ns = static_cast<int64_t>(end - checkpoint.mono_ns) -
                         static_cast<int64_t>(cpu - checkpoint.cpu_ns);
    if (elapsed_ns > kPreemptCheckNs && off_cpu_ns > static_cast<int64_t>(kClockSkewNs)) {
      elapsed_ns -= std::min(elapsed_ns, static_cast<uint64_t>(off_cpu_ns));
      g_preempt_corrections.fetch_add(1, std::memory_order_relaxed);
    }
    checkpoint = {end, cpu};
  }
  // ns -> cycles at the modeled 2.4 GHz.
  clock_.Charge(category_, elapsed_ns * 24 / 10);
}

}  // namespace aquila
