// Spans, the traced-map decorator, per-op timing, public-stats counters and
// the pinned client-thread runner with its liveness guard.
#include <sched.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <thread>

#include "mmiobench/bench.h"
#include "src/util/cpu.h"

namespace aquila {
namespace mmiobench {

std::function<void()> g_on_hang;

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "client.op", "kvs.get",     "kvs.put",     "kvs.persist", "mmio.read",  "mmio.write",
      "mmio.touch", "mmio.sync", "mmio.advise", "core.map",    "core.unmap",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

int32_t SpanRecorder::Begin(SpanName name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.sim_start = ThisThreadClock().Now();
  span.host_start = HostNowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  Span& span = spans_[index];
  span.host_end = HostNowNs();
  span.sim_end = ThisThreadClock().Now();
  open_.pop_back();
}

SpanRecorder*& ThisRecorder() {
  static thread_local SpanRecorder* recorder = nullptr;
  return recorder;
}

void SelfTimes::Add(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  std::vector<uint64_t> child_host(spans.size(), 0);
  std::vector<uint64_t> child_sim(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_host[span.parent] += span.host_end - span.host_start;
      child_sim[span.parent] += span.sim_end - span.sim_start;
    }
  }
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    size_t n = static_cast<size_t>(span.name);
    count[n]++;
    host_ns[n] += span.host_end - span.host_start - child_host[i];
    sim_cycles[n] += span.sim_end - span.sim_start - child_sim[i];
  }
  this->spans += spans.size();
}

Status TracedMap::Read(uint64_t offset, std::span<uint8_t> dst) {
  ScopedSpan span(SpanName::kMmioRead);
  return inner_->Read(offset, dst);
}

Status TracedMap::Write(uint64_t offset, std::span<const uint8_t> src) {
  ScopedSpan span(SpanName::kMmioWrite);
  return inner_->Write(offset, src);
}

AccessResult TracedMap::TouchRead(uint64_t offset) {
  ScopedSpan span(SpanName::kMmioTouch);
  return inner_->TouchRead(offset);
}

AccessResult TracedMap::TouchWrite(uint64_t offset) {
  ScopedSpan span(SpanName::kMmioTouch);
  return inner_->TouchWrite(offset);
}

Status TracedMap::Sync(uint64_t offset, uint64_t length) {
  ScopedSpan span(SpanName::kMmioSync);
  return inner_->Sync(offset, length);
}

Status TracedMap::Advise(uint64_t offset, uint64_t length, Advice advice) {
  ScopedSpan span(SpanName::kMmioAdvise);
  return inner_->Advise(offset, length, advice);
}

OpTimer::OpTimer(ClientLog& log, bool traced, uint64_t request) : log_(log), traced_(traced) {
  SimClock& clock = ThisThreadClock();
  if (traced_) {
    log_.recorder.set_request(request);
    span_ = log_.recorder.Begin(SpanName::kClientOp);
    before_ = clock.Breakdown();
  }
  start_ = clock.Now();
}

void OpTimer::Finish(OpKind kind, bool ok) {
  SimClock& clock = ThisThreadClock();
  uint64_t latency = clock.Now() - start_;
  log_.timed_ops++;
  log_.attempted++;
  if (ok) {
    (kind == OpKind::kRead ? log_.read_cycles : log_.write_cycles).push_back(latency);
  } else {
    log_.failed++;
  }
  if (traced_) {
    CostBreakdown split = clock.Breakdown() - before_;
    log_.op_split += split;
    log_.op_latency_total += latency;
    uint64_t total = split.Total();
    uint64_t gap = total > latency ? total - latency : latency - total;
    if (gap * 100 > latency) {
      log_.ledger_misses++;
    }
    log_.recorder.End(span_);
  }
}

Counters TakeCounters(Aquila& runtime, const std::vector<const BlockDevice*>& devices) {
  const FaultStats& faults = runtime.fault_stats();
  const PageCache::Stats& cache = runtime.cache().stats();
  const TwoLevelFreelist::Stats& freelist = runtime.cache().freelist_stats();
  TlbSet& tlb = runtime.tlb();
  Counters c{};
  c[kMajorFaults] = faults.major_faults.load();
  c[kMinorFaults] = faults.minor_faults.load();
  c[kWriteUpgrades] = faults.write_upgrades.load();
  c[kEvictedPages] = faults.evicted_pages.load();
  c[kWritebackPages] = faults.writeback_pages.load();
  c[kReadaheadPages] = faults.readahead_pages.load();
  c[kLookups] = cache.lookups.load();
  c[kLookupHits] = cache.lookup_hits.load();
  c[kClockSweeps] = cache.clock_sweeps.load();
  c[kFreelistCoreHits] = freelist.core_hits.load();
  c[kFreelistNumaHits] = freelist.numa_hits.load();
  c[kFreelistRemoteHits] = freelist.remote_hits.load();
  c[kFreelistBatchMoves] = freelist.batch_moves.load();
  c[kTlbHits] = tlb.hits();
  c[kTlbMisses] = tlb.misses();
  c[kShootdowns] = tlb.shootdowns();
  c[kIpisSent] = tlb.ipis_sent();
  c[kIpisElided] = tlb.ipis_elided();
  for (const BlockDevice* device : devices) {
    const DeviceStats& dev = device->stats();
    c[kDeviceReads] += dev.reads.load();
    c[kDeviceWrites] += dev.writes.load();
    c[kDeviceBytesWritten] += dev.bytes_written.load();
    c[kDeviceIoRetries] += dev.io_retries.load();
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (size_t i = 0; i < d.size(); i++) {
    d[i] = a[i] - b[i];
  }
  return d;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (size_t i = 0; i < a.size(); i++) {
    a[i] += b[i];
  }
  return a;
}

void PrintLivenessState(Aquila& runtime, const char* phase) {
  const FaultStats& f = runtime.fault_stats();
  const TwoLevelFreelist::Stats& fl = runtime.cache().freelist_stats();
  std::fprintf(stderr,
               "liveness[%s]: faults major=%llu minor=%llu write_upgrades=%llu "
               "evict_batches=%llu evicted=%llu writeback=%llu readahead=%llu "
               "writeback_errors=%llu\n",
               phase, static_cast<unsigned long long>(f.major_faults.load()),
               static_cast<unsigned long long>(f.minor_faults.load()),
               static_cast<unsigned long long>(f.write_upgrades.load()),
               static_cast<unsigned long long>(f.evict_batches.load()),
               static_cast<unsigned long long>(f.evicted_pages.load()),
               static_cast<unsigned long long>(f.writeback_pages.load()),
               static_cast<unsigned long long>(f.readahead_pages.load()),
               static_cast<unsigned long long>(f.writeback_errors.load()));
  std::fprintf(stderr,
               "liveness[%s]: freelist core=%llu numa=%llu remote=%llu batch_moves=%llu "
               "runs_broken=%llu; ApproxFreeFrames=%llu of capacity %llu\n",
               phase, static_cast<unsigned long long>(fl.core_hits.load()),
               static_cast<unsigned long long>(fl.numa_hits.load()),
               static_cast<unsigned long long>(fl.remote_hits.load()),
               static_cast<unsigned long long>(fl.batch_moves.load()),
               static_cast<unsigned long long>(fl.runs_broken.load()),
               static_cast<unsigned long long>(runtime.cache().ApproxFreeFrames()),
               static_cast<unsigned long long>(runtime.cache().capacity_pages()));
}

namespace {

// The host CPUs this process may run on, in ascending order.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  return cpus;
}

void PinToHostCpu(size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // 0: the calling thread
}

}  // namespace

uint64_t RunClients(Aquila& runtime, int clients, uint32_t round, double deadline_s,
                    const char* phase,
                    const std::function<void(int, const std::atomic<bool>&)>& fn) {
  const uint64_t origin = ThisThreadClock().Now();
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;  // guarded-by: mu
  std::vector<uint64_t> elapsed(clients, 0);
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (int t = 0; t < clients; t++) {
    pool.emplace_back([&, t] {
      PinToHostCpu(round + static_cast<size_t>(t));
      CoreRegistry::SetCurrentCoreForTest(t);
      runtime.EnterThread();
      SimClock& clock = ThisThreadClock();
      clock.JumpTo(origin);
      fn(t, stop);
      elapsed[t] = clock.Now() - origin;
      std::lock_guard<std::mutex> guard(mu);
      done++;
      cv.notify_all();
    });
  }
  auto all_done = [&] { return done == clients; };
  bool finished;
  {
    std::unique_lock<std::mutex> lock(mu);
    finished = cv.wait_for(lock, std::chrono::duration<double>(deadline_s), all_done);
  }
  if (!finished) {
    std::fprintf(stderr, "phase %s missed its %.0f s deadline; stopping clients\n", phase,
                 deadline_s);
    PrintLivenessState(runtime, phase);
    stop.store(true);
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(10), all_done)) {
      std::fprintf(stderr, "phase %s: a client is stuck inside the library\n", phase);
      PrintLivenessState(runtime, phase);
      if (g_on_hang) {
        g_on_hang();
      }
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  uint64_t slowest = 0;
  for (uint64_t e : elapsed) {
    slowest = std::max(slowest, e);
  }
  ThisThreadClock().JumpTo(origin + slowest);
  return slowest;
}

uint64_t ResidentBytes() {
  // /proc/self/statm: size resident shared text lib data dt, in pages.
  unsigned long long size = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace mmiobench
}  // namespace aquila
