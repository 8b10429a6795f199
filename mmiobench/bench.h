// mmio_bench: standalone benchmark of the Aquila mmio path.
//
// It links the unchanged src/ libraries and reaches them only through their
// public surfaces (MmioEngine/MemoryMap, Aquila, KreonDb, the src/ycsb
// generators and the public stats structs). Every workload runs as a
// sequence of rounds; a round is set-up -> timed closed loop -> untimed
// verify -> teardown. README.md next to this file records each workload's
// geometry and why it was chosen.
#ifndef AQUILA_MMIOBENCH_BENCH_H_
#define AQUILA_MMIOBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio.h"
#include "src/storage/block_device.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace mmiobench {

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// SplitMix64 finalizer: derives independent streams (per round, per client,
// per page) from the command-line seed.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline uint64_t Mix(uint64_t a, uint64_t b) { return Mix(Mix(a) ^ b); }
inline uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) { return Mix(Mix(a, b) ^ c); }

// --- Request spans (traced rounds only) ---------------------------------------

enum class SpanName : uint8_t {
  kClientOp = 0,
  kKvsGet,
  kKvsPut,
  kKvsPersist,
  kMmioRead,
  kMmioWrite,
  kMmioTouch,
  kMmioSync,
  kMmioAdvise,
  kCoreMap,
  kCoreUnmap,
  kCount,
};
const char* SpanNameString(SpanName name);

struct Span {
  uint64_t sim_start = 0;
  uint64_t sim_end = 0;
  uint64_t host_start = 0;
  uint64_t host_end = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index into the same recorder; -1 for a root
  SpanName name = SpanName::kClientOp;
};

// One client thread's span log. Spans nest strictly on a thread, so the open
// spans form a stack and each new span's parent is the top of it.
class SpanRecorder {
 public:
  int32_t Begin(SpanName name);
  void End(int32_t index);
  void set_request(uint64_t id) { request_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

// The calling thread's recorder, or nullptr when the round is untraced.
SpanRecorder*& ThisRecorder();

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : recorder_(ThisRecorder()) {
    if (recorder_ != nullptr) {
      index_ = recorder_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_ = -1;
};

// Self time per span name: a span's duration minus the part its direct
// children cover (children never overlap on one thread).
struct SelfTimes {
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> count{};
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> host_ns{};
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> sim_cycles{};
  uint64_t spans = 0;

  void Add(const SpanRecorder& recorder);
  uint64_t Count(SpanName n) const { return count[static_cast<size_t>(n)]; }
  uint64_t HostNs(SpanName n) const { return host_ns[static_cast<size_t>(n)]; }
};

// Forwarding MemoryMap decorator that records one mmio.* span per call. Only
// the traced rounds interpose it; untraced rounds hand the real map to the
// workload.
class TracedMap final : public MemoryMap {
 public:
  explicit TracedMap(MemoryMap* inner) : inner_(inner) {}

  uint64_t length() const override { return inner_->length(); }
  Status Read(uint64_t offset, std::span<uint8_t> dst) override;
  Status Write(uint64_t offset, std::span<const uint8_t> src) override;
  AccessResult TouchRead(uint64_t offset) override;
  AccessResult TouchWrite(uint64_t offset) override;
  Status Sync(uint64_t offset, uint64_t length) override;
  Status Advise(uint64_t offset, uint64_t length, Advice advice) override;
  Status SubmitBatch(std::span<const MmioRequest> requests) override {
    return inner_->SubmitBatch(requests);
  }
  size_t Poll(std::span<MmioCompletion> out) override { return inner_->Poll(out); }

 private:
  MemoryMap* inner_;
};

// --- Per-client measurement ----------------------------------------------------

enum class OpKind : uint8_t { kRead, kWrite };

// Everything one client thread measured in one round.
struct ClientLog {
  std::vector<uint64_t> read_cycles;   // sim latency of each read op
  std::vector<uint64_t> write_cycles;  // sim latency of each write op
  std::vector<uint64_t> persist_cycles;
  uint64_t timed_ops = 0;
  uint64_t attempted = 0;  // every op issued in any phase
  uint64_t failed = 0;     // non-OK status, wrong value, or never finished
  uint64_t user_bytes_written = 0;
  uint64_t map_unmap_cycles = 0;
  uint64_t map_unmap_pairs = 0;
  // Traced rounds: per-op category deltas summed over the timed ops, the
  // summed op latencies they must add up to, and ops whose split missed
  // their latency by more than 1%.
  CostBreakdown op_split;
  uint64_t op_latency_total = 0;
  uint64_t ledger_misses = 0;
  SpanRecorder recorder;
};

// Times one closed-loop op on the calling thread: sim latency, the per-op
// category split (traced rounds), and the client.op root span.
class OpTimer {
 public:
  OpTimer(ClientLog& log, bool traced, uint64_t request);
  void Finish(OpKind kind, bool ok);

 private:
  ClientLog& log_;
  bool traced_;
  uint64_t start_;
  CostBreakdown before_;
  int32_t span_ = -1;
};

// --- Counters from the public stats structs ------------------------------------

enum Counter : size_t {
  kMajorFaults = 0,
  kMinorFaults,
  kWriteUpgrades,
  kEvictedPages,
  kWritebackPages,
  kReadaheadPages,
  kLookups,
  kLookupHits,
  kClockSweeps,
  kFreelistCoreHits,
  kFreelistNumaHits,
  kFreelistRemoteHits,
  kFreelistBatchMoves,
  kTlbHits,
  kTlbMisses,
  kShootdowns,
  kIpisSent,
  kIpisElided,
  kDeviceReads,
  kDeviceWrites,
  kDeviceBytesWritten,
  kDeviceIoRetries,
  kCounterCount,
};
using Counters = std::array<uint64_t, kCounterCount>;
// Device counters are summed over `devices`.
Counters TakeCounters(Aquila& runtime, const std::vector<const BlockDevice*>& devices);
Counters operator-(const Counters& a, const Counters& b);
Counters& operator+=(Counters& a, const Counters& b);
void PrintLivenessState(Aquila& runtime, const char* phase);

// --- Client threads --------------------------------------------------------------

// Runs fn(t, stop) on `clients` threads, thread t pinned to logical core t and
// entered into `runtime`, with every client clock starting at the caller's
// simulated time. Thread t also runs on host CPU (round + t) mod the CPUs the
// process may use: the host's CPUs differ in speed from moment to moment,
// and the simulator charges host-measured cycles, so rotating the placement
// across rounds keeps one slow CPU from shifting a whole run's medians.
// Waits until `deadline_s` host seconds pass; on a miss it prints the
// runtime's liveness state and raises `stop` (clients then count their
// unfinished ops as failed and return). A client still stuck after a
// grace period means a hang inside the library: the run is reported as failed
// and the process exits. Returns the largest client sim elapsed time and
// advances the caller's clock past it.
uint64_t RunClients(Aquila& runtime, int clients, uint32_t round, double deadline_s,
                    const char* phase,
                    const std::function<void(int, const std::atomic<bool>&)>& fn);

// Set by main(): prints a failed result line when a hang forces an exit.
extern std::function<void()> g_on_hang;

// --- Workloads -------------------------------------------------------------------

struct RoundConfig {
  uint64_t seed = 0;
  uint32_t round = 0;
  bool traced = false;
};

struct RoundResult {
  bool warmup = false;  // excluded from every metric but the failure tally
  bool traced = false;
  double setup_s = 0;
  double sim_kops = 0;
  double host_cpu_ns_per_op = 0;
  uint64_t rss_after_timed_bytes = 0;  // resident set when the timed phase ends
  // Resident memory the round holds at the end of its timed phase above what
  // the process held before the round: devices, runtime, cache and the
  // round's own samples. Earlier rounds' samples are not counted, so the
  // figure does not grow with the number of rounds a run fits in.
  double rss_mb = 0;
  uint64_t timed_ops = 0;
  Counters delta{};  // over the timed phase
  std::vector<ClientLog> clients;
};

struct Workload {
  const char* name;
  // Prints the geometry and the Aquila::Options the workload runs with.
  std::function<void()> describe;
  std::function<RoundResult(const RoundConfig&)> run_round;
  // Size of the hypervisor's memfd-backed host memory (see MakeOptions).
  uint64_t host_memory_bytes;
};

const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();

// Host CPU time of the whole process, in nanoseconds.
uint64_t ProcessCpuNs();

// Resident set of the process, in bytes.
uint64_t ResidentBytes();

}  // namespace mmiobench
}  // namespace aquila

#endif  // AQUILA_MMIOBENCH_BENCH_H_
