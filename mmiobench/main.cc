// mmio_bench: runs one workload for a host-time budget and prints every
// metric by name and unit, ending with one JSON result line.
//
//   mmio_bench --workload <randread_ooc|ycsb_a_ooc|scan_fit> --seed <n>
//              --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics
// from the traced ones (plus the tracing overhead between the two).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mmiobench/bench.h"
#include "src/util/cpu.h"
#include "src/vmx/cost_model.h"

namespace aquila {
namespace mmiobench {
namespace {

double CyclesPerUs() { return static_cast<double>(GlobalCostModel().cycles_per_us); }

// The hypervisor ftruncates a memfd to the host memory size, and a file-size
// limit below it kills the process with SIGXFSZ. Raises the soft limit as far
// as the hard one allows; false if that is still too small.
bool FileSizeLimitAllows(uint64_t bytes) {
  struct rlimit limit;
  if (getrlimit(RLIMIT_FSIZE, &limit) != 0 || limit.rlim_cur == RLIM_INFINITY ||
      limit.rlim_cur >= bytes) {
    return true;
  }
  limit.rlim_cur = limit.rlim_max;
  return setrlimit(RLIMIT_FSIZE, &limit) == 0 &&
         (limit.rlim_cur == RLIM_INFINITY || limit.rlim_cur >= bytes);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Exact nearest-rank percentiles over raw per-op samples.
class Samples {
 public:
  void Append(const std::vector<uint64_t>& more) {
    values_.insert(values_.end(), more.begin(), more.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  // Nearest-rank percentile, q in (0, 1], in simulated microseconds.
  double PercentileUs(double q) {
    if (values_.empty()) {
      return 0;
    }
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    size_t rank = static_cast<size_t>(q * static_cast<double>(values_.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return static_cast<double>(values_[rank - 1]) / CyclesPerUs();
  }
  double MeanUs() const {
    if (values_.empty()) {
      return 0;
    }
    double sum = 0;
    for (uint64_t v : values_) {
      sum += static_cast<double>(v);
    }
    return sum / static_cast<double>(values_.size()) / CyclesPerUs();
  }
  // The highest percentile with at least ten samples beyond it.
  double TailQuantile() const {
    return values_.size() > 10 ? 1.0 - 10.0 / static_cast<double>(values_.size()) : 0.0;
  }

 private:
  std::vector<uint64_t> values_;
  bool sorted_ = false;
};

void PrintTiming(const char* name, Samples& s) {
  if (s.size() == 0) {
    std::printf("timing %-8s n=0\n", name);
    return;
  }
  double tail = s.TailQuantile();
  std::printf(
      "timing %-8s n=%zu avg=%.3fus p50=%.3fus p99=%.3fus p99.9=%.3fus p%.5f=%.3fus (sim)\n",
      name, s.size(), s.MeanUs(), s.PercentileUs(0.50), s.PercentileUs(0.99),
      s.PercentileUs(0.999), 100 * tail, tail > 0 ? s.PercentileUs(tail) : 0.0);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ledger_misses = 0;
};

Totals Tally(const std::vector<RoundResult>& rounds) {
  Totals t;
  for (const RoundResult& r : rounds) {
    for (const ClientLog& log : r.clients) {
      t.attempted += log.attempted;
      t.failed += log.failed;
      t.ledger_misses += log.ledger_misses;
    }
  }
  return t;
}

void PrintResult(bool correct, const Totals& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                std::max<uint64_t>(t.attempted, 1), t.failed);
  json += buf;
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds, const Totals& totals) {
  std::vector<double> kops, cpu, setup, rss;
  Samples reads, all;
  for (const RoundResult& r : rounds) {
    if (r.warmup) {
      continue;
    }
    setup.push_back(r.setup_s);
    kops.push_back(r.sim_kops);
    cpu.push_back(r.host_cpu_ns_per_op);
    rss.push_back(r.rss_mb);
    for (const ClientLog& log : r.clients) {
      reads.Append(log.read_cycles);
      all.Append(log.read_cycles);
      all.Append(log.write_cycles);
    }
  }
  PrintTiming("read", reads);
  PrintTiming("all", all);
  return {
      {"sim_kops", Median(kops), "kop/s"},
      {"read_avg_us", reads.MeanUs(), "us"},
      {"read_p99_us", reads.PercentileUs(0.99), "us"},
      {"p999_us", all.PercentileUs(0.999), "us"},
      {"host_cpu_ns_per_op", Median(cpu), "ns"},
      {"setup_s", Median(setup), "s"},
      {"round_rss_mb", Median(rss), "MB"},
      {"ok_ratio", 1.0 - Ratio(static_cast<double>(totals.failed),
                               static_cast<double>(std::max<uint64_t>(totals.attempted, 1))),
       "ratio"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& rounds, const SelfTimes& self) {
  Counters c{};
  CostBreakdown split;
  uint64_t ops = 0, latency_total = 0, map_unmap_cycles = 0, map_unmap_pairs = 0;
  uint64_t user_bytes = 0;
  Samples writes, persists;
  std::vector<double> traced_cpu, untraced_cpu;
  for (const RoundResult& r : rounds) {
    if (r.warmup) {
      continue;
    }
    (r.traced ? traced_cpu : untraced_cpu).push_back(r.host_cpu_ns_per_op);
    if (!r.traced) {
      continue;
    }
    c += r.delta;
    ops += r.timed_ops;
    for (const ClientLog& log : r.clients) {
      split += log.op_split;
      latency_total += log.op_latency_total;
      map_unmap_cycles += log.map_unmap_cycles;
      map_unmap_pairs += log.map_unmap_pairs;
      user_bytes += log.user_bytes_written;
      writes.Append(log.write_cycles);
      persists.Append(log.persist_cycles);
    }
  }
  PrintTiming("put", writes);
  PrintTiming("persist", persists);
  for (size_t n = 0; n < static_cast<size_t>(SpanName::kCount); n++) {
    if (self.count[n] > 0) {
      std::printf("span %-12s n=%" PRIu64 " self_host=%.1fns self_sim=%.3fus (mean)\n",
                  SpanNameString(static_cast<SpanName>(n)), self.count[n],
                  Ratio(static_cast<double>(self.host_ns[n]), static_cast<double>(self.count[n])),
                  Ratio(static_cast<double>(self.sim_cycles[n]),
                        static_cast<double>(self.count[n])) /
                      CyclesPerUs());
    }
  }
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  auto per_op = [&](uint64_t v) { return static_cast<double>(v) / n; };
  auto per_kop = [&](uint64_t v) { return 1e3 * static_cast<double>(v) / n; };
  auto cycles = [&](CostCategory cat) { return per_op(split[cat]); };
  auto ratio = [](uint64_t num, uint64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  auto self_ns = [&](SpanName s) {
    return ratio(self.HostNs(s), self.Count(s));
  };
  uint64_t mmio_self_ns = 0;
  for (SpanName s : {SpanName::kMmioRead, SpanName::kMmioWrite, SpanName::kMmioTouch,
                     SpanName::kMmioSync, SpanName::kMmioAdvise}) {
    mmio_self_ns += self.HostNs(s);
  }
  uint64_t freelist_allocs =
      c[kFreelistCoreHits] + c[kFreelistNumaHits] + c[kFreelistRemoteHits];
  return {
      {"core.major_faults_per_op", per_op(c[kMajorFaults]), "count/op"},
      {"core.minor_faults_per_op", per_op(c[kMinorFaults]), "count/op"},
      {"core.readahead_pages_per_op", per_op(c[kReadaheadPages]), "pages/op"},
      {"core.write_upgrades_per_op", per_op(c[kWriteUpgrades]), "count/op"},
      {"core.trap_cycles_per_op", cycles(CostCategory::kTrap), "cycles/op"},
      {"core.map_unmap_us",
       ratio(map_unmap_cycles, map_unmap_pairs) / CyclesPerUs(), "us"},
      {"cache.mgmt_cycles_per_op", cycles(CostCategory::kCacheMgmt), "cycles/op"},
      {"cache.hit_ratio", ratio(c[kLookupHits], c[kLookups]), "ratio"},
      {"cache.evicted_pages_per_op", per_op(c[kEvictedPages]), "pages/op"},
      {"cache.clock_sweeps_per_kop", per_kop(c[kClockSweeps]), "count/kop"},
      {"cache.freelist_remote_ratio", ratio(c[kFreelistRemoteHits], freelist_allocs), "ratio"},
      {"cache.freelist_batch_moves_per_kop", per_kop(c[kFreelistBatchMoves]), "count/kop"},
      {"writeback.dirty_cycles_per_op", cycles(CostCategory::kDirtyTracking), "cycles/op"},
      {"writeback.pages_per_op", per_op(c[kWritebackPages]), "pages/op"},
      {"writeback.write_amp", ratio(c[kDeviceBytesWritten], user_bytes), "ratio"},
      {"kvs.persist_us", persists.PercentileUs(0.50), "us"},
      {"kvs.persist_count", static_cast<double>(persists.size()), "count"},
      {"kvs.put_avg_us", writes.MeanUs(), "us"},
      {"kvs.put_p99_us", writes.PercentileUs(0.99), "us"},
      {"kvs.get_host_ns", self_ns(SpanName::kKvsGet), "ns"},
      {"kvs.put_host_ns", self_ns(SpanName::kKvsPut), "ns"},
      {"mem.shootdown_cycles_per_op", cycles(CostCategory::kTlbShootdown), "cycles/op"},
      {"mem.shootdowns_per_kop", per_kop(c[kShootdowns]), "count/kop"},
      {"mem.ipis_per_shootdown", ratio(c[kIpisSent], c[kShootdowns]), "count"},
      {"mem.ipi_elided_ratio", ratio(c[kIpisElided], c[kIpisSent] + c[kIpisElided]), "ratio"},
      {"mem.pgtbl_cycles_per_op", cycles(CostCategory::kPageTable), "cycles/op"},
      {"mem.tlb_miss_ratio", ratio(c[kTlbMisses], c[kTlbHits] + c[kTlbMisses]), "ratio"},
      {"vmx.vmexit_cycles_per_op", cycles(CostCategory::kVmExit), "cycles/op"},
      {"storage.device_cycles_per_op", cycles(CostCategory::kDeviceIo), "cycles/op"},
      {"storage.memcpy_cycles_per_op", cycles(CostCategory::kMemcpy), "cycles/op"},
      {"storage.idle_cycles_per_op", cycles(CostCategory::kIdle), "cycles/op"},
      {"storage.reads_per_op", per_op(c[kDeviceReads]), "count/op"},
      {"storage.writes_per_op", per_op(c[kDeviceWrites]), "count/op"},
      {"storage.io_retries", static_cast<double>(c[kDeviceIoRetries]), "count"},
      {"mmio.host_ns_per_op", per_op(mmio_self_ns), "ns"},
      {"client.host_ns_per_op", self_ns(SpanName::kClientOp), "ns"},
      {"trace.overhead_ratio", Ratio(Median(traced_cpu), Median(untraced_cpu)), "ratio"},
      {"trace.ledger_coverage", ratio(split.Total(), latency_total), "ratio"},
      {"trace.spans_per_op", per_op(self.spans), "count/op"},
  };
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", argv0,
               WorkloadNames().c_str());
  return 2;
}

}  // namespace
}  // namespace mmiobench
}  // namespace aquila

int main(int argc, char** argv) {
  using namespace aquila;
  using namespace aquila::mmiobench;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (argc % 2 == 0 || workload == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }

  if (!FileSizeLimitAllows(workload->host_memory_bytes)) {
    std::fprintf(stderr,
                 "mmio_bench: the file-size limit (ulimit -f) is below the %llu MB of "
                 "memfd-backed host memory %s needs\n",
                 static_cast<unsigned long long>(workload->host_memory_bytes >> 20),
                 workload->name);
    return 2;
  }

  CoreRegistry::SetCurrentCoreForTest(0);
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", workload->name, seed,
              seconds, trace);
  workload->describe();

  // Rounds run until the host-time budget is spent. The first two rounds
  // only warm the process: a fresh process's first rounds measure less host
  // CPU per op than its later ones (randread_ooc's first round reads about
  // 1.5x the steady sim_kops, as the simulator charges host-measured cycles),
  // so they count towards the failure tally only. Traced runs alternate
  // untraced and traced rounds after the warm-up so the tracing overhead is
  // measured in the same run.
  std::vector<RoundResult> rounds;
  SelfTimes traced_self;  // span self times of every measured traced round
  g_on_hang = [&] {
    Totals totals = Tally(rounds);
    totals.attempted++;
    totals.failed++;
    PrintResult(false, totals, {});
  };
  const uint32_t warmup_rounds = 2;
  const uint32_t min_rounds = warmup_rounds + (trace == 1 ? 4 : 3);
  const uint64_t start = HostNowNs();
  double last_round_s = 0;
  for (uint32_t r = 0;; r++) {
    double elapsed = static_cast<double>(HostNowNs() - start) / 1e9;
    if (r >= min_rounds && elapsed + last_round_s > seconds) {
      break;
    }
    RoundConfig cfg;
    cfg.seed = seed;
    cfg.round = r;
    cfg.traced = trace == 1 && r >= warmup_rounds && (r - warmup_rounds) % 2 == 1;
    uint64_t round_start = HostNowNs();
    uint64_t rss_before = ResidentBytes();
    rounds.push_back(workload->run_round(cfg));
    last_round_s = static_cast<double>(HostNowNs() - round_start) / 1e9;
    RoundResult& done = rounds.back();
    done.warmup = r < warmup_rounds;
    done.rss_mb = static_cast<double>(done.rss_after_timed_bytes - rss_before) / (1 << 20);
    // A round's spans live until the round ends; only their self times are
    // kept, so a traced run's memory does not grow with its round count.
    for (ClientLog& log : done.clients) {
      if (done.traced) {
        traced_self.Add(log.recorder);
      }
      log.recorder = SpanRecorder();
    }
    Samples reads;
    for (const ClientLog& log : done.clients) {
      reads.Append(log.read_cycles);
    }
    std::printf("round %u warmup=%d traced=%d setup=%.3fs sim_kops=%.2f host_cpu=%.1fns/op "
                "read_avg=%.3fus read_p99=%.3fus ops=%" PRIu64 " wall=%.2fs\n",
                r, done.warmup ? 1 : 0, done.traced ? 1 : 0, done.setup_s, done.sim_kops,
                done.host_cpu_ns_per_op, reads.MeanUs(), reads.PercentileUs(0.99),
                done.timed_ops, last_round_s);
  }

  Totals totals = Tally(rounds);
  std::vector<Metric> metrics =
      trace == 1 ? PerLayer(rounds, traced_self) : EndToEnd(rounds, totals);
  // Correct: every op and verify check succeeded, and (traced rounds) every
  // op's category split covered its simulated latency within 1%.
  bool correct = totals.failed == 0 && totals.ledger_misses == 0;
  if (totals.ledger_misses > 0) {
    std::printf("ledger: %" PRIu64 " ops whose category split missed their latency by >1%%\n",
                totals.ledger_misses);
  }
  PrintResult(correct, totals, metrics);
  return 0;
}
