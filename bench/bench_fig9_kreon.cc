// Figure 9 (+ Table 1): Kreon over kmmap vs Kreon over Aquila, all six YCSB
// workloads, single thread, dataset larger than the cache, for NVMe and
// pmem devices (§6.4).
//
// Kreon is mmio-native: every B-tree node touch and log access goes through
// the mapping, so its throughput/latency track the mmio path underneath.
// kmmap is the Linux baseline with Kreon's kernel tweaks (no fault
// read-ahead, lazy writeback) — still kernel traps and shared locks.
#include <cinttypes>

#include "bench/common.h"
#include "src/kvs/kreon_db.h"
#include "src/ycsb/runner.h"

namespace aquila {
namespace bench {
namespace {

void PrintTable1() {
  std::printf("Table 1: standard YCSB workloads\n");
  std::printf("  A: 50%% reads, 50%% updates          B: 95%% reads, 5%% updates\n");
  std::printf("  C: 100%% reads                       D: 95%% reads, 5%% inserts (latest)\n");
  std::printf("  E: 95%% scans, 5%% inserts            F: 50%% reads, 50%% read-modify-write\n");
}

struct Result {
  double kops;
  double avg_us;
  double p999_us;
};

Result RunOne(MmioEngine* engine, BlockDevice* device, const YcsbWorkload& workload) {
  engine->EnterThread();
  DeviceBacking backing(device, 0, device->capacity_bytes());
  StatusOr<MemoryMap*> map =
      engine->Map(&backing, device->capacity_bytes(), kProtRead | kProtWrite);
  AQUILA_CHECK(map.ok());
  auto db = KreonDb::Open(*map, KreonDb::Options{});
  AQUILA_CHECK(db.ok());

  YcsbRunner::Options run_options;
  run_options.thread_init = [engine] { engine->EnterThread(); };
  YcsbRunner runner(db->get(), workload, run_options);
  AQUILA_CHECK(runner.Load().ok());
  StatusOr<YcsbReport> report = runner.Run();
  AQUILA_CHECK(report.ok());
  db->reset();  // persists via msync before the map goes away
  AQUILA_CHECK(engine->Unmap(*map).ok());
  return Result{report->throughput_kops, report->avg_latency_us, report->p999_latency_us};
}

}  // namespace
}  // namespace bench
}  // namespace aquila

int main() {
  using namespace aquila;
  using namespace aquila::bench;
  PrintHeader("Fig 9: Kreon over kmmap vs Aquila, YCSB A-F, 1 thread, out-of-memory");
  PrintTable1();

  // Paper: 16 GB dataset, 8 GB cache. Scaled: ~24 MB of records in a 96 MB
  // mapping, 12 MB cache.
  uint64_t mapping_bytes = Scaled(96ull << 20);
  uint64_t cache_bytes = Scaled(12ull << 20);
  uint64_t records = Scaled(16) * 1024;

  std::printf("\n%-5s %-3s | %9s %9s %10s | %9s %9s %10s | %7s %7s\n", "dev", "wl",
              "kmmap-kop", "avg-us", "p99.9-us", "aqla-kop", "avg-us", "p99.9-us", "thr-x",
              "p999-x");
  for (const char* kind : {"nvme", "pmem"}) {
    for (const YcsbWorkload& base : {YcsbWorkload::A(), YcsbWorkload::B(), YcsbWorkload::C(),
                                     YcsbWorkload::D(), YcsbWorkload::E(), YcsbWorkload::F()}) {
      YcsbWorkload workload = base;
      workload.record_count = records;
      // E's scans are ~50x an op of the others, but 800 of them would make
      // "p99.9" the single slowest scan; 8,000 leave 8 samples past it.
      workload.operation_count = Scaled(base.scan_proportion > 0 ? 8000 : 5000);
      workload.max_scan_len = 50;

      auto dev1 = std::string(kind) == "pmem" ? MakePmem(mapping_bytes)
                                              : MakeNvme(mapping_bytes);
      auto kmmap = MakeKmmap(cache_bytes);
      Result km = RunOne(kmmap.get(), dev1->direct, workload);

      auto dev2 = std::string(kind) == "pmem" ? MakePmem(mapping_bytes)
                                              : MakeNvme(mapping_bytes);
      auto aquila_engine = MakeAquila(cache_bytes);
      Result aq = RunOne(aquila_engine.get(), dev2->direct, workload);

      std::printf("%-5s %-3s | %9.1f %9.2f %10.2f | %9.1f %9.2f %10.2f | %6.2fx %6.2fx\n",
                  kind, workload.name.c_str(), km.kops, km.avg_us, km.p999_us, aq.kops,
                  aq.avg_us, aq.p999_us, aq.kops / km.kops, km.p999_us / aq.p999_us);
    }
  }
  std::printf("\npaper: NVMe ~1.02x throughput (device-bound), 1.29x avg / 3.78x p99.9 "
              "latency; pmem 1.22x throughput, 1.43x avg / 13.72x p99.9\n");
  return 0;
}
