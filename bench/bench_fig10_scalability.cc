// Figure 10: scalability of Aquila vs Linux mmap with random reads, for a
// single shared file and a private file per thread, with the dataset
// (a) fitting in memory and (b) 8x larger than the cache.
//
// The Linux baseline's per-file tree lock (and the global lru lock) are
// modeled as serialized resources, so the shared-file configuration shows
// the contention collapse of §6.5 deterministically. Latency percentiles
// come from per-op simulated-cycle samples.
//
// Emits BENCH_fig10_scalability.json with one row per (layout, threads)
// cell of each case; `--smoke` runs 1/4/8 threads with fewer ops for CI.
#include <cinttypes>
#include <algorithm>
#include <cstring>
#include <functional>
#include <thread>

#include "bench/common.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace aquila {
namespace bench {
namespace {

struct RunResult {
  double mops = 0;
  double avg_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  // Simulated cycles charged to CostCategory::kTlbShootdown per op, summed
  // across threads. Isolates the eviction-path shootdown bill, which the
  // aggregate avg-us column drowns under device-read cost; this is the column
  // the broadcast-vs-mask+gen comparison in EXPERIMENTS.md is measured on.
  double shootdown_cyc_per_op = 0;
  // Aquila only: victims claimed per clock sweep (PageCache::Stats
  // evictions / clock_sweeps: a full eviction batch's SelectVictims call,
  // or a kSweepChunk stretch drawn for the per-fault slices) and pages freed
  // per reclaim flush (FaultStats evicted_pages / evict_batches). A low
  // first ratio means sweeps that end short or stretches mostly referenced.
  double victims_per_sweep = 0;
  double freed_per_batch = 0;
  // Aquila only: simulated reclaim cycles billed to faults (slices, pending
  // flushes and full batches: sweep through frame release, shootdown
  // included) per page freed, and the largest bill any one fault paid.
  double evict_cycles_per_victim = 0;
  double max_fault_reclaim_us = 0;
};

// `maps[t]` is the mapping thread t reads from (all equal for shared mode).
// `thread_init` receives the thread index so engines can pin thread t to
// core t — CoreRegistry hands out globally incrementing ids, so without the
// pin a later run's threads sit outside [0, active_cores) and the per-frame
// cpu_mask would never intersect the shootdown target population.
RunResult RunThreads(const std::vector<MemoryMap*>& maps, int threads, uint64_t ops_per_thread,
                     const std::function<void(int)>& thread_init) {
  Histogram latency;
  std::vector<uint64_t> durations(threads, 0);
  std::vector<uint64_t> shootdown_cycles(threads, 0);
  uint64_t origin = ThisThreadClock().Now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      if (thread_init) {
        thread_init(t);
      }
      ThisThreadClock().JumpTo(origin);
      MemoryMap* map = maps[t];
      (void)map->Advise(0, map->length(), Advice::kRandom);
      Rng rng(t * 7919 + 13);
      SimClock& clock = ThisThreadClock();
      uint64_t start = clock.Now();
      CostBreakdown before = clock.Breakdown();
      uint64_t map_pages = map->length() / kPageSize;
      for (uint64_t i = 0; i < ops_per_thread; i++) {
        uint64_t begin = clock.Now();
        map->TouchRead(rng.Uniform(map_pages) * kPageSize + 128);
        latency.Record(clock.Now() - begin);
      }
      durations[t] = clock.Now() - start;
      CostBreakdown delta = clock.Breakdown() - before;
      shootdown_cycles[t] = delta[CostCategory::kTlbShootdown];
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  RunResult result;
  uint64_t slowest = *std::max_element(durations.begin(), durations.end());
  uint64_t cycles_per_us = GlobalCostModel().cycles_per_us;
  if (slowest > 0) {
    result.mops = static_cast<double>(ops_per_thread) * threads /
                  (static_cast<double>(slowest) / cycles_per_us);
  }
  result.avg_us = latency.Mean() / static_cast<double>(cycles_per_us);
  result.p99_us = static_cast<double>(latency.Percentile(0.99)) / cycles_per_us;
  result.p999_us = static_cast<double>(latency.Percentile(0.999)) / cycles_per_us;
  uint64_t shootdown_total = 0;
  for (uint64_t c : shootdown_cycles) {
    shootdown_total += c;
  }
  result.shootdown_cyc_per_op =
      static_cast<double>(shootdown_total) / (static_cast<double>(ops_per_thread) * threads);
  return result;
}

std::string JsonRow(const char* layout, int threads, const RunResult& linux_result,
                    const RunResult& aquila_result) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"layout\": \"%s\", \"threads\": %d, \"mmap_mops\": %.3f, "
                "\"mmap_avg_us\": %.2f, \"mmap_p99_us\": %.2f, \"mmap_p999_us\": %.2f, "
                "\"aquila_mops\": %.3f, \"aquila_avg_us\": %.2f, \"aquila_p99_us\": %.2f, "
                "\"aquila_p999_us\": %.2f, \"shootdown_cycles_per_op\": %.2f, "
                "\"victims_per_sweep\": %.1f, \"max_fault_reclaim_us\": %.2f, "
                "\"freed_per_batch\": %.1f, "
                "\"evict_cycles_per_victim\": %.1f, \"speedup\": %.2f}",
                layout, threads, linux_result.mops, linux_result.avg_us, linux_result.p99_us,
                linux_result.p999_us, aquila_result.mops, aquila_result.avg_us,
                aquila_result.p99_us, aquila_result.p999_us, aquila_result.shootdown_cyc_per_op,
                aquila_result.victims_per_sweep, aquila_result.max_fault_reclaim_us,
                aquila_result.freed_per_batch, aquila_result.evict_cycles_per_victim,
                aquila_result.mops / linux_result.mops);
  return buf;
}

void RunCase(BenchJsonWriter& json, const char* section, const char* title, bool smoke,
             uint64_t shared_data_bytes, uint64_t private_data_bytes, uint64_t cache_bytes) {
  PrintHeader(title);
  json.BeginSection(section);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8, 16, 32};
  // Ops sized so random reads are mostly cold misses at every thread count
  // (the paper's dataset is far larger than any run's access count).
  uint64_t ops = smoke ? 600 : Scaled(1800);

  std::printf(
      "%-8s %-8s | %10s %9s %9s %9s | %10s %9s %9s %9s %10s %9s %9s %9s %9s | %7s\n", "layout",
      "threads", "mmap-Mops", "avg-us", "p99", "p99.9", "aqla-Mops", "avg-us", "p99", "p99.9",
      "sd-cyc/op", "vict/swp", "rcl-max", "freed/bt", "evc/vict", "speedup");
  for (const char* layout : {"shared", "private"}) {
    bool shared = std::string(layout) == "shared";
    for (int threads : thread_counts) {
      uint64_t data_bytes = shared ? shared_data_bytes : private_data_bytes;
      // --- Linux mmap ---------------------------------------------------------
      RunResult linux_result;
      {
        auto device = MakePmem(data_bytes * (shared ? 1 : 32), CopyFlavor::kPlain);
        auto engine = MakeLinuxMmap(cache_bytes);
        std::vector<std::unique_ptr<DeviceBacking>> backings;
        std::vector<MemoryMap*> maps(threads);
        if (shared) {
          backings.push_back(std::make_unique<DeviceBacking>(device->direct, 0, data_bytes));
          auto map = engine->Map(backings[0].get(), data_bytes, kProtRead);
          AQUILA_CHECK(map.ok());
          for (int t = 0; t < threads; t++) {
            maps[t] = *map;
          }
        } else {
          for (int t = 0; t < threads; t++) {
            backings.push_back(std::make_unique<DeviceBacking>(
                device->direct, static_cast<uint64_t>(t) * data_bytes, data_bytes));
            auto map = engine->Map(backings.back().get(), data_bytes, kProtRead);
            AQUILA_CHECK(map.ok());
            maps[t] = *map;
          }
        }
        linux_result = RunThreads(maps, threads, ops, [&](int) { engine->EnterThread(); });
      }
      // --- Aquila ---------------------------------------------------------------
      RunResult aquila_result;
      {
        auto device = MakePmem(data_bytes * (shared ? 1 : 32));
        auto runtime = MakeAquila(cache_bytes, /*active_cores=*/threads);
        std::vector<std::unique_ptr<DeviceBacking>> backings;
        std::vector<MemoryMap*> maps(threads);
        if (shared) {
          backings.push_back(std::make_unique<DeviceBacking>(device->direct, 0, data_bytes));
          auto map = runtime->Map(backings[0].get(), data_bytes, kProtRead);
          AQUILA_CHECK(map.ok());
          for (int t = 0; t < threads; t++) {
            maps[t] = *map;
          }
        } else {
          for (int t = 0; t < threads; t++) {
            backings.push_back(std::make_unique<DeviceBacking>(
                device->direct, static_cast<uint64_t>(t) * data_bytes, data_bytes));
            auto map = runtime->Map(backings.back().get(), data_bytes, kProtRead);
            AQUILA_CHECK(map.ok());
            maps[t] = *map;
          }
        }
        aquila_result = RunThreads(maps, threads, ops, [&](int t) {
          CoreRegistry::SetCurrentCoreForTest(t);
          runtime->EnterThread();
        });
        const PageCache::Stats& cache_stats = runtime->cache().stats();
        if (uint64_t sweeps = cache_stats.clock_sweeps.load(); sweeps > 0) {
          aquila_result.victims_per_sweep =
              static_cast<double>(cache_stats.evictions.load()) / static_cast<double>(sweeps);
        }
        const FaultStats& fault_stats = runtime->fault_stats();
        if (uint64_t batches = fault_stats.evict_batches.load(); batches > 0) {
          aquila_result.freed_per_batch =
              static_cast<double>(fault_stats.evicted_pages.load()) / static_cast<double>(batches);
        }
        if (uint64_t freed = fault_stats.evicted_pages.load(); freed > 0) {
          aquila_result.evict_cycles_per_victim =
              static_cast<double>(cache_stats.evict_cycles.load()) / static_cast<double>(freed);
        }
        aquila_result.max_fault_reclaim_us =
            static_cast<double>(runtime->cache().max_fault_evict_cycles()) /
            static_cast<double>(GlobalCostModel().cycles_per_us);
        for (MemoryMap* map : maps) {
          if (map != nullptr) {
            (void)runtime->Unmap(map);
            for (int t = 0; t < threads; t++) {
              if (maps[t] == map) {
                maps[t] = nullptr;
              }
            }
          }
        }
      }
      std::printf(
          "%-8s %-8d | %10.3f %9.2f %9.2f %9.2f | %10.3f %9.2f %9.2f %9.2f %10.2f %9.1f %9.2f "
          "%9.1f %9.1f | %6.2fx\n",
          layout, threads, linux_result.mops, linux_result.avg_us, linux_result.p99_us,
          linux_result.p999_us, aquila_result.mops, aquila_result.avg_us, aquila_result.p99_us,
          aquila_result.p999_us, aquila_result.shootdown_cyc_per_op,
          aquila_result.victims_per_sweep, aquila_result.max_fault_reclaim_us,
          aquila_result.freed_per_batch, aquila_result.evict_cycles_per_victim,
          aquila_result.mops / linux_result.mops);
      json.AddRow(JsonRow(layout, threads, linux_result, aquila_result));
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace aquila

int main(int argc, char** argv) {
  using aquila::bench::BenchJsonWriter;
  using aquila::bench::RunCase;
  using aquila::bench::Scaled;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  BenchJsonWriter json("fig10_scalability", smoke, /*threads=*/smoke ? 8 : 32);
  json.AddMeta("workload", "\"random 4K reads, shared file vs private file per thread\"");
  // (a) dataset fits in memory (paper: 100 GB data, 100 GB DRAM).
  RunCase(json, "fits_in_memory", "Fig 10(a): random reads, dataset fits in memory", smoke,
          Scaled(256ull << 20), Scaled(8ull << 20), Scaled(512ull << 20));
  // (b) dataset ~16x the cache (paper: 100 GB data, 8 GB DRAM).
  RunCase(json, "larger_than_memory", "Fig 10(b): random reads, dataset larger than memory",
          smoke, Scaled(256ull << 20), Scaled(8ull << 20), Scaled(16ull << 20));
  std::printf("\npaper: shared-file in-memory speedup 1.81x..8.37x (1..32 thr); "
              "out-of-memory 2.17x..12.92x; private-file 1.82x..1.99x and 2.21x..2.84x\n");
  json.Write();
  return 0;
}
