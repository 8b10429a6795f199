// Targeted TLB-shootdown microbenchmark (DESIGN.md §10).
//
// Part 1 — eviction churn: N threads random-read private mappings sized 4x
// the cache, so every miss evicts and every eviction batch shoots down. Every
// 8th op also drops the page it just read (Advise kDontNeed) and touches it
// again — a transient drop whose refault reuses the just-freed frame (every
// 16th drop interposes a fault on another page first, forcing a cross-owner
// handout of the dropped frame). The
// same workload runs under broadcast, mask+gen, and reuse (deferred-elision)
// IPI targeting at 1/4/8 cores; the table reports simulated shootdown cycles
// per op (initiator invalidation + IPI sends + absorbed victim handler time,
// i.e. the whole CostCategory::kTlbShootdown bill, over the fixed op count),
// IPIs per shootdown, and the reuse elide/mismatch counters; each cell is
// the field-wise median of 15 runs. The bill is charged per op, not per
// evicted page: most shootdown rounds come from the drops, a fixed share of
// the ops, while the evicted-page count follows thread interleaving (a
// thread that runs more of its ops per time slice misses less). With private streams no remote core ever
// maps a victim page, so mask+gen collapses the remote phase while
// broadcast pays one IPI per other active core; reuse must beat mask+gen at
// 8 cores by eliding same-owner recycles outright (the in-bench acceptance
// gate below).
//
// Part 2 — the reused-pages elision on a single thread: a sequential scan
// with active_cores=4 must elide every remote IPI (aquila.tlb.ipis_elided
// > 0 and no IPIs sent) because only the scanning core ever inserts
// translations. The run aborts if elision fails — this is the acceptance
// gate for the per-frame core mask.
//
// Emits BENCH_tlb_shootdown.json; `--smoke` shrinks the run for CI, which
// keeps a perf trajectory for the shootdown fan-out.
#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/util/rng.h"

namespace aquila {
namespace bench {
namespace {

struct Row {
  int cores = 0;
  const char* mode_name = "";
  double shootdown_cycles_per_op = 0;
  double ipis_per_shootdown = 0;
  uint64_t shootdowns = 0;
  uint64_t ipis_sent = 0;
  uint64_t ipis_elided = 0;
  uint64_t shootdowns_local = 0;
  uint64_t evicted_pages = 0;
  uint64_t reuse_elided = 0;
  uint64_t reuse_mismatch = 0;
};

// Random reads over per-thread private mappings with a 4:1 data:cache ratio.
Row RunEvictionChurn(ShootdownMaskMode mode, const char* mode_name, int threads,
                     uint64_t data_bytes_per_thread, uint64_t ops_per_thread) {
  const uint64_t cache_bytes = data_bytes_per_thread * threads / 4;
  auto device = MakePmem(data_bytes_per_thread * threads);
  Aquila::Options options = AquilaOptions(cache_bytes, /*active_cores=*/threads);
  options.shootdown_mask_mode = mode;
  auto runtime = std::make_unique<Aquila>(options);

  std::vector<std::unique_ptr<DeviceBacking>> backings;
  std::vector<MemoryMap*> maps(threads);
  for (int t = 0; t < threads; t++) {
    backings.push_back(std::make_unique<DeviceBacking>(
        device->direct, static_cast<uint64_t>(t) * data_bytes_per_thread,
        data_bytes_per_thread));
    auto map = runtime->Map(backings.back().get(), data_bytes_per_thread, kProtRead);
    AQUILA_CHECK(map.ok());
    maps[t] = *map;
  }

  std::atomic<uint64_t> shootdown_cycles{0};
  // Every thread starts its measured loop together: otherwise the first
  // threads churn alone while the rest are still being created.
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      // Pin the logical core id so thread t IS core t: the shootdown loop
      // targets cores [0, active_cores), and the per-frame masks must name
      // the cores that actually fault, or the comparison would measure the
      // id-assignment accident of earlier runs in this process.
      CoreRegistry::SetCurrentCoreForTest(t);
      runtime->EnterThread();
      MemoryMap* map = maps[t];
      (void)map->Advise(0, map->length(), Advice::kRandom);
      Rng rng(t * 7919 + 13);
      SimClock& clock = ThisThreadClock();
      uint64_t map_pages = map->length() / kPageSize;
      CostBreakdown before = clock.Breakdown();
      uint64_t last_offset = 0;
      start.arrive_and_wait();
      for (uint64_t i = 0; i < ops_per_thread; i++) {
        last_offset = rng.Uniform(map_pages) * kPageSize + 64;
        map->TouchRead(last_offset);
        if ((i & 7u) == 7u) {
          // Transient drop: discard the page just read, then touch it again.
          // The core freelist queue is LIFO, so the refault pops the frame
          // the drop just freed — under kReuseElide that is a same-owner
          // reuse and the drop's shootdown is elided; every other mode pays
          // a one-page shootdown for it.
          uint64_t drop_page = last_offset & ~(kPageSize - 1);
          (void)map->Advise(drop_page, kPageSize, Advice::kDontNeed);
          if ((i & 127u) == 127u) {
            // Every 16th drop faults a DIFFERENT page before the re-touch:
            // when that page misses, its allocation pops the just-freed
            // frame, so under kReuseElide the parked shootdown executes as
            // a cross-owner mismatch — the counter the 8-core gate checks.
            map->TouchRead((drop_page + kPageSize) % map->length() + 64);
          }
          map->TouchRead(last_offset);
        }
      }
      CostBreakdown delta = clock.Breakdown() - before;
      shootdown_cycles.fetch_add(delta[CostCategory::kTlbShootdown],
                                 std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) {
    th.join();
  }

  // Counters captured before Unmap so teardown shootdowns stay out of the row.
  Row row;
  row.cores = threads;
  row.mode_name = mode_name;
  row.shootdowns = runtime->tlb().shootdowns();
  row.ipis_sent = runtime->tlb().ipis_sent();
  row.ipis_elided = runtime->tlb().ipis_elided();
  row.shootdowns_local = runtime->tlb().shootdowns_local();
  row.reuse_elided = runtime->tlb().reuse_elided();
  row.reuse_mismatch = runtime->tlb().reuse_mismatch();
  row.evicted_pages = runtime->fault_stats().evicted_pages.load();
  row.shootdown_cycles_per_op = static_cast<double>(shootdown_cycles.load()) /
                                static_cast<double>(ops_per_thread * threads);
  if (row.shootdowns > 0) {
    row.ipis_per_shootdown = static_cast<double>(row.ipis_sent) / row.shootdowns;
  }
  for (MemoryMap* map : maps) {
    AQUILA_CHECK(runtime->Unmap(map).ok());
  }
  return row;
}

// Field-wise median over repeated runs of one sweep cell. Which core evicts
// whose page is decided by host scheduling, so a single run scatters; the
// median is what the committed trajectory and the gates below compare.
// IPIs per shootdown is pooled instead (all IPIs over all shootdowns): under
// mask+gen and reuse a run sends only 4-30 IPIs, so a per-run ratio moves
// in steps of one IPI and its median still swung 0.05-0.21 between runs.
Row MedianRow(const std::vector<Row>& runs) {
  auto median = [&runs]<typename T>(T Row::*field) {
    std::vector<T> values;
    for (const Row& run : runs) {
      values.push_back(run.*field);
    }
    std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
    return values[values.size() / 2];
  };
  Row row = runs.front();
  row.shootdown_cycles_per_op = median(&Row::shootdown_cycles_per_op);
  uint64_t ipis = 0;
  uint64_t shootdowns = 0;
  for (const Row& run : runs) {
    ipis += run.ipis_sent;
    shootdowns += run.shootdowns;
  }
  row.ipis_per_shootdown =
      shootdowns > 0 ? static_cast<double>(ipis) / static_cast<double>(shootdowns) : 0;
  row.shootdowns = median(&Row::shootdowns);
  row.ipis_sent = median(&Row::ipis_sent);
  row.ipis_elided = median(&Row::ipis_elided);
  row.shootdowns_local = median(&Row::shootdowns_local);
  row.evicted_pages = median(&Row::evicted_pages);
  row.reuse_elided = median(&Row::reuse_elided);
  row.reuse_mismatch = median(&Row::reuse_mismatch);
  return row;
}

// Single-threaded sequential scan with 4 simulated active cores: every
// eviction shootdown must stay initiator-local under mask+gen. Returns the
// (elided, local, sent) counters for the JSON record.
Row RunSeqScanElision(uint64_t data_bytes) {
  auto device = MakePmem(data_bytes);
  Aquila::Options options = AquilaOptions(data_bytes / 4, /*active_cores=*/4);
  options.shootdown_mask_mode = ShootdownMaskMode::kMaskGen;
  auto runtime = std::make_unique<Aquila>(options);
  DeviceBacking backing(device->direct, 0, data_bytes);
  auto map = runtime->Map(&backing, data_bytes, kProtRead);
  AQUILA_CHECK(map.ok());
  (void)(*map)->Advise(0, data_bytes, Advice::kSequential);
  for (uint64_t offset = 0; offset < data_bytes; offset += kPageSize) {
    (*map)->TouchRead(offset);
  }
  Row row;
  row.cores = 4;
  row.mode_name = "mask+gen";
  row.shootdowns = runtime->tlb().shootdowns();
  row.ipis_sent = runtime->tlb().ipis_sent();
  row.ipis_elided = runtime->tlb().ipis_elided();
  row.shootdowns_local = runtime->tlb().shootdowns_local();
  row.evicted_pages = runtime->fault_stats().evicted_pages.load();
  AQUILA_CHECK(runtime->Unmap(*map).ok());
  // The acceptance gate: a lone scanning core must elide every remote IPI.
  AQUILA_CHECK(row.shootdowns > 0);
  AQUILA_CHECK(row.ipis_elided > 0);
  AQUILA_CHECK(row.ipis_sent == 0);
  AQUILA_CHECK(row.shootdowns_local == row.shootdowns);
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-10s %5d cores | %8.1f shootdown cyc/op | %6.2f IPIs/shootdown | "
              "sent %8" PRIu64 "  elided %8" PRIu64 "  local %6" PRIu64
              " | reuse %6" PRIu64 "/%6" PRIu64 "\n",
              row.mode_name, row.cores, row.shootdown_cycles_per_op, row.ipis_per_shootdown,
              row.ipis_sent, row.ipis_elided, row.shootdowns_local, row.reuse_elided,
              row.reuse_mismatch);
}

std::string JsonRow(const Row& row) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cores\": %d, \"mode\": \"%s\", \"shootdown_cycles_per_op\": %.2f, "
                "\"ipis_per_shootdown\": %.4f, \"shootdowns\": %" PRIu64
                ", \"ipis_sent\": %" PRIu64 ", \"ipis_elided\": %" PRIu64
                ", \"shootdowns_local\": %" PRIu64 ", \"evicted_pages\": %" PRIu64
                ", \"reuse_elided\": %" PRIu64 ", \"reuse_mismatch\": %" PRIu64 "}",
                row.cores, row.mode_name, row.shootdown_cycles_per_op, row.ipis_per_shootdown,
                row.shootdowns, row.ipis_sent, row.ipis_elided, row.shootdowns_local,
                row.evicted_pages, row.reuse_elided, row.reuse_mismatch);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace aquila

int main(int argc, char** argv) {
  using namespace aquila;
  using namespace aquila::bench;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint64_t kDataPerThread = smoke ? (2ull << 20) : Scaled(8ull << 20);
  const uint64_t kOpsPerThread = smoke ? 800 : Scaled(4000);

  PrintHeader("TLB shootdown fan-out: private random reads + transient drops, 4:1 data:cache");
  const int kCores[] = {1, 4, 8};
  struct ModeCase {
    ShootdownMaskMode mode;
    const char* name;
  };
  const ModeCase kModes[] = {{ShootdownMaskMode::kBroadcast, "broadcast"},
                             {ShootdownMaskMode::kMaskGen, "mask+gen"},
                             {ShootdownMaskMode::kReuseElide, "reuse"}};
  constexpr int kRepeats = 15;
  std::vector<Row> sweep;
  for (int cores : kCores) {
    for (const ModeCase& mc : kModes) {
      std::vector<Row> runs;
      for (int r = 0; r < kRepeats; r++) {
        runs.push_back(RunEvictionChurn(mc.mode, mc.name, cores, kDataPerThread, kOpsPerThread));
      }
      Row row = MedianRow(runs);
      PrintRow(row);
      sweep.push_back(row);
    }
  }

  // Acceptance gate (DESIGN.md §10): at 8 cores the reuse mode must beat
  // mask+gen on the whole shootdown bill, and both new counters must move —
  // elisions from the transient drops, mismatches when an intervening fault
  // steals a dropped frame before its owner re-touches the page.
  const Row* maskgen8 = nullptr;
  const Row* reuse8 = nullptr;
  for (const Row& row : sweep) {
    if (row.cores != 8) continue;
    if (std::strcmp(row.mode_name, "mask+gen") == 0) maskgen8 = &row;
    if (std::strcmp(row.mode_name, "reuse") == 0) reuse8 = &row;
  }
  AQUILA_CHECK(maskgen8 != nullptr && reuse8 != nullptr);
  AQUILA_CHECK(reuse8->reuse_elided > 0);
  AQUILA_CHECK(reuse8->reuse_mismatch > 0);
  AQUILA_CHECK(reuse8->shootdown_cycles_per_op < maskgen8->shootdown_cycles_per_op);

  PrintHeader("Reused-pages elision: 1 thread sequential scan, active_cores=4");
  Row seq = RunSeqScanElision(smoke ? (8ull << 20) : Scaled(32ull << 20));
  PrintRow(seq);
  std::printf("every shootdown stayed initiator-local (%" PRIu64 " elided IPIs)\n",
              seq.ipis_elided);

  BenchJsonWriter json("tlb_shootdown", smoke, /*threads=*/8);
  json.AddMeta("workload",
               "\"private random reads + transient drops (1/8 ops, 1/16 cross-owner), "
               "4:1 data:cache, eviction churn\"");
  json.AddMeta("ops_per_thread", std::to_string(kOpsPerThread));
  json.AddMeta("repeats", std::to_string(kRepeats));
  json.BeginSection("sweep");
  for (const Row& row : sweep) {
    json.AddRow(JsonRow(row));
  }
  json.BeginSection("seq_scan_single_thread");
  json.AddRow(JsonRow(seq));
  json.Write();
  return 0;
}
