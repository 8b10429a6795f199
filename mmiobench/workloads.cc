// The three workloads. Geometry constants and the reason for each are
// recorded in README.md next to this file; keep the two in step.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "mmiobench/bench.h"
#include "src/kvs/kreon_db.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/bitops.h"
#include "src/util/rng.h"
#include "src/vmx/cost_model.h"
#include "src/ycsb/workload.h"

namespace aquila {
namespace mmiobench {
namespace {

// Host-second deadlines per phase. Generous next to the measured phase
// lengths (well under 5 s on a 4-core host); a miss means a stall.
constexpr double kSetupDeadlineS = 60;
constexpr double kTimedDeadlineS = 60;
constexpr double kVerifyDeadlineS = 30;

// Library defaults plus the cache geometry rule of bench/common.h
// (AquilaOptions), without its environment overrides. Host memory is sized
// to the cache's initial grant (the benchmark never calls GrowCache), not
// bench/common.h's 4 GB: the hypervisor ftruncates a memfd to that size,
// which counts against RLIMIT_FSIZE, so a run under a file-size limit below
// it would die of SIGXFSZ.
Aquila::Options MakeOptions(uint64_t cache_bytes, int active_cores) {
  Aquila::Options options;
  options.hypervisor.chunk_size = 4ull << 20;
  options.cache.capacity_pages = cache_bytes / kPageSize;
  options.cache.max_pages = options.cache.capacity_pages * 2;
  options.hypervisor.host_memory_bytes =
      AlignUp(options.cache.capacity_pages * kPageSize, options.hypervisor.chunk_size);
  options.cache.eviction_batch =
      static_cast<uint32_t>(std::min<uint64_t>(512, options.cache.capacity_pages / 16 + 1));
  options.cache.freelist.core_queue_threshold =
      static_cast<uint32_t>(options.cache.capacity_pages / 64 + 16);
  options.cache.freelist.move_batch = options.cache.freelist.core_queue_threshold / 2 + 1;
  options.active_cores = active_cores;
  return options;
}

void PrintOptions(const Aquila::Options& o) {
  std::printf(
      "options: cache.capacity_pages=%llu cache.max_pages=%llu cache.eviction_batch=%u "
      "freelist.core_queue_threshold=%u freelist.move_batch=%u freelist.carve_runs=%d "
      "active_cores=%d shootdown_batch=%u shootdown_mask_mode=%d readahead_pages=%u "
      "async_writeback=%d async_queue_depth=%u coop_sched=%d huge_pages=%d "
      "device_op_timeout_us=%u hedge_reads=%d span_sample_every=%u stats_server_port=%d "
      "writeback_failure_limit=%u hypervisor.host_memory_bytes=%llu "
      "hypervisor.chunk_size=%llu\n",
      static_cast<unsigned long long>(o.cache.capacity_pages),
      static_cast<unsigned long long>(o.cache.max_pages), o.cache.eviction_batch,
      o.cache.freelist.core_queue_threshold, o.cache.freelist.move_batch,
      o.cache.freelist.carve_runs ? 1 : 0, o.active_cores, o.shootdown_batch,
      static_cast<int>(o.shootdown_mask_mode), o.readahead_pages, o.async_writeback ? 1 : 0,
      o.async_queue_depth, o.coop_sched ? 1 : 0, o.huge_pages ? 1 : 0, o.device_op_timeout_us,
      o.hedge_reads ? 1 : 0, o.span_sample_every, o.stats_server_port,
      o.writeback_failure_limit,
      static_cast<unsigned long long>(o.hypervisor.host_memory_bytes),
      static_cast<unsigned long long>(o.hypervisor.chunk_size));
}

double SecondsSince(uint64_t host_start_ns) {
  return static_cast<double>(HostNowNs() - host_start_ns) / 1e9;
}

// The seeded per-page stamp written at set-up: every 8-byte word of page
// `page` is a function of (seed, page, word).
void StampPage(uint8_t* dst, uint64_t seed, uint64_t page) {
  uint64_t base = Mix(seed, page);
  for (uint64_t w = 0; w < kPageSize / 8; w++) {
    uint64_t word = base + w * 0x9e3779b97f4a7c15ull;
    std::memcpy(dst + w * 8, &word, 8);
  }
}

// Reads `page` of `map` (at file page `file_page` of the stamped data) in
// bulk and checks it against its stamp. Counts one attempted op.
void VerifyPage(MemoryMap* map, uint64_t page, uint64_t file_page, uint64_t seed,
                ClientLog& log, std::vector<uint8_t>& buf, std::vector<uint8_t>& expect) {
  log.attempted++;
  Status status = map->Read(page * kPageSize, std::span(buf.data(), kPageSize));
  StampPage(expect.data(), seed, file_page);
  if (!status.ok() || std::memcmp(buf.data(), expect.data(), kPageSize) != 0) {
    log.failed++;
  }
}

// Counts `n` ops that a raised stop flag left unfinished as failed.
void FailRemaining(ClientLog& log, uint64_t n) {
  log.attempted += n;
  log.failed += n;
}

// The timed phase shared by every workload: counters, process CPU time and
// the slowest client's simulated clock around `fn`.
void TimedPhase(Aquila& runtime, const std::vector<const BlockDevice*>& devices,
                const RoundConfig& cfg, RoundResult& result,
                const std::function<void(int, const std::atomic<bool>&)>& fn) {
  Counters before = TakeCounters(runtime, devices);
  uint64_t cpu_start = ProcessCpuNs();
  const int clients = static_cast<int>(result.clients.size());
  uint64_t slowest = RunClients(runtime, clients, cfg.round, kTimedDeadlineS, "timed",
                                [&](int t, const std::atomic<bool>& stop) {
                                  if (cfg.traced) {
                                    ThisRecorder() = &result.clients[t].recorder;
                                  }
                                  fn(t, stop);
                                  ThisRecorder() = nullptr;
                                });
  uint64_t cpu_ns = ProcessCpuNs() - cpu_start;
  result.rss_after_timed_bytes = ResidentBytes();
  result.delta = TakeCounters(runtime, devices) - before;
  for (const ClientLog& log : result.clients) {
    result.timed_ops += log.timed_ops;
  }
  double ops = static_cast<double>(std::max<uint64_t>(result.timed_ops, 1));
  result.host_cpu_ns_per_op = static_cast<double>(cpu_ns) / ops;
  if (slowest > 0) {
    double sim_seconds =
        static_cast<double>(slowest) / (static_cast<double>(GlobalCostModel().cycles_per_us) * 1e6);
    result.sim_kops = ops / sim_seconds / 1e3;
  }
}

// --- randread_ooc ------------------------------------------------------------------

constexpr int kRandClients = 4;
constexpr uint64_t kRandDataBytes = 256ull << 20;
constexpr uint64_t kRandCacheBytes = 32ull << 20;
constexpr uint64_t kRandOpsPerClient = 40000;
constexpr uint64_t kRandVerifyPages = 512;  // per client

RoundResult RandreadRound(const RoundConfig& cfg) {
  RoundResult result;
  result.traced = cfg.traced;
  result.clients.resize(kRandClients);
  const uint64_t pages = kRandDataBytes / kPageSize;

  uint64_t setup_start = HostNowNs();
  PmemDevice::Options pmem_options;
  pmem_options.capacity_bytes = kRandDataBytes;
  PmemDevice pmem(pmem_options);
  for (uint64_t p = 0; p < pages; p++) {
    StampPage(pmem.dax_base() + p * kPageSize, cfg.seed, p);
  }
  auto runtime = std::make_unique<Aquila>(MakeOptions(kRandCacheBytes, kRandClients));
  runtime->EnterThread();
  DeviceBacking backing(&pmem, 0, kRandDataBytes);
  StatusOr<MemoryMap*> mapped = runtime->Map(&backing, kRandDataBytes, kProtRead);
  AQUILA_CHECK(mapped.ok());
  MemoryMap* real = *mapped;
  AQUILA_CHECK(real->Advise(0, kRandDataBytes, Advice::kRandom).ok());
  TracedMap traced(real);
  MemoryMap* map = cfg.traced ? static_cast<MemoryMap*>(&traced) : real;

  // Warm until eviction is under way: the timed phase then sees the steady
  // state of a full cache (every miss allocates through a batch eviction).
  const uint64_t warm_evictions = runtime->cache().capacity_pages() / 4;
  RunClients(*runtime, kRandClients, cfg.round, kSetupDeadlineS, "warm",
             [&](int t, const std::atomic<bool>& stop) {
               ClientLog& log = result.clients[t];
               Rng rng(Mix(cfg.seed, cfg.round, 1000 + t));
               while (!stop.load(std::memory_order_relaxed) &&
                      runtime->fault_stats().evicted_pages.load() < warm_evictions) {
                 log.attempted++;
                 if (!real->TouchRead(rng.Uniform(pages) * kPageSize + 128).ok()) {
                   log.failed++;
                 }
               }
             });
  result.setup_s = SecondsSince(setup_start);

  TimedPhase(*runtime, {&pmem}, cfg, result, [&](int t, const std::atomic<bool>& stop) {
    ClientLog& log = result.clients[t];
    log.read_cycles.reserve(kRandOpsPerClient);
    Rng rng(Mix(cfg.seed, cfg.round, t));
    for (uint64_t i = 0; i < kRandOpsPerClient; i++) {
      if (stop.load(std::memory_order_relaxed)) {
        FailRemaining(log, kRandOpsPerClient - i);
        break;
      }
      OpTimer op(log, cfg.traced, (static_cast<uint64_t>(t) << 40) | i);
      AccessResult access = map->TouchRead(rng.Uniform(pages) * kPageSize + 128);
      op.Finish(OpKind::kRead, access.ok());
    }
  });

  RunClients(*runtime, kRandClients, cfg.round, kVerifyDeadlineS, "verify",
             [&](int t, const std::atomic<bool>& stop) {
               ClientLog& log = result.clients[t];
               Rng rng(Mix(cfg.seed, cfg.round, 2000 + t));
               std::vector<uint8_t> buf(kPageSize), expect(kPageSize);
               for (uint64_t i = 0; i < kRandVerifyPages; i++) {
                 if (stop.load(std::memory_order_relaxed)) {
                   FailRemaining(log, kRandVerifyPages - i);
                   break;
                 }
                 uint64_t page = rng.Uniform(pages);
                 VerifyPage(real, page, page, cfg.seed, log, buf, expect);
               }
             });
  if (!runtime->Unmap(real).ok()) {
    result.clients[0].attempted++;
    result.clients[0].failed++;
  }
  return result;
}

// --- scan_fit ----------------------------------------------------------------------

constexpr int kScanClients = 2;
constexpr uint64_t kScanFileBytes = 16ull << 20;
constexpr uint64_t kScanCacheBytes = 128ull << 20;
constexpr uint64_t kScanPassesPerClient = 12;
constexpr uint64_t kScanVerifyPages = 512;  // per client

// One map -> kSequential -> sequential TouchRead of every page -> unmap
// pass over `backing`. Timed passes record each touch as one op.
void ScanPass(Aquila& runtime, DeviceBacking& backing, ClientLog& log, bool timed, bool traced,
              uint64_t request_base, const std::atomic<bool>& stop) {
  const uint64_t pages = kScanFileBytes / kPageSize;
  SimClock& clock = ThisThreadClock();
  uint64_t map_start = clock.Now();
  StatusOr<MemoryMap*> mapped = [&] {
    ScopedSpan span(SpanName::kCoreMap);
    return runtime.Map(&backing, kScanFileBytes, kProtRead);
  }();
  uint64_t map_cycles = clock.Now() - map_start;
  if (!mapped.ok()) {
    FailRemaining(log, pages);
    return;
  }
  MemoryMap* real = *mapped;
  TracedMap traced_map(real);
  MemoryMap* map = traced ? static_cast<MemoryMap*>(&traced_map) : real;
  Status advised = map->Advise(0, kScanFileBytes, Advice::kSequential);
  for (uint64_t p = 0; p < pages; p++) {
    if (stop.load(std::memory_order_relaxed) || !advised.ok()) {
      FailRemaining(log, pages - p);
      break;
    }
    if (!timed) {
      log.attempted++;
      if (!real->TouchRead(p * kPageSize).ok()) {
        log.failed++;
      }
      continue;
    }
    OpTimer op(log, traced, request_base + p);
    AccessResult access = map->TouchRead(p * kPageSize);
    op.Finish(OpKind::kRead, access.ok());
  }
  uint64_t unmap_start = clock.Now();
  Status unmapped = [&] {
    ScopedSpan span(SpanName::kCoreUnmap);
    return runtime.Unmap(real);
  }();
  if (!unmapped.ok()) {
    log.attempted++;
    log.failed++;
  }
  if (timed) {
    log.map_unmap_cycles += map_cycles + (clock.Now() - unmap_start);
    log.map_unmap_pairs++;
  }
}

RoundResult ScanRound(const RoundConfig& cfg) {
  RoundResult result;
  result.traced = cfg.traced;
  result.clients.resize(kScanClients);
  const uint64_t file_pages = kScanFileBytes / kPageSize;

  uint64_t setup_start = HostNowNs();
  // One NVMe device per client. On one shared device the two scanners'
  // readahead batches queue behind each other on its channel whenever their
  // simulated clocks happen to line up, so a round's read p99 fell anywhere
  // from 39 to 62 us and the run's p99 spread 11% between runs. A shared
  // channel is still measured by randread_ooc's shared pmem device.
  NvmeController::Options nvme_options;
  nvme_options.capacity_bytes = kScanFileBytes;
  std::vector<std::unique_ptr<NvmeController>> controllers;
  std::vector<std::unique_ptr<NvmeDevice>> nvmes;
  std::vector<std::unique_ptr<DeviceBacking>> backings;
  for (int t = 0; t < kScanClients; t++) {
    controllers.push_back(std::make_unique<NvmeController>(nvme_options));
    for (uint64_t p = 0; p < file_pages; p++) {
      StampPage(controllers[t]->flash() + p * kPageSize, cfg.seed, t * file_pages + p);
    }
    nvmes.push_back(std::make_unique<NvmeDevice>(controllers[t].get()));
    backings.push_back(std::make_unique<DeviceBacking>(nvmes[t].get(), 0, kScanFileBytes));
  }
  auto runtime = std::make_unique<Aquila>(MakeOptions(kScanCacheBytes, kScanClients));
  runtime->EnterThread();
  RunClients(*runtime, kScanClients, cfg.round, kSetupDeadlineS, "warm",
             [&](int t, const std::atomic<bool>& stop) {
               ScanPass(*runtime, *backings[t], result.clients[t], /*timed=*/false,
                        /*traced=*/false, 0, stop);
             });
  result.setup_s = SecondsSince(setup_start);

  std::vector<const BlockDevice*> devices;
  for (const auto& nvme : nvmes) {
    devices.push_back(nvme.get());
  }
  TimedPhase(*runtime, devices, cfg, result, [&](int t, const std::atomic<bool>& stop) {
    ClientLog& log = result.clients[t];
    log.read_cycles.reserve(kScanPassesPerClient * file_pages);
    for (uint64_t pass = 0; pass < kScanPassesPerClient; pass++) {
      ScanPass(*runtime, *backings[t], log, /*timed=*/true, cfg.traced,
               (static_cast<uint64_t>(t) << 40) | (pass << 20), stop);
    }
  });

  RunClients(*runtime, kScanClients, cfg.round, kVerifyDeadlineS, "verify",
             [&](int t, const std::atomic<bool>& stop) {
               ClientLog& log = result.clients[t];
               StatusOr<MemoryMap*> mapped =
                   runtime->Map(backings[t].get(), kScanFileBytes, kProtRead);
               if (!mapped.ok()) {
                 FailRemaining(log, kScanVerifyPages);
                 return;
               }
               Rng rng(Mix(cfg.seed, cfg.round, 2000 + t));
               std::vector<uint8_t> buf(kPageSize), expect(kPageSize);
               for (uint64_t i = 0; i < kScanVerifyPages; i++) {
                 if (stop.load(std::memory_order_relaxed)) {
                   FailRemaining(log, kScanVerifyPages - i);
                   break;
                 }
                 uint64_t page = rng.Uniform(file_pages);
                 VerifyPage(*mapped, page, t * file_pages + page, cfg.seed, log, buf, expect);
               }
               if (!runtime->Unmap(*mapped).ok()) {
                 log.attempted++;
                 log.failed++;
               }
             });
  return result;
}

// --- ycsb_a_ooc ----------------------------------------------------------------------

constexpr uint64_t kYcsbRecords = 16384;
constexpr uint32_t kYcsbKeyBytes = 30;
constexpr uint32_t kYcsbValueBytes = 1024;
constexpr uint64_t kYcsbCacheBytes = 12ull << 20;
constexpr uint64_t kYcsbOps = 40000;
constexpr uint64_t kYcsbWarmGets = 4096;
constexpr uint64_t kYcsbPersistEvery = 1024;  // Puts between KreonDb::Persist calls
constexpr uint32_t kKreonIndexPercent = KreonDb::Options{}.index_percent;
// Kreon's value log is append-only with no cleaning, so the mapping must
// hold the load plus a Put for every timed op (the worst case of the mix).
constexpr uint64_t kKreonRecordBytes = 9 + kYcsbKeyBytes + kYcsbValueBytes;
constexpr uint64_t kYcsbLogBytesNeeded = (kYcsbRecords + kYcsbOps) * kKreonRecordBytes;
constexpr uint64_t kYcsbMappingBytes =
    AlignUp(kYcsbLogBytesNeeded * 100 / (100 - kKreonIndexPercent) + (4ull << 20), 1ull << 20);

// The log room KreonDb leaves in a mapping of `bytes` (see KreonDb's
// constructor: index_percent of the pages, at least 8, precede the log).
constexpr uint64_t KreonLogCapacity(uint64_t bytes) {
  uint64_t index_pages = bytes / kPageSize * kKreonIndexPercent / 100;
  return bytes - std::max<uint64_t>(index_pages, 8) * kPageSize;
}
static_assert(KreonLogCapacity(kYcsbMappingBytes) >= kYcsbLogBytesNeeded,
              "Kreon mapping too small for the load plus one Put per timed op");

RoundResult YcsbRound(const RoundConfig& cfg) {
  RoundResult result;
  result.traced = cfg.traced;
  result.clients.resize(1);
  ClientLog& log = result.clients[0];
  const Aquila::Options options = MakeOptions(kYcsbCacheBytes, 1);

  uint64_t setup_start = HostNowNs();
  NvmeController::Options nvme_options;
  nvme_options.capacity_bytes = kYcsbMappingBytes;
  NvmeController controller(nvme_options);
  NvmeDevice nvme(&controller);
  DeviceBacking backing(&nvme, 0, kYcsbMappingBytes);
  auto runtime = std::make_unique<Aquila>(options);
  runtime->EnterThread();
  StatusOr<MemoryMap*> mapped =
      runtime->Map(&backing, kYcsbMappingBytes, kProtRead | kProtWrite);
  AQUILA_CHECK(mapped.ok());
  MemoryMap* real = *mapped;
  TracedMap traced(real);
  MemoryMap* map = cfg.traced ? static_cast<MemoryMap*>(&traced) : real;

  std::vector<std::string> expected(kYcsbRecords);
  std::unique_ptr<KreonDb> db;
  std::string value;
  auto check_get = [&](uint64_t id) {
    bool found = false;
    Status status;
    {
      ScopedSpan span(SpanName::kKvsGet);
      status = db->Get(Slice(YcsbKey(id, kYcsbKeyBytes)), &value, &found);
    }
    return status.ok() && found && value == expected[id];
  };

  // Set-up: format, load every record, persist, then warm the cache with
  // verified zipfian Gets.
  RunClients(*runtime, 1, cfg.round, kSetupDeadlineS, "load",
             [&](int, const std::atomic<bool>& stop) {
               StatusOr<std::unique_ptr<KreonDb>> opened = KreonDb::Open(map, KreonDb::Options{});
               log.attempted++;
               if (!opened.ok()) {
                 log.failed++;
                 return;
               }
               db = std::move(*opened);
               for (uint64_t id = 0; id < kYcsbRecords; id++) {
                 if (stop.load(std::memory_order_relaxed)) {
                   FailRemaining(log, kYcsbRecords - id);
                   return;
                 }
                 expected[id] = YcsbValue(id, kYcsbValueBytes);
                 log.attempted++;
                 if (!db->Put(Slice(YcsbKey(id, kYcsbKeyBytes)), Slice(expected[id])).ok()) {
                   log.failed++;
                 }
               }
               log.attempted++;
               if (!db->Persist().ok()) {
                 log.failed++;
               }
               ZipfianGenerator zipf(kYcsbRecords, ZipfianGenerator::kDefaultTheta,
                                     Mix(cfg.seed, cfg.round, 1000));
               for (uint64_t i = 0; i < kYcsbWarmGets; i++) {
                 if (stop.load(std::memory_order_relaxed)) {
                   FailRemaining(log, kYcsbWarmGets - i);
                   return;
                 }
                 log.attempted++;
                 if (!check_get(FnvHash64(zipf.Next()) % kYcsbRecords)) {
                   log.failed++;
                 }
               }
             });
  result.setup_s = SecondsSince(setup_start);

  if (db != nullptr) {
    TimedPhase(*runtime, {&nvme}, cfg, result, [&](int, const std::atomic<bool>& stop) {
      log.read_cycles.reserve(kYcsbOps);
      log.write_cycles.reserve(kYcsbOps);
      Rng rng(Mix(cfg.seed, cfg.round, 1));
      ZipfianGenerator zipf(kYcsbRecords, ZipfianGenerator::kDefaultTheta,
                            Mix(cfg.seed, cfg.round, 2));
      SimClock& clock = ThisThreadClock();
      uint64_t puts = 0;
      for (uint64_t op = 0; op < kYcsbOps; op++) {
        if (stop.load(std::memory_order_relaxed)) {
          FailRemaining(log, kYcsbOps - op);
          break;
        }
        OpTimer timer(log, cfg.traced, op);
        uint64_t id = FnvHash64(zipf.Next()) % kYcsbRecords;
        if (rng.NextDouble() < 0.5) {
          timer.Finish(OpKind::kRead, check_get(id));
          continue;
        }
        std::string key = YcsbKey(id, kYcsbKeyBytes);
        std::string update = YcsbValue(Mix(cfg.seed, cfg.round, 3 + op), kYcsbValueBytes);
        Status status;
        {
          ScopedSpan span(SpanName::kKvsPut);
          status = db->Put(Slice(key), Slice(update));
        }
        if (status.ok()) {
          log.user_bytes_written += key.size() + update.size();
          expected[id] = std::move(update);
          if (++puts % kYcsbPersistEvery == 0) {
            uint64_t persist_start = clock.Now();
            ScopedSpan span(SpanName::kKvsPersist);
            status = db->Persist();
            log.persist_cycles.push_back(clock.Now() - persist_start);
          }
        }
        timer.Finish(OpKind::kWrite, status.ok());
      }
    });
  }

  // Verify: final Persist, then reopen the store on a fresh runtime over the
  // same device bytes and check every key's last acknowledged value.
  RunClients(*runtime, 1, cfg.round, kVerifyDeadlineS, "persist",
             [&](int, const std::atomic<bool>&) {
               if (db == nullptr) {
                 return;
               }
               log.attempted++;
               if (!db->Persist().ok()) {
                 log.failed++;
               }
               db.reset();
             });
  if (!runtime->Unmap(real).ok()) {
    log.attempted++;
    log.failed++;
  }
  runtime.reset();
  runtime = std::make_unique<Aquila>(options);
  runtime->EnterThread();
  mapped = runtime->Map(&backing, kYcsbMappingBytes, kProtRead | kProtWrite);
  AQUILA_CHECK(mapped.ok());
  RunClients(*runtime, 1, cfg.round, kVerifyDeadlineS, "reopen-verify",
             [&](int, const std::atomic<bool>& stop) {
               StatusOr<std::unique_ptr<KreonDb>> reopened =
                   KreonDb::Open(*mapped, KreonDb::Options{});
               if (!reopened.ok()) {
                 FailRemaining(log, kYcsbRecords + 1);
                 return;
               }
               db = std::move(*reopened);
               log.attempted++;
               if (db->entries() != kYcsbRecords) {
                 log.failed++;
               }
               for (uint64_t id = 0; id < kYcsbRecords; id++) {
                 if (stop.load(std::memory_order_relaxed)) {
                   FailRemaining(log, kYcsbRecords - id);
                   break;
                 }
                 log.attempted++;
                 if (!check_get(id)) {
                   log.failed++;
                 }
               }
               db.reset();
             });
  if (!runtime->Unmap(*mapped).ok()) {
    log.attempted++;
    log.failed++;
  }
  return result;
}

const Workload kWorkloads[] = {
    {"randread_ooc",
     [] {
       std::printf("geometry: %d clients pinned to cores 0-%d, uniform TouchRead "
                   "(Advice::kRandom) over one shared %llu MB DAX-pmem mapping, %llu MB "
                   "cache, %llu ops/client/round, warmed until %s\n",
                   kRandClients, kRandClients - 1,
                   static_cast<unsigned long long>(kRandDataBytes >> 20),
                   static_cast<unsigned long long>(kRandCacheBytes >> 20),
                   static_cast<unsigned long long>(kRandOpsPerClient),
                   "a quarter of the cache was evicted");
       PrintOptions(MakeOptions(kRandCacheBytes, kRandClients));
     },
     RandreadRound, MakeOptions(kRandCacheBytes, kRandClients).hypervisor.host_memory_bytes},
    {"ycsb_a_ooc",
     [] {
       std::printf("geometry: 1 client, KreonDb over a %llu MB NVMe mapping (log room for "
                   "%llu records + %llu Puts), %llu x %u B records, YCSB-A zipfian, %llu "
                   "ops/round, Persist every %llu Puts, %llu MB cache\n",
                   static_cast<unsigned long long>(kYcsbMappingBytes >> 20),
                   static_cast<unsigned long long>(kYcsbRecords),
                   static_cast<unsigned long long>(kYcsbOps),
                   static_cast<unsigned long long>(kYcsbRecords), kYcsbValueBytes,
                   static_cast<unsigned long long>(kYcsbOps),
                   static_cast<unsigned long long>(kYcsbPersistEvery),
                   static_cast<unsigned long long>(kYcsbCacheBytes >> 20));
       PrintOptions(MakeOptions(kYcsbCacheBytes, 1));
     },
     YcsbRound, MakeOptions(kYcsbCacheBytes, 1).hypervisor.host_memory_bytes},
    {"scan_fit",
     [] {
       std::printf("geometry: %d clients, each %llu x (map, Advice::kSequential, sequential "
                   "TouchRead of all pages, unmap) per round over its own %llu MB NVMe "
                   "device, %llu MB cache\n",
                   kScanClients, static_cast<unsigned long long>(kScanPassesPerClient),
                   static_cast<unsigned long long>(kScanFileBytes >> 20),
                   static_cast<unsigned long long>(kScanCacheBytes >> 20));
       PrintOptions(MakeOptions(kScanCacheBytes, kScanClients));
     },
     ScanRound, MakeOptions(kScanCacheBytes, kScanClients).hypervisor.host_memory_bytes},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    names += names.empty() ? "" : ", ";
    names += w.name;
  }
  return names;
}

}  // namespace mmiobench
}  // namespace aquila
