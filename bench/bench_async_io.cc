// I/O configuration ablation — the comparison §3.3 defers to future work:
// the same random-4K-read workload over every access method the paper
// lists, on the NVMe model:
//
//   sync-syscall : pread per request through the host kernel;
//   io_uring     : batched async submission, syscall amortized over the
//                  batch, completion path via shared memory;
//   spdk-poll    : user-space queue pairs, no kernel at all;
//   aquila-mmio  : faults on first touch, free hits thereafter.
//
// Expected shape (§7.1): async batching cuts CPU cycles per op and lifts
// throughput, but raises per-request latency (a request waits for its
// batch); SPDK removes the kernel entirely; mmio wins once the working set
// caches.
//
// The DeviceQueue sweep at the end drives the unified submission/completion
// API at queue depths 1/8/32, and the readahead_stream leg scans an NVMe
// mapping under kSequential with default Options, where readahead streams
// through the mapping's device queue. Both go to BENCH_async_pipeline.json
// (throughput + p99) as the perf trajectory for future PRs. The stream is
// gated in-bench at >= 80% of the channel-bound rate (one 4K transfer per
// channel_cycles_per_4k). `--smoke` shrinks the run for CI.
#include <cinttypes>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "src/storage/async_io.h"
#include "src/storage/device_queue.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace aquila {
namespace bench {
namespace {

struct Row {
  double kiops;
  double avg_us;
  double p99_us;
  double cpu_cycles_per_op;  // cycles the CPU spends, excluding device waits
};

void Print(const char* name, const Row& row) {
  std::printf("%-14s %10.1f kIOPS   avg %7.2f us   p99 %7.2f us   cpu %6.0f cyc/op\n", name,
              row.kiops, row.avg_us, row.p99_us, row.cpu_cycles_per_op);
}

Row Finish(Histogram& latency, uint64_t ops, uint64_t elapsed, const CostBreakdown& delta) {
  Row row;
  uint64_t cycles_per_us = GlobalCostModel().cycles_per_us;
  row.kiops = static_cast<double>(ops) /
              (static_cast<double>(elapsed) / (cycles_per_us * 1e6)) / 1e3;
  row.avg_us = latency.Mean() / cycles_per_us;
  row.p99_us = static_cast<double>(latency.Percentile(0.99)) / cycles_per_us;
  uint64_t cpu = delta.Total() - delta[CostCategory::kDeviceIo] - delta[CostCategory::kIdle];
  row.cpu_cycles_per_op = static_cast<double>(cpu) / ops;
  return row;
}

// Random 4K reads through the unified DeviceQueue API at a fixed queue
// depth, keeping the queue saturated. Latency is end-to-end per request
// (submit to reap), so deeper queues trade p99 for throughput.
Row RunQueueDepth(uint32_t depth, uint64_t ops, uint64_t data_bytes) {
  auto device = MakeNvme(data_bytes);
  std::unique_ptr<DeviceQueue> queue = device->direct->CreateQueue(depth);
  Vcpu& vcpu = ThisVcpu();
  Histogram latency;
  Rng rng(100 + depth);
  const uint64_t pages = data_bytes / kPageSize;
  std::vector<std::vector<uint8_t>> buffers(depth, std::vector<uint8_t>(kPageSize));
  std::vector<uint32_t> free_bufs;
  for (uint32_t i = 0; i < depth; i++) {
    free_bufs.push_back(i);
  }
  std::vector<DeviceQueue::Completion> completions;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t start = vcpu.clock().Now();
  CostBreakdown before = vcpu.clock().Breakdown();
  while (completed < ops) {
    while (submitted < ops && !free_bufs.empty()) {
      uint32_t buf = free_bufs.back();
      Status status = queue->SubmitRead(vcpu, rng.Uniform(pages) * kPageSize,
                                        std::span(buffers[buf]), buf);
      if (!status.ok()) {
        AQUILA_CHECK(status.code() == StatusCode::kOutOfSpace);
        break;
      }
      free_bufs.pop_back();
      submitted++;
    }
    completions.clear();
    if (queue->Poll(vcpu, &completions) == 0 && queue->in_flight() > 0) {
      (void)queue->WaitMin(vcpu, 1, &completions);
    }
    uint64_t now = vcpu.clock().Now();
    for (const DeviceQueue::Completion& c : completions) {
      AQUILA_CHECK(c.status.ok());
      latency.Record(now - c.submit_at);
      free_bufs.push_back(static_cast<uint32_t>(c.user_data));
      completed++;
    }
  }
  return Finish(latency, ops, vcpu.clock().Now() - start, vcpu.clock().Breakdown() - before);
}

struct StreamRow {
  double kiops;
  double device_cycles_per_page;
  double p99_us;
};

// One client touches every page of an NVMe mapping in order under
// kSequential, with default Options: each touch's latency, and the device
// time the scan paid per page.
StreamRow RunReadaheadStream(uint64_t data_bytes) {
  auto device = MakeNvme(data_bytes);
  auto runtime = MakeAquila(data_bytes);
  DeviceBacking backing(device->direct, 0, data_bytes);
  auto map = runtime->Map(&backing, data_bytes, kProtRead);
  AQUILA_CHECK(map.ok());
  AQUILA_CHECK((*map)->Advise(0, data_bytes, Advice::kSequential).ok());
  Vcpu& vcpu = ThisVcpu();
  Histogram latency;
  const uint64_t pages = data_bytes / kPageSize;
  const uint64_t start = vcpu.clock().Now();
  const CostBreakdown before = vcpu.clock().Breakdown();
  for (uint64_t p = 0; p < pages; p++) {
    const uint64_t begin = vcpu.clock().Now();
    AQUILA_CHECK((*map)->TouchRead(p * kPageSize).ok());
    latency.Record(vcpu.clock().Now() - begin);
  }
  const uint64_t elapsed = vcpu.clock().Now() - start;
  const CostBreakdown delta = vcpu.clock().Breakdown() - before;
  AQUILA_CHECK(runtime->Unmap(*map).ok());
  const double cycles_per_us = GlobalCostModel().cycles_per_us;
  StreamRow row;
  row.kiops = static_cast<double>(pages) / (static_cast<double>(elapsed) / cycles_per_us) * 1e3;
  row.device_cycles_per_page = static_cast<double>(delta[CostCategory::kDeviceIo]) / pages;
  row.p99_us = static_cast<double>(latency.Percentile(0.99)) / cycles_per_us;
  return row;
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
  PrintHeader("I/O configurations (paper §3.3 future work): random 4K reads, NVMe");
  const uint64_t kDataBytes = smoke ? (8ull << 20) : Scaled(64ull << 20);
  const uint64_t kOps = smoke ? 512 : Scaled(4000);
  const uint64_t kPages = kDataBytes / kPageSize;

  // --- synchronous pread through the host kernel -------------------------------
  {
    auto device = MakeNvme(kDataBytes);
    Vcpu& vcpu = ThisVcpu();
    Histogram latency;
    Rng rng(1);
    std::vector<uint8_t> buf(kPageSize);
    uint64_t start = vcpu.clock().Now();
    CostBreakdown before = vcpu.clock().Breakdown();
    for (uint64_t i = 0; i < kOps; i++) {
      uint64_t begin = vcpu.clock().Now();
      AQUILA_CHECK(device->host->Read(vcpu, rng.Uniform(kPages) * kPageSize,
                                      std::span(buf)).ok());
      latency.Record(vcpu.clock().Now() - begin);
    }
    Row row = Finish(latency, kOps, vcpu.clock().Now() - start,
                     vcpu.clock().Breakdown() - before);
    Print("sync-syscall", row);
  }

  // --- io_uring: batches of 32 ----------------------------------------------------
  {
    auto device = MakeNvme(kDataBytes);
    AsyncIoRing ring(*device->direct, AsyncIoRing::Options{});
    Vcpu& vcpu = ThisVcpu();
    Histogram latency;
    Rng rng(2);
    constexpr uint32_t kBatch = 32;
    std::vector<std::vector<uint8_t>> buffers(kBatch, std::vector<uint8_t>(kPageSize));
    std::vector<AsyncIoRing::Completion> completions;
    uint64_t start = vcpu.clock().Now();
    CostBreakdown before = vcpu.clock().Breakdown();
    for (uint64_t done = 0; done < kOps; done += kBatch) {
      for (uint32_t i = 0; i < kBatch; i++) {
        AQUILA_CHECK(ring.PrepareRead(rng.Uniform(kPages) * kPageSize,
                                      std::span(buffers[i]), i).ok());
      }
      uint64_t batch_start = vcpu.clock().Now();
      AQUILA_CHECK(ring.Submit(vcpu).ok());
      completions.clear();
      AQUILA_CHECK(ring.WaitFor(vcpu, kBatch, &completions).ok());
      // Per-request latency includes waiting for the whole batch (the tail
      // cost of batching the paper calls out).
      for (uint32_t i = 0; i < kBatch; i++) {
        latency.Record(vcpu.clock().Now() - batch_start);
      }
    }
    Row row = Finish(latency, kOps, vcpu.clock().Now() - start,
                     vcpu.clock().Breakdown() - before);
    Print("io_uring-32", row);
  }

  // --- SPDK polling ------------------------------------------------------------------
  {
    auto device = MakeNvme(kDataBytes);
    Vcpu& vcpu = ThisVcpu();
    Histogram latency;
    Rng rng(3);
    std::vector<uint8_t> buf(kPageSize);
    uint64_t start = vcpu.clock().Now();
    CostBreakdown before = vcpu.clock().Breakdown();
    for (uint64_t i = 0; i < kOps; i++) {
      uint64_t begin = vcpu.clock().Now();
      AQUILA_CHECK(device->direct->Read(vcpu, rng.Uniform(kPages) * kPageSize,
                                        std::span(buf)).ok());
      latency.Record(vcpu.clock().Now() - begin);
    }
    Row row = Finish(latency, kOps, vcpu.clock().Now() - start,
                     vcpu.clock().Breakdown() - before);
    Print("spdk-poll", row);
  }

  // --- Aquila mmio (cache half the dataset) --------------------------------------------
  {
    auto device = MakeNvme(kDataBytes);
    auto runtime = MakeAquila(kDataBytes / 2);
    DeviceBacking backing(device->direct, 0, kDataBytes);
    auto map = runtime->Map(&backing, kDataBytes, kProtRead);
    AQUILA_CHECK(map.ok());
    (void)(*map)->Advise(0, kDataBytes, Advice::kRandom);
    Vcpu& vcpu = ThisVcpu();
    Histogram latency;
    Rng rng(4);
    uint64_t start = vcpu.clock().Now();
    CostBreakdown before = vcpu.clock().Breakdown();
    // Driven through the batched surface (one request per batch keeps the
    // per-op latency measurement): the sync fallback services the touch
    // during SubmitBatch; AQUILA_COOP_SCHED=1 routes it via the scheduler.
    MmioCompletion completion;
    for (uint64_t i = 0; i < kOps; i++) {
      uint64_t begin = vcpu.clock().Now();
      MmioRequest req;
      req.kind = MmioRequest::Kind::kRead;
      req.offset = rng.Uniform(kPages) * kPageSize;
      req.user_tag = i;
      AQUILA_CHECK((*map)->SubmitBatch(std::span(&req, 1)).ok());
      while ((*map)->Poll(std::span(&completion, 1)) == 0) {
      }
      AQUILA_CHECK(completion.status.ok());
      latency.Record(vcpu.clock().Now() - begin);
    }
    Row row = Finish(latency, kOps, vcpu.clock().Now() - start,
                     vcpu.clock().Breakdown() - before);
    Print("aquila-mmio", row);
    AQUILA_CHECK(runtime->Unmap(*map).ok());
  }

  std::printf("\nexpected shape: io_uring > sync in IOPS and CPU/op but worse per-request "
              "latency; spdk removes kernel cycles; mmio amortizes to ~zero on hits\n");

  // --- DeviceQueue sweep: BENCH_async_pipeline.json ----------------------------------
  PrintHeader("DeviceQueue sweep: random 4K reads at queue depth 1/8/32");
  const uint32_t kDepths[] = {1, 8, 32};
  std::vector<Row> sweep;
  for (uint32_t depth : kDepths) {
    Row row = RunQueueDepth(depth, kOps, kDataBytes);
    char label[32];
    std::snprintf(label, sizeof(label), "queue-depth-%u", depth);
    Print(label, row);
    sweep.push_back(row);
  }

  PrintHeader("Readahead stream: sequential 4K TouchRead scan of an NVMe mapping");
  const StreamRow stream = RunReadaheadStream(kDataBytes);
  std::printf("%-14s %10.1f kIOPS   device %6.0f cyc/page   p99 %7.2f us\n", "readahead",
              stream.kiops, stream.device_cycles_per_page, stream.p99_us);

  BenchJsonWriter json("async_pipeline", smoke, /*threads=*/1);
  json.AddMeta("workload", "\"random 4K reads, NVMe DeviceQueue\"");
  json.AddMeta("ops", std::to_string(kOps));
  json.BeginSection("sweep");
  for (size_t i = 0; i < sweep.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"queue_depth\": %u, \"kiops\": %.1f, \"avg_us\": %.2f, "
                  "\"p99_us\": %.2f, \"cpu_cycles_per_op\": %.0f}",
                  kDepths[i], sweep[i].kiops, sweep[i].avg_us, sweep[i].p99_us,
                  sweep[i].cpu_cycles_per_op);
    json.AddRow(buf);
  }
  json.BeginSection("readahead_stream");
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"pages\": %" PRIu64 ", \"kiops\": %.1f, \"device_cycles_per_page\": %.0f, "
                  "\"p99_us\": %.2f}",
                  kDataBytes / kPageSize, stream.kiops, stream.device_cycles_per_page,
                  stream.p99_us);
    json.AddRow(buf);
  }
  json.Write();

  // Gate: the stream must ride the channel, not each command's latency.
  const double channel_kiops = GlobalCostModel().cycles_per_us * 1e3 /
                               NvmeController::Options().channel_cycles_per_4k;
  if (stream.kiops < 0.8 * channel_kiops) {
    std::fprintf(stderr, "GATE FAILED: readahead stream %.1f kIOPS below 80%% of %.0f\n",
                 stream.kiops, channel_kiops);
    return 1;
  }
  std::printf("\ngate: readahead stream >= 80%% of the channel-bound %.0f kIOPS -- PASS\n",
              channel_kiops);
  return 0;
}
