// Shared scaffolding for the paper-reproduction benchmarks.
//
// Every bench prints the rows of one table/figure from the paper's
// evaluation (see DESIGN.md section 4 and EXPERIMENTS.md). Geometry is
// scaled MB-for-GB relative to the paper's testbed; set AQUILA_BENCH_SCALE
// (e.g. 4) to enlarge datasets/ops proportionally.
#ifndef AQUILA_BENCH_COMMON_H_
#define AQUILA_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/blob/blob_namespace.h"
#include "src/core/aquila.h"
#include "src/linuxsim/linux_mmap.h"
#include "src/storage/fault_device.h"
#include "src/storage/host_device.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "src/util/logging.h"

namespace aquila {
namespace bench {

inline double Scale() {
  const char* s = std::getenv("AQUILA_BENCH_SCALE");
  if (s == nullptr) {
    return 1.0;
  }
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline uint64_t Scaled(uint64_t base) { return static_cast<uint64_t>(base * Scale()); }

// One simulated storage device of either kind, with both the direct-access
// path and the host-kernel-mediated path.
struct TestDevice {
  const char* kind = "";  // "pmem" or "nvme"
  std::unique_ptr<PmemDevice> pmem;
  std::unique_ptr<NvmeController> nvme_ctrl;
  std::unique_ptr<NvmeDevice> nvme;
  std::unique_ptr<FaultInjectingDevice> faults;  // set iff AQUILA_FAULT_SEED
  std::unique_ptr<HostIoDevice> host;  // syscall-mediated access to `direct`
  BlockDevice* direct = nullptr;       // direct (SPDK / DAX) access

  // Devices (and their callback metrics) are torn down before the atexit
  // AQUILA_METRICS dump, so an injection run reports its tally here.
  ~TestDevice() {
    if (faults == nullptr) {
      return;
    }
    const FaultInjectingDevice::FaultStats& fs = faults->fault_stats();
    const DeviceStats& s = faults->stats();
    std::printf(
        "[fault-injection] %s: injected %llu (%llu read / %llu write / %llu "
        "flush), retries %llu, gave up %llu\n",
        kind,
        static_cast<unsigned long long>(fs.total_injected.load()),
        static_cast<unsigned long long>(fs.injected_read_errors.load()),
        static_cast<unsigned long long>(fs.injected_write_errors.load()),
        static_cast<unsigned long long>(fs.injected_flush_errors.load()),
        static_cast<unsigned long long>(s.io_retries.load()),
        static_cast<unsigned long long>(s.io_gave_up.load()));
  }
};

inline double EnvRate(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) {
    return 0.0;
  }
  double v = std::atof(s);
  return v >= 0.0 && v < 1.0 ? v : 0.0;
}

// When AQUILA_FAULT_SEED is set, interposes a FaultInjectingDevice between
// the medium and every consumer so benchmarks run against a flaky device:
//   AQUILA_FAULT_SEED=<n>        arm injection with a reproducible schedule
//   AQUILA_FAULT_READ_ERR=<p>    per-read error probability (default 0)
//   AQUILA_FAULT_WRITE_ERR=<p>   per-write error probability (default 0)
// Retries/give-ups surface in the AQUILA_METRICS=1 dump as
// aquila.storage.io_retries / io_gave_up / injected_faults.
inline void MaybeInjectFaults(TestDevice* dev) {
  const char* seed = std::getenv("AQUILA_FAULT_SEED");
  if (seed == nullptr || *seed == '\0') {
    return;
  }
  FaultInjectingDevice::Options options;
  options.seed = std::strtoull(seed, nullptr, 10);
  options.read_error_rate = EnvRate("AQUILA_FAULT_READ_ERR");
  options.write_error_rate = EnvRate("AQUILA_FAULT_WRITE_ERR");
  dev->faults = std::make_unique<FaultInjectingDevice>(dev->direct, options);
  dev->direct = dev->faults.get();
}

inline std::unique_ptr<TestDevice> MakePmem(uint64_t capacity,
                                            CopyFlavor flavor = CopyFlavor::kStreaming) {
  auto dev = std::make_unique<TestDevice>();
  dev->kind = "pmem";
  PmemDevice::Options options;
  options.capacity_bytes = capacity;
  options.copy_flavor = flavor;
  dev->pmem = std::make_unique<PmemDevice>(options);
  dev->direct = dev->pmem.get();
  MaybeInjectFaults(dev.get());
  dev->host = std::make_unique<HostIoDevice>(dev->direct, HostIoDevice::EntryPath::kSyscall);
  return dev;
}

inline std::unique_ptr<TestDevice> MakeNvme(uint64_t capacity) {
  auto dev = std::make_unique<TestDevice>();
  dev->kind = "nvme";
  NvmeController::Options options;
  options.capacity_bytes = capacity;
  dev->nvme_ctrl = std::make_unique<NvmeController>(options);
  dev->nvme = std::make_unique<NvmeDevice>(dev->nvme_ctrl.get());
  dev->direct = dev->nvme.get();
  MaybeInjectFaults(dev.get());
  dev->host = std::make_unique<HostIoDevice>(dev->direct, HostIoDevice::EntryPath::kSyscall);
  return dev;
}

// Parses a shootdown-mode name; falls back to `fallback` on anything else.
inline ShootdownMaskMode ParseShootdownMode(const char* s, ShootdownMaskMode fallback) {
  if (s == nullptr) {
    return fallback;
  }
  std::string mode(s);
  if (mode == "broadcast") {
    return ShootdownMaskMode::kBroadcast;
  }
  if (mode == "mask+gen" || mode == "maskgen" || mode == "mask_gen") {
    return ShootdownMaskMode::kMaskGen;
  }
  if (mode == "reuse" || mode == "reuse_elide") {
    return ShootdownMaskMode::kReuseElide;
  }
  return fallback;
}

// Standard Aquila runtime for a given cache size. Asynchronous reclaim
// writeback (Options::async_writeback) is off by default, matching the
// library default; set AQUILA_ASYNC_WRITEBACK=1 to turn it on for any
// benchmark. Readahead runs on the per-mapping device queue either way;
// AQUILA_ASYNC_QUEUE_DEPTH=<n> sizes that queue (default 32). AQUILA_SHOOTDOWN_MODE
// (broadcast|mask+gen|reuse) overrides the shootdown IPI targeting
// policy (default mask+gen, the library default; reuse adds the deferred
// same-owner elision of DESIGN.md §10). Observability knobs:
// AQUILA_SPAN_SAMPLE=<n> samples 1-in-n requests into the span collector,
// AQUILA_SLOW_TRACE_US=<us> keeps whole trees for sampled requests slower
// than that, and AQUILA_STATS_PORT=<p> serves /metrics, /metrics.json,
// /traces and /slow on 127.0.0.1:<p> (0 picks an ephemeral port).
inline Aquila::Options AquilaOptions(uint64_t cache_bytes, int active_cores = 0) {
  Aquila::Options options;
  if (const char* async = std::getenv("AQUILA_ASYNC_WRITEBACK");
      async != nullptr && *async != '\0' && *async != '0') {
    options.async_writeback = true;
  }
  options.shootdown_mask_mode = ParseShootdownMode(std::getenv("AQUILA_SHOOTDOWN_MODE"),
                                                   options.shootdown_mask_mode);
  if (const char* depth = std::getenv("AQUILA_ASYNC_QUEUE_DEPTH"); depth != nullptr) {
    int n = std::atoi(depth);
    if (n >= 1) {
      options.async_queue_depth = static_cast<uint32_t>(n);
    }
  }
  // Hang robustness: AQUILA_DEVICE_TIMEOUT_US=<us> arms the watchdog queue
  // and the device health breaker (0/unset keeps the raw queue — no
  // watchdog state, bit-identical sim metrics); AQUILA_HEDGE_READS=1 adds
  // hedged reads on top.
  if (const char* timeout = std::getenv("AQUILA_DEVICE_TIMEOUT_US"); timeout != nullptr) {
    int n = std::atoi(timeout);
    if (n >= 0) {
      options.device_op_timeout_us = static_cast<uint32_t>(n);
    }
  }
  if (const char* hedge = std::getenv("AQUILA_HEDGE_READS");
      hedge != nullptr && *hedge != '\0' && *hedge != '0') {
    options.hedge_reads = true;
  }
  // Cooperative fault scheduling: AQUILA_COOP_SCHED=1 parks batch requests
  // at fault-path wait points and overlaps their fills (requires the async
  // pipeline, which it turns on); unset keeps the blocking path bit-identical.
  // AQUILA_SCHED_MAX_PARKED=<n> caps each core's parked table (default 64).
  if (const char* coop = std::getenv("AQUILA_COOP_SCHED");
      coop != nullptr && *coop != '\0' && *coop != '0') {
    options.coop_sched = true;
    options.async_writeback = true;
  }
  if (const char* parked = std::getenv("AQUILA_SCHED_MAX_PARKED"); parked != nullptr) {
    int n = std::atoi(parked);
    if (n >= 1) {
      options.sched_max_parked = static_cast<uint32_t>(n);
    }
  }
  // Transparent 2 MB huge pages: AQUILA_HUGE_PAGES=1 turns on run carving,
  // fault-around, and density-triggered promotion (unset keeps the 4K path
  // bit-identical). AQUILA_HUGE_PROMOTE_THRESHOLD=<n> sets the resident-PTE
  // density that triggers promotion (0 = fault-around only);
  // AQUILA_FAULT_AROUND=<n> sets the per-fault neighbor-mapping budget.
  if (const char* huge = std::getenv("AQUILA_HUGE_PAGES");
      huge != nullptr && *huge != '\0' && *huge != '0') {
    options.huge_pages = true;
  }
  if (const char* thr = std::getenv("AQUILA_HUGE_PROMOTE_THRESHOLD"); thr != nullptr) {
    int n = std::atoi(thr);
    if (n >= 0) {
      options.huge_promote_threshold = static_cast<uint32_t>(n);
    }
  }
  if (const char* fa = std::getenv("AQUILA_FAULT_AROUND"); fa != nullptr) {
    int n = std::atoi(fa);
    if (n >= 0) {
      options.fault_around_pages = static_cast<uint32_t>(n);
    }
  }
  if (const char* sample = std::getenv("AQUILA_SPAN_SAMPLE"); sample != nullptr) {
    int n = std::atoi(sample);
    if (n >= 1) {
      options.span_sample_every = static_cast<uint32_t>(n);
    }
  }
  if (const char* slow = std::getenv("AQUILA_SLOW_TRACE_US"); slow != nullptr) {
    int n = std::atoi(slow);
    if (n >= 0) {
      options.slow_trace_us = static_cast<uint32_t>(n);
    }
  }
  if (const char* port = std::getenv("AQUILA_STATS_PORT"); port != nullptr && *port != '\0') {
    options.stats_server_port = std::atoi(port);
  }
  options.hypervisor.host_memory_bytes = 4ull << 30;
  options.hypervisor.chunk_size = 4ull << 20;
  options.cache.capacity_pages = cache_bytes / kPageSize;
  options.cache.max_pages = options.cache.capacity_pages * 2;
  // Scale the paper's 512-page eviction batch with the (scaled-down) cache.
  options.cache.eviction_batch =
      static_cast<uint32_t>(std::min<uint64_t>(512, options.cache.capacity_pages / 16 + 1));
  options.cache.freelist.core_queue_threshold =
      static_cast<uint32_t>(options.cache.capacity_pages / 64 + 16);
  options.cache.freelist.move_batch = options.cache.freelist.core_queue_threshold / 2 + 1;
  options.active_cores = active_cores;
  return options;
}

inline std::unique_ptr<Aquila> MakeAquila(uint64_t cache_bytes, int active_cores = 0) {
  return std::make_unique<Aquila>(AquilaOptions(cache_bytes, active_cores));
}

inline std::unique_ptr<LinuxMmapEngine> MakeLinuxMmap(uint64_t cache_bytes) {
  LinuxMmapEngine::Options options;
  options.cache_pages = cache_bytes / kPageSize;
  return std::make_unique<LinuxMmapEngine>(options);
}

inline std::unique_ptr<LinuxMmapEngine> MakeKmmap(uint64_t cache_bytes) {
  return std::make_unique<LinuxMmapEngine>(
      LinuxMmapEngine::KmmapOptions(cache_bytes / kPageSize));
}

// A blobstore + namespace over a device (the KV-store substrate).
struct BlobEnv {
  std::unique_ptr<Blobstore> store;
  std::unique_ptr<BlobNamespace> ns;
};

inline BlobEnv MakeBlobEnv(BlockDevice* device) {
  BlobEnv env;
  Blobstore::Options options;
  options.cluster_size = 256 * 1024;
  options.metadata_bytes = 8ull << 20;
  auto store = Blobstore::Format(ThisVcpu(), device, options);
  AQUILA_CHECK(store.ok());
  env.store = std::move(*store);
  env.ns = std::make_unique<BlobNamespace>(env.store.get());
  return env;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline double CyclesToUs(uint64_t cycles) {
  return static_cast<double>(cycles) / static_cast<double>(GlobalCostModel().cycles_per_us);
}

#ifndef AQUILA_GIT_REV
#define AQUILA_GIT_REV "unknown"
#endif

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Unified envelope for every BENCH_*.json artifact (schema aquila-bench-v1).
// Each benchmark wraps its row arrays in the same metadata header — bench
// name, git revision, UTC timestamp, thread count, smoke flag, and the
// AQUILA_* environment knobs that shaped the run — so tools/bench_compare.py
// can diff any two artifacts without bench-specific parsing.
//
// Usage:
//   BenchJsonWriter json("tlb_shootdown", smoke, /*threads=*/8);
//   json.AddMeta("ops_per_thread", std::to_string(ops));
//   json.BeginSection("sweep");
//   json.AddRow("{\"cores\": 4, ...}");   // pre-formatted JSON object
//   json.Write();                         // -> BENCH_tlb_shootdown.json
class BenchJsonWriter {
 public:
  BenchJsonWriter(const char* bench, bool smoke, int threads)
      : bench_(bench), smoke_(smoke), threads_(threads) {}

  // Extra bench-specific metadata; `json_value` is a raw JSON value
  // (already quoted if a string).
  void AddMeta(const char* key, const std::string& json_value) {
    meta_.emplace_back(key, json_value);
  }

  // Subsequent AddRow calls append to this named array under "rows".
  void BeginSection(const char* name) { sections_.push_back({name, {}}); }

  // `json_object` is one pre-formatted JSON object (no trailing comma).
  void AddRow(const std::string& json_object) {
    AQUILA_CHECK(!sections_.empty());
    sections_.back().second.push_back(json_object);
  }

  // Writes BENCH_<bench>.json in the working directory.
  void Write() const {
    std::string path = std::string("BENCH_") + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    AQUILA_CHECK(f != nullptr);
    char timestamp[32] = "unknown";
    std::time_t now = std::time(nullptr);
    struct tm utc;
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"aquila-bench-v1\",\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"git_rev\": \"%s\",\n"
                 "  \"timestamp_utc\": \"%s\",\n"
                 "  \"threads\": %d,\n"
                 "  \"smoke\": %s,\n",
                 JsonEscape(bench_).c_str(), JsonEscape(AQUILA_GIT_REV).c_str(), timestamp,
                 threads_, smoke_ ? "true" : "false");
    // The knobs that change what a benchmark measures; unset ones are
    // omitted so a diff flags configuration drift between two runs.
    static const char* const kKnobs[] = {
        "AQUILA_BENCH_SCALE",       "AQUILA_ASYNC_WRITEBACK", "AQUILA_ASYNC_QUEUE_DEPTH",
        "AQUILA_SHOOTDOWN_MODE",    "AQUILA_SPAN_SAMPLE",     "AQUILA_SLOW_TRACE_US",
        "AQUILA_STATS_PORT",        "AQUILA_FAULT_SEED",      "AQUILA_FAULT_READ_ERR",
        "AQUILA_FAULT_WRITE_ERR",   "AQUILA_DEVICE_TIMEOUT_US", "AQUILA_HEDGE_READS",
        "AQUILA_COOP_SCHED",        "AQUILA_SCHED_MAX_PARKED",
        "AQUILA_HUGE_PAGES",        "AQUILA_HUGE_PROMOTE_THRESHOLD",
        "AQUILA_FAULT_AROUND",
    };
    std::fprintf(f, "  \"options\": {");
    bool first = true;
    for (const char* knob : kKnobs) {
      const char* v = std::getenv(knob);
      if (v == nullptr || *v == '\0') {
        continue;
      }
      std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", knob, JsonEscape(v).c_str());
      first = false;
    }
    std::fprintf(f, "},\n");
    for (const auto& [key, value] : meta_) {
      std::fprintf(f, "  \"%s\": %s,\n", JsonEscape(key).c_str(), value.c_str());
    }
    std::fprintf(f, "  \"rows\": {\n");
    for (size_t s = 0; s < sections_.size(); s++) {
      const auto& [name, rows] = sections_[s];
      std::fprintf(f, "    \"%s\": [\n", JsonEscape(name).c_str());
      for (size_t i = 0; i < rows.size(); i++) {
        std::fprintf(f, "      %s%s\n", rows[i].c_str(), i + 1 == rows.size() ? "" : ",");
      }
      std::fprintf(f, "    ]%s\n", s + 1 == sections_.size() ? "" : ",");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  bool smoke_;
  int threads_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::vector<std::string>>> sections_;
};

// End-of-run telemetry exposition, controlled by environment variables:
//   AQUILA_METRICS=1       print the registry's Prometheus-style text dump
//   AQUILA_TRACE=<path>    write the span collector's retained request trees
//                          as a Chrome trace (open in ui.perfetto.dev) at
//                          exit; sampling defaults to every request unless
//                          AQUILA_SPAN_SAMPLE says otherwise
inline void ReportTelemetry() {
  if (const char* metrics = std::getenv("AQUILA_METRICS");
      metrics != nullptr && *metrics != '\0' && *metrics != '0') {
    std::fputs(telemetry::Registry().ToText().c_str(), stdout);
  }
  // Per-request attribution whenever span sampling recorded anything
  // (AQUILA_SPAN_SAMPLE or AQUILA_TRACE armed it and requests finalized).
  if (telemetry::SpanCollector::Global().finalized() > 0) {
    std::fputs(telemetry::SpanCollector::Global().AttributionText().c_str(), stdout);
  }
  const char* trace_path = std::getenv("AQUILA_TRACE");
  if (trace_path == nullptr || *trace_path == '\0') {
    return;
  }
  std::string json =
      telemetry::SpanCollector::Global().ChromeTraceJson(GlobalCostModel().cycles_per_us);
  std::FILE* f = std::fopen(trace_path, "w");
  if (f == nullptr) {
    AQUILA_LOG(ERROR, "cannot write trace file %s", trace_path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  AQUILA_LOG(INFO, "wrote %zu-byte Chrome trace to %s (open in ui.perfetto.dev)",
             json.size(), trace_path);
}

// Arms 1-in-1 span sampling when AQUILA_TRACE is set without
// AQUILA_SPAN_SAMPLE, and reports telemetry at exit. Instantiated once per
// benchmark binary via the inline variable below.
struct TelemetryBenchInit {
  TelemetryBenchInit() {
    const char* trace_path = std::getenv("AQUILA_TRACE");
    if (trace_path != nullptr && *trace_path != '\0' &&
        std::getenv("AQUILA_SPAN_SAMPLE") == nullptr) {
      telemetry::SpanCollector::Options options = telemetry::SpanCollector::Global().options();
      options.sample_every = 1;
      telemetry::SpanCollector::Global().Configure(options);
    }
    std::atexit(+[] { ReportTelemetry(); });
  }
};

inline TelemetryBenchInit g_telemetry_bench_init;

}  // namespace bench
}  // namespace aquila

#endif  // AQUILA_BENCH_COMMON_H_
