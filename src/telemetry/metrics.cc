#include "src/telemetry/metrics.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <new>

#include "src/util/logging.h"

namespace aquila {
namespace telemetry {

Counter::Counter() {
  void* page = mmap(nullptr, sizeof(ShardedCounter), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AQUILA_CHECK(page != MAP_FAILED);
  value_ = new (page) ShardedCounter();
}

Counter::~Counter() {
  value_->~ShardedCounter();
  munmap(value_, sizeof(ShardedCounter));
}

namespace {

// Prometheus metric names use '_' where ours use '.'.
std::string PromName(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

HistogramDigest DigestOf(const Histogram& h) {
  HistogramDigest d;
  d.count = h.Count();
  d.sum = h.Sum();
  d.mean = h.Mean();
  d.min = h.Min();
  d.max = h.Max();
  d.p50 = h.Percentile(0.50);
  d.p90 = h.Percentile(0.90);
  d.p99 = h.Percentile(0.99);
  d.p999 = h.Percentile(0.999);
  return d;
}

}  // namespace

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  out.reserve(samples.size() * 160);
  for (const MetricSample& s : samples) {
    std::string prom = PromName(s.name);
    // Exposition-format comment order: HELP then TYPE then the samples. The
    // help text carries the dotted registry name (the '.' -> '_' mapping is
    // lossy, so this is where a scraper learns the original name to grep
    // for) and what flavor of value the series is.
    switch (s.kind) {
      case MetricKind::kCounter:
        AppendF(&out, "# HELP %s Aquila metric %s (monotonic counter).\n", prom.c_str(),
                s.name.c_str());
        AppendF(&out, "# TYPE %s counter\n%s %llu\n", prom.c_str(), prom.c_str(),
                static_cast<unsigned long long>(s.value));
        break;
      case MetricKind::kGauge:
        AppendF(&out, "# HELP %s Aquila metric %s (point-in-time gauge).\n", prom.c_str(),
                s.name.c_str());
        AppendF(&out, "# TYPE %s gauge\n%s %llu\n", prom.c_str(), prom.c_str(),
                static_cast<unsigned long long>(s.value));
        break;
      case MetricKind::kHistogram:
        AppendF(&out, "# HELP %s Aquila metric %s (latency summary, simulated cycles).\n",
                prom.c_str(), s.name.c_str());
        AppendF(&out, "# TYPE %s summary\n", prom.c_str());
        AppendF(&out, "%s{quantile=\"0.5\"} %llu\n", prom.c_str(),
                static_cast<unsigned long long>(s.digest.p50));
        AppendF(&out, "%s{quantile=\"0.9\"} %llu\n", prom.c_str(),
                static_cast<unsigned long long>(s.digest.p90));
        AppendF(&out, "%s{quantile=\"0.99\"} %llu\n", prom.c_str(),
                static_cast<unsigned long long>(s.digest.p99));
        AppendF(&out, "%s{quantile=\"0.999\"} %llu\n", prom.c_str(),
                static_cast<unsigned long long>(s.digest.p999));
        AppendF(&out, "%s_sum %llu\n%s_count %llu\n", prom.c_str(),
                static_cast<unsigned long long>(s.digest.sum), prom.c_str(),
                static_cast<unsigned long long>(s.digest.count));
        break;
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) {
      out += ",";
    }
    first = false;
    if (s.kind == MetricKind::kHistogram) {
      AppendF(&out,
              "\"%s\":{\"count\":%llu,\"mean\":%.1f,\"min\":%llu,\"max\":%llu,"
              "\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,\"p999\":%llu}",
              s.name.c_str(), static_cast<unsigned long long>(s.digest.count), s.digest.mean,
              static_cast<unsigned long long>(s.digest.min),
              static_cast<unsigned long long>(s.digest.max),
              static_cast<unsigned long long>(s.digest.p50),
              static_cast<unsigned long long>(s.digest.p90),
              static_cast<unsigned long long>(s.digest.p99),
              static_cast<unsigned long long>(s.digest.p999));
    } else {
      AppendF(&out, "\"%s\":%llu", s.name.c_str(), static_cast<unsigned long long>(s.value));
    }
  }
  out += "}";
  return out;
}

bool MetricsRegistry::ValidName(std::string_view name) {
  int segments = 0;
  size_t seg_len = 0;
  for (size_t i = 0; i <= name.size(); i++) {
    if (i == name.size() || name[i] == '.') {
      if (seg_len == 0) {
        return false;
      }
      segments++;
      seg_len = 0;
      continue;
    }
    char c = name[i];
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
    seg_len++;
  }
  return segments >= 3 && name.substr(0, 7) == "aquila.";
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  AQUILA_DCHECK(ValidName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  AQUILA_DCHECK(ValidName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

uint64_t MetricsRegistry::RegisterCallback(std::string_view name, MetricKind kind,
                                           std::function<uint64_t()> reader) {
  AQUILA_DCHECK(ValidName(name));
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  callbacks_.push_back(Callback{id, std::string(name), kind, std::move(reader)});
  return id;
}

void MetricsRegistry::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < callbacks_.size(); i++) {
    if (callbacks_[i].id == id) {
      callbacks_[i] = std::move(callbacks_.back());
      callbacks_.pop_back();
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // name -> (kind, summed value). Owned counters and same-named callbacks
  // (one per subsystem instance) merge into one runtime-wide total.
  std::map<std::string, MetricSample> merged;
  for (const auto& [name, counter] : counters_) {
    MetricSample& s = merged[name];
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.value += counter->Value();
  }
  for (const Callback& cb : callbacks_) {
    MetricSample& s = merged[cb.name];
    s.name = cb.name;
    s.kind = cb.kind;
    s.value += cb.reader();
  }
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(merged.size() + histograms_.size());
  for (auto& [name, sample] : merged) {
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.digest = DigestOf(*hist);
    snapshot.samples.push_back(std::move(s));
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return snapshot;
}

void MetricsRegistry::ResetOwned() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, hist] : histograms_) {
    hist->Reset();
  }
}

MetricsRegistry& Registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace telemetry
}  // namespace aquila
