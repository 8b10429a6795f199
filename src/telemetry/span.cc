#include "src/telemetry/span.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/util/cpu.h"

namespace aquila {
namespace telemetry {

const char* SpanPhaseName(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kFault: return "fault";
    case SpanPhase::kMsync: return "msync";
    case SpanPhase::kCacheLookup: return "cache_lookup";
    case SpanPhase::kLockWait: return "lock_wait";
    case SpanPhase::kQueueWait: return "queue_wait";
    case SpanPhase::kDevice: return "device";
    case SpanPhase::kFillCopy: return "fill_copy";
    case SpanPhase::kEvict: return "evict";
    case SpanPhase::kWriteback: return "writeback";
    case SpanPhase::kShootdown: return "shootdown";
    case SpanPhase::kDirtyTrack: return "dirty_track";
    case SpanPhase::kReadahead: return "readahead";
    case SpanPhase::kWatchdog: return "watchdog";
    case SpanPhase::kPark: return "park";
    case SpanPhase::kResume: return "resume";
    case SpanPhase::kPhaseCount: break;
  }
  return "unknown";
}

const char* SpanOpName(SpanOp op) {
  switch (op) {
    case SpanOp::kFaultMajor: return "fault_major";
    case SpanOp::kFaultMinor: return "fault_minor";
    case SpanOp::kFaultUpgrade: return "fault_upgrade";
    case SpanOp::kMsync: return "msync";
    case SpanOp::kOpCount: break;
  }
  return "unknown";
}

SpanCollector& SpanCollector::Global() {
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

SpanCollector::SpanCollector()
    : started_(Registry().GetCounter("aquila.span.started")),
      finalized_(Registry().GetCounter("aquila.span.finalized")),
      dropped_(Registry().GetCounter("aquila.span.dropped")),
      retained_(Registry().GetCounter("aquila.span.retained")) {}

void SpanCollector::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  sample_every_.store(options.sample_every, std::memory_order_relaxed);
}

SpanCollector::Options SpanCollector::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

bool SpanCollector::ShouldSample() {
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) {
    return false;
  }
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

bool SpanCollector::BeginTrace(uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_.size() >= options_.max_active) {
    dropped_->Add();
    return false;
  }
  ActiveTrace& trace = active_[trace_id];
  trace.spans.reserve(16);
  started_->Add();
  return true;
}

void SpanCollector::Record(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(record.trace_id);
  if (it == active_.end()) {
    return;  // trace was dropped at admission; nothing to attach to
  }
  ActiveTrace& trace = it->second;
  if (trace.spans.size() >= options_.max_spans_per_trace) {
    trace.overflowed = true;
    dropped_->Add();
    return;
  }
  trace.spans.push_back(record);
}

void SpanCollector::CloseRoot(const SpanRecord& root) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(root.trace_id);
  if (it == active_.end()) {
    return;
  }
  ActiveTrace& trace = it->second;
  trace.spans.push_back(root);  // the root always fits, even past the cap
  trace.root_closed = true;
  if (trace.pending_async == 0) {
    ActiveTrace done = std::move(trace);
    active_.erase(it);
    FinalizeLocked(root.trace_id, std::move(done));
  }
}

void SpanCollector::NoteAsyncSubmitted(uint64_t trace_id) {
  if (trace_id == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(trace_id);
  if (it != active_.end()) {
    it->second.pending_async++;
  }
}

void SpanCollector::CompleteAsync(const SpanContext& parent, SpanPhase phase,
                                  uint64_t start_cycles, uint64_t end_cycles, uint64_t arg) {
  if (parent.trace_id == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(parent.trace_id);
  if (it == active_.end()) {
    return;  // submit raced trace teardown (Reset); drop silently
  }
  ActiveTrace& trace = it->second;
  if (trace.spans.size() < options_.max_spans_per_trace) {
    SpanRecord record;
    record.trace_id = parent.trace_id;
    record.span_id = next_id_.fetch_add(1, std::memory_order_relaxed);
    record.parent_id = parent.span_id;
    record.start_cycles = start_cycles;
    record.end_cycles = end_cycles;
    record.arg = arg;
    record.phase = phase;
    record.core = static_cast<uint16_t>(CoreRegistry::CurrentCore());
    trace.spans.push_back(record);
  } else {
    trace.overflowed = true;
    dropped_->Add();
  }
  if (trace.pending_async > 0) {
    trace.pending_async--;
  }
  if (trace.root_closed && trace.pending_async == 0) {
    ActiveTrace done = std::move(trace);
    active_.erase(it);
    FinalizeLocked(parent.trace_id, std::move(done));
  }
}

SpanCollector::AttributionSample SpanCollector::Summarize(const SpanTree& tree) {
  AttributionSample sample;
  sample.wall = tree.wall_cycles;
  uint64_t root_id = 0;
  for (const SpanRecord& record : tree.spans) {
    if (record.parent_id == 0) {
      root_id = record.span_id;
      break;
    }
  }
  for (const SpanRecord& record : tree.spans) {
    if (record.parent_id != root_id || record.span_id == root_id) {
      continue;  // attribution decomposes the root into its DIRECT children
    }
    const uint64_t duration = record.end_cycles - record.start_cycles;
    sample.child_total += duration;
    sample.phase_cycles[static_cast<size_t>(record.phase)] += duration;
  }
  return sample;
}

void SpanCollector::FinalizeLocked(uint64_t trace_id, ActiveTrace&& trace) {
  const SpanRecord* root = nullptr;
  for (const SpanRecord& record : trace.spans) {
    if (record.parent_id == 0) {
      root = &record;
      break;
    }
  }
  if (root == nullptr) {
    dropped_->Add();
    return;
  }

  SpanTree tree;
  tree.trace_id = trace_id;
  tree.op = root->op;
  tree.wall_cycles = root->end_cycles - root->start_cycles;
  tree.spans = std::move(trace.spans);

  AttributionSample sample = Summarize(tree);
  tree.child_cycles = sample.child_total;

  finalized_->Add();
  finalized_count_.fetch_add(1, std::memory_order_relaxed);

  OpState& op_state = ops_[static_cast<size_t>(tree.op)];

  // Attribution reservoir: uniform over all finalized traces of this op.
  op_state.sample_seen++;
  if (op_state.samples.size() < options_.max_attribution_samples) {
    op_state.samples.push_back(sample);
  } else {
    reservoir_rng_ = reservoir_rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t slot = (reservoir_rng_ >> 16) % op_state.sample_seen;
    if (slot < op_state.samples.size()) {
      op_state.samples[slot] = sample;
    }
  }

  // Whole-tree retention, in priority order: top-K slowest per op, then the
  // slow-threshold ring, then the 1-in-N baseline.
  if (options_.top_k > 0) {
    if (op_state.top.size() < options_.top_k) {
      op_state.top.push_back(tree);
      retained_->Add();
      return;
    }
    auto slowest_min = std::min_element(
        op_state.top.begin(), op_state.top.end(),
        [](const SpanTree& a, const SpanTree& b) { return a.wall_cycles < b.wall_cycles; });
    if (tree.wall_cycles > slowest_min->wall_cycles) {
      *slowest_min = std::move(tree);
      retained_->Add();
      return;
    }
  }
  if (options_.slow_threshold_cycles > 0 && tree.wall_cycles >= options_.slow_threshold_cycles) {
    slow_.push_back(std::move(tree));
    while (slow_.size() > options_.max_slow) {
      slow_.pop_front();
    }
    retained_->Add();
    return;
  }
  if (options_.baseline_every > 0 && baseline_counter_++ % options_.baseline_every == 0) {
    baseline_.push_back(std::move(tree));
    while (baseline_.size() > options_.max_slow) {
      baseline_.pop_front();
    }
    retained_->Add();
  }
}

std::vector<SpanTree> SpanCollector::RetainedTrees() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanTree> trees;
  for (const OpState& op_state : ops_) {
    trees.insert(trees.end(), op_state.top.begin(), op_state.top.end());
  }
  trees.insert(trees.end(), slow_.begin(), slow_.end());
  trees.insert(trees.end(), baseline_.begin(), baseline_.end());
  std::sort(trees.begin(), trees.end(), [](const SpanTree& a, const SpanTree& b) {
    return a.wall_cycles > b.wall_cycles;
  });
  return trees;
}

bool SpanCollector::Attribution(SpanOp op, double quantile, PhaseAttribution* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const OpState& op_state = ops_[static_cast<size_t>(op)];
  if (op_state.samples.empty()) {
    return false;
  }
  std::vector<AttributionSample> sorted = op_state.samples;
  std::sort(sorted.begin(), sorted.end(),
            [](const AttributionSample& a, const AttributionSample& b) { return a.wall < b.wall; });
  const size_t n = sorted.size();
  const size_t center = static_cast<size_t>(quantile * static_cast<double>(n - 1) + 0.5);
  // Cohort attribution: average over a small window of neighbors around the
  // percentile so one outlier request doesn't define "what p99 faults do".
  const size_t radius = std::max<size_t>(1, n / 40) - 1;
  const size_t lo = center > radius ? center - radius : 0;
  const size_t hi = std::min(n - 1, center + radius);
  uint64_t wall_sum = 0;
  uint64_t child_sum = 0;
  uint64_t phase_sum[static_cast<size_t>(SpanPhase::kPhaseCount)] = {};
  for (size_t i = lo; i <= hi; ++i) {
    wall_sum += sorted[i].wall;
    child_sum += sorted[i].child_total;
    for (size_t p = 0; p < static_cast<size_t>(SpanPhase::kPhaseCount); ++p) {
      phase_sum[p] += sorted[i].phase_cycles[p];
    }
  }
  *out = PhaseAttribution{};
  out->wall_cycles = sorted[std::min(center, n - 1)].wall;
  if (wall_sum == 0) {
    return true;
  }
  out->coverage = static_cast<double>(child_sum) / static_cast<double>(wall_sum);
  for (size_t p = 0; p < static_cast<size_t>(SpanPhase::kPhaseCount); ++p) {
    out->fraction[p] = static_cast<double>(phase_sum[p]) / static_cast<double>(wall_sum);
  }
  return true;
}

namespace {

void AppendSpanJson(std::ostringstream& out, const SpanRecord& span) {
  out << "{\"span_id\":" << span.span_id << ",\"parent_id\":" << span.parent_id
      << ",\"phase\":\"" << SpanPhaseName(span.phase) << "\",\"start_cycles\":" << span.start_cycles
      << ",\"duration_cycles\":" << (span.end_cycles - span.start_cycles)
      << ",\"arg\":" << span.arg << ",\"core\":" << span.core << "}";
}

void AppendTreeJson(std::ostringstream& out, const SpanTree& tree) {
  out << "{\"trace_id\":" << tree.trace_id << ",\"op\":\"" << SpanOpName(tree.op)
      << "\",\"wall_cycles\":" << tree.wall_cycles << ",\"child_cycles\":" << tree.child_cycles
      << ",\"spans\":[";
  for (size_t i = 0; i < tree.spans.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    AppendSpanJson(out, tree.spans[i]);
  }
  out << "]}";
}

// Simulated cycles -> whole nanoseconds, truncated: truncation is monotone,
// so a child interval nested in its parent stays nested after conversion.
uint64_t CyclesToNs(uint64_t cycles, uint64_t cycles_per_us) {
  return cycles / cycles_per_us * 1000 + cycles % cycles_per_us * 1000 / cycles_per_us;
}

// Nanoseconds as the Chrome format's microseconds, three decimals.
void AppendMicros(std::ostringstream& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

std::string SpanCollector::SlowTracesJson() const {
  static const double kQuantiles[] = {0.5, 0.99, 0.999};
  static const char* kQuantileNames[] = {"p50", "p99", "p999"};
  std::ostringstream out;
  out << "{\"attribution\":{";
  bool first_op = true;
  for (size_t op = 0; op < static_cast<size_t>(SpanOp::kOpCount); ++op) {
    PhaseAttribution probe;
    if (!Attribution(static_cast<SpanOp>(op), 0.5, &probe)) {
      continue;
    }
    if (!first_op) {
      out << ",";
    }
    first_op = false;
    out << "\"" << SpanOpName(static_cast<SpanOp>(op)) << "\":{";
    for (size_t q = 0; q < 3; ++q) {
      PhaseAttribution attribution;
      Attribution(static_cast<SpanOp>(op), kQuantiles[q], &attribution);
      if (q > 0) {
        out << ",";
      }
      out << "\"" << kQuantileNames[q] << "\":{\"wall_cycles\":" << attribution.wall_cycles
          << ",\"coverage\":" << attribution.coverage;
      for (size_t p = 0; p < static_cast<size_t>(SpanPhase::kPhaseCount); ++p) {
        if (attribution.fraction[p] > 0) {
          out << ",\"" << SpanPhaseName(static_cast<SpanPhase>(p))
              << "\":" << attribution.fraction[p];
        }
      }
      out << "}";
    }
    out << "}";
  }
  out << "},\"slow\":[";
  const std::vector<SpanTree> trees = RetainedTrees();
  for (size_t i = 0; i < trees.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    AppendTreeJson(out, trees[i]);
  }
  out << "]}";
  return out.str();
}

std::string SpanCollector::AttributionText() const {
  static const double kQuantiles[] = {0.5, 0.99, 0.999};
  static const char* kQuantileNames[] = {"p50", "p99", "p99.9"};
  std::ostringstream out;
  for (size_t op = 0; op < static_cast<size_t>(SpanOp::kOpCount); ++op) {
    for (size_t q = 0; q < 3; ++q) {
      PhaseAttribution attribution;
      if (!Attribution(static_cast<SpanOp>(op), kQuantiles[q], &attribution)) {
        continue;
      }
      char line[256];
      std::snprintf(line, sizeof(line), "%-13s %-6s wall=%10llu cyc  coverage=%5.1f%%  ",
                    SpanOpName(static_cast<SpanOp>(op)), kQuantileNames[q],
                    static_cast<unsigned long long>(attribution.wall_cycles),
                    attribution.coverage * 100.0);
      out << line;
      bool first = true;
      for (size_t p = 0; p < static_cast<size_t>(SpanPhase::kPhaseCount); ++p) {
        if (attribution.fraction[p] < 0.005) {
          continue;
        }
        char part[64];
        std::snprintf(part, sizeof(part), "%s%s=%.0f%%", first ? "" : " ",
                      SpanPhaseName(static_cast<SpanPhase>(p)), attribution.fraction[p] * 100.0);
        out << part;
        first = false;
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string SpanCollector::ChromeTraceJson(uint64_t cycles_per_us) const {
  cycles_per_us = std::max<uint64_t>(cycles_per_us, 1);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const char* separator = "";
  for (const SpanTree& tree : RetainedTrees()) {
    for (const SpanRecord& span : tree.spans) {
      const uint64_t start_ns = CyclesToNs(span.start_cycles, cycles_per_us);
      const uint64_t end_ns = CyclesToNs(span.end_cycles, cycles_per_us);
      out << separator << "{\"name\":\"" << SpanPhaseName(span.phase) << "\",\"cat\":\""
          << SpanOpName(tree.op) << "\",\"ph\":\"X\",\"ts\":";
      AppendMicros(out, start_ns);
      out << ",\"dur\":";
      AppendMicros(out, end_ns - start_ns);
      out << ",\"pid\":1,\"tid\":" << span.trace_id << ",\"args\":";
      AppendSpanJson(out, span);
      out << "}";
      separator = ",";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void SpanCollector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.clear();
  for (OpState& op_state : ops_) {
    op_state = OpState{};
  }
  slow_.clear();
  baseline_.clear();
  baseline_counter_ = 0;
  finalized_count_.store(0, std::memory_order_relaxed);
  sample_counter_.store(0, std::memory_order_relaxed);
}

#if AQUILA_TELEMETRY_ENABLED

namespace {
thread_local SpanContext tl_span_context;
}  // namespace

const SpanContext& CurrentSpanContext() { return tl_span_context; }

RequestSpan::RequestSpan(const SimClock& clock, SpanOp op, uint64_t arg)
    : clock_(&clock), arg_(arg), op_(op) {
  SpanCollector& collector = SpanCollector::Global();
  if (!collector.enabled()) {
    return;
  }
  if (tl_span_context.trace_id != 0) {
    // Already inside a sampled request (msync issued from a fault handler,
    // nested fault): record as a child of the enclosing span instead of
    // opening a second trace.
    nested_ = true;
    ctx_.trace_id = tl_span_context.trace_id;
    ctx_.span_id = collector.NextId();
  } else {
    if (!collector.ShouldSample()) {
      return;
    }
    const uint64_t trace_id = collector.NextId();
    if (!collector.BeginTrace(trace_id)) {
      return;
    }
    ctx_.trace_id = trace_id;
    ctx_.span_id = trace_id;  // the root span reuses the trace id
  }
  saved_ = tl_span_context;
  tl_span_context = ctx_;
  start_ = clock.Now();
  active_ = true;
}

RequestSpan::~RequestSpan() {
  if (!active_) {
    return;
  }
  tl_span_context = saved_;
  SpanRecord record;
  record.trace_id = ctx_.trace_id;
  record.span_id = ctx_.span_id;
  record.parent_id = nested_ ? saved_.span_id : 0;
  record.start_cycles = start_;
  record.end_cycles = clock_->Now();
  record.arg = arg_;
  record.phase = op_ == SpanOp::kMsync ? SpanPhase::kMsync : SpanPhase::kFault;
  record.op = op_;
  record.core = static_cast<uint16_t>(CoreRegistry::CurrentCore());
  SpanCollector& collector = SpanCollector::Global();
  if (nested_) {
    collector.Record(record);
  } else {
    collector.CloseRoot(record);
  }
}

ChildSpan::ChildSpan(const SimClock& clock, SpanPhase phase, uint64_t arg)
    : clock_(&clock), arg_(arg), phase_(phase) {
  if (tl_span_context.trace_id == 0) {
    return;  // not inside a sampled request: stay a two-load no-op
  }
  ctx_.trace_id = tl_span_context.trace_id;
  ctx_.span_id = SpanCollector::Global().NextId();
  saved_ = tl_span_context;
  tl_span_context = ctx_;
  start_ = clock.Now();
  active_ = true;
}

ChildSpan::~ChildSpan() {
  if (!active_) {
    return;
  }
  tl_span_context = saved_;
  SpanRecord record;
  record.trace_id = ctx_.trace_id;
  record.span_id = ctx_.span_id;
  record.parent_id = saved_.span_id;
  record.start_cycles = start_;
  record.end_cycles = clock_->Now();
  record.arg = arg_;
  record.phase = phase_;
  record.core = static_cast<uint16_t>(CoreRegistry::CurrentCore());
  SpanCollector::Global().Record(record);
}

#endif  // AQUILA_TELEMETRY_ENABLED

}  // namespace telemetry
}  // namespace aquila
