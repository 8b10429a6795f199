#include "src/util/histogram.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>

#include "src/util/cpu.h"
#include "src/util/logging.h"

namespace aquila {

Histogram::Histogram() {
  void* pages = mmap(nullptr, sizeof(Shard) * kShards, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AQUILA_CHECK(pages != MAP_FAILED);
  shards_ = static_cast<Shard*>(pages);
}

Histogram::~Histogram() { munmap(shards_, sizeof(Shard) * kShards); }

// Values < 16 are exact buckets 0..15; above that, each power-of-two octave
// splits into 8 linear sub-buckets (<= ~6% relative error).
int Histogram::BucketFor(uint64_t value) {
  if (value < 16) {
    return static_cast<int>(value);
  }
  int exponent = 63 - std::countl_zero(value);  // >= 4
  int sub = static_cast<int>(value >> (exponent - 3)) & 7;
  int bucket = 16 + (exponent - 4) * 8 + sub;
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

uint64_t Histogram::BucketMidpoint(int bucket) {
  if (bucket < 16) {
    return static_cast<uint64_t>(bucket);
  }
  int exponent = 4 + (bucket - 16) / 8;
  int sub = (bucket - 16) % 8;
  uint64_t base = (1ull << exponent) + (static_cast<uint64_t>(sub) << (exponent - 3));
  uint64_t width = 1ull << (exponent - 3);
  return base + width / 2;
}

namespace {

using Word = std::atomic_ref<uint64_t>;

// Raises `word` to at least `value`.
void FetchMax(uint64_t& word, uint64_t value) {
  Word ref(word);
  uint64_t prev = ref.load(std::memory_order_relaxed);
  while (value > prev && !ref.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

uint64_t Load(const uint64_t& word) {
  return Word(const_cast<uint64_t&>(word)).load(std::memory_order_relaxed);
}

}  // namespace

Histogram::Shard& Histogram::Local() {
  return shards_[CoreRegistry::PeekCurrentCore() & (kShards - 1)];
}

void Histogram::Record(uint64_t value) {
  Shard& shard = Local();
  Word(shard.buckets[BucketFor(value)]).fetch_add(1, std::memory_order_relaxed);
  Word(shard.count).fetch_add(1, std::memory_order_relaxed);
  Word(shard.sum).fetch_add(value, std::memory_order_relaxed);
  FetchMax(shard.min_inverted, ~value);
  FetchMax(shard.max, value);
}

void Histogram::SumBuckets(std::array<uint64_t, kBuckets>& out) const {
  out.fill(0);
  for (int s = 0; s < kShards; s++) {
    if (Load(shards_[s].count) == 0) {
      continue;  // never recorded into: skip its buckets (and its page)
    }
    for (int i = 0; i < kBuckets; i++) {
      out[i] += Load(shards_[s].buckets[i]);
    }
  }
}

void Histogram::Merge(const Histogram& other) {
  std::array<uint64_t, kBuckets> buckets;
  other.SumBuckets(buckets);
  Shard& shard = Local();
  for (int i = 0; i < kBuckets; i++) {
    if (buckets[i] != 0) {
      Word(shard.buckets[i]).fetch_add(buckets[i], std::memory_order_relaxed);
    }
  }
  Word(shard.count).fetch_add(other.SumOf(&Shard::count), std::memory_order_relaxed);
  Word(shard.sum).fetch_add(other.SumOf(&Shard::sum), std::memory_order_relaxed);
  FetchMax(shard.min_inverted, other.MaxOf(&Shard::min_inverted));
  FetchMax(shard.max, other.MaxOf(&Shard::max));
}

void Histogram::Reset() {
  for (int s = 0; s < kShards; s++) {
    Shard& shard = shards_[s];
    if (Load(shard.count) == 0) {
      continue;  // already empty; storing zeros would only back its page
    }
    for (uint64_t& bucket : shard.buckets) {
      Word(bucket).store(0, std::memory_order_relaxed);
    }
    Word(shard.count).store(0, std::memory_order_relaxed);
    Word(shard.sum).store(0, std::memory_order_relaxed);
    Word(shard.min_inverted).store(0, std::memory_order_relaxed);
    Word(shard.max).store(0, std::memory_order_relaxed);
  }
}

uint64_t Histogram::SumOf(uint64_t Shard::*field) const {
  uint64_t sum = 0;
  for (int s = 0; s < kShards; s++) {
    sum += Load(shards_[s].*field);
  }
  return sum;
}

uint64_t Histogram::MaxOf(uint64_t Shard::*field) const {
  uint64_t max = 0;
  for (int s = 0; s < kShards; s++) {
    max = std::max(max, Load(shards_[s].*field));
  }
  return max;
}

uint64_t Histogram::Count() const { return SumOf(&Shard::count); }

uint64_t Histogram::Sum() const { return SumOf(&Shard::sum); }

double Histogram::Mean() const {
  uint64_t n = Count();
  if (n == 0) {
    return 0;
  }
  return static_cast<double>(Sum()) / static_cast<double>(n);
}

uint64_t Histogram::Min() const {
  const uint64_t min_inverted = MaxOf(&Shard::min_inverted);
  return min_inverted == 0 ? 0 : ~min_inverted;
}

uint64_t Histogram::Max() const { return MaxOf(&Shard::max); }

uint64_t Histogram::Percentile(double q) const {
  uint64_t n = Count();
  if (n == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) {
    return Max();
  }
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::array<uint64_t, kBuckets> buckets;
  SumBuckets(buckets);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; i++) {
    seen += buckets[i];
    if (seen >= target) {
      // Clamp into the observed range: a bucket midpoint can under-shoot
      // Min() (single sample at the top of its bucket) or over-shoot Max().
      return std::clamp(BucketMidpoint(i), Min(), Max());
    }
  }
  return Max();
}

std::string Histogram::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%llu p99=%llu p99.9=%llu max=%llu",
                static_cast<unsigned long long>(Count()), Mean(),
                static_cast<unsigned long long>(Percentile(0.50)),
                static_cast<unsigned long long>(Percentile(0.99)),
                static_cast<unsigned long long>(Percentile(0.999)),
                static_cast<unsigned long long>(Max()));
  return buf;
}

}  // namespace aquila
