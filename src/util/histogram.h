// Log-bucketed latency histogram with percentile queries.
//
// Layout mirrors HdrHistogram's idea at much lower resolution: values are
// bucketed by (exponent, 8 linear sub-buckets), giving <= ~6% relative error
// per bucket, which is ample for avg/p99/p99.9 reporting.
//
// Recording is sharded per core, like ShardedCounter: Record writes only the
// calling core's shard (CoreRegistry::PeekCurrentCore() & (kShards - 1);
// unregistered threads share the last shard), so the faulting cores of a
// process-wide histogram never write a common cache line. Every read (Count,
// Sum, Min, Max, Percentile, Merge's source) folds the shards; like
// ShardedCounter::load it is exact at quiescence, not a snapshot. Shards are
// relaxed atomics, so threads whose ids collide modulo kShards still count
// exactly.
//
// Each shard is one page of an anonymous mapping, not heap memory: a
// histogram costs one resident page per core that recorded into it (the
// untouched shards stay unbacked zero pages), and creating one never moves
// the heap layout that other allocations see. An all-zero shard is empty:
// the minimum is stored inverted so zero-fill means "no sample yet".
#ifndef AQUILA_SRC_UTIL_HISTOGRAM_H_
#define AQUILA_SRC_UTIL_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

namespace aquila {

class Histogram {
 public:
  Histogram();
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Records one sample (e.g. nanoseconds or cycles). Thread-safe.
  void Record(uint64_t value);

  // Adds all samples from `other` into this histogram.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t Count() const;
  uint64_t Sum() const;
  double Mean() const;
  uint64_t Min() const;
  uint64_t Max() const;

  // Value at quantile q in [0, 1], e.g. 0.999 for p99.9. Returns 0 on an
  // empty histogram; otherwise the result is clamped to [Min(), Max()], so
  // bucket-midpoint error never reports a value outside the observed range.
  uint64_t Percentile(double q) const;

  // One-line summary: count/mean/p50/p99/p99.9/max.
  std::string Summary() const;

 private:
  // Values < 16 get exact buckets 0..15; each power-of-two octave above
  // splits into kSubBuckets linear sub-buckets. Exponents 4..63 cover the
  // full uint64_t range, so no recordable value lands past the last bucket.
  static constexpr int kSubBuckets = 8;
  static constexpr int kBuckets = 16 + (64 - 4) * kSubBuckets;
  static constexpr int kShards = 16;
  static_assert((kShards & (kShards - 1)) == 0, "shard index is a mask");

  // Plain words accessed only through std::atomic_ref, so a fresh zero-filled
  // page is a valid empty shard without a constructor touching it.
  struct alignas(4096) Shard {
    uint64_t count;
    uint64_t sum;
    uint64_t min_inverted;  // ~min, so 0 means empty
    uint64_t max;
    uint64_t buckets[kBuckets];
  };
  static_assert(sizeof(Shard) == 4096, "one page per shard");

  static int BucketFor(uint64_t value);
  static uint64_t BucketMidpoint(int bucket);

  Shard& Local();
  // One field summed, or maximized, over every shard.
  uint64_t SumOf(uint64_t Shard::*field) const;
  uint64_t MaxOf(uint64_t Shard::*field) const;
  // Folds every shard's buckets into `out`.
  void SumBuckets(std::array<uint64_t, kBuckets>& out) const;

  Shard* shards_;  // kShards pages of an anonymous mapping
};

}  // namespace aquila

#endif  // AQUILA_SRC_UTIL_HISTOGRAM_H_
