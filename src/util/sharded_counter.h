// Per-core sharded statistics counter.
//
// A process-wide std::atomic counter bumped on every fault is a cache line
// that moves between every faulting core; when it also shares that line with
// read-mostly fields (a hash table's mask, a page-table root), every reader
// of those fields misses too. ShardedCounter spreads one counter over
// kShards cache-line-aligned shards: a writer adds to the shard of its
// logical core (CoreRegistry::PeekCurrentCore() & (kShards - 1)), so cores
// whose ids differ modulo kShards never touch the same line, and load() sums
// the shards. Counting never registers a thread: an unregistered thread
// (id -1) lands in the last shard.
//
// load() is a sum of relaxed loads, not an atomic snapshot: an update racing
// the read may or may not be counted, and two racing updates on different
// shards may be seen in either order. Quiescent reads are exact. Gauges work
// too: a fetch_sub on another core's shard wraps that shard modulo 2^64, and
// the modular sum is exact again once the matching fetch_add has landed.
//
// A bounded gauge kept as one sharded counter can read above its bound: the
// reader may see an add on one shard but not the earlier subtract on another.
// Split it into two monotonic counters instead, each updated with release
// order and read with acquire, the "decrements" counter after the
// "increments" one: an increment seen then drags every decrement that
// happened before it into the second read (TwoLevelFreelist::ApproxFree).
// A value whose returned result is consumed (a clock hand, an epoch, an id
// allocator) needs the single RMW's total order and stays one std::atomic;
// fetch_add/fetch_sub therefore return nothing.
#ifndef AQUILA_SRC_UTIL_SHARDED_COUNTER_H_
#define AQUILA_SRC_UTIL_SHARDED_COUNTER_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "src/util/cpu.h"

namespace aquila {

class alignas(kCacheLineSize) ShardedCounter {
 public:
  static constexpr int kShards = 16;
  static_assert((kShards & (kShards - 1)) == 0, "shard index is a mask");

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void fetch_add(uint64_t n, std::memory_order order = std::memory_order_relaxed) {
    Local().fetch_add(n, order);
  }
  void fetch_sub(uint64_t n, std::memory_order order = std::memory_order_relaxed) {
    Local().fetch_sub(n, order);
  }

  // Zeroes every shard; an add racing it may survive or be lost.
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

  uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value.load(order);
    }
    return sum;
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::atomic<uint64_t>& Local() {
    return shards_[CoreRegistry::PeekCurrentCore() & (kShards - 1)].value;
  }

  std::array<Shard, kShards> shards_{};
};

}  // namespace aquila

#endif  // AQUILA_SRC_UTIL_SHARDED_COUNTER_H_
