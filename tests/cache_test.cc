// Unit tests for src/cache: red-black tree, lock-free hash, two-level
// freelist, dirty trees, page cache frame lifecycle and resizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "src/cache/dirty_tree.h"
#include "src/cache/freelist.h"
#include "src/cache/lockfree_hash.h"
#include "src/cache/page_cache.h"
#include "src/cache/rbtree.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

// --- Red-black tree -----------------------------------------------------------

struct TestNode {
  RbNode node;
  uint64_t key;
};

struct TestKeyOf {
  uint64_t operator()(const RbNode* n) const {
    return reinterpret_cast<const TestNode*>(reinterpret_cast<const char*>(n) -
                                             offsetof(TestNode, node))
        ->key;
  }
};

TEST(RbTreeTest, SortedIterationAfterRandomInsert) {
  RbTree<TestKeyOf> tree;
  std::vector<TestNode> nodes(1000);
  std::mt19937_64 rng(1);
  for (size_t i = 0; i < nodes.size(); i++) {
    nodes[i].key = rng();
    tree.Insert(&nodes[i].node);
  }
  EXPECT_GE(tree.Validate(), 1);
  EXPECT_EQ(tree.size(), nodes.size());
  uint64_t prev = 0;
  size_t count = 0;
  for (RbNode* n = tree.First(); n != nullptr; n = RbTree<TestKeyOf>::Next(n)) {
    uint64_t key = TestKeyOf()(n);
    EXPECT_GE(key, prev);
    prev = key;
    count++;
  }
  EXPECT_EQ(count, nodes.size());
}

TEST(RbTreeTest, RemoveKeepsInvariants) {
  RbTree<TestKeyOf> tree;
  std::vector<TestNode> nodes(500);
  std::mt19937_64 rng(7);
  for (size_t i = 0; i < nodes.size(); i++) {
    nodes[i].key = rng() % 10000;
    tree.Insert(&nodes[i].node);
  }
  // Shuffle removal order via indices: the nodes themselves are linked into
  // the tree and must not move.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i = 0; i < order.size(); i++) {
    tree.Remove(&nodes[order[i]].node);
    if (i % 50 == 0) {
      ASSERT_GE(tree.Validate(), 1) << "after " << i << " removals";
    }
  }
  EXPECT_TRUE(tree.empty());
}

TEST(RbTreeTest, LowerBound) {
  RbTree<TestKeyOf> tree;
  std::vector<TestNode> nodes(10);
  for (size_t i = 0; i < nodes.size(); i++) {
    nodes[i].key = i * 10;  // 0, 10, ..., 90
    tree.Insert(&nodes[i].node);
  }
  EXPECT_EQ(TestKeyOf()(tree.LowerBound(0)), 0u);
  EXPECT_EQ(TestKeyOf()(tree.LowerBound(15)), 20u);
  EXPECT_EQ(TestKeyOf()(tree.LowerBound(90)), 90u);
  EXPECT_EQ(tree.LowerBound(91), nullptr);
}

// --- Lock-free hash -------------------------------------------------------------

TEST(LockFreeHashTest, InsertLookupRemove) {
  LockFreeHash hash(128);
  EXPECT_TRUE(hash.Insert(7, 70));
  EXPECT_FALSE(hash.Insert(7, 71));  // duplicate
  uint64_t v = 0;
  EXPECT_TRUE(hash.Lookup(7, &v));
  EXPECT_EQ(v, 70u);
  EXPECT_FALSE(hash.Lookup(8, &v));
  EXPECT_TRUE(hash.Remove(7));
  EXPECT_FALSE(hash.Remove(7));
  EXPECT_FALSE(hash.Lookup(7, &v));
  EXPECT_EQ(hash.size(), 0u);
}

TEST(LockFreeHashTest, TombstoneReuse) {
  LockFreeHash hash(64);
  // Insert/remove the same set repeatedly: the table must not fill up with
  // tombstones (inserts reuse them).
  for (int round = 0; round < 1000; round++) {
    for (uint64_t k = 1; k <= 20; k++) {
      ASSERT_TRUE(hash.Insert(k, k * 2));
    }
    for (uint64_t k = 1; k <= 20; k++) {
      ASSERT_TRUE(hash.Remove(k));
    }
  }
  EXPECT_EQ(hash.size(), 0u);
}

// Regression guard for the early-stop invariant: an insert scan terminates
// at the first EMPTY slot (empties are never re-created), so probe lengths
// are O(probe chain), never O(capacity). If someone breaks the early stop —
// e.g. by continuing the scan past EMPTY "just in case" — these bounds blow
// up from single digits to the table size and the test fails loudly.
TEST(LockFreeHashTest, InsertProbeLengthStopsAtFirstEmpty) {
  LockFreeHash hash(1024);
  LockFreeHash::ProbeStats before = hash.probe_stats();
  ASSERT_TRUE(hash.Insert(0x42, 1));
  LockFreeHash::ProbeStats after = hash.probe_stats();
  EXPECT_EQ(after.insert_calls - before.insert_calls, 1u);
  // Empty table: the home slot is EMPTY, one probe total.
  EXPECT_EQ(after.insert_probes - before.insert_probes, 1u);

  // A tombstone does not reopen the scan: reinsert after remove probes the
  // tombstoned home slot plus the EMPTY slot behind it, nothing more.
  ASSERT_TRUE(hash.Remove(0x42));
  before = hash.probe_stats();
  ASSERT_TRUE(hash.Insert(0x42, 2));
  after = hash.probe_stats();
  EXPECT_LE(after.insert_probes - before.insert_probes, 2u);

  // At the production load factor (0.5) the MEAN probe length stays small
  // even with heavy tombstone churn; ~capacity/2 here would mean the scan
  // stopped honoring EMPTY slots.
  LockFreeHash big(2048);
  for (uint64_t k = 1; k <= 1024; k++) {
    ASSERT_TRUE(big.Insert(k, k));
  }
  for (int round = 0; round < 20; round++) {
    for (uint64_t k = 1; k <= 1024; k += 2) {
      ASSERT_TRUE(big.Remove(k));
      ASSERT_TRUE(big.Insert(k, k));
    }
  }
  LockFreeHash::ProbeStats s = big.probe_stats();
  ASSERT_GT(s.insert_calls, 0u);
  EXPECT_LT(s.insert_probes / s.insert_calls, 8u);
}

TEST(LockFreeHashTest, ConcurrentDisjointKeys) {
  LockFreeHash hash(1 << 16);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&hash, t] {
      uint64_t base = static_cast<uint64_t>(t) * kPerThread + 1;
      for (uint64_t i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(hash.Insert(base + i, base + i));
      }
      uint64_t v;
      for (uint64_t i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(hash.Lookup(base + i, &v));
        ASSERT_EQ(v, base + i);
      }
      for (uint64_t i = 0; i < kPerThread; i += 2) {
        ASSERT_TRUE(hash.Remove(base + i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(hash.size(), kThreads * kPerThread / 2);
}

TEST(LockFreeHashTest, ConcurrentSameKeyInsertOneWinner) {
  for (int round = 0; round < 50; round++) {
    LockFreeHash hash(64);
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&hash, &winners, t] {
        if (hash.Insert(42, static_cast<uint64_t>(t))) {
          winners.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(hash.size(), 1u);
  }
}

// --- Freelist --------------------------------------------------------------------

TEST(FreelistTest, AllocFromSeededQueues) {
  TwoLevelFreelist::Options options;
  TwoLevelFreelist fl(1024, options);
  fl.AddFrames(0, 1024);
  EXPECT_EQ(fl.ApproxFree(), 1024u);
  std::vector<bool> seen(1024, false);
  for (int i = 0; i < 1024; i++) {
    FrameId f = fl.Alloc(0);
    ASSERT_NE(f, kInvalidFrame);
    ASSERT_LT(f, 1024u);
    ASSERT_FALSE(seen[f]) << "double allocation of frame " << f;
    seen[f] = true;
  }
  EXPECT_EQ(fl.Alloc(0), kInvalidFrame);
}

TEST(FreelistTest, FreeGoesToCoreQueueFirst) {
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 8;
  options.move_batch = 4;
  TwoLevelFreelist fl(64, options);
  fl.AddFrames(0, 64);
  std::vector<FrameId> held;
  for (int i = 0; i < 64; i++) {
    held.push_back(fl.Alloc(1));
  }
  for (FrameId f : held) {
    fl.Free(1, f);
  }
  EXPECT_EQ(fl.ApproxFree(), 64u);
  // Overflow moved batches from the core queue to the NUMA queue.
  EXPECT_GT(fl.stats().batch_moves.load(), 0u);
  // Core-local allocation hits after frees.
  FrameId f = fl.Alloc(1);
  EXPECT_NE(f, kInvalidFrame);
  EXPECT_GT(fl.stats().core_hits.load(), 0u);
}

// Chain release (FreeBatch): the freeing core's queue fills only up to its
// overflow threshold, the remainder lands on the core's NUMA queue as one
// chain, every frame keeps its own stamp (frames past the end of the stamp
// span get none), and the free count is exact.
TEST(FreelistTest, ChainReleaseFillsCoreQueueToThresholdThenOneNumaChain) {
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 8;
  options.move_batch = 4;
  constexpr uint32_t kFrames = 64;
  constexpr int kCore = 1;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames);
  std::vector<FrameId> held;
  for (uint32_t i = 0; i < kFrames; i++) {
    held.push_back(fl.Alloc(kCore));
  }
  ASSERT_EQ(fl.Alloc(kCore), kInvalidFrame);
  ASSERT_EQ(fl.ApproxFree(), 0u);

  // Three frames already queued on the core: the batch may add only 5 more.
  for (int i = 0; i < 3; i++) {
    fl.Free(kCore, held.back());
    held.pop_back();
  }
  std::vector<FrameId> batch;
  std::vector<ReuseStamp> stamps;  // the last 5 frames go without one
  for (int i = 0; i < 20; i++) {
    batch.push_back(held.back());
    held.pop_back();
    if (i < 15) {
      ReuseStamp stamp;
      stamp.vpn = 1000 + batch.back();
      stamp.core = kCore;
      stamp.valid = true;
      stamps.push_back(stamp);
    }
  }
  const uint64_t moves_before = fl.stats().batch_moves.load();
  fl.FreeBatch(kCore, batch, stamps, FreeLevel::kCoreFirst);
  EXPECT_EQ(fl.ApproxFree(), 23u);
  EXPECT_EQ(fl.stats().batch_moves.load(), moves_before + 1) << "one NUMA chain";

  // 8 core hits (threshold), then the 15 spilled frames from the NUMA level.
  std::map<FrameId, uint64_t> expected_vpn;
  for (size_t i = 0; i < stamps.size(); i++) {
    expected_vpn[batch[i]] = stamps[i].vpn;
  }
  const uint64_t core_hits_before = fl.stats().core_hits.load();
  const uint64_t numa_hits_before = fl.stats().numa_hits.load();
  for (int i = 0; i < 23; i++) {
    ReuseStamp stamp;
    FrameId f = fl.Alloc(kCore, &stamp);
    ASSERT_NE(f, kInvalidFrame);
    held.push_back(f);
    auto it = expected_vpn.find(f);
    if (it == expected_vpn.end()) {
      EXPECT_FALSE(stamp.valid) << "unstamped frame " << f;
    } else {
      EXPECT_TRUE(stamp.valid);
      EXPECT_EQ(stamp.vpn, it->second) << "frame " << f << " lost its stamp";
      EXPECT_EQ(stamp.core, kCore);
      expected_vpn.erase(it);
    }
  }
  EXPECT_TRUE(expected_vpn.empty());
  EXPECT_EQ(fl.stats().core_hits.load() - core_hits_before, 8u);
  EXPECT_EQ(fl.stats().numa_hits.load() - numa_hits_before, 15u);
  EXPECT_EQ(fl.Alloc(kCore), kInvalidFrame);
  EXPECT_EQ(fl.ApproxFree(), 0u);

  // kNuma skips the core level entirely; a batch that fits the core queue
  // under kCoreFirst moves nothing to the NUMA level.
  ASSERT_EQ(held.size(), kFrames);
  fl.FreeBatch(kCore, std::span(held).first(4), {}, FreeLevel::kCoreFirst);
  EXPECT_EQ(fl.stats().batch_moves.load(), moves_before + 1);
  fl.FreeBatch(kCore, std::span(held).subspan(4), {}, FreeLevel::kNuma);
  EXPECT_EQ(fl.stats().batch_moves.load(), moves_before + 2);
  EXPECT_EQ(fl.ApproxFree(), kFrames);
  const uint64_t core_hits_mid = fl.stats().core_hits.load();
  while (fl.Alloc(kCore) != kInvalidFrame) {
  }
  EXPECT_EQ(fl.stats().core_hits.load() - core_hits_mid, 4u);
  EXPECT_EQ(fl.ApproxFree(), 0u);
}

TEST(FreelistTest, RemoteNumaFallback) {
  TwoLevelFreelist::Options options;
  options.numa_nodes = 2;
  TwoLevelFreelist fl(16, options);
  fl.AddFrames(0, 16);
  // Drain everything from core 0 (NUMA node 0): it must also pull from the
  // remote node's queue.
  int got = 0;
  while (fl.Alloc(0) != kInvalidFrame) {
    got++;
  }
  EXPECT_EQ(got, 16);
  EXPECT_GT(fl.stats().remote_hits.load(), 0u);
}

TEST(FreelistTest, ConcurrentAllocFreeNoDuplicates) {
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 32;
  options.move_batch = 16;
  constexpr uint32_t kFrames = 4096;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames);
  std::vector<std::atomic<int>> owners(kFrames);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<FrameId> mine;
      Rng rng(t + 1);
      for (int i = 0; i < 20000; i++) {
        if (mine.size() < 64 && rng.OneIn(2)) {
          FrameId f = fl.Alloc(t % CoreRegistry::kMaxCores);
          if (f != kInvalidFrame) {
            if (owners[f].fetch_add(1) != 0) {
              failed.store(true);
            }
            mine.push_back(f);
          }
        } else if (!mine.empty()) {
          FrameId f = mine.back();
          mine.pop_back();
          owners[f].fetch_sub(1);
          fl.Free(t % CoreRegistry::kMaxCores, f);
        }
      }
      for (FrameId f : mine) {
        owners[f].fetch_sub(1);
        fl.Free(t % CoreRegistry::kMaxCores, f);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load()) << "a frame was allocated to two owners";
  EXPECT_EQ(fl.ApproxFree(), kFrames);
}

// --- Dirty trees ------------------------------------------------------------------

TEST(DirtyTreeTest, CollectBatchSortedRuns) {
  DirtyTreeSet set;
  std::vector<DirtyItem> items(100);
  for (size_t i = 0; i < items.size(); i++) {
    items[i].sort_key = 1000 - i * 10;
    set.Insert(static_cast<int>(i % 2), &items[i]);
  }
  EXPECT_EQ(set.TotalDirty(), 100u);
  std::vector<DirtyItem*> out(100);
  size_t n = set.CollectBatch(0, 100, out.data());
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(set.TotalDirty(), 0u);
  // Items from core 0's tree come first, in ascending key order.
  for (size_t i = 1; i < 50; i++) {
    EXPECT_GT(out[i]->sort_key, out[i - 1]->sort_key);
  }
}

TEST(DirtyTreeTest, ItemsInRangeLeavesItemsLinked) {
  DirtyTreeSet set;
  std::vector<DirtyItem> items(20);
  for (size_t i = 0; i < items.size(); i++) {
    items[i].sort_key = i;
    set.Insert(static_cast<int>(i % 4), &items[i]);
  }
  std::vector<DirtyItem*> out;
  set.ItemsInRange(5, 9, &out);
  EXPECT_EQ(out.size(), 5u);
  for (DirtyItem* item : out) {
    EXPECT_GE(item->sort_key, 5u);
    EXPECT_LE(item->sort_key, 9u);
    EXPECT_TRUE(item->node.linked);
  }
  EXPECT_EQ(set.TotalDirty(), 20u);
  // Still linked, so still removable exactly once.
  for (DirtyItem* item : out) {
    set.Remove(item);
  }
  EXPECT_EQ(set.TotalDirty(), 15u);
}

TEST(DirtyTreeTest, RemoveIsIdempotent) {
  DirtyTreeSet set;
  DirtyItem item;
  item.sort_key = 5;
  set.Insert(0, &item);
  set.Remove(&item);
  set.Remove(&item);
  EXPECT_EQ(set.TotalDirty(), 0u);
}

// --- PageCache ---------------------------------------------------------------------

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest() {
    Hypervisor::Options hv_options;
    hv_options.host_memory_bytes = 256ull << 20;
    hv_options.chunk_size = 1ull << 20;
    hv_ = std::make_unique<Hypervisor>(hv_options);
    guest_ = hv_->CreateGuest();
    PageCache::Options options;
    options.capacity_pages = 1024;
    options.max_pages = 8192;
    cache_ = std::make_unique<PageCache>(hv_.get(), guest_, vcpu_, options);
  }

  Vcpu vcpu_{0};
  std::unique_ptr<Hypervisor> hv_;
  int guest_;
  std::unique_ptr<PageCache> cache_;
};

TEST_F(PageCacheTest, FrameLifecycle) {
  FrameId f = cache_->AllocFrame(vcpu_, 0);
  ASSERT_NE(f, kInvalidFrame);
  EXPECT_EQ(cache_->frame(f).state.load(), FrameState::kFilling);
  uint8_t* data = cache_->FrameData(vcpu_, f);
  ASSERT_NE(data, nullptr);
  data[0] = 0x11;
  EXPECT_TRUE(cache_->InsertMapping(0x8000000000000001ull, f));
  cache_->frame(f).state.store(FrameState::kResident);
  FrameId found;
  EXPECT_TRUE(cache_->Lookup(0x8000000000000001ull, &found));
  EXPECT_EQ(found, f);
  EXPECT_TRUE(cache_->RemoveMapping(0x8000000000000001ull));
  cache_->FreeFrame(0, f);
  EXPECT_EQ(cache_->frame(f).state.load(), FrameState::kFree);
}

TEST_F(PageCacheTest, ExhaustionAndVictimSelection) {
  std::vector<FrameId> frames;
  FrameId f;
  while ((f = cache_->AllocFrame(vcpu_, 0)) != kInvalidFrame) {
    cache_->frame(f).vaddr = (frames.size() + 1) * kPageSize;
    cache_->frame(f).state.store(FrameState::kResident);
    frames.push_back(f);
  }
  EXPECT_EQ(frames.size(), 1024u);

  // First sweep clears reference bits; a bounded sweep still claims a batch.
  std::vector<FrameId> victims(512);
  size_t n = cache_->SelectVictims(512, victims.data());
  EXPECT_EQ(n, 512u);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(cache_->frame(victims[i]).state.load(), FrameState::kEvicting);
  }
}

TEST_F(PageCacheTest, ReferencedFramesGetSecondChance) {
  FrameId hot = cache_->AllocFrame(vcpu_, 0);
  FrameId cold = cache_->AllocFrame(vcpu_, 0);
  cache_->frame(hot).state.store(FrameState::kResident);
  cache_->frame(hot).referenced.store(1);
  cache_->frame(cold).state.store(FrameState::kResident);
  cache_->frame(cold).referenced.store(0);
  std::vector<FrameId> victims(1);
  size_t n = cache_->SelectVictims(1, victims.data());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(victims[0], cold);
}

// Allocates every frame of the 1024-frame cache and leaves them non-resident
// (kFilling), so a test can place resident frames at chosen slots.
std::vector<FrameId> AllocAll(PageCache& cache, Vcpu& vcpu) {
  std::vector<FrameId> frames;
  FrameId f;
  while ((f = cache.AllocFrame(vcpu, 0)) != kInvalidFrame) {
    frames.push_back(f);
  }
  return frames;
}

TEST_F(PageCacheTest, SecondChanceSpansSweepChunks) {
  ASSERT_EQ(AllocAll(*cache_, vcpu_).size(), 1024u);
  // The hot frame is in the hand's first chunk, the cold one in its second.
  const FrameId hot = 10;
  const FrameId cold = PageCache::kSweepChunk + 10;
  cache_->frame(hot).referenced.store(1);
  cache_->frame(hot).state.store(FrameState::kResident);
  cache_->frame(cold).referenced.store(0);
  cache_->frame(cold).state.store(FrameState::kResident);
  // A full-chunk request: the hand passes the hot frame in one claimed chunk
  // and finds the cold one in the next; the hot frame, its bit now spent,
  // falls only on the second rotation.
  std::vector<FrameId> victims(PageCache::kSweepChunk);
  ASSERT_EQ(cache_->SelectVictims(victims.size(), victims.data()), 2u);
  EXPECT_EQ(victims[0], cold);
  EXPECT_EQ(victims[1], hot);
}

// Single-victim calls must not leave the rest of a chunk behind: a frame the
// first rotation aged is claimed on the next pass, even though every other
// frame is re-referenced between calls.
TEST_F(PageCacheTest, SingleVictimCallsReachTheColdFrameWithinTwoRotations) {
  std::vector<FrameId> frames = AllocAll(*cache_, vcpu_);
  ASSERT_EQ(frames.size(), 1024u);
  for (FrameId f : frames) {
    cache_->frame(f).state.store(FrameState::kResident);
  }
  const FrameId cold = 5 * PageCache::kSweepChunk + 37;
  std::vector<FrameId> victims(1);
  bool claimed_cold = false;
  // Rotation one clears every bit and claims a frame just past its start;
  // the cold frame is the only one not re-referenced afterwards.
  for (int call = 0; call < 2 && !claimed_cold; call++) {
    ASSERT_EQ(cache_->SelectVictims(1, victims.data()), 1u);
    claimed_cold = victims[0] == cold;
    cache_->frame(victims[0]).state.store(FrameState::kResident);
    for (FrameId f : frames) {
      if (f != cold) {
        cache_->frame(f).referenced.store(1);
      }
    }
  }
  EXPECT_TRUE(claimed_cold);
  // Fresh single-victim calls over all-cold frames claim consecutive slots.
  for (FrameId f : frames) {
    cache_->frame(f).referenced.store(0);
    cache_->frame(f).state.store(FrameState::kResident);
  }
  ASSERT_EQ(cache_->SelectVictims(1, victims.data()), 1u);
  FrameId previous = victims[0];
  for (int call = 0; call < 3 * static_cast<int>(PageCache::kSweepChunk); call++) {
    ASSERT_EQ(cache_->SelectVictims(1, victims.data()), 1u);
    EXPECT_EQ(victims[0], (previous + 1) % frames.size());
    previous = victims[0];
  }
}

TEST_F(PageCacheTest, ConcurrentSweepersClaimDisjointFrames) {
  std::vector<FrameId> frames = AllocAll(*cache_, vcpu_);
  ASSERT_EQ(frames.size(), 1024u);
  for (FrameId f : frames) {
    cache_->frame(f).referenced.store(0);
    cache_->frame(f).state.store(FrameState::kResident);
  }
  constexpr int kSweepers = 4;
  std::vector<std::vector<FrameId>> claimed(kSweepers);
  std::vector<std::thread> sweepers;
  for (int t = 0; t < kSweepers; t++) {
    sweepers.emplace_back([this, &claimed, t] {
      std::vector<FrameId> victims(96);  // not a multiple of the chunk
      size_t n;
      while ((n = cache_->SelectVictims(victims.size(), victims.data())) > 0) {
        claimed[t].insert(claimed[t].end(), victims.begin(), victims.begin() + n);
      }
    });
  }
  for (std::thread& t : sweepers) {
    t.join();
  }
  std::vector<FrameId> all;
  for (const std::vector<FrameId>& c : claimed) {
    all.insert(all.end(), c.begin(), c.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end()) << "a frame claimed twice";
  EXPECT_EQ(all.size(), frames.size());  // nothing is released, so all get claimed
  for (FrameId f : frames) {
    EXPECT_EQ(cache_->frame(f).state.load(), FrameState::kEvicting);
  }
}

TEST_F(PageCacheTest, GrowAddsCapacityViaHypervisor) {
  uint64_t granted_before = hv_->granted_bytes(guest_);
  ASSERT_TRUE(cache_->Grow(vcpu_, 1024).ok());
  EXPECT_EQ(cache_->capacity_pages(), 2048u);
  EXPECT_GT(hv_->granted_bytes(guest_), granted_before);
  // All 2048 frames allocatable.
  int got = 0;
  while (cache_->AllocFrame(vcpu_, 0) != kInvalidFrame) {
    got++;
  }
  EXPECT_EQ(got, 2048);
}

TEST_F(PageCacheTest, GrowBeyondMaxFails) {
  EXPECT_FALSE(cache_->Grow(vcpu_, 100000).ok());
}

TEST_F(PageCacheTest, ShrinkReleasesWholeGrant) {
  ASSERT_TRUE(cache_->Grow(vcpu_, 1024).ok());
  // Touch a frame in the new grant so backing exists.
  uint64_t backed_before = hv_->backed_bytes(guest_);
  StatusOr<uint64_t> removed = cache_->Shrink(vcpu_, 2048);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2048u);
  EXPECT_EQ(cache_->capacity_pages(), 0u);
  EXPECT_EQ(cache_->AllocFrame(vcpu_, 0), kInvalidFrame);
  EXPECT_LE(hv_->backed_bytes(guest_), backed_before);
  EXPECT_EQ(hv_->granted_bytes(guest_), 0u);
}

TEST_F(PageCacheTest, TlbInsertNoteAccumulatesMaskAndEpoch) {
  FrameId f = cache_->AllocFrame(vcpu_, 0);
  Frame& frame = cache_->frame(f);
  EXPECT_EQ(frame.cpu_mask.load(), 0u);
  EXPECT_EQ(frame.tlb_epoch.load(), 0u);
  NoteTlbInsert(frame, 0, /*epoch=*/3);
  NoteTlbInsert(frame, 5, /*epoch=*/7);
  EXPECT_EQ(frame.cpu_mask.load(), (1ull << 0) | (1ull << 5));
  EXPECT_EQ(frame.tlb_epoch.load(), 7u);
  // The epoch is a CAS-max: a slow publisher cannot regress it, and the mask
  // only grows (like Linux mm_cpumask) while the frame stays in circulation.
  NoteTlbInsert(frame, 5, /*epoch=*/2);
  EXPECT_EQ(frame.tlb_epoch.load(), 7u);
  EXPECT_EQ(frame.cpu_mask.load(), (1ull << 0) | (1ull << 5));
  // Core ids wrap mod 64 into the mask, matching the shootdown's targeting.
  NoteTlbInsert(frame, 64 + 9, /*epoch=*/7);
  EXPECT_EQ(frame.cpu_mask.load(), (1ull << 0) | (1ull << 5) | (1ull << 9));
  cache_->FreeFrame(0, f);
}

TEST_F(PageCacheTest, RecycleResetsShootdownRoutingState) {
  FrameId f = cache_->AllocFrame(vcpu_, 0);
  Frame& frame = cache_->frame(f);
  NoteTlbInsert(frame, 3, /*epoch=*/11);
  ASSERT_NE(frame.cpu_mask.load(), 0u);
  cache_->FreeFrame(0, f);
  // The next identity this frame takes must start with no mapped cores:
  // stale bits would send IPIs for cores that never saw the new page.
  EXPECT_EQ(frame.cpu_mask.load(), 0u);
  EXPECT_EQ(frame.tlb_epoch.load(), 0u);
}

TEST_F(PageCacheTest, DirtyBookkeeping) {
  FrameId f = cache_->AllocFrame(vcpu_, 0);
  cache_->frame(f).state.store(FrameState::kResident);
  cache_->MarkDirty(2, f, /*sort_key=*/777);
  EXPECT_EQ(cache_->TotalDirty(), 1u);
  std::vector<FrameId> out(4);
  size_t n = cache_->CollectDirtyBatch(2, 4, out.data());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0], f);
  EXPECT_EQ(cache_->TotalDirty(), 0u);
}

}  // namespace
}  // namespace aquila
