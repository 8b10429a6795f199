// Concurrency torture harness (ISSUE 3).
//
// Hammers the lock-free structures and the full fault pipeline from many
// threads with adversarial schedules. Every test here is written to be
// TSan-clean under the stress_test_tsan variant: assertions share state only
// through atomics, and the pipeline test partitions msync/madvise slices per
// thread because concurrent msync-vs-store on the *same byte range* is an
// application-level race by mmap semantics, not a runtime bug (DESIGN §8).
//
// Thread counts scale with AQUILA_STRESS_THREADS (default 4): the TSan
// variant runs the same binaries ~10x slower, and CI hosts may have one
// core, so the default stays modest while still forcing interleavings via
// oversubscription.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "src/cache/dirty_tree.h"
#include "src/cache/freelist.h"
#include "src/cache/lockfree_hash.h"
#include "src/cache/page_cache.h"
#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/core/sched.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/cpu.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

// bench/common.h style env knob: AQUILA_STRESS_THREADS overrides the default
// worker count for every test in this file.
int StressThreads() {
  if (const char* s = std::getenv("AQUILA_STRESS_THREADS"); s != nullptr) {
    int n = std::atoi(s);
    if (n >= 1 && n <= CoreRegistry::kMaxCores) {
      return n;
    }
  }
  return 4;
}

// --- LockFreeHash ------------------------------------------------------------------

// Insert/remove/get churn with tombstone reuse: each thread owns a disjoint
// key range and cycles every key through insert -> lookup -> remove, so slots
// accumulate tombstones and inserts must reuse them. Cross-thread readers
// look up foreign keys the whole time; any hit must carry the exact value
// the owner published (value == key * 3 + 1), never kValueUnset garbage and
// never another key's value.
TEST(HashStressTest, ChurnWithTombstoneReuseAndForeignReaders) {
  const int kThreads = StressThreads();
  const uint64_t kKeysPerThread = 512;
  // Load factor <= 0.5 like production (capacity 2x the live-key ceiling).
  LockFreeHash hash(2 * kThreads * kKeysPerThread);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_value{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(t * 7919 + 11);
      uint64_t base = 1 + static_cast<uint64_t>(t) * kKeysPerThread;
      for (int round = 0; round < 200; round++) {
        for (uint64_t k = base; k < base + kKeysPerThread; k++) {
          ASSERT_TRUE(hash.Insert(k, k * 3 + 1));
        }
        // Read back own keys (must hit) and probe a foreign thread's range
        // (may hit or miss depending on its phase; value must be exact).
        for (uint64_t k = base; k < base + kKeysPerThread; k++) {
          uint64_t v = 0;
          ASSERT_TRUE(hash.Lookup(k, &v));
          if (v != k * 3 + 1) {
            bad_value.fetch_add(1);
          }
          uint64_t foreign =
              1 + rng.Uniform(static_cast<uint64_t>(kThreads) * kKeysPerThread);
          if (hash.Lookup(foreign, &v) && v != foreign * 3 + 1) {
            bad_value.fetch_add(1);
          }
        }
        for (uint64_t k = base; k < base + kKeysPerThread; k++) {
          ASSERT_TRUE(hash.Remove(k));
        }
      }
      stop.store(true);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad_value.load(), 0u);
  EXPECT_EQ(hash.size(), 0u);
}

// Remove/Get protocol (ISSUE satellite): one writer flips a single hot key
// between present and absent; readers must see exactly {absent} or
// {present, correct value}. A broken two-release protocol in Remove shows up
// here as a stale value (generation mismatch) or as a reader wedged in the
// kValueUnset spin loop (test hangs).
TEST(HashStressTest, RemoveGetProtocolOnHotKey) {
  LockFreeHash hash(64);
  constexpr uint64_t kHotKey = 0x1234;
  const int kReaders = StressThreads();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale_values{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; t++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t v = 0;
        if (hash.Lookup(kHotKey, &v)) {
          // Writer only ever publishes odd generation numbers > 0; anything
          // else (kValueUnset leaking through, a removed generation's bits
          // reread after reuse) is a protocol violation.
          if (v == LockFreeHash::kValueUnset || (v & 1) == 0) {
            stale_values.fetch_add(1);
          }
        }
      }
    });
  }

  // The writer also churns neighbour keys so the hot key's slot sits inside
  // a live probe chain with tombstones on both sides.
  for (uint64_t gen = 1; gen < 40001; gen += 2) {
    ASSERT_TRUE(hash.Insert(kHotKey, gen));
    ASSERT_TRUE(hash.Insert(kHotKey + 64, gen));  // same bucket modulo 64
    ASSERT_TRUE(hash.Remove(kHotKey));
    ASSERT_TRUE(hash.Remove(kHotKey + 64));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(stale_values.load(), 0u);
  EXPECT_EQ(hash.size(), 0u);
}

// --- TwoLevelFreelist --------------------------------------------------------------

// Batch migration under contention (ISSUE satellite): tiny core queues force
// constant core->NUMA overflow batches while threads on distinct cores
// drain and refill. The atomic owners array proves no frame is ever handed
// to two threads at once; a sampler thread checks ApproxFree stays
// conservative (never above true capacity) throughout.
TEST(FreelistStressTest, BatchMigrationNoDoubleHandout) {
  constexpr uint32_t kFrames = 2048;
  const int kThreads = StressThreads();
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 8;  // overflow constantly
  options.move_batch = 4;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames);

  std::vector<std::atomic<int>> owners(kFrames);
  for (auto& o : owners) {
    o.store(0);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> double_handout{false};
  std::atomic<bool> approx_overshoot{false};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (fl.ApproxFree() > kFrames) {
        approx_overshoot.store(true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Distinct cores spread across both NUMA nodes so alloc exercises
      // core hit -> NUMA refill -> remote steal, and frees overflow into
      // different NUMA queues.
      int core = t % CoreRegistry::kMaxCores;
      Rng rng(t * 31337 + 5);
      std::vector<FrameId> held;
      held.reserve(256);
      for (int i = 0; i < 30000; i++) {
        if (held.size() < 128 && rng.OneIn(2)) {
          FrameId f = fl.Alloc(core);
          if (f == kInvalidFrame) {
            continue;  // other threads hold everything; fine
          }
          ASSERT_LT(f, kFrames);
          if (owners[f].fetch_add(1, std::memory_order_acq_rel) != 0) {
            double_handout.store(true);
          }
          held.push_back(f);
        } else if (!held.empty()) {
          FrameId f = held.back();
          held.pop_back();
          owners[f].fetch_sub(1, std::memory_order_acq_rel);
          fl.Free(core, f);
        }
      }
      for (FrameId f : held) {
        owners[f].fetch_sub(1, std::memory_order_acq_rel);
        fl.Free(core, f);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_FALSE(double_handout.load()) << "a frame was allocated to two owners";
  EXPECT_FALSE(approx_overshoot.load()) << "ApproxFree exceeded true capacity";
  // Quiescent: every frame is back and the estimate is exact again.
  EXPECT_EQ(fl.ApproxFree(), kFrames);
  // The tiny thresholds guarantee the second level actually engaged.
  EXPECT_GT(fl.stats().batch_moves.load(), 0u);
  EXPECT_GT(fl.stats().numa_hits.load() + fl.stats().remote_hits.load(), 0u);
}

// Chain release under contention: threads on distinct cores free whole
// batches through FreeBatch (core queue to its threshold, the rest as one
// NUMA chain, or all to NUMA) while others allocate from the same queues.
// No frame may be handed out twice, every allocation must read back the
// stamp its last batch free wrote, ApproxFree must never exceed capacity,
// and at quiescence the count must be exact and every frame allocatable.
TEST(FreelistStressTest, ChainReleaseKeepsStampsAndExactCount) {
  constexpr uint32_t kFrames = 2048;
  constexpr uint64_t kVpnTag = 1ull << 40;
  const int kThreads = StressThreads();
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 16;  // batches spill to NUMA constantly
  options.move_batch = 8;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames);

  std::vector<std::atomic<int>> owners(kFrames);
  for (auto& o : owners) {
    o.store(0);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> double_handout{false};
  std::atomic<bool> approx_overshoot{false};
  std::atomic<bool> bad_stamp{false};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (fl.ApproxFree() > kFrames) {
        approx_overshoot.store(true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      const int core = (t + 1) % CoreRegistry::kMaxCores;
      Rng rng(t * 7 + 3);
      std::vector<FrameId> batch;
      std::vector<ReuseStamp> stamps;
      for (int round = 0; round < 2000; round++) {
        const size_t want = 1 + rng.Uniform(48);
        while (batch.size() < want) {
          ReuseStamp stamp;
          FrameId f = fl.Alloc(core, &stamp);
          if (f == kInvalidFrame) {
            break;  // other threads hold the rest
          }
          if (owners[f].fetch_add(1, std::memory_order_acq_rel) != 0) {
            double_handout.store(true);
          }
          // Seeded frames carry no stamp; a batch-freed one carries its own.
          if (stamp.valid && stamp.vpn != kVpnTag + f) {
            bad_stamp.store(true);
          }
          batch.push_back(f);
          ReuseStamp own;
          own.vpn = kVpnTag + f;
          own.core = core;
          own.valid = true;
          stamps.push_back(own);
        }
        for (FrameId f : batch) {
          owners[f].fetch_sub(1, std::memory_order_acq_rel);
        }
        // Sometimes stamp only a prefix: the rest must come back unstamped.
        stamps.resize(rng.OneIn(2) ? stamps.size() : stamps.size() / 2);
        fl.FreeBatch(core, batch, stamps,
                     rng.OneIn(4) ? FreeLevel::kNuma : FreeLevel::kCoreFirst);
        batch.clear();
        stamps.clear();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_FALSE(double_handout.load()) << "a frame was allocated to two owners";
  EXPECT_FALSE(bad_stamp.load()) << "an allocation read another frame's stamp";
  EXPECT_FALSE(approx_overshoot.load()) << "ApproxFree exceeded true capacity";
  EXPECT_EQ(fl.ApproxFree(), kFrames);
  EXPECT_GT(fl.stats().batch_moves.load(), 0u);
  // Every frame is reachable: drain from every thread's core (core queues
  // are only reachable from their own core).
  std::vector<bool> seen(kFrames, false);
  uint32_t drained = 0;
  for (int t = 0; t <= kThreads; t++) {
    FrameId f;
    while ((f = fl.Alloc(t % CoreRegistry::kMaxCores)) != kInvalidFrame) {
      ASSERT_FALSE(seen[f]) << "frame " << f << " queued twice";
      seen[f] = true;
      drained++;
    }
  }
  EXPECT_EQ(drained, kFrames);
  EXPECT_EQ(fl.ApproxFree(), 0u);
}

// Per-core exhaustion -> NUMA refill -> remote steal: one hoarder empties
// everything, then threads pinned to cores of the *other* NUMA node free and
// re-alloc so every level of the hierarchy is crossed.
TEST(FreelistStressTest, CrossNumaStealUnderContention) {
  constexpr uint32_t kFrames = 1024;
  const int kThreads = StressThreads();
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 16;
  options.move_batch = 8;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames);

  // Drain the world from core 0 (NUMA node 0) — the tail of this loop is
  // remote steals from node 1's queue.
  std::vector<FrameId> hoard;
  FrameId f;
  while ((f = fl.Alloc(0)) != kInvalidFrame) {
    hoard.push_back(f);
  }
  ASSERT_EQ(hoard.size(), kFrames);
  EXPECT_GT(fl.stats().remote_hits.load(), 0u);
  EXPECT_EQ(fl.ApproxFree(), 0u);

  // Give each worker a disjoint slice of the hoard; workers free to odd
  // cores (node 1) and re-alloc from even cores (node 0), so every
  // successful re-alloc crossed core queue -> NUMA queue -> remote node.
  std::vector<std::atomic<int>> owners(kFrames);
  for (uint32_t i = 0; i < kFrames; i++) {
    owners[i].store(1);
  }
  std::atomic<bool> double_handout{false};
  std::vector<std::thread> threads;
  size_t slice = hoard.size() / kThreads;
  for (int t = 0; t < kThreads; t++) {
    size_t begin = t * slice;
    size_t end = (t == kThreads - 1) ? hoard.size() : begin + slice;
    threads.emplace_back([&, t, begin, end] {
      int free_core = 2 * t + 1;   // NUMA node 1
      int alloc_core = 2 * t + 2;  // NUMA node 0, empty core queue
      std::vector<FrameId> mine(hoard.begin() + begin, hoard.begin() + end);
      for (int round = 0; round < 50; round++) {
        for (FrameId id : mine) {
          owners[id].fetch_sub(1, std::memory_order_acq_rel);
          fl.Free(free_core % CoreRegistry::kMaxCores, id);
        }
        mine.clear();
        FrameId got;
        while (mine.size() < static_cast<size_t>(end - begin) &&
               (got = fl.Alloc(alloc_core % CoreRegistry::kMaxCores)) != kInvalidFrame) {
          ASSERT_LT(got, kFrames);
          if (owners[got].fetch_add(1, std::memory_order_acq_rel) != 0) {
            double_handout.store(true);
          }
          mine.push_back(got);
        }
      }
      for (FrameId id : mine) {
        owners[id].fetch_sub(1, std::memory_order_acq_rel);
        fl.Free(free_core % CoreRegistry::kMaxCores, id);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(double_handout.load());
  EXPECT_EQ(fl.ApproxFree(), kFrames);
  EXPECT_GT(fl.stats().batch_moves.load(), 0u);
}

// Aligned-run torture: AllocRun/FreeRun churning against single-frame
// Alloc/Free (which breaks runs under pressure), batch migration, and
// cross-NUMA run steals. Invariants: no frame is ever handed out twice
// (whether as part of a run or as a single), AllocRun results are always
// 2 MB-aligned in the anchor space, ApproxFree never exceeds capacity, and
// at quiescence every frame is back in the freelist.
TEST(FreelistStressTest, AlignedRunChurnNoDoubleHandout) {
  constexpr uint32_t kFrames = 8 * kRunFrames;
  constexpr uint64_t kAlignPage = 0;  // anchor already aligned
  const int kThreads = StressThreads();
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = 16;
  options.move_batch = 8;
  options.carve_runs = true;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames, kAlignPage);
  ASSERT_EQ(fl.ApproxFree(), kFrames);

  // Deterministic pre-pass: drain every run from core 0 — the runs seeded
  // round-robin onto node 1 come back as cross-NUMA steals — then return
  // them intact.
  {
    std::vector<FrameId> runs;
    FrameId first;
    while ((first = fl.AllocRun(0)) != kInvalidFrame) {
      ASSERT_EQ(first % kRunFrames, 0u);
      runs.push_back(first);
    }
    ASSERT_EQ(runs.size(), kFrames / kRunFrames);
    EXPECT_GT(fl.stats().run_steals.load(), 0u);
    for (FrameId r : runs) {
      fl.FreeRun(0, r);
    }
    ASSERT_EQ(fl.ApproxFree(), kFrames);
  }

  // owners[f] counts how many holders frame f has; it must never exceed 1.
  std::vector<std::atomic<int>> owners(kFrames);
  for (auto& o : owners) {
    o.store(0);
  }
  std::atomic<bool> double_handout{false};
  std::atomic<bool> stop{false};
  auto claim = [&](FrameId id) {
    ASSERT_LT(id, kFrames);
    if (owners[id].fetch_add(1, std::memory_order_acq_rel) != 0) {
      double_handout.store(true);
    }
  };
  auto release = [&](FrameId id) {
    owners[id].fetch_sub(1, std::memory_order_acq_rel);
  };

  // Sampler: ApproxFree is approximate but must never overshoot capacity
  // (run accounting bugs show up as phantom frames).
  std::atomic<bool> overshoot{false};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (fl.ApproxFree() > kFrames) {
        overshoot.store(true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      int core = t % CoreRegistry::kMaxCores;
      std::vector<FrameId> runs;    // held intact runs (first frame ids)
      std::vector<FrameId> singles; // held single frames
      for (int round = 0; round < 400; round++) {
        switch (round % 4) {
          case 0: {  // grab a run
            if (runs.size() < 2) {
              FrameId first = fl.AllocRun(core);
              if (first != kInvalidFrame) {
                ASSERT_EQ(first % kRunFrames, 0u);
                for (uint32_t i = 0; i < kRunFrames; i++) {
                  claim(first + i);
                }
                runs.push_back(first);
              }
            }
            break;
          }
          case 1: {  // return a run intact
            if (!runs.empty()) {
              FrameId first = runs.back();
              runs.pop_back();
              for (uint32_t i = 0; i < kRunFrames; i++) {
                release(first + i);
              }
              fl.FreeRun(core, first);
            }
            break;
          }
          case 2: {  // single-frame pressure (breaks runs when queues dry up)
            while (singles.size() < 64) {
              FrameId id = fl.Alloc(core);
              if (id == kInvalidFrame) {
                break;
              }
              claim(id);
              singles.push_back(id);
            }
            break;
          }
          default: {  // drain singles
            for (FrameId id : singles) {
              release(id);
              fl.Free(core, id);
            }
            singles.clear();
            break;
          }
        }
      }
      for (FrameId first : runs) {
        for (uint32_t i = 0; i < kRunFrames; i++) {
          release(first + i);
        }
        fl.FreeRun(core, first);
      }
      for (FrameId id : singles) {
        release(id);
        fl.Free(core, id);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_FALSE(double_handout.load());
  EXPECT_FALSE(overshoot.load());
  for (uint32_t i = 0; i < kFrames; i++) {
    ASSERT_EQ(owners[i].load(), 0) << "frame " << i;
  }
  // Everything came home: singles and surviving runs add back up exactly.
  EXPECT_EQ(fl.ApproxFree(), kFrames);
  EXPECT_GT(fl.stats().run_allocs.load(), 0u);
  EXPECT_GT(fl.stats().run_frees.load(), 0u);
  EXPECT_GT(fl.stats().runs_broken.load(), 0u);
}

// --- DirtyTreeSet + clock sweep ----------------------------------------------------

// Concurrent dirtying vs victim selection vs writeback collection on a real
// PageCache. Every dirty-state transition follows the production protocol:
// the caller first claims the frame (CAS kResident -> kFilling for faults,
// kResident -> kEvicting for eviction/writeback) — MarkDirty/ClearDirty on
// the SAME frame are serialized by that claim, exactly as the fault handler
// and msync do it; what this test hammers is everything the claim does NOT
// serialize: the per-core tree spinlocks, CollectBatch racing Insert/Remove
// of other frames, and the claim CASes themselves. The invariant is
// structural: no crash, no RB-tree corruption, and at quiescence the dirty
// count equals the number of frames whose dirty flag is set.
TEST(DirtyStressTest, ConcurrentDirtyingVsSweepAndCollect) {
  Hypervisor::Options hv_options;
  hv_options.host_memory_bytes = 64ull << 20;
  hv_options.chunk_size = 1ull << 20;
  Hypervisor hv(hv_options);
  int guest = hv.CreateGuest();
  Vcpu vcpu{0};
  PageCache::Options options;
  options.capacity_pages = 512;
  options.max_pages = 512;
  PageCache cache(&hv, guest, vcpu, options);

  // Materialize every frame as resident with a unique key, like a warmed
  // cache. vaddr stays 0 (readahead-style), so SelectVictims may claim any
  // frame without a VMA entry lock — exactly the hostile case the frame
  // ownership-handoff protocol must survive.
  std::vector<FrameId> frames;
  FrameId f;
  while ((f = cache.AllocFrame(vcpu, 0)) != kInvalidFrame) {
    Frame& fr = cache.frame(f);
    fr.key.store(0x100 + f, std::memory_order_relaxed);
    fr.state.store(FrameState::kResident, std::memory_order_release);
    frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 512u);

  const int kThreads = StressThreads();
  std::atomic<bool> stop{false};

  // Sweeper: claim eviction batches like the real evictor (victims arrive in
  // kEvicting), write them "back" (ClearDirty under the claim) and release.
  std::thread sweeper([&] {
    std::vector<FrameId> victims(64);
    while (!stop.load(std::memory_order_acquire)) {
      size_t n = cache.SelectVictims(victims.size(), victims.data());
      for (size_t i = 0; i < n; i++) {
        cache.ClearDirty(victims[i]);
        cache.frame(victims[i]).state.store(FrameState::kResident,
                                            std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });

  // Collector: drain dirty batches (unlinks items, flags stay set), then
  // claim each frame msync-style before clearing its flag. The spin is
  // bounded: every other claimant releases promptly.
  std::thread collector([&] {
    std::vector<FrameId> batch(128);
    int core = 0;
    while (!stop.load(std::memory_order_acquire)) {
      size_t n = cache.CollectDirtyBatch(core, batch.size(), batch.data());
      for (size_t i = 0; i < n; i++) {
        Frame& fr = cache.frame(batch[i]);
        SpinBackoff backoff;
        FrameState expected = FrameState::kResident;
        while (!fr.state.compare_exchange_weak(expected, FrameState::kEvicting,
                                               std::memory_order_acq_rel)) {
          expected = FrameState::kResident;
          backoff.Pause();
        }
        cache.ClearDirty(batch[i]);
        fr.state.store(FrameState::kResident, std::memory_order_release);
      }
      core = (core + 1) % CoreRegistry::kMaxCores;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      Rng rng(t * 104729 + 7);
      int core = t % CoreRegistry::kMaxCores;
      for (int i = 0; i < 20000; i++) {
        FrameId id = frames[rng.Uniform(frames.size())];
        Frame& fr = cache.frame(id);
        // Fault-path pin: only touch dirty state while owning the frame.
        FrameState expected = FrameState::kResident;
        if (!fr.state.compare_exchange_strong(expected, FrameState::kFilling,
                                              std::memory_order_acq_rel)) {
          continue;  // sweeper/collector owns it right now
        }
        if (rng.OneIn(4)) {
          cache.ClearDirty(id);
        } else {
          cache.MarkDirty(core, id, fr.key.load(std::memory_order_relaxed) * kPageSize);
        }
        fr.state.store(FrameState::kResident, std::memory_order_release);
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  sweeper.join();
  collector.join();

  // Quiescent consistency: linked items == set dirty flags.
  size_t flagged = 0;
  for (FrameId id : frames) {
    flagged += cache.frame(id).dirty.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(cache.TotalDirty(), flagged);
  // And the structure still works: clear everything, tree must empty out.
  for (FrameId id : frames) {
    cache.ClearDirty(id);
  }
  EXPECT_EQ(cache.TotalDirty(), 0u);
}

// --- Full pipeline -----------------------------------------------------------------

// fault -> evict -> writeback -> shootdown from N threads on a shared map 2x
// the cache, with msync and madvise(DONTNEED) folded into the mix. Each
// thread syncs/drops only its own offset slice (concurrent msync of a range
// another thread is storing to races by *mmap semantics*; the runtime's own
// structures must still be clean, which the TSan variant checks). A second
// mapping on a second device shares the cache, so faults on either mapping
// evict and write back the other's dirty pages: the reclaim pipeline runs
// across owners and backings.
TEST(PipelineStressTest, FaultEvictWritebackShootdownTorture) {
  constexpr uint64_t kDeviceBytes = 16ull << 20;
  constexpr uint64_t kCachePages = 1024;  // map is 2x this
  const int kThreads = StressThreads();

  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = kDeviceBytes;
  PmemDevice device(dev_options);
  PmemDevice device2(dev_options);
  for (uint64_t i = 0; i < kDeviceBytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i * 131 + 17);
  }

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 128ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  options.cache.capacity_pages = kCachePages;
  options.cache.max_pages = kCachePages * 2;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  Aquila runtime(options);

  constexpr uint64_t kBytes = 8ull << 20;  // 2x cache
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  constexpr uint64_t kBytes2 = 2ull << 20;  // half the cache
  DeviceBacking backing2(&device2, 0, kBytes2);
  StatusOr<MemoryMap*> map2 = runtime.Map(&backing2, kBytes2, kProtRead | kProtWrite);
  ASSERT_TRUE(map2.ok());

  const uint64_t pages = kBytes / kPageSize;
  const uint64_t pages2 = kBytes2 / kPageSize;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime.EnterThread();
      Rng rng(t * 6151 + 13);
      // Thread-private slice for msync/madvise: pages [t*stride, (t+1)*stride).
      const uint64_t stride = pages / static_cast<uint64_t>(kThreads);
      const uint64_t slice_lo = t * stride * kPageSize;
      const uint64_t slice_bytes = stride * kPageSize;
      for (int i = 0; i < 3000; i++) {
        // One store in four lands on the second mapping, dirtying pages the
        // first mapping's faults then evict (and vice versa).
        const bool second = rng.OneIn(4);
        MemoryMap* target = second ? *map2 : *map;
        uint64_t page = rng.Uniform(second ? pages2 : pages);
        uint64_t off = page * kPageSize + 64 + 8 * static_cast<uint64_t>(t);
        uint64_t value = (static_cast<uint64_t>(t) << 56) | (page * 2654435761ull);
        target->StoreValue<uint64_t>(off, value);
        if (target->LoadValue<uint64_t>(off) != value) {
          corrupt.store(true);
        }
        // Shared read-only byte must keep the device pattern forever, across
        // any number of evictions/writebacks/refills under it.
        uint64_t probe = rng.Uniform(pages) * kPageSize + 4000;
        if ((*map)->LoadValue<uint8_t>(probe) !=
            static_cast<uint8_t>(probe * 131 + 17)) {
          corrupt.store(true);
        }
        if (i % 256 == 255) {
          ASSERT_TRUE((*map)->Sync(slice_lo, slice_bytes).ok());
        }
        if (i % 512 == 511) {
          // Drop a quarter of the slice, then fault it back in sequentially
          // (exercises readahead frames, the lock-free-evictable kind).
          ASSERT_TRUE((*map)
                          ->Advise(slice_lo, slice_bytes / 4, Advice::kDontNeed)
                          .ok());
          ASSERT_TRUE((*map)
                          ->Advise(slice_lo, slice_bytes / 4, Advice::kSequential)
                          .ok());
          for (uint64_t p = 0; p < stride / 4; p++) {
            (*map)->TouchRead(slice_lo + p * kPageSize);
          }
        }
      }
      // Final sync of the slice so Unmap's flush has company.
      ASSERT_TRUE((*map)->Sync(slice_lo, slice_bytes).ok());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime.fault_stats().writeback_pages.load(), 0u);
  // The second mapping is never synced, so its device writes before Unmap
  // come from eviction, mostly driven by faults on the first mapping.
  EXPECT_GT(device2.stats().writes.load(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map2).ok());
  ASSERT_TRUE(runtime.Unmap(*map).ok());

  // Durability spot-check: every thread's last store to its slice pages was
  // synced or flushed by Unmap; private slots must be on the device now.
  // (Exact values are rechecked per-thread above; here just confirm the
  // device no longer holds the pristine pattern everywhere.)
  bool any_written = false;
  for (uint64_t page = 0; page < pages && !any_written; page++) {
    uint64_t off = page * kPageSize + 64;
    if (std::memcmp(device.dax_base() + off, "\0\0\0\0\0\0\0\0", 8) != 0) {
      uint8_t pristine[8];
      for (int b = 0; b < 8; b++) {
        pristine[b] = static_cast<uint8_t>((off + b) * 131 + 17);
      }
      any_written = std::memcmp(device.dax_base() + off, pristine, 8) != 0;
    }
  }
  EXPECT_TRUE(any_written);
  // The second mapping's stores reached its device, written back by
  // eviction or flushed by Unmap.
  bool second_written = false;
  for (uint64_t page = 0; page < pages2 && !second_written; page++) {
    for (int t = 0; t < kThreads && !second_written; t++) {
      uint64_t stored;
      std::memcpy(&stored, device2.dax_base() + page * kPageSize + 64 + 8 * t, 8);
      second_written = stored == ((static_cast<uint64_t>(t) << 56) | (page * 2654435761ull));
    }
  }
  EXPECT_TRUE(second_written);
}

// Cooperative-mode pass over the same pipeline: the async engine plus the
// park-and-resume scheduler (src/core/sched.h). Each thread drives batched
// SubmitBatch/Poll requests — which park at in-flight fills, kWritingBack
// pins, and demand reads — interleaved with blocking stores, msync, and
// madvise churn on its own mapping, all sharing one undersized cache so
// parked fills race eviction and async writebacks from every core. The
// batch surface is per-thread by contract, so each thread gets its own map
// over a disjoint device slice; the cache, freelist, engine queues, and
// scheduler wake path are the shared state under torture.
TEST(PipelineStressTest, CooperativeBatchPipelineTorture) {
  const int kThreads = StressThreads();
  constexpr uint64_t kSliceBytes = 2ull << 20;
  const uint64_t kDeviceBytes = static_cast<uint64_t>(kThreads) * kSliceBytes;

  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = kDeviceBytes;
  PmemDevice device(dev_options);
  for (uint64_t i = 0; i < kDeviceBytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i * 131 + 17);
  }

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 128ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  // Half the combined slices fit: every thread's batches run under
  // eviction pressure and submit async writebacks of other threads' dirt.
  options.cache.capacity_pages = kDeviceBytes / kPageSize / 2;
  options.cache.max_pages = options.cache.capacity_pages * 2;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  options.async_writeback = true;
  options.coop_sched = true;
  Aquila runtime(options);

  std::atomic<bool> corrupt{false};
  std::atomic<uint64_t> completions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime.EnterThread();
      DeviceBacking backing(&device, t * kSliceBytes, kSliceBytes);
      StatusOr<MemoryMap*> map =
          runtime.Map(&backing, kSliceBytes, kProtRead | kProtWrite);
      ASSERT_TRUE(map.ok());
      const uint64_t pages = kSliceBytes / kPageSize;
      ASSERT_TRUE((*map)->Advise(0, kSliceBytes, Advice::kRandom).ok());
      Rng rng(t * 6151 + 13);
      std::vector<MmioRequest> batch;
      std::vector<MmioCompletion> done(16);
      for (int i = 0; i < 600; i++) {
        // A batch of random touches: reads park on demand fills, writes
        // additionally hit kWritingBack pins left by eviction.
        batch.clear();
        const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(8));
        for (uint32_t j = 0; j < n; j++) {
          MmioRequest req;
          req.kind = rng.OneIn(4) ? MmioRequest::Kind::kWrite : MmioRequest::Kind::kRead;
          req.offset = rng.Uniform(pages) * kPageSize;
          req.user_tag = j;
          batch.push_back(req);
        }
        ASSERT_TRUE((*map)->SubmitBatch(std::span(batch.data(), n)).ok());
        uint32_t reaped = 0;
        while (reaped < n) {
          size_t got = (*map)->Poll(std::span(done.data(), n - reaped));
          ASSERT_GT(got, 0u);
          for (size_t c = 0; c < got; c++) {
            if (!done[c].status.ok()) {
              corrupt.store(true);
            }
          }
          reaped += static_cast<uint32_t>(got);
        }
        completions.fetch_add(n, std::memory_order_relaxed);
        // Blocking ops interleaved on the same map: private slot integrity
        // across parks, plus the shared read-only device pattern.
        uint64_t page = rng.Uniform(pages);
        uint64_t off = page * kPageSize + 64;
        uint64_t value = (static_cast<uint64_t>(t) << 56) | (page * 2654435761ull);
        (*map)->StoreValue<uint64_t>(off, value);
        if ((*map)->LoadValue<uint64_t>(off) != value) {
          corrupt.store(true);
        }
        uint64_t probe = rng.Uniform(pages) * kPageSize + 4000;
        uint64_t dev_off = t * kSliceBytes + probe;
        if ((*map)->LoadValue<uint8_t>(probe) !=
            static_cast<uint8_t>(dev_off * 131 + 17)) {
          corrupt.store(true);
        }
        if (i % 128 == 127) {
          ASSERT_TRUE((*map)->Sync(0, kSliceBytes).ok());
        }
        if (i % 192 == 191) {
          ASSERT_TRUE((*map)->Advise(0, kSliceBytes / 4, Advice::kDontNeed).ok());
          ASSERT_TRUE((*map)->Advise(0, kSliceBytes, Advice::kRandom).ok());
        }
      }
      ASSERT_TRUE((*map)->Sync(0, kSliceBytes).ok());
      ASSERT_TRUE(runtime.Unmap(*map).ok());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(completions.load(), 0u);
  ASSERT_NE(runtime.sched(), nullptr);
  EXPECT_GT(runtime.sched()->parked_total.load(), 0u);
  // Every consumed park was committed; KickParked may cancel (not resume) a
  // committed park whose completion raced in late, so <= rather than ==.
  EXPECT_LE(runtime.sched()->resumed_total.load(), runtime.sched()->parked_total.load());
  EXPECT_GT(runtime.sched()->resumed_total.load(), 0u);
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime.fault_stats().writeback_pages.load(), 0u);
}

// Mask-publication ordering torture (DESIGN.md §10): fault-path
// NoteTlbInsert races eviction/madvise shootdowns that capture each victim
// frame's cpu_mask/tlb_epoch, under mask+gen targeting with more simulated
// active cores than worker threads so both the mask and the generation
// elisions fire constantly. Data integrity proves no shootdown was lost to a
// mis-captured mask (the TLB is statistical, so a stale *entry* is benign,
// but a stale *byte* would mean the eviction pipeline broke); the counter
// invariants pin the fan-out accounting. The TSan variant runs this too —
// the mask protocol is lock-free by design and must be exactly-annotated
// atomics all the way down.
TEST(PipelineStressTest, MaskedShootdownVsFaultInsertTorture) {
  constexpr uint64_t kDeviceBytes = 16ull << 20;
  constexpr uint64_t kCachePages = 1024;  // map is 2x this
  const int kThreads = StressThreads();
  const int kActiveCores = CoreRegistry::kMaxCores / 4;  // 16 > kThreads

  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = kDeviceBytes;
  PmemDevice device(dev_options);
  for (uint64_t i = 0; i < kDeviceBytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i * 197 + 5);
  }

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 128ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  options.cache.capacity_pages = kCachePages;
  options.cache.max_pages = kCachePages * 2;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  options.active_cores = kActiveCores;
  options.shootdown_mask_mode = ShootdownMaskMode::kMaskGen;
  Aquila runtime(options);

  constexpr uint64_t kBytes = 8ull << 20;  // 2x cache: constant eviction
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  const uint64_t pages = kBytes / kPageSize;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime.EnterThread();
      Rng rng(t * 9973 + 7);
      const uint64_t stride = pages / static_cast<uint64_t>(kThreads);
      const uint64_t slice_lo = t * stride * kPageSize;
      for (int i = 0; i < 3000; i++) {
        // Hot re-faulting: reads re-Insert TLB entries (setting mask bits)
        // on pages an evictor may be capturing the mask of right now.
        uint64_t probe = rng.Uniform(pages) * kPageSize + 512;
        if ((*map)->LoadValue<uint8_t>(probe) !=
            static_cast<uint8_t>((probe)*197 + 5)) {
          corrupt.store(true);
        }
        if (i % 128 == 127) {
          // madvise(DONTNEED) over a private slice quarter: the third
          // shootdown path capturing masks under claim + entry lock.
          ASSERT_TRUE((*map)
                          ->Advise(slice_lo, stride * kPageSize / 4, Advice::kDontNeed)
                          .ok());
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  const uint64_t shootdowns = runtime.tlb().shootdowns();
  EXPECT_GT(shootdowns, 0u);
  // With 4x more simulated cores than faulting threads, most remote targets
  // never mapped anything: the mask protocol must elide them.
  EXPECT_GT(runtime.tlb().ipis_elided(), 0u);
  // Every remote core of every non-empty batch is either sent-to or elided;
  // at least active_cores-1 remotes exist per shootdown (exactly that many
  // when the initiator lies inside [0, active_cores)).
  EXPECT_GE(runtime.tlb().ipis_sent() + runtime.tlb().ipis_elided(),
            shootdowns * static_cast<uint64_t>(kActiveCores - 1));
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// The same fault -> evict -> writeback -> shootdown torture with the async
// overlapped pipeline on: eviction submits to the NVMe device queue, dirty
// frames ride in kWritingBack across concurrent faults, completions reap on
// other threads' fault paths, and msync/unmap drain mid-flight. The TSan
// variant runs this too (the whole point: the new states and the engine lock
// must be race-free under adversarial schedules).
TEST(PipelineStressTest, AsyncFaultEvictWritebackTorture) {
  constexpr uint64_t kDeviceBytes = 16ull << 20;
  constexpr uint64_t kCachePages = 1024;  // map is 2x this
  const int kThreads = StressThreads();

  NvmeController::Options ctrl_options;
  ctrl_options.capacity_bytes = kDeviceBytes;
  NvmeController ctrl(ctrl_options);
  NvmeDevice device(&ctrl);
  {
    Vcpu fill_vcpu(0);
    std::vector<uint8_t> buf(kPageSize);
    for (uint64_t page = 0; page < kDeviceBytes / kPageSize; page++) {
      for (uint64_t i = 0; i < kPageSize; i++) {
        buf[i] = static_cast<uint8_t>((page * kPageSize + i) * 131 + 17);
      }
      ASSERT_TRUE(device.Write(fill_vcpu, page * kPageSize,
                               std::span<const uint8_t>(buf)).ok());
    }
  }

  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 128ull << 20;
  options.hypervisor.chunk_size = 1ull << 20;
  options.cache.capacity_pages = kCachePages;
  options.cache.max_pages = kCachePages * 2;
  options.cache.eviction_batch = 64;
  options.cache.freelist.core_queue_threshold = 64;
  options.cache.freelist.move_batch = 32;
  options.async_writeback = true;
  options.async_queue_depth = 32;
  Aquila runtime(options);

  constexpr uint64_t kBytes = 8ull << 20;  // 2x cache
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  const uint64_t pages = kBytes / kPageSize;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime.EnterThread();
      Rng rng(t * 7919 + 29);
      const uint64_t stride = pages / static_cast<uint64_t>(kThreads);
      const uint64_t slice_lo = t * stride * kPageSize;
      const uint64_t slice_bytes = stride * kPageSize;
      for (int i = 0; i < 2000; i++) {
        uint64_t page = rng.Uniform(pages);
        uint64_t off = page * kPageSize + 64 + 8 * static_cast<uint64_t>(t);
        uint64_t value = (static_cast<uint64_t>(t) << 56) | (page * 2654435761ull);
        (*map)->StoreValue<uint64_t>(off, value);
        if ((*map)->LoadValue<uint64_t>(off) != value) {
          corrupt.store(true);
        }
        uint64_t probe = rng.Uniform(pages) * kPageSize + 4000;
        if ((*map)->LoadValue<uint8_t>(probe) !=
            static_cast<uint8_t>(probe * 131 + 17)) {
          corrupt.store(true);
        }
        if (i % 256 == 255) {
          ASSERT_TRUE((*map)->Sync(slice_lo, slice_bytes).ok());
        }
        if (i % 512 == 511) {
          ASSERT_TRUE((*map)
                          ->Advise(slice_lo, slice_bytes / 4, Advice::kDontNeed)
                          .ok());
          ASSERT_TRUE((*map)
                          ->Advise(slice_lo, slice_bytes / 4, Advice::kSequential)
                          .ok());
          for (uint64_t p = 0; p < stride / 4; p++) {
            (*map)->TouchRead(slice_lo + p * kPageSize);
          }
        }
      }
      ASSERT_TRUE((*map)->Sync(slice_lo, slice_bytes).ok());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime.fault_stats().writeback_pages.load(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
  // Unmap drained every engine: the cache must be whole again.
  EXPECT_EQ(runtime.cache().ApproxFreeFrames(), kCachePages);
}

}  // namespace
}  // namespace aquila
