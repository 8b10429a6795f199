// ShootdownMaskMode::kReuseElide: deferred shootdowns on the frame-recycle
// path (DESIGN.md §10).
//
// Exact-count units pin the counter semantics (one elide per same-owner
// reuse, one mismatch per cross-owner handout), the teardown drain, and the
// TLB-entry effects of each resolution. The stale-translation detector
// walks every core's TLB slots at quiesce and checks the §10 safety
// invariant directly: a valid entry must either match the live PTE for its
// vpn or be covered by a pending deferral for the same (vpn, frame) whose
// mask names the core — i.e. no entry can reach a frame owned by a
// different (region, vaddr) incarnation. The churn stress runs the detector
// after an adversarial mix of eviction pressure, transient drops, and
// madvise(DONTNEED); the TSan build runs this file too, and a
// -DAQUILA_RACE_INJECT=ON build stretches the FreeFrame reset -> freelist
// publish window the stamped recycle protocol depends on (the satellite
// ordering assert lives in PageCache::AllocFrame).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

// The §10 deferred-shootdown safety invariant, checked entry by entry.
// Meaningful only at quiesce (no concurrent faults/evictions): the frame
// payload rides a relaxed parallel array.
void ExpectNoStaleTranslations(Aquila& runtime) {
  TlbSet& tlb = runtime.tlb();
  for (int core = 0; core < CoreRegistry::kMaxCores; core++) {
    for (int slot = 0; slot < TlbSet::kEntries; slot++) {
      TlbSet::EntrySnapshot snap = tlb.ReadEntryForTest(core, slot);
      if (!snap.valid || snap.frame == TlbSet::kNoFramePayload) {
        continue;
      }
      // PTEs carry the frame id shifted up (the install path's "gpa"), so
      // agreement means the entry resolves to the frame the PTE maps today.
      uint64_t pte = runtime.page_table().Lookup(snap.vpn << kPageShift);
      if (Pte::Present(pte) && (Pte::Gpa(pte) >> kPageShift) == snap.frame) {
        continue;  // live translation: entry and PTE agree on the frame
      }
      DeferredShootdown d;
      if (tlb.PeekDeferred(snap.vpn, &d) && d.frame == snap.frame &&
          (d.cpu_mask & (1ull << (core & 63))) != 0) {
        // Deferral window: the frame is free but still holds this (region,
        // vpn) incarnation's clean bytes, and the parked shootdown names
        // this core — the entry is stale-but-benign by construction.
        continue;
      }
      ADD_FAILURE() << "stale translation: core " << core << " slot " << slot
                    << " vpn " << snap.vpn << " -> frame " << snap.frame
                    << " has neither a matching PTE nor a covering deferral"
                    << " (pte=0x" << std::hex << pte << std::dec
                    << " deferred=" << tlb.PeekDeferred(snap.vpn, &d) << ")";
    }
  }
}

class ReuseElideTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 32ull << 20;

  void MakeRuntime(uint64_t cache_pages, int active_cores) {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = kDeviceBytes;
    device_ = std::make_unique<PmemDevice>(dev_options);
    for (uint64_t i = 0; i < kDeviceBytes; i++) {
      device_->dax_base()[i] = static_cast<uint8_t>(i * 131 + 17);
    }
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 128ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = cache_pages;
    options.cache.max_pages = cache_pages * 2;
    options.cache.eviction_batch = 64;
    options.cache.freelist.core_queue_threshold = 64;
    options.cache.freelist.move_batch = 32;
    options.active_cores = active_cores;
    options.shootdown_mask_mode = ShootdownMaskMode::kReuseElide;
    runtime_ = std::make_unique<Aquila>(options);
  }

  // Runs `body` on a worker pinned to core 0 so mask/counter expectations
  // are deterministic regardless of the gtest main thread's core id.
  template <typename Fn>
  void OnCore0(Fn body) {
    std::thread worker([&] {
      CoreRegistry::SetCurrentCoreForTest(0);
      runtime_->EnterThread();
      body();
    });
    worker.join();
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<Aquila> runtime_;
};

// touch P -> drop P -> touch P: the refault pops the just-freed frame (core
// queues are LIFO), the stamp matches the deferral, and the shootdown is
// elided outright — no Shootdown round ever runs, the stale TLB entry
// becomes live-correct again, and the counters move exactly once.
TEST_F(ReuseElideTest, SameOwnerReuseElidesExactlyOnce) {
  MakeRuntime(/*cache_pages=*/1024, /*active_cores=*/4);
  DeviceBacking backing(device_.get(), 0, 4ull << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 4ull << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
  constexpr uint64_t kOffset = 37 * kPageSize;
  OnCore0([&] {
    ASSERT_TRUE((*map)->Advise(0, (*map)->length(), Advice::kRandom).ok());
    (*map)->TouchRead(kOffset + 64);
    ASSERT_TRUE((*map)->Advise(kOffset, kPageSize, Advice::kDontNeed).ok());
    EXPECT_EQ(runtime_->tlb().deferred_pending(), 1u);
    // The drop itself must not have flushed anything: the batch was empty.
    EXPECT_EQ(runtime_->tlb().shootdowns(), 0u);
    (*map)->TouchRead(kOffset + 64);
  });
  EXPECT_EQ(runtime_->tlb().reuse_elided(), 1u);
  EXPECT_EQ(runtime_->tlb().reuse_mismatch(), 0u);
  EXPECT_EQ(runtime_->tlb().shootdowns(), 0u);
  EXPECT_EQ(runtime_->tlb().deferred_pending(), 0u);
  // The elision re-legitimized the entry: it must match the live PTE again.
  const uint64_t vpn = start_page + kOffset / kPageSize;
  TlbSet::EntrySnapshot snap =
      runtime_->tlb().ReadEntryForTest(0, static_cast<int>(vpn) & (TlbSet::kEntries - 1));
  EXPECT_TRUE(snap.valid);
  EXPECT_EQ(snap.vpn, vpn);
  ExpectNoStaleTranslations(*runtime_);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// One drop over unstamped read-ahead frames followed by deferred mapped
// pages: the batch frees every frame in one chain, and each deferral's
// stamp must travel with its own frame, not with an earlier frame of the
// batch (the read-ahead frames carry no stamp).
TEST_F(ReuseElideTest, DropBatchStampsLandOnTheirOwnFrames) {
  MakeRuntime(/*cache_pages=*/256, /*active_cores=*/4);
  DeviceBacking backing(device_.get(), 0, 4ull << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 4ull << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
  OnCore0([&] {
    // Page 10 maps and reads pages 11.. ahead without translations.
    ASSERT_TRUE((*map)->Advise(0, (*map)->length(), Advice::kSequential).ok());
    (*map)->TouchRead(10 * kPageSize);
    ASSERT_TRUE((*map)->Advise(0, (*map)->length(), Advice::kRandom).ok());
    std::map<uint64_t, FrameId> frame_of_vpn;  // the deferred pages
    for (uint64_t page : {30, 31, 32}) {
      (*map)->TouchRead(page * kPageSize);
      uint64_t vpn = start_page + page;
      uint64_t pte = runtime_->page_table().Lookup(vpn << kPageShift);
      ASSERT_TRUE(Pte::Present(pte));
      frame_of_vpn[vpn] = static_cast<FrameId>(Pte::Gpa(pte) >> kPageShift);
    }
    ASSERT_TRUE((*map)->Advise(11 * kPageSize, 22 * kPageSize, Advice::kDontNeed).ok());
    ASSERT_EQ(runtime_->tlb().deferred_pending(), frame_of_vpn.size());

    PageCache& cache = runtime_->cache();
    std::vector<std::pair<FrameId, ReuseStamp>> drained;
    ReuseStamp stamp;
    FrameId frame;
    while ((frame = cache.AllocFrame(ThisVcpu(), 0, &stamp)) != kInvalidFrame) {
      drained.emplace_back(frame, stamp);
    }
    size_t stamped = 0;
    for (const auto& [id, got] : drained) {
      if (got.deferred) {
        stamped++;
        EXPECT_EQ(id, frame_of_vpn[got.vpn]) << "stamp for vpn " << got.vpn;
      }
      cache.FreeFrame(0, id, got);  // hand deferred stamps back untouched
    }
    EXPECT_EQ(stamped, frame_of_vpn.size());
  });
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// touch P -> drop P -> touch Q: the freed frame is handed to a different
// owner, so the parked shootdown must execute (one mismatch) and P's stale
// entry must be gone before Q's translation goes live on the frame.
TEST_F(ReuseElideTest, CrossOwnerHandoutExecutesExactlyOnce) {
  MakeRuntime(/*cache_pages=*/1024, /*active_cores=*/4);
  DeviceBacking backing(device_.get(), 0, 4ull << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 4ull << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  const uint64_t start_page = static_cast<AquilaMap*>(*map)->vma().start_page;
  constexpr uint64_t kDropOffset = 11 * kPageSize;
  constexpr uint64_t kOtherOffset = 200 * kPageSize;
  OnCore0([&] {
    ASSERT_TRUE((*map)->Advise(0, (*map)->length(), Advice::kRandom).ok());
    (*map)->TouchRead(kDropOffset + 64);
    ASSERT_TRUE((*map)->Advise(kDropOffset, kPageSize, Advice::kDontNeed).ok());
    EXPECT_EQ(runtime_->tlb().deferred_pending(), 1u);
    (*map)->TouchRead(kOtherOffset + 64);
  });
  EXPECT_EQ(runtime_->tlb().reuse_elided(), 0u);
  EXPECT_EQ(runtime_->tlb().reuse_mismatch(), 1u);
  EXPECT_EQ(runtime_->tlb().deferred_pending(), 0u);
  // The executed deferral must have invalidated P's entry on core 0 (the
  // slot either went empty or was re-used by another vpn).
  const uint64_t dropped_vpn = start_page + kDropOffset / kPageSize;
  TlbSet::EntrySnapshot snap = runtime_->tlb().ReadEntryForTest(
      0, static_cast<int>(dropped_vpn) & (TlbSet::kEntries - 1));
  EXPECT_TRUE(!snap.valid || snap.vpn != dropped_vpn);
  ExpectNoStaleTranslations(*runtime_);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// A deferral still parked at Unmap is drained into the teardown batch: it
// counts as neither an elide nor a mismatch, and nothing leaks.
TEST_F(ReuseElideTest, TeardownDrainsParkedDeferrals) {
  MakeRuntime(/*cache_pages=*/1024, /*active_cores=*/4);
  DeviceBacking backing(device_.get(), 0, 4ull << 20);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 4ull << 20, kProtRead);
  ASSERT_TRUE(map.ok());
  OnCore0([&] {
    ASSERT_TRUE((*map)->Advise(0, (*map)->length(), Advice::kRandom).ok());
    // Touch first, drop second: a drop-then-touch interleaving would hand
    // each dropped frame to the next page's fault (a counted mismatch).
    for (int i = 0; i < 8; i++) {
      (*map)->TouchRead(static_cast<uint64_t>(i) * kPageSize + 64);
    }
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(
          (*map)->Advise(static_cast<uint64_t>(i) * kPageSize, kPageSize, Advice::kDontNeed)
              .ok());
    }
  });
  EXPECT_EQ(runtime_->tlb().deferred_pending(), 8u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
  EXPECT_EQ(runtime_->tlb().deferred_pending(), 0u);
  EXPECT_EQ(runtime_->tlb().reuse_elided(), 0u);
  EXPECT_EQ(runtime_->tlb().reuse_mismatch(), 0u);
  ExpectNoStaleTranslations(*runtime_);
}

// The masked Shootdown's epoch-sanity rule (a capture can never carry an
// epoch from the future; the broadcast default ~0 is the documented
// exception) exercised directly on a bare TlbSet.
TEST(TlbEpochCaptureTest, BroadcastDefaultAndPastEpochsAccepted) {
  TlbSet tlb;
  SimClock clock;
  PostedIpiFabric fabric;
  tlb.Insert(0, 100, false);
  tlb.Insert(1, 100, false);
  tlb.FlushCore(1);  // epoch -> 1
  // Default-initialized rows are broadcast-equivalent: mask ~0, epoch ~0.
  PageShootdown broadcast_row{100, ~0ull, ~0ull};
  tlb.Shootdown(clock, 0, 2, std::span<const PageShootdown>(&broadcast_row, 1), fabric,
                ShootdownMaskMode::kMaskGen);
  // A properly captured row carries an epoch no newer than the global one.
  PageShootdown captured{100, 0b11, tlb.CurrentEpoch()};
  tlb.Shootdown(clock, 0, 2, std::span<const PageShootdown>(&captured, 1), fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_EQ(tlb.shootdowns(), 2u);
}

// Multi-threaded churn: eviction pressure (2x cache), transient drops (the
// elision's target pattern), DONTNEED slices, and cross-thread frame
// stealing, followed by the detector at quiesce. Data integrity doubles as
// the end-to-end proof that no elision ever skipped a flush it owed: a
// wrong byte would mean a core read through a translation whose frame had
// been handed to another owner. Also the satellite-1 stress: every
// AllocFrame under this churn re-asserts the FreeFrame reset -> release
// publish ordering (stamped recycles included).
TEST_F(ReuseElideTest, ChurnDetectorFindsNoStaleTranslations) {
  constexpr int kThreads = 4;
  constexpr uint64_t kBytesPerThread = 2ull << 20;
  MakeRuntime(/*cache_pages=*/(kThreads * kBytesPerThread / kPageSize) / 2,
              /*active_cores=*/kThreads);

  std::vector<std::unique_ptr<DeviceBacking>> backings;
  std::vector<MemoryMap*> maps(kThreads);
  for (int t = 0; t < kThreads; t++) {
    backings.push_back(std::make_unique<DeviceBacking>(
        device_.get(), static_cast<uint64_t>(t) * kBytesPerThread, kBytesPerThread));
    StatusOr<MemoryMap*> map =
        runtime_->Map(backings.back().get(), kBytesPerThread, kProtRead);
    ASSERT_TRUE(map.ok());
    maps[t] = *map;
  }

  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      CoreRegistry::SetCurrentCoreForTest(t);
      runtime_->EnterThread();
      MemoryMap* map = maps[t];
      ASSERT_TRUE(map->Advise(0, map->length(), Advice::kRandom).ok());
      Rng rng(t * 6151 + 3);
      const uint64_t pages = map->length() / kPageSize;
      const uint64_t dev_base = static_cast<uint64_t>(t) * kBytesPerThread;
      for (int i = 0; i < 4000; i++) {
        uint64_t off = rng.Uniform(pages) * kPageSize + 512;
        uint8_t value = 0;
        ASSERT_TRUE(map->Read(off, std::span<uint8_t>(&value, 1)).ok());
        if (value != static_cast<uint8_t>((dev_base + off) * 131 + 17)) {
          corrupt.store(true);
        }
        if (i % 16 == 15) {
          // Transient drop of the page just read: the refault is the
          // same-owner reuse the elision targets.
          ASSERT_TRUE(map->Advise(off & ~(kPageSize - 1), kPageSize, Advice::kDontNeed).ok());
          ASSERT_TRUE(map->Read(off, std::span<uint8_t>(&value, 1)).ok());
          if (value != static_cast<uint8_t>((dev_base + off) * 131 + 17)) {
            corrupt.store(true);
          }
        }
        if (i % 512 == 511) {
          ASSERT_TRUE(map->Advise(0, map->length() / 4, Advice::kDontNeed).ok());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  EXPECT_GT(runtime_->tlb().reuse_elided(), 0u);
  EXPECT_GT(runtime_->tlb().reuse_mismatch(), 0u);
  ExpectNoStaleTranslations(*runtime_);
  for (MemoryMap* map : maps) {
    ASSERT_TRUE(runtime_->Unmap(map).ok());
  }
  EXPECT_EQ(runtime_->tlb().deferred_pending(), 0u);
}

}  // namespace
}  // namespace aquila
