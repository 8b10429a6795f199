// Unit tests for src/mem: software page table and per-core TLBs with
// batched shootdown.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/mem/page_table.h"
#include "src/mem/tlb.h"
#include "src/util/bitops.h"

namespace aquila {
namespace {

TEST(PageTableTest, InstallLookupRemove) {
  PageTable pt;
  uint64_t vaddr = 0x500000001000ull;
  EXPECT_EQ(pt.Lookup(vaddr), 0u);
  EXPECT_TRUE(pt.Install(vaddr, 42ull << kPageShift, Pte::kAccessed));
  uint64_t pte = pt.Lookup(vaddr);
  EXPECT_TRUE(Pte::Present(pte));
  EXPECT_FALSE(Pte::Writable(pte));
  EXPECT_EQ(Pte::Gpa(pte) >> kPageShift, 42u);
  EXPECT_EQ(pt.present_count(), 1u);

  // Double install fails.
  EXPECT_FALSE(pt.Install(vaddr, 43ull << kPageShift, 0));

  uint64_t old = pt.Remove(vaddr);
  EXPECT_TRUE(Pte::Present(old));
  EXPECT_EQ(pt.Lookup(vaddr), 0u);
  EXPECT_EQ(pt.present_count(), 0u);
  // Removing twice is harmless.
  EXPECT_EQ(pt.Remove(vaddr), 0u);
}

TEST(PageTableTest, DistinguishesNearbyPages) {
  PageTable pt;
  uint64_t base = 0x500000000000ull;
  for (uint64_t i = 0; i < 1024; i++) {
    ASSERT_TRUE(pt.Install(base + i * kPageSize, i << kPageShift, 0));
  }
  for (uint64_t i = 0; i < 1024; i++) {
    EXPECT_EQ(Pte::Gpa(pt.Lookup(base + i * kPageSize)) >> kPageShift, i);
  }
}

TEST(PageTableTest, SparseAddresses) {
  PageTable pt;
  // Spread across distinct top-level entries.
  std::vector<uint64_t> addrs = {0x0000001000ull, 0x7f0000002000ull, 0x003400005000ull,
                                 0x100000000000ull};
  for (size_t i = 0; i < addrs.size(); i++) {
    ASSERT_TRUE(pt.Install(addrs[i], (i + 1) << kPageShift, Pte::kWritable));
  }
  for (size_t i = 0; i < addrs.size(); i++) {
    uint64_t pte = pt.Lookup(addrs[i]);
    EXPECT_TRUE(Pte::Writable(pte));
    EXPECT_EQ(Pte::Gpa(pte) >> kPageShift, i + 1);
  }
}

TEST(PageTableTest, AtomicFlagUpdates) {
  PageTable pt;
  uint64_t vaddr = 0x600000000000ull;
  ASSERT_TRUE(pt.Install(vaddr, 7ull << kPageShift, Pte::kAccessed));
  pt.Walk(vaddr)->fetch_or(Pte::kWritable | Pte::kDirty, std::memory_order_acq_rel);
  uint64_t pte = pt.Lookup(vaddr);
  EXPECT_TRUE(Pte::Writable(pte));
  EXPECT_TRUE(Pte::Dirty(pte));
  pt.Walk(vaddr)->fetch_and(~Pte::kWritable, std::memory_order_acq_rel);
  EXPECT_FALSE(Pte::Writable(pt.Lookup(vaddr)));
  EXPECT_EQ(Pte::Gpa(pt.Lookup(vaddr)) >> kPageShift, 7u);
}

TEST(PageTableTest, ConcurrentInstallDisjointPages) {
  PageTable pt;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&pt, t] {
      uint64_t base = 0x500000000000ull + static_cast<uint64_t>(t) * kPerThread * kPageSize;
      for (uint64_t i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(pt.Install(base + i * kPageSize, (t * kPerThread + i) << kPageShift, 0));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(pt.present_count(), kThreads * kPerThread);
}

TEST(PageTableTest, ConcurrentInstallSamePageOneWinner) {
  for (int round = 0; round < 20; round++) {
    PageTable pt;
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&pt, &winners, t] {
        if (pt.Install(0x700000000000ull, static_cast<uint64_t>(t + 1) << kPageShift, 0)) {
          winners.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(winners.load(), 1);
  }
}

TEST(TlbTest, InsertLookupInvalidate) {
  TlbSet tlb;
  EXPECT_FALSE(tlb.Lookup(0, 100).hit);
  tlb.Insert(0, 100, /*writable=*/false);
  auto r = tlb.Lookup(0, 100);
  EXPECT_TRUE(r.hit);
  EXPECT_FALSE(r.writable);
  tlb.Insert(0, 100, /*writable=*/true);
  EXPECT_TRUE(tlb.Lookup(0, 100).writable);
  // Other cores have their own TLB.
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
  tlb.InvalidatePage(0, 100);
  EXPECT_FALSE(tlb.Lookup(0, 100).hit);
}

TEST(TlbTest, DirectMappedConflict) {
  TlbSet tlb;
  tlb.Insert(0, 5, false);
  tlb.Insert(0, 5 + TlbSet::kEntries, false);  // same slot
  EXPECT_FALSE(tlb.Lookup(0, 5).hit);
  EXPECT_TRUE(tlb.Lookup(0, 5 + TlbSet::kEntries).hit);
}

TEST(TlbTest, ShootdownInvalidatesAllCores) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  for (int core = 0; core < 4; core++) {
    tlb.Insert(core, 7, true);
    tlb.Insert(core, 9, true);
  }
  std::vector<uint64_t> vpns = {7, 9};
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/4, vpns, fabric);
  for (int core = 0; core < 4; core++) {
    EXPECT_FALSE(tlb.Lookup(core, 7).hit) << core;
    EXPECT_FALSE(tlb.Lookup(core, 9).hit) << core;
  }
  // One IPI per remote core, not per page (batching).
  EXPECT_EQ(fabric.TotalSent(), 3u);
  EXPECT_EQ(tlb.shootdowns(), 1u);
  EXPECT_GT(clock.Now(), 0u);
}

TEST(TlbTest, MaskedShootdownSkipsUnmappedCores) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  tlb.Insert(0, 7, true);
  tlb.Insert(2, 7, true);
  tlb.Insert(3, 42, true);  // unrelated page on an unmapped core survives
  std::vector<PageShootdown> pages = {{7, /*cpu_mask=*/0b0101, /*tlb_epoch=*/0}};
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/4, pages, fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_FALSE(tlb.Lookup(0, 7).hit);
  EXPECT_FALSE(tlb.Lookup(2, 7).hit);
  EXPECT_TRUE(tlb.Lookup(3, 42).hit);
  // Only core 2 is a remote target; cores 1 and 3 have no bit in the mask.
  EXPECT_EQ(fabric.TotalSent(), 1u);
  EXPECT_EQ(tlb.ipis_sent(), 1u);
  EXPECT_EQ(tlb.ipis_elided(), 2u);
  EXPECT_EQ(tlb.shootdowns_local(), 0u);
}

TEST(TlbTest, InitiatorOnlyMaskElidesRemotePhase) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  tlb.Insert(0, 7, true);
  std::vector<PageShootdown> pages = {{7, /*cpu_mask=*/0b0001, /*tlb_epoch=*/0}};
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/4, pages, fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_FALSE(tlb.Lookup(0, 7).hit);
  EXPECT_EQ(fabric.TotalSent(), 0u);
  EXPECT_EQ(tlb.ipis_elided(), 3u);
  EXPECT_EQ(tlb.shootdowns_local(), 1u);
  // The initiator still pays its local invalidation.
  EXPECT_GT(clock.Now(), 0u);
}

TEST(TlbTest, GenerationElidesCoresFlushedAfterInsert) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  tlb.Insert(0, 7, true);
  uint64_t insert_epoch = tlb.Insert(1, 7, true);
  // Core 1's whole TLB is flushed after the insert: it cannot hold the
  // translation any more, so kMaskGen skips the IPI even though the mask
  // names it.
  tlb.FlushCore(1);
  EXPECT_GT(tlb.CoreFlushEpoch(1), insert_epoch);
  std::vector<PageShootdown> pages = {{7, /*cpu_mask=*/0b0011, insert_epoch}};
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/4, pages, fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_EQ(fabric.TotalSent(), 0u);
  EXPECT_EQ(tlb.shootdowns_local(), 1u);
}

TEST(TlbTest, GenerationNeverElidesInsertAfterFlush) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  tlb.FlushCore(1);
  // The insert happens AFTER the flush: flush_epoch == insert_epoch, and the
  // strict > comparison must keep the IPI.
  uint64_t insert_epoch = tlb.Insert(1, 7, true);
  EXPECT_EQ(tlb.CoreFlushEpoch(1), insert_epoch);
  std::vector<PageShootdown> pages = {{7, /*cpu_mask=*/0b0010, insert_epoch}};
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/4, pages, fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_EQ(fabric.TotalSent(), 1u);
  EXPECT_FALSE(tlb.Lookup(1, 7).hit);
}

TEST(TlbTest, EmptyBatchIsFree) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  tlb.Shootdown(clock, 0, 8, std::span<const uint64_t>(), fabric);
  std::vector<PageShootdown> none;
  tlb.Shootdown(clock, 0, 8, none, fabric, ShootdownMaskMode::kMaskGen);
  EXPECT_EQ(tlb.shootdowns(), 0u);
  EXPECT_EQ(fabric.TotalSent(), 0u);
  EXPECT_EQ(clock.Now(), 0u);
}

TEST(TlbTest, ClampedBatchFullFlushesVictims) {
  const CostModel& costs = GlobalCostModel();
  // Enough pages that per-core invalidation cost exceeds one full flush.
  size_t batch = costs.tlb_full_flush / costs.tlb_invalidate_page + 2;
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  // Unrelated entries: the charged cost is a full flush, so the simulated
  // TLB state must lose them too (cost/behavior match).
  tlb.Insert(0, 100000, true);
  tlb.Insert(1, 100000, true);
  std::vector<PageShootdown> pages;
  for (size_t i = 0; i < batch; i++) {
    pages.push_back({i, /*cpu_mask=*/0b0011, /*tlb_epoch=*/0});
  }
  tlb.Shootdown(clock, /*initiator=*/0, /*active_cores=*/2, pages, fabric,
                ShootdownMaskMode::kMaskGen);
  EXPECT_FALSE(tlb.Lookup(0, 100000).hit);
  EXPECT_FALSE(tlb.Lookup(1, 100000).hit);
  // The victims' flush epochs advanced: later kMaskGen shootdowns of pages
  // inserted before this batch need no IPI to them.
  EXPECT_GT(tlb.CoreFlushEpoch(0), 0u);
  EXPECT_GT(tlb.CoreFlushEpoch(1), 0u);
  EXPECT_EQ(fabric.TotalSent(), 1u);
}

TEST(TlbTest, ActiveCoresClampedToMaxCores) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  SimClock clock;
  std::vector<uint64_t> vpns = {7};
  tlb.Shootdown(clock, 0, CoreRegistry::kMaxCores + 100, vpns, fabric);
  EXPECT_EQ(fabric.TotalSent(), static_cast<uint64_t>(CoreRegistry::kMaxCores - 1));
}

TEST(TlbTest, InsertReturnsCurrentEpochAndFlushAdvancesIt) {
  TlbSet tlb;
  uint64_t e0 = tlb.Insert(0, 7, false);
  EXPECT_EQ(e0, tlb.CurrentEpoch());
  tlb.FlushCore(0);
  tlb.FlushCore(3);
  EXPECT_EQ(tlb.CurrentEpoch(), e0 + 2);
  uint64_t e1 = tlb.Insert(0, 7, false);
  EXPECT_EQ(e1, e0 + 2);
  // Per-core flush marks track where each core last flushed.
  EXPECT_EQ(tlb.CoreFlushEpoch(0), e0 + 1);
  EXPECT_EQ(tlb.CoreFlushEpoch(3), e0 + 2);
  EXPECT_EQ(tlb.CoreFlushEpoch(1), 0u);
}

TEST(TlbTest, BatchedShootdownCheaperThanPerPage) {
  const CostModel& costs = GlobalCostModel();
  PostedIpiFabric fabric;
  TlbSet tlb;
  std::vector<uint64_t> vpns(512);
  for (size_t i = 0; i < vpns.size(); i++) {
    vpns[i] = i;
  }
  SimClock batched;
  tlb.Shootdown(batched, 0, 8, vpns, fabric);

  SimClock per_page;
  TlbSet tlb2;
  PostedIpiFabric fabric2;
  for (uint64_t vpn : vpns) {
    tlb2.Shootdown(per_page, 0, 8, std::span(&vpn, 1), fabric2);
  }
  // 512 pages in one IPI per core vs 512 IPIs per core.
  EXPECT_LT(batched.Now() * 50, per_page.Now());
  EXPECT_EQ(fabric.TotalSent(), 7u);
  EXPECT_EQ(fabric2.TotalSent(), 7u * 512);
  (void)costs;
}

}  // namespace
}  // namespace aquila
