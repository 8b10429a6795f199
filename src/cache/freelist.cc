#include "src/cache/freelist.h"

#include <algorithm>

#include "src/util/race_injector.h"

namespace aquila {

void FrameStack::Push(FrameId frame) { PushChain(frame, frame, 1); }

void FrameStack::PushChain(FrameId first, FrameId last, uint32_t count) {
  uint64_t head = head_.load(std::memory_order_relaxed);
  while (true) {
    next_[last].store(Top(head), std::memory_order_relaxed);
    AQUILA_RACE_POINT("freelist.push.pre_cas");
    uint64_t desired = Pack(Tag(head) + 1, first);
    if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) {
      size_.fetch_add(count, std::memory_order_relaxed);
      return;
    }
  }
}

FrameId FrameStack::Pop() {
  uint64_t head = head_.load(std::memory_order_acquire);
  while (true) {
    uint32_t top = Top(head);
    if (top == kNil) {
      return kInvalidFrame;
    }
    // The window between reading next_[top] and the CAS is the classic
    // Treiber ABA interval; the tag in the packed head is what makes a
    // pop-push-pop of the same frame fail the CAS. Stretch it under stress.
    uint32_t after = next_[top].load(std::memory_order_relaxed);
    AQUILA_RACE_POINT("freelist.pop.pre_cas");
    uint64_t desired = Pack(Tag(head) + 1, after);
    if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return top;
    }
  }
}

TwoLevelFreelist::TwoLevelFreelist(uint32_t max_frames, const Options& options)
    : options_(options),
      capacity_(max_frames),
      next_(std::make_unique<std::atomic<uint32_t>[]>(max_frames)),
      stamps_(std::make_unique<ReuseStamp[]>(max_frames)),
      core_queues_(CoreRegistry::kMaxCores),
      numa_queues_(static_cast<size_t>(options.numa_nodes)),
      run_queues_(static_cast<size_t>(options.numa_nodes)) {
  AQUILA_CHECK(options_.numa_nodes >= 1);
  for (FrameStack& q : core_queues_) {
    q.BindNextArray(next_.get());
  }
  for (FrameStack& q : numa_queues_) {
    q.BindNextArray(next_.get());
  }
  for (FrameStack& q : run_queues_) {
    q.BindNextArray(next_.get());
  }
}

void TwoLevelFreelist::AddFrames(FrameId first, uint32_t count, uint64_t align_page) {
  AQUILA_CHECK(static_cast<uint64_t>(first) + count <= capacity_);
  if (!options_.carve_runs) {
    AddSingles(first, count);
    return;
  }
  // Carve maximal aligned runs; the lead-in below the first aligned offset
  // and the tail past the last full run stay single frames.
  uint32_t lead =
      static_cast<uint32_t>((kRunFrames - align_page % kRunFrames) % kRunFrames);
  if (lead >= count || count - lead < kRunFrames) {
    AddSingles(first, count);
    return;
  }
  FrameId run = first + lead;
  const FrameId end = first + count;
  uint32_t node = 0;
  const uint32_t nodes = static_cast<uint32_t>(run_queues_.size());
  while (run + kRunFrames <= end) {
    run_queues_[node % nodes].Push(run);
    freed_.fetch_add(kRunFrames, std::memory_order_release);
    node++;
    run += kRunFrames;
  }
  if (lead > 0) {
    AddSingles(first, lead);
  }
  if (run < end) {
    AddSingles(run, end - run);
  }
}

void TwoLevelFreelist::AddSingles(FrameId first, uint32_t count) {
  // Spread across NUMA queues in contiguous runs, pre-linking each run
  // locally so the publish is one CAS per queue.
  uint32_t nodes = static_cast<uint32_t>(numa_queues_.size());
  uint32_t per_node = count / nodes;
  uint32_t extra = count % nodes;
  FrameId cursor = first;
  for (uint32_t node = 0; node < nodes; node++) {
    uint32_t n = per_node + (node < extra ? 1 : 0);
    if (n == 0) {
      continue;
    }
    for (uint32_t i = 0; i + 1 < n; i++) {
      next_[cursor + i].store(cursor + i + 1, std::memory_order_relaxed);
    }
    numa_queues_[node].PushChain(cursor, cursor + n - 1, n);
    freed_.fetch_add(n, std::memory_order_release);
    cursor += n;
  }
}

FrameId TwoLevelFreelist::Alloc(int core) {
  FrameId frame = PopFrame(core);
  if (frame != kInvalidFrame) {
    AQUILA_RACE_POINT("freelist.alloc.pre_count");
    allocated_.fetch_add(1, std::memory_order_release);
  }
  return frame;
}

FrameId TwoLevelFreelist::PopFrame(int core) {
  FrameId frame = core_queues_[core].Pop();
  if (frame != kInvalidFrame) {
    stats_.core_hits.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
  frame = numa_queues_[local_node].Pop();
  if (frame != kInvalidFrame) {
    stats_.numa_hits.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  for (size_t i = 0; i < numa_queues_.size(); i++) {
    if (static_cast<int>(i) == local_node) {
      continue;
    }
    frame = numa_queues_[i].Pop();
    if (frame != kInvalidFrame) {
      stats_.remote_hits.fetch_add(1, std::memory_order_relaxed);
      return frame;
    }
  }
  if (options_.carve_runs) {
    // Last resort under 4K pressure: break an intact run into singles rather
    // than force an eviction while 2 MB of frames sit idle. The run's frames
    // stay counted as freed; Alloc counts the one handed out. The
    // reserve watermark is checked approximately — a racing breaker can take
    // the count below it, which costs one promotion opportunity, not safety.
    uint32_t intact = 0;
    for (const FrameStack& q : run_queues_) {
      intact += q.ApproxSize();
    }
    if (intact <= options_.reserve_runs) {
      return kInvalidFrame;  // protect the last runs for promotion; evict
    }
    FrameId run = PopRun(local_node);
    if (run != kInvalidFrame) {
      // Run-queue frames carry no live stamps (runs never pass through the
      // stamped Free path), but the slots may hold garbage from an earlier
      // single-frame life — reset them before the frames re-enter the
      // stamped alloc path.
      for (uint32_t i = 0; i < kRunFrames; i++) {
        stamps_[run + i] = ReuseStamp{};
      }
      // Split the burst: a move_batch-sized chunk stays local for this
      // core's next allocations, the bulk goes to the NUMA queue where every
      // core can reach it. Parking all 511 in this core's queue (owner-only,
      // and under the overflow threshold) would hide them from allocation
      // everywhere else — with a mostly-run-carved freelist that is most of
      // the free memory, and other cores fall back to eviction sweeps while
      // it idles here.
      uint32_t keep = std::min(options_.move_batch, kRunFrames - 1);
      for (uint32_t i = 1; i + 1 < kRunFrames; i++) {
        next_[run + i].store(run + i + 1, std::memory_order_relaxed);
      }
      AQUILA_RACE_POINT("freelist.break_run.pre_push");
      core_queues_[core].PushChain(run + 1, run + keep, keep);
      if (keep < kRunFrames - 1) {
        numa_queues_[local_node].PushChain(run + keep + 1, run + kRunFrames - 1,
                                           kRunFrames - 1 - keep);
      }
      stats_.runs_broken.fetch_add(1, std::memory_order_relaxed);
      return run;
    }
  }
  return kInvalidFrame;
}

FrameId TwoLevelFreelist::PopRun(int local_node) {
  FrameId run = run_queues_[local_node].Pop();
  if (run != kInvalidFrame) {
    return run;
  }
  for (size_t i = 0; i < run_queues_.size(); i++) {
    if (static_cast<int>(i) == local_node) {
      continue;
    }
    run = run_queues_[i].Pop();
    if (run != kInvalidFrame) {
      stats_.run_steals.fetch_add(1, std::memory_order_relaxed);
      return run;
    }
  }
  return kInvalidFrame;
}

FrameId TwoLevelFreelist::AllocRun(int core) {
  AQUILA_DCHECK(options_.carve_runs);
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(run_queues_.size());
  FrameId run = PopRun(local_node);
  if (run != kInvalidFrame) {
    allocated_.fetch_add(kRunFrames, std::memory_order_release);
    stats_.run_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return run;
}

void TwoLevelFreelist::FreeRun(int core, FrameId first) {
  AQUILA_DCHECK(options_.carve_runs);
  AQUILA_DCHECK(static_cast<uint64_t>(first) + kRunFrames <= capacity_);
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(run_queues_.size());
  run_queues_[local_node].Push(first);
  freed_.fetch_add(kRunFrames, std::memory_order_release);
  stats_.run_frees.fetch_add(1, std::memory_order_relaxed);
}

FrameId TwoLevelFreelist::Alloc(int core, ReuseStamp* stamp_out) {
  FrameId frame = Alloc(core);
  if (frame != kInvalidFrame && stamp_out != nullptr) {
    // Sequenced after the Pop CAS (acquire), which synchronizes with the
    // freeing core's Push CAS (release) — transitively through any batch
    // moves, which travel by frame id and never touch the stamp slot.
    *stamp_out = stamps_[frame];
  }
  return frame;
}

void TwoLevelFreelist::Free(int core, FrameId frame) {
  Free(core, frame, ReuseStamp{});
}

void TwoLevelFreelist::Free(int core, FrameId frame, const ReuseStamp& stamp) {
  // Plain store, published by the Push CAS below (release edge). While the
  // frame sits on a queue nothing reads or writes its stamp slot, so the
  // slot is owned by whoever holds the frame outside the stacks.
  stamps_[frame] = stamp;
  core_queues_[core].Push(frame);
  AQUILA_RACE_POINT("freelist.free.pre_count");
  freed_.fetch_add(1, std::memory_order_release);
  MaybeOverflow(core);
}

void TwoLevelFreelist::LinkChain(std::span<const FrameId> frames,
                                 std::span<const ReuseStamp> stamps) {
  // Like the stamped Free: the slots are owned by the holder until the
  // publish CAS, whose release edge publishes the stamps with the frames.
  for (size_t i = 0; i < frames.size(); i++) {
    stamps_[frames[i]] = i < stamps.size() ? stamps[i] : ReuseStamp{};
    if (i + 1 < frames.size()) {
      next_[frames[i]].store(frames[i + 1], std::memory_order_relaxed);
    }
  }
}

void TwoLevelFreelist::FreeBatch(int core, std::span<const FrameId> frames,
                                 std::span<const ReuseStamp> stamps, FreeLevel level) {
  if (frames.empty()) {
    return;
  }
  size_t local = 0;
  if (level == FreeLevel::kCoreFirst) {
    // Only this core's thread pushes to its queue, so the size read here
    // holds until the push below.
    uint32_t queued = core_queues_[core].ApproxSize();
    if (queued < options_.core_queue_threshold) {
      local = std::min<size_t>(frames.size(), options_.core_queue_threshold - queued);
    }
  }
  std::span<const FrameId> to_core = frames.first(local);
  std::span<const FrameId> to_numa = frames.subspan(local);
  LinkChain(to_core, stamps.first(std::min(local, stamps.size())));
  LinkChain(to_numa, stamps.subspan(std::min(local, stamps.size())));
  AQUILA_RACE_POINT("freelist.free_batch.pre_publish");
  if (!to_core.empty()) {
    core_queues_[core].PushChain(to_core.front(), to_core.back(),
                                 static_cast<uint32_t>(to_core.size()));
  }
  if (!to_numa.empty()) {
    int node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
    numa_queues_[node].PushChain(to_numa.front(), to_numa.back(),
                                 static_cast<uint32_t>(to_numa.size()));
    stats_.batch_moves.fetch_add(1, std::memory_order_relaxed);
  }
  freed_.fetch_add(frames.size(), std::memory_order_release);
}

void TwoLevelFreelist::MaybeOverflow(int core) {
  if (core_queues_[core].ApproxSize() <= options_.core_queue_threshold) {
    return;
  }
  // Move a batch to the local NUMA queue: link the frames through next_ as
  // they are popped (each is owned once its Pop succeeds), then publish the
  // chain with one CAS.
  FrameStack& queue = core_queues_[core];
  const FrameId first = queue.Pop();
  if (first == kInvalidFrame) {
    return;
  }
  FrameId last = first;
  uint32_t n = 1;
  for (; n < options_.move_batch; n++) {
    FrameId frame = queue.Pop();
    if (frame == kInvalidFrame) {
      break;
    }
    next_[last].store(frame, std::memory_order_relaxed);
    last = frame;
  }
  // Between the pops above and the publish below the batch is on no queue but
  // still counted free. Stretch the window so the stress harness can check
  // that ApproxFree never exceeds capacity across it.
  AQUILA_RACE_POINT("freelist.migrate.pre_publish");
  int node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
  numa_queues_[node].PushChain(first, last, n);
  stats_.batch_moves.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TwoLevelFreelist::ApproxFree() const {
  // Two monotonic sums, not a sum of queue sizes: a sum read mid-churn counts
  // a frame twice when it moves from a summed queue to one not yet summed.
  // Every freed_ add counts frames whose earlier allocations were counted
  // before it (the freer owns each frame, so its allocation happened-before
  // the free), and freed_ is read (acquire) before allocated_: seeing a free
  // of frame X means seeing every earlier allocation of X. Each frame thus
  // contributes at most one, so the difference never exceeds capacity. Adds
  // trail their CAS, so a reader may miss a free (an allocation already
  // counted) and dip low; it is exact at quiescence.
  const uint64_t freed = freed_.load(std::memory_order_acquire);
  AQUILA_RACE_POINT("freelist.approx_free.between_reads");
  const uint64_t allocated = allocated_.load(std::memory_order_acquire);
  return freed > allocated ? freed - allocated : 0;
}

uint64_t TwoLevelFreelist::ReachableFree(int core) const {
  uint64_t free = core_queues_[core].ApproxSize();
  for (const FrameStack& q : numa_queues_) {
    free += q.ApproxSize();
  }
  if (options_.carve_runs) {
    uint64_t intact = 0;
    for (const FrameStack& q : run_queues_) {
      intact += q.ApproxSize();
    }
    if (intact > options_.reserve_runs) {
      free += (intact - options_.reserve_runs) * kRunFrames;
    }
  }
  return free;
}

}  // namespace aquila
