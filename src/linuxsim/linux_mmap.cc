#include "src/linuxsim/linux_mmap.h"

#include <algorithm>
#include <cstring>

#include "src/util/bitops.h"
#include "src/util/logging.h"
#include "src/vmx/cost_model.h"

namespace aquila {

LinuxMmapEngine::LinuxMmapEngine(const Options& options) : options_(options) {
  pool_ = std::make_unique<uint8_t[]>(options_.cache_pages * kPageSize);
  free_pages_.reserve(options_.cache_pages);
  for (uint64_t i = 0; i < options_.cache_pages; i++) {
    free_pages_.push_back(pool_.get() + i * kPageSize);
  }

  metrics_.AddCounter("aquila.linuxsim.major_faults", stats_.major_faults);
  metrics_.AddCounter("aquila.linuxsim.minor_faults", stats_.minor_faults);
  metrics_.AddCounter("aquila.linuxsim.dirty_marks", stats_.dirty_marks);
  metrics_.AddCounter("aquila.linuxsim.evicted_pages", stats_.evicted_pages);
  metrics_.AddCounter("aquila.linuxsim.writeback_pages", stats_.writeback_pages);
  metrics_.AddCounter("aquila.linuxsim.readahead_pages", stats_.readahead_pages);
  metrics_.AddCounter("aquila.linuxsim.writeback_errors", stats_.writeback_errors);
  metrics_.AddGauge("aquila.linuxsim.resident_pages", [this] { return resident_pages_; });
}

LinuxMmapEngine::~LinuxMmapEngine() {
  std::vector<std::unique_ptr<LinuxMap>> maps;
  {
    std::lock_guard<std::mutex> guard(mu_);
    maps.swap(maps_);
  }
  // LinuxMap teardown flushes dirty pages.
  maps.clear();
}

StatusOr<MemoryMap*> LinuxMmapEngine::Map(Backing* backing, uint64_t length, int prot) {
  if (length == 0 || backing == nullptr || length > backing->size_bytes()) {
    return Status::InvalidArgument("bad mmap arguments");
  }
  if ((prot & (kProtRead | kProtWrite)) == 0) {
    return Status::InvalidArgument("mapping needs read or write protection");
  }
  // mmap itself is a syscall.
  ThisVcpu().ChargeSyscall();
  auto map = std::make_unique<LinuxMap>(this, backing, length, prot);
  LinuxMap* raw = map.get();
  std::lock_guard<std::mutex> guard(mu_);
  maps_.push_back(std::move(map));
  return static_cast<MemoryMap*>(raw);
}

Status LinuxMmapEngine::Unmap(MemoryMap* map) {
  ThisVcpu().ChargeSyscall();
  std::unique_ptr<LinuxMap> owned;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = std::find_if(maps_.begin(), maps_.end(),
                           [map](const auto& m) { return m.get() == map; });
    if (it == maps_.end()) {
      return Status::NotFound("not an active mapping");
    }
    owned = std::move(*it);
    maps_.erase(it);
  }
  owned.reset();  // destructor drops pages and writes back dirty data
  return Status::Ok();
}

uint8_t* LinuxMmapEngine::AllocPageLocked(Vcpu& vcpu) {
  // Global allocation/lru lock (smaller than the tree lock but shared by
  // every file).
  lru_lock_.Acquire(vcpu.clock(), CostCategory::kCacheMgmt, options_.lru_lock_cycles);
  if (free_pages_.empty()) {
    EvictLocked(vcpu, std::max<uint64_t>(32, options_.readahead_pages));
  }
  if (free_pages_.empty()) {
    return nullptr;
  }
  uint8_t* page = free_pages_.back();
  free_pages_.pop_back();
  return page;
}

void LinuxMmapEngine::TouchLruLocked(PageEntry* entry) { entry->referenced = true; }

Status LinuxMmapEngine::DropEntryLocked(Vcpu& vcpu, PageEntry* entry, bool write_dirty) {
  if (entry->dirty && write_dirty) {
    const uint8_t* data = entry->data;
    uint64_t offset = entry->file_page * kPageSize;
    Status status = entry->owner->backing_->WritePages(
        vcpu, std::span<const uint64_t>(&offset, 1), std::span<const uint8_t* const>(&data, 1),
        kPageSize);
    if (!status.ok()) {
      // The page stays resident and dirty; a future writeback retries.
      stats_.writeback_errors.fetch_add(1, std::memory_order_relaxed);
      entry->referenced = true;
      return status;
    }
    stats_.writeback_pages.fetch_add(1, std::memory_order_relaxed);
    dirty_pages_--;
  } else if (entry->dirty) {
    dirty_pages_--;
  }
  entry->owner->pages_.erase(entry->file_page);
  entry->owner->writable_.erase(entry->file_page);
  global_lru_.erase(entry->lru_pos);
  free_pages_.push_back(entry->data);
  resident_pages_--;
  delete entry;
  return Status::Ok();
}

void LinuxMmapEngine::EvictLocked(Vcpu& vcpu, uint64_t target_pages) {
  // kswapd-style two-pass clock over the global LRU.
  uint64_t evicted = 0;
  size_t scanned = 0;
  size_t limit = global_lru_.size() * 2;
  auto it = global_lru_.begin();
  while (evicted < target_pages && scanned < limit && !global_lru_.empty()) {
    if (it == global_lru_.end()) {
      it = global_lru_.begin();
    }
    PageEntry* entry = *it;
    ++it;
    scanned++;
    if (entry->referenced) {
      entry->referenced = false;
      continue;
    }
    // Eviction takes the victim file's tree lock to unhook the page.
    entry->owner->tree_lock_.Acquire(vcpu.clock(), CostCategory::kCacheMgmt,
                                     options_.tree_lock_cycles);
    if (!DropEntryLocked(vcpu, entry, /*write_dirty=*/true).ok()) {
      continue;  // stays resident and dirty; referenced gives a second chance
    }
    evicted++;
  }
  stats_.evicted_pages.fetch_add(evicted, std::memory_order_relaxed);
}

void LinuxMmapEngine::WritebackLocked(Vcpu& vcpu, uint64_t max_pages) {
  // Clean from the cold end of the LRU, leaving pages resident.
  uint64_t cleaned = 0;
  for (PageEntry* entry : global_lru_) {
    if (cleaned >= max_pages || dirty_pages_ == 0) {
      break;
    }
    if (!entry->dirty) {
      continue;
    }
    entry->owner->tree_lock_.Acquire(vcpu.clock(), CostCategory::kCacheMgmt,
                                     options_.tree_lock_cycles);
    const uint8_t* data = entry->data;
    uint64_t offset = entry->file_page * kPageSize;
    Status status = entry->owner->backing_->WritePages(
        vcpu, std::span<const uint64_t>(&offset, 1), std::span<const uint8_t* const>(&data, 1),
        kPageSize);
    if (!status.ok()) {
      // Leave the page dirty and stop cleaning this round; the page stays
      // in the cache and msync will surface the error to the application.
      stats_.writeback_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    entry->dirty = false;
    entry->owner->writable_.erase(entry->file_page);
    dirty_pages_--;
    cleaned++;
    stats_.writeback_pages.fetch_add(1, std::memory_order_relaxed);
  }
}

LinuxMap::LinuxMap(LinuxMmapEngine* engine, Backing* backing, uint64_t length, int prot)
    : engine_(engine), backing_(backing), length_(length), prot_(prot) {}

LinuxMap::~LinuxMap() {
  Vcpu& vcpu = ThisVcpu();
  std::lock_guard<std::mutex> guard(engine_->mu_);
  while (!pages_.empty()) {
    PageEntry* entry = pages_.begin()->second;
    if (!engine_->DropEntryLocked(vcpu, entry, /*write_dirty=*/true).ok()) {
      // The mapping is going away: the dirty data has nowhere to live, so
      // drop it without writeback (matching munmap after EIO) rather than
      // spinning on a dead device.
      AQUILA_LOG(WARN, "munmap: dropping dirty page %llu after writeback failure",
                 static_cast<unsigned long long>(entry->file_page));
      (void)engine_->DropEntryLocked(vcpu, entry, /*write_dirty=*/false);
    }
  }
}

StatusOr<LinuxMap::PageEntry*> LinuxMap::ResolveLocked(Vcpu& vcpu, uint64_t file_page,
                                                       bool write, bool* faulted,
                                                       const uint8_t* overwrite, bool* filled) {
  const LinuxMmapEngine::Options& options = engine_->options_;
  auto it = pages_.find(file_page);
  if (it != pages_.end()) {
    PageEntry* entry = it->second;
    if (write && writable_.count(file_page) == 0) {
      // Dirty-marking fault: trap + tree lock (the lock is required to mark
      // a page dirty, §6.5).
      *faulted = true;
      vcpu.ChargeRing3Trap();
      vcpu.clock().Charge(CostCategory::kTrap, GlobalCostModel().kernel_fault_path);
      tree_lock_.Acquire(vcpu.clock(), CostCategory::kDirtyTracking,
                         options.dirty_mark_cycles);
      if (!entry->dirty) {
        entry->dirty = true;
        engine_->dirty_pages_++;
      }
      writable_.insert(file_page);
      engine_->stats_.dirty_marks.fetch_add(1, std::memory_order_relaxed);
    } else {
      *faulted = false;
    }
    engine_->TouchLruLocked(entry);
    return entry;
  }

  // Major fault.
  *faulted = true;
  vcpu.ChargeRing3Trap();
  vcpu.clock().Charge(CostCategory::kTrap, GlobalCostModel().kernel_fault_path);
  tree_lock_.Acquire(vcpu.clock(), CostCategory::kCacheMgmt, options.tree_lock_cycles);

  // Aggressive writeback kicks in on the fault path once dirty pages exceed
  // the ratio (the stalls Tucana observed, §7.2).
  if (options.aggressive_writeback &&
      engine_->dirty_pages_ * 256 > options.dirty_ratio_256 * options.cache_pages) {
    engine_->WritebackLocked(vcpu, 64);
  }

  // Fault read-ahead: Linux reads a 128 KB cluster around the miss.
  uint64_t map_pages = AlignUp(length_, kPageSize) / kPageSize;
  uint64_t window = 1;
  if (advice_ != Advice::kRandom && overwrite == nullptr) {
    window = std::max<uint32_t>(1, options.readahead_pages);
  }
  uint64_t last = std::min(file_page + window, map_pages);

  std::vector<uint64_t> offsets;
  std::vector<uint8_t*> buffers;
  std::vector<PageEntry*> fresh;
  for (uint64_t p = file_page; p < last; p++) {
    if (pages_.count(p) != 0) {
      continue;
    }
    if ((p + 1) * kPageSize > backing_->size_bytes()) {
      break;
    }
    uint8_t* data = engine_->AllocPageLocked(vcpu);
    if (data == nullptr) {
      if (p == file_page) {
        return Status::OutOfSpace("page cache exhausted and nothing evictable");
      }
      break;
    }
    auto* entry = new PageEntry();
    entry->owner = this;
    entry->file_page = p;
    entry->data = data;
    entry->referenced = true;
    engine_->global_lru_.push_back(entry);
    entry->lru_pos = std::prev(engine_->global_lru_.end());
    pages_[p] = entry;
    engine_->resident_pages_++;
    offsets.push_back(p * kPageSize);
    buffers.push_back(data);
    fresh.push_back(entry);
  }
  if (fresh.empty()) {
    // The faulting page itself lies beyond the end of the file: Linux
    // delivers SIGBUS for such accesses. Callers see it as an I/O error.
    return Status::IoError("mmap access beyond end of file (SIGBUS)");
  }
  Status status;
  if (overwrite != nullptr) {
    std::memcpy(buffers.front(), overwrite, kPageSize);
    *filled = true;
  } else {
    status = backing_->ReadPages(vcpu, offsets, buffers, kPageSize);
  }
  if (!status.ok()) {
    for (PageEntry* entry : fresh) {
      (void)engine_->DropEntryLocked(vcpu, entry, false);
    }
    return status;
  }
  engine_->stats_.major_faults.fetch_add(1, std::memory_order_relaxed);
  if (fresh.size() > 1) {
    engine_->stats_.readahead_pages.fetch_add(fresh.size() - 1, std::memory_order_relaxed);
  }

  PageEntry* entry = pages_[file_page];
  if (write) {
    tree_lock_.Acquire(vcpu.clock(), CostCategory::kDirtyTracking, options.dirty_mark_cycles);
    entry->dirty = true;
    engine_->dirty_pages_++;
    writable_.insert(file_page);
    engine_->stats_.dirty_marks.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

Status LinuxMap::Read(uint64_t offset, std::span<uint8_t> dst) {
  if (offset + dst.size() > length_) {
    return Status::InvalidArgument("read beyond mapping");
  }
  Vcpu& vcpu = ThisVcpu();
  uint64_t done = 0;
  while (done < dst.size()) {
    uint64_t in_page = (offset + done) % kPageSize;
    uint64_t run = std::min<uint64_t>(dst.size() - done, kPageSize - in_page);
    bool faulted;
    std::lock_guard<std::mutex> guard(engine_->mu_);
    StatusOr<PageEntry*> entry = ResolveLocked(vcpu, (offset + done) >> kPageShift,
                                               /*write=*/false, &faulted);
    if (!entry.ok()) {
      return entry.status();
    }
    std::memcpy(dst.data() + done, (*entry)->data + in_page, run);
    done += run;
  }
  return Status::Ok();
}

Status LinuxMap::Write(uint64_t offset, std::span<const uint8_t> src) {
  if (offset + src.size() > length_) {
    return Status::InvalidArgument("write beyond mapping");
  }
  if ((prot_ & kProtWrite) == 0) {
    return Status::FailedPrecondition("write to read-only mapping");
  }
  Vcpu& vcpu = ThisVcpu();
  uint64_t done = 0;
  while (done < src.size()) {
    uint64_t in_page = (offset + done) % kPageSize;
    uint64_t run = std::min<uint64_t>(src.size() - done, kPageSize - in_page);
    // The rule AquilaMap::Write follows: a run replacing its whole page
    // faults it in with no device read.
    const uint8_t* overwrite = run == kPageSize ? src.data() + done : nullptr;
    bool faulted;
    bool filled = false;
    std::lock_guard<std::mutex> guard(engine_->mu_);
    StatusOr<PageEntry*> entry = ResolveLocked(vcpu, (offset + done) >> kPageShift,
                                               /*write=*/true, &faulted, overwrite, &filled);
    if (!entry.ok()) {
      return entry.status();
    }
    if (!filled) {
      std::memcpy((*entry)->data + in_page, src.data() + done, run);
    }
    done += run;
  }
  return Status::Ok();
}

AccessResult LinuxMap::TouchRead(uint64_t offset) {
  AQUILA_CHECK(offset < length_);
  Vcpu& vcpu = ThisVcpu();
  bool faulted;
  std::lock_guard<std::mutex> guard(engine_->mu_);
  StatusOr<PageEntry*> entry = ResolveLocked(vcpu, offset >> kPageShift, false, &faulted);
  if (!entry.ok()) {
    return AccessResult{/*faulted=*/false, entry.status()};
  }
  volatile uint8_t sink = (*entry)->data[offset % kPageSize];
  (void)sink;
  return AccessResult{faulted, Status::Ok()};
}

AccessResult LinuxMap::TouchWrite(uint64_t offset) {
  AQUILA_CHECK(offset < length_);
  AQUILA_CHECK((prot_ & kProtWrite) != 0);
  Vcpu& vcpu = ThisVcpu();
  bool faulted;
  std::lock_guard<std::mutex> guard(engine_->mu_);
  StatusOr<PageEntry*> entry = ResolveLocked(vcpu, offset >> kPageShift, true, &faulted);
  if (!entry.ok()) {
    return AccessResult{/*faulted=*/false, entry.status()};
  }
  (*entry)->data[offset % kPageSize]++;
  return AccessResult{faulted, Status::Ok()};
}

Status LinuxMap::Sync(uint64_t offset, uint64_t length) {
  Vcpu& vcpu = ThisVcpu();
  vcpu.ChargeSyscall();
  uint64_t first = offset >> kPageShift;
  uint64_t last = (offset + length - 1) >> kPageShift;
  std::lock_guard<std::mutex> guard(engine_->mu_);
  // Collect and sort by file offset (Linux writeback clusters by offset).
  std::vector<PageEntry*> dirty;
  for (auto& [page, entry] : pages_) {
    if (entry->dirty && page >= first && page <= last) {
      dirty.push_back(entry);
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](PageEntry* a, PageEntry* b) { return a->file_page < b->file_page; });
  std::vector<uint64_t> offsets;
  std::vector<const uint8_t*> buffers;
  for (PageEntry* entry : dirty) {
    tree_lock_.Acquire(vcpu.clock(), CostCategory::kDirtyTracking,
                       engine_->options_.dirty_mark_cycles);
    entry->dirty = false;
    writable_.erase(entry->file_page);
    engine_->dirty_pages_--;
    offsets.push_back(entry->file_page * kPageSize);
    buffers.push_back(entry->data);
  }
  if (!offsets.empty()) {
    Status status = backing_->WritePages(vcpu, offsets, buffers, kPageSize);
    if (!status.ok()) {
      // msync failed: nothing was acknowledged. Re-mark the pages dirty so
      // the data survives for a retry, then report the EIO.
      engine_->stats_.writeback_errors.fetch_add(1, std::memory_order_relaxed);
      for (PageEntry* entry : dirty) {
        if (!entry->dirty) {
          entry->dirty = true;
          engine_->dirty_pages_++;
        }
      }
      return status;
    }
    engine_->stats_.writeback_pages.fetch_add(offsets.size(), std::memory_order_relaxed);
  }
  return backing_->Flush(vcpu);
}

Status LinuxMap::Advise(uint64_t offset, uint64_t length, Advice advice) {
  Vcpu& vcpu = ThisVcpu();
  vcpu.ChargeSyscall();
  switch (advice) {
    case Advice::kNormal:
    case Advice::kRandom:
    case Advice::kSequential:
      advice_ = advice;
      return Status::Ok();
    case Advice::kWriteBack:
      // msync(MS_ASYNC): since Linux 2.6.19 the syscall itself does nothing;
      // dirty pages go to the device with the flusher's next pass.
      return Status::Ok();
    case Advice::kWillNeed: {
      uint64_t first = offset >> kPageShift;
      uint64_t last = (offset + length - 1) >> kPageShift;
      std::lock_guard<std::mutex> guard(engine_->mu_);
      for (uint64_t p = first; p <= last && p * kPageSize < length_; p++) {
        bool faulted;
        StatusOr<PageEntry*> entry = ResolveLocked(vcpu, p, false, &faulted);
        if (!entry.ok()) {
          return entry.status();
        }
      }
      return Status::Ok();
    }
    case Advice::kDontNeed: {
      uint64_t first = offset >> kPageShift;
      uint64_t last = (offset + length - 1) >> kPageShift;
      std::lock_guard<std::mutex> guard(engine_->mu_);
      std::vector<PageEntry*> victims;
      for (auto& [page, entry] : pages_) {
        if (page >= first && page <= last) {
          victims.push_back(entry);
        }
      }
      Status result = Status::Ok();
      for (PageEntry* entry : victims) {
        Status status = engine_->DropEntryLocked(vcpu, entry, /*write_dirty=*/true);
        if (!status.ok() && result.ok()) {
          result = status;  // failed pages stay cached; report the first EIO
        }
      }
      return result;
    }
  }
  return Status::InvalidArgument("unknown advice");
}

}  // namespace aquila
