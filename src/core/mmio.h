// Engine-neutral mmio interface.
//
// Applications (key-value stores, the graph framework, the benchmarks)
// program against MemoryMap/MmioEngine so the same workload runs over
// Aquila, over the Linux-mmap baseline simulator, or over kmmap — exactly
// the comparison matrix of the paper's evaluation.
//
// Access semantics mirror shared file-backed mmap (§2.1): loads and stores
// hit the DRAM cache through hardware-translated mappings; misses fault;
// stores mark pages dirty; Msync writes a range back durably.
#ifndef AQUILA_SRC_CORE_MMIO_H_
#define AQUILA_SRC_CORE_MMIO_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/backing.h"
#include "src/util/status.h"
#include "src/vma/vma_tree.h"  // kProtRead / kProtWrite

namespace aquila {

enum class Advice {
  kNormal = 0,
  kRandom,      // disable read-ahead
  kSequential,  // aggressive read-ahead
  kWillNeed,    // prefetch the range now
  kDontNeed,    // drop the range from the cache
  kWriteBack,   // msync(MS_ASYNC): start writing the range's dirty pages
                // back and return; the pages stay cached
};

// Outcome of one single-page touch. `faulted` is only meaningful when
// `status` is OK; a non-OK status (device EIO, degraded mapping, kUnavailable
// from a failed device breaker) means the access never completed.
struct AccessResult {
  bool faulted = false;
  Status status;

  bool ok() const { return status.ok(); }
};

// One request on the batched submission surface. Empty-span kRead/kWrite
// requests are touch accesses (one load / one store at `offset`); non-empty
// spans copy through the mapping like Read/Write. kPrefetch hints the range
// into the cache (madvise(WILLNEED) semantics) and never reports a fault.
struct MmioRequest {
  enum class Kind : uint8_t { kRead = 0, kWrite, kPrefetch };
  Kind kind = Kind::kRead;
  uint64_t offset = 0;
  std::span<uint8_t> data;  // empty: touch-only access
  uint64_t user_tag = 0;    // opaque; returned in the completion
};

// One completed request. `faulted` mirrors AccessResult (true when servicing
// the request took at least one page fault); prefetches never fault.
struct MmioCompletion {
  uint64_t user_tag = 0;
  Status status;
  bool faulted = false;
};

class MemoryMap {
 public:
  virtual ~MemoryMap() = default;

  virtual uint64_t length() const = 0;

  // Bulk accessors (may span pages; fault in what is missing).
  virtual Status Read(uint64_t offset, std::span<uint8_t> dst) = 0;
  virtual Status Write(uint64_t offset, std::span<const uint8_t> src) = 0;

  // Single-page touch: the microbenchmark primitive (one load / one store at
  // `offset`). Reports whether the access faulted and any fault-path I/O
  // error (PR 2 degraded mode, watchdog kUnavailable) in the status.
  virtual AccessResult TouchRead(uint64_t offset) = 0;
  virtual AccessResult TouchWrite(uint64_t offset) = 0;

  // msync(MS_SYNC) over [offset, offset+length).
  virtual Status Sync(uint64_t offset, uint64_t length) = 0;

  // madvise over [offset, offset+length). kWriteBack is msync(MS_ASYNC)
  // expressed as advice: it promises nothing about when the pages reach the
  // device, so it needs no entry point of its own next to Sync.
  virtual Status Advise(uint64_t offset, uint64_t length, Advice advice) = 0;

  // --- Batched request surface -------------------------------------------------
  // SubmitBatch enqueues requests; Poll moves finished ones into `out` and
  // returns how many it wrote. Engines that can overlap faults (Aquila's
  // cooperative scheduler) service the batch concurrently; the base
  // implementation degrades to a synchronous loop — every request completes
  // during SubmitBatch and Poll merely drains the buffered completions, so
  // the interface is portable across engines. Completions may be reordered
  // relative to submission; `user_tag` is the correlation handle.
  virtual Status SubmitBatch(std::span<const MmioRequest> requests);
  virtual size_t Poll(std::span<MmioCompletion> out);

  // Typed scalar accessors for pointer-chasing workloads (Ligra's heap).
  template <typename T>
  T LoadValue(uint64_t offset) {
    T value{};
    Status status = Read(offset, std::span(reinterpret_cast<uint8_t*>(&value), sizeof(T)));
    AQUILA_CHECK(status.ok());
    return value;
  }

  template <typename T>
  void StoreValue(uint64_t offset, const T& value) {
    Status status =
        Write(offset, std::span(reinterpret_cast<const uint8_t*>(&value), sizeof(T)));
    AQUILA_CHECK(status.ok());
  }

 protected:
  // Completion buffer for the synchronous SubmitBatch fallback. The batch
  // surface is a per-thread protocol (one submitting thread per map, like a
  // ring): implementations need no locking around it.
  std::vector<MmioCompletion> sync_completions_;
};

class MmioEngine {
 public:
  virtual ~MmioEngine() = default;

  virtual const char* name() const = 0;

  // mmap: maps `length` bytes of `backing` starting at backing offset 0.
  // `prot` is a kProtRead/kProtWrite mask. The engine owns the returned map
  // until Unmap.
  virtual StatusOr<MemoryMap*> Map(Backing* backing, uint64_t length, int prot) = 0;

  // munmap: flushes dirty pages and releases the mapping.
  virtual Status Unmap(MemoryMap* map) = 0;

  // Per-thread initialization (Aquila: switch the thread into non-root
  // ring 0; baseline: no-op).
  virtual void EnterThread() {}
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_MMIO_H_
