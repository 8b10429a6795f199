// Kreon-like persistent key-value store: designed from the ground up to use
// mmio in the common path (§5, [48,49]).
//
// Instead of SSTs, Kreon keeps all keys and values in a log and indexes them
// with a B-tree per level; this trades sequential device access for fewer
// CPU cycles and less I/O amplification — which is exactly what makes its
// performance track the quality of the mmio path underneath (Fig 9:
// kmmap vs Aquila). This reproduction implements the design's data path as
// a single-level B+tree plus value log, both living inside one mmio mapping
// on a raw device: every index node touch and every log access is a
// load/store against the mapping, persistence is msync (Kreon's
// Copy-on-Write commit is simplified to a metadata-last msync ordering).
//
// Layout inside the mapping:
//   page 0        : superblock (magic, root, allocation cursors)
//   pages 1..N    : B+tree nodes (4 KB each, bump-allocated)
//   log area      : length-prefixed key/value records, appended; a leaf
//                   slot holds its record's log offset and byte length
// Keys are limited to 48 bytes (YCSB keys are ~30 B).
#ifndef AQUILA_SRC_KVS_KREON_DB_H_
#define AQUILA_SRC_KVS_KREON_DB_H_

#include <memory>

#include "src/core/mmio.h"
#include "src/kvs/kv_store.h"
#include "src/util/spinlock.h"

namespace aquila {

class KreonDb : public KvStore {
 public:
  struct Options {
    // Fraction of the mapping reserved for B+tree nodes (the rest is log).
    uint32_t index_percent = 25;
    // msync every N puts (0 = only on Persist()/close).
    uint32_t sync_interval = 0;
  };

  static constexpr size_t kMaxKeyBytes = 48;

  // The map must cover a device/blob dedicated to this store. Formats the
  // region when no valid superblock is found; otherwise recovers.
  static StatusOr<std::unique_ptr<KreonDb>> Open(MemoryMap* map, const Options& options);
  ~KreonDb() override;

  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value, bool* found) override;
  Status Scan(const Slice& start, int count,
              const std::function<void(const Slice&, const Slice&)>& visit) override;

  // msync: index and log durable on the device.
  Status Persist();

  uint64_t entries() const { return entries_; }
  uint64_t log_bytes_used() const { return log_head_; }
  uint64_t index_pages_used() const { return next_index_page_; }

 private:
  struct NodeRef;

  KreonDb(MemoryMap* map, const Options& options);

  Status Format();
  Status Recover();
  Status WriteSuper();

  StatusOr<uint64_t> AppendLog(const Slice& key, const Slice& value, bool tombstone);
  StatusOr<uint64_t> AllocNode(bool leaf);

  // B+tree plumbing; callers hold tree_lock_.
  Status FindLeaf(const Slice& key, uint64_t* leaf_page,
                  std::vector<uint64_t>* path = nullptr);
  Status InsertIntoLeaf(uint64_t leaf_page, const std::vector<uint64_t>& path,
                        const Slice& key, uint64_t log_offset, uint32_t length);
  // Reads the `length`-byte record at `log_offset` with one Read and leaves
  // its value in `*value`; kIoError when its header disagrees with `length`.
  Status ReadRecord(uint64_t log_offset, uint32_t length, std::string* value);

  MemoryMap* map_;
  Options options_;
  RwSpinLock tree_lock_;

  uint64_t root_page_ = 0;
  uint64_t next_index_page_ = 1;
  uint64_t index_pages_ = 0;
  uint64_t log_base_ = 0;
  uint64_t log_head_ = 0;
  uint64_t entries_ = 0;
  uint64_t puts_since_sync_ = 0;
  // Set once Format()/Recover() succeeds. A failed Open must not Persist()
  // from the destructor: that would overwrite the (possibly corrupt but
  // diagnosable) superblock with default-constructed state.
  bool opened_ = false;
};

}  // namespace aquila

#endif  // AQUILA_SRC_KVS_KREON_DB_H_
