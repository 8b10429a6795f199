#include "src/kvs/kreon_db.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/util/bitops.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace aquila {

namespace {

constexpr uint64_t kKreonMagic = 0x4b52454f4e414c31ull;  // "KREONAL1"
constexpr uint64_t kNodeBytes = kPageSize;

struct Super {
  uint64_t magic;
  uint64_t root_page;
  uint64_t next_index_page;
  uint64_t log_head;
  uint64_t entries;
  uint32_t crc;  // CRC32C of this struct with crc zeroed
  uint32_t reserved;
};

uint32_t SuperCrc(const Super& super) {
  Super copy = super;
  copy.crc = 0;
  return Crc32c(&copy, sizeof(copy));
}

struct Slot {
  uint8_t klen;
  char key[KreonDb::kMaxKeyBytes];
  uint8_t tomb;
  uint8_t pad[2];
  uint32_t length;  // leaf: the record's bytes in the log; internal: 0
  uint64_t value;   // leaf: log offset; internal: child page
};
static_assert(sizeof(Slot) == 64);

struct Node {
  uint32_t is_leaf;
  uint32_t count;
  uint64_t next_leaf;
  Slot slots[63];
};
static_assert(sizeof(Node) <= kNodeBytes);

constexpr uint32_t kMaxSlots = 63;

Slice SlotKey(const Slot& slot) { return Slice(slot.key, slot.klen); }

void FillSlot(Slot* slot, const Slice& key, uint64_t value, uint32_t length) {
  AQUILA_CHECK(key.size() <= KreonDb::kMaxKeyBytes);
  std::memset(slot, 0, sizeof(Slot));
  slot->klen = static_cast<uint8_t>(key.size());
  std::memcpy(slot->key, key.data(), key.size());
  slot->length = length;
  slot->value = value;
}

// A log record is a 9-byte header (klen:4, vlen:4, tombstone:1), the key and
// the value.
constexpr uint64_t kRecordHeader = 9;

// Index of the first slot with key >= target; node->count if none.
uint32_t LowerBound(const Node& node, const Slice& key) {
  uint32_t lo = 0, hi = node.count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (SlotKey(node.slots[mid]).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child covering `key` in an internal node: last slot with key <= target.
uint32_t ChildIndex(const Node& node, const Slice& key) {
  uint32_t i = LowerBound(node, key);
  if (i < node.count && SlotKey(node.slots[i]) == key) {
    return i;
  }
  return i == 0 ? 0 : i - 1;
}

}  // namespace

struct KreonDb::NodeRef {
  uint64_t page;
  Node node;
};

KreonDb::KreonDb(MemoryMap* map, const Options& options) : map_(map), options_(options) {
  index_pages_ = map_->length() / kNodeBytes * options_.index_percent / 100;
  if (index_pages_ < 8) {
    index_pages_ = 8;
  }
  log_base_ = index_pages_ * kNodeBytes;
}

KreonDb::~KreonDb() {
  if (opened_) {
    (void)Persist();
  }
}

StatusOr<std::unique_ptr<KreonDb>> KreonDb::Open(MemoryMap* map, const Options& options) {
  if (map->length() < 64 * kNodeBytes) {
    return Status::InvalidArgument("mapping too small for Kreon");
  }
  auto db = std::unique_ptr<KreonDb>(new KreonDb(map, options));
  Super super{};
  AQUILA_RETURN_IF_ERROR(map->Read(0, std::span(reinterpret_cast<uint8_t*>(&super),
                                                sizeof(super))));
  if (super.magic == kKreonMagic) {
    AQUILA_RETURN_IF_ERROR(db->Recover());
  } else {
    AQUILA_RETURN_IF_ERROR(db->Format());
  }
  db->opened_ = true;
  return db;
}

Status KreonDb::Format() {
  root_page_ = 1;
  next_index_page_ = 2;
  log_head_ = 0;
  entries_ = 0;
  Node root{};
  root.is_leaf = 1;
  AQUILA_RETURN_IF_ERROR(map_->Write(
      root_page_ * kNodeBytes, std::span(reinterpret_cast<const uint8_t*>(&root), sizeof(root))));
  return WriteSuper();
}

Status KreonDb::Recover() {
  Super super{};
  AQUILA_RETURN_IF_ERROR(
      map_->Read(0, std::span(reinterpret_cast<uint8_t*>(&super), sizeof(super))));
  if (SuperCrc(super) != super.crc) {
    return Status::IoError("corrupt Kreon superblock");
  }
  root_page_ = super.root_page;
  next_index_page_ = super.next_index_page;
  log_head_ = super.log_head;
  entries_ = super.entries;
  if (root_page_ == 0 || next_index_page_ > index_pages_) {
    return Status::IoError("corrupt Kreon superblock");
  }
  return Status::Ok();
}

Status KreonDb::WriteSuper() {
  Super super{kKreonMagic, root_page_, next_index_page_, log_head_, entries_, 0, 0};
  super.crc = SuperCrc(super);
  return map_->Write(0, std::span(reinterpret_cast<const uint8_t*>(&super), sizeof(super)));
}

StatusOr<uint64_t> KreonDb::AllocNode(bool leaf) {
  if (next_index_page_ >= index_pages_) {
    return Status::OutOfSpace("Kreon index area full");
  }
  uint64_t page = next_index_page_++;
  Node node{};
  node.is_leaf = leaf ? 1 : 0;
  AQUILA_RETURN_IF_ERROR(map_->Write(
      page * kNodeBytes, std::span(reinterpret_cast<const uint8_t*>(&node), sizeof(node))));
  return page;
}

StatusOr<uint64_t> KreonDb::AppendLog(const Slice& key, const Slice& value, bool tombstone) {
  uint64_t record_bytes = kRecordHeader + key.size() + value.size();
  if (log_base_ + log_head_ + record_bytes > map_->length()) {
    return Status::OutOfSpace("Kreon log full");
  }
  uint64_t offset = log_head_;
  // A record whose last page begins inside it is the first write to that
  // page: pad it with zeros to the page's end, so the fresh page is one
  // whole-page write and the mapping fills it with no device read. Bytes
  // past log_head_ are never read; recovery trusts the superblock's
  // log_head alone.
  const uint64_t start = log_base_ + offset;
  const uint64_t last_page = AlignDown(start + record_bytes - 1, kPageSize);
  uint64_t write_bytes = record_bytes;
  if (last_page >= start) {
    write_bytes = std::min(last_page + kPageSize, map_->length()) - start;
  }
  std::string record;
  record.reserve(write_bytes);
  uint32_t klen = static_cast<uint32_t>(key.size());
  uint32_t vlen = static_cast<uint32_t>(value.size());
  record.append(reinterpret_cast<const char*>(&klen), 4);
  record.append(reinterpret_cast<const char*>(&vlen), 4);
  record.push_back(tombstone ? 1 : 0);
  record.append(key.data(), key.size());
  record.append(value.data(), value.size());
  record.resize(write_bytes);
  AQUILA_RETURN_IF_ERROR(map_->Write(
      start, std::span(reinterpret_cast<const uint8_t*>(record.data()), record.size())));
  log_head_ += record_bytes;
  // Every page before the one that holds the new head is final: start its
  // write now (msync(MS_ASYNC)), so Persist finds it clean. Crash-safe:
  // recovery trusts only the superblock's log_head, so these bytes stay
  // unreachable until a Persist commits them. Best effort — Persist writes
  // whatever is still dirty.
  const uint64_t final_from = AlignDown(start, kPageSize);
  const uint64_t final_to = AlignDown(log_base_ + log_head_, kPageSize);
  if (final_to > final_from) {
    (void)map_->Advise(final_from, final_to - final_from, Advice::kWriteBack);
  }
  return offset;
}

Status KreonDb::FindLeaf(const Slice& key, uint64_t* leaf_page, std::vector<uint64_t>* path) {
  uint64_t page = root_page_;
  while (true) {
    Node node;
    AQUILA_RETURN_IF_ERROR(map_->Read(
        page * kNodeBytes, std::span(reinterpret_cast<uint8_t*>(&node), sizeof(node))));
    if (node.is_leaf) {
      *leaf_page = page;
      return Status::Ok();
    }
    if (path != nullptr) {
      path->push_back(page);
    }
    AQUILA_CHECK(node.count > 0);
    page = node.slots[ChildIndex(node, key)].value;
  }
}

Status KreonDb::InsertIntoLeaf(uint64_t leaf_page, const std::vector<uint64_t>& path,
                               const Slice& key, uint64_t log_offset, uint32_t length) {
  Node leaf;
  AQUILA_RETURN_IF_ERROR(map_->Read(
      leaf_page * kNodeBytes, std::span(reinterpret_cast<uint8_t*>(&leaf), sizeof(leaf))));

  uint32_t pos = LowerBound(leaf, key);
  bool replace = pos < leaf.count && SlotKey(leaf.slots[pos]) == key;
  if (!replace && leaf.count == kMaxSlots) {
    // Split the leaf, then retry the insert into the proper half.
    StatusOr<uint64_t> fresh = AllocNode(/*leaf=*/true);
    if (!fresh.ok()) {
      return fresh.status();
    }
    Node right{};
    right.is_leaf = 1;
    uint32_t half = leaf.count / 2;
    right.count = leaf.count - half;
    std::memcpy(right.slots, leaf.slots + half, right.count * sizeof(Slot));
    right.next_leaf = leaf.next_leaf;
    leaf.count = half;
    leaf.next_leaf = *fresh;
    AQUILA_RETURN_IF_ERROR(map_->Write(
        *fresh * kNodeBytes, std::span(reinterpret_cast<const uint8_t*>(&right),
                                       sizeof(right))));
    AQUILA_RETURN_IF_ERROR(map_->Write(
        leaf_page * kNodeBytes, std::span(reinterpret_cast<const uint8_t*>(&leaf),
                                          sizeof(leaf))));

    // Push the separator (first key of the right node) up the path.
    std::string separator = SlotKey(right.slots[0]).ToString();
    uint64_t child = *fresh;
    std::vector<uint64_t> parents = path;
    while (true) {
      if (parents.empty()) {
        // Split the root: new internal root with both children.
        StatusOr<uint64_t> new_root = AllocNode(/*leaf=*/false);
        if (!new_root.ok()) {
          return new_root.status();
        }
        Node root{};
        root.is_leaf = 0;
        root.count = 2;
        Node old_first;
        // Sentinel: the old subtree keeps an empty separator key.
        FillSlot(&root.slots[0], Slice("", 0), root_page_, 0);
        FillSlot(&root.slots[1], Slice(separator), child, 0);
        (void)old_first;
        AQUILA_RETURN_IF_ERROR(
            map_->Write(*new_root * kNodeBytes,
                        std::span(reinterpret_cast<const uint8_t*>(&root), sizeof(root))));
        root_page_ = *new_root;
        break;
      }
      uint64_t parent_page = parents.back();
      parents.pop_back();
      Node parent;
      AQUILA_RETURN_IF_ERROR(
          map_->Read(parent_page * kNodeBytes,
                     std::span(reinterpret_cast<uint8_t*>(&parent), sizeof(parent))));
      if (parent.count < kMaxSlots) {
        uint32_t at = LowerBound(parent, Slice(separator));
        std::memmove(parent.slots + at + 1, parent.slots + at,
                     (parent.count - at) * sizeof(Slot));
        FillSlot(&parent.slots[at], Slice(separator), child, 0);
        parent.count++;
        AQUILA_RETURN_IF_ERROR(
            map_->Write(parent_page * kNodeBytes,
                        std::span(reinterpret_cast<const uint8_t*>(&parent), sizeof(parent))));
        break;
      }
      // Split the internal node and keep propagating.
      StatusOr<uint64_t> fresh_internal = AllocNode(/*leaf=*/false);
      if (!fresh_internal.ok()) {
        return fresh_internal.status();
      }
      Node upper{};
      upper.is_leaf = 0;
      uint32_t cut = parent.count / 2;
      upper.count = parent.count - cut;
      std::memcpy(upper.slots, parent.slots + cut, upper.count * sizeof(Slot));
      parent.count = cut;
      // Place the pending separator into the correct half.
      Node* dest = Slice(separator).compare(SlotKey(upper.slots[0])) < 0 ? &parent : &upper;
      uint32_t at = LowerBound(*dest, Slice(separator));
      std::memmove(dest->slots + at + 1, dest->slots + at, (dest->count - at) * sizeof(Slot));
      FillSlot(&dest->slots[at], Slice(separator), child, 0);
      dest->count++;
      AQUILA_RETURN_IF_ERROR(
          map_->Write(parent_page * kNodeBytes,
                      std::span(reinterpret_cast<const uint8_t*>(&parent), sizeof(parent))));
      AQUILA_RETURN_IF_ERROR(
          map_->Write(*fresh_internal * kNodeBytes,
                      std::span(reinterpret_cast<const uint8_t*>(&upper), sizeof(upper))));
      separator = SlotKey(upper.slots[0]).ToString();
      child = *fresh_internal;
    }
    // Retry from the (possibly new) root.
    std::vector<uint64_t> new_path;
    uint64_t new_leaf;
    AQUILA_RETURN_IF_ERROR(FindLeaf(key, &new_leaf, &new_path));
    return InsertIntoLeaf(new_leaf, new_path, key, log_offset, length);
  }

  if (replace) {
    leaf.slots[pos].value = log_offset;
    leaf.slots[pos].length = length;
    leaf.slots[pos].tomb = 0;
  } else {
    std::memmove(leaf.slots + pos + 1, leaf.slots + pos, (leaf.count - pos) * sizeof(Slot));
    FillSlot(&leaf.slots[pos], key, log_offset, length);
    leaf.count++;
    entries_++;
  }
  return map_->Write(leaf_page * kNodeBytes,
                     std::span(reinterpret_cast<const uint8_t*>(&leaf), sizeof(leaf)));
}

Status KreonDb::Put(const Slice& key, const Slice& value) {
  if (key.size() > kMaxKeyBytes || key.empty()) {
    return Status::InvalidArgument("Kreon keys must be 1..48 bytes");
  }
  const uint64_t length = kRecordHeader + key.size() + value.size();
  if (length > UINT32_MAX) {
    return Status::InvalidArgument("Kreon records must be under 4 GB");
  }
  ExclusiveLockGuard guard(tree_lock_);
  StatusOr<uint64_t> log_offset = AppendLog(key, value, /*tombstone=*/false);
  if (!log_offset.ok()) {
    return log_offset.status();
  }
  std::vector<uint64_t> path;
  uint64_t leaf;
  AQUILA_RETURN_IF_ERROR(FindLeaf(key, &leaf, &path));
  AQUILA_RETURN_IF_ERROR(
      InsertIntoLeaf(leaf, path, key, *log_offset, static_cast<uint32_t>(length)));
  if (options_.sync_interval != 0 && ++puts_since_sync_ >= options_.sync_interval) {
    puts_since_sync_ = 0;
    AQUILA_RETURN_IF_ERROR(WriteSuper());
    return map_->Sync(0, map_->length());
  }
  return Status::Ok();
}

Status KreonDb::Delete(const Slice& key) {
  ExclusiveLockGuard guard(tree_lock_);
  uint64_t leaf_page;
  AQUILA_RETURN_IF_ERROR(FindLeaf(key, &leaf_page, nullptr));
  Node leaf;
  AQUILA_RETURN_IF_ERROR(map_->Read(
      leaf_page * kNodeBytes, std::span(reinterpret_cast<uint8_t*>(&leaf), sizeof(leaf))));
  uint32_t pos = LowerBound(leaf, key);
  if (pos >= leaf.count || SlotKey(leaf.slots[pos]) != key) {
    return Status::Ok();
  }
  leaf.slots[pos].tomb = 1;
  return map_->Write(leaf_page * kNodeBytes,
                     std::span(reinterpret_cast<const uint8_t*>(&leaf), sizeof(leaf)));
}

Status KreonDb::Get(const Slice& key, std::string* value, bool* found) {
  *found = false;
  SharedLockGuard guard(tree_lock_);
  uint64_t leaf_page;
  AQUILA_RETURN_IF_ERROR(FindLeaf(key, &leaf_page, nullptr));
  Node leaf;
  AQUILA_RETURN_IF_ERROR(map_->Read(
      leaf_page * kNodeBytes, std::span(reinterpret_cast<uint8_t*>(&leaf), sizeof(leaf))));
  uint32_t pos = LowerBound(leaf, key);
  if (pos >= leaf.count || SlotKey(leaf.slots[pos]) != key || leaf.slots[pos].tomb) {
    return Status::Ok();
  }
  AQUILA_RETURN_IF_ERROR(ReadRecord(leaf.slots[pos].value, leaf.slots[pos].length, value));
  *found = true;
  return Status::Ok();
}

Status KreonDb::ReadRecord(uint64_t log_offset, uint32_t length, std::string* value) {
  // One Read of the whole record, header and all: a record across two log
  // pages then waits for both in one device batch (DESIGN.md §8). The value
  // is read in place and the header and key shifted out.
  if (length < kRecordHeader) {
    return Status::IoError("corrupt Kreon record length");
  }
  value->resize(length);
  uint8_t* record = reinterpret_cast<uint8_t*>(value->data());
  AQUILA_RETURN_IF_ERROR(map_->Read(log_base_ + log_offset, std::span(record, length)));
  uint32_t klen, vlen;
  std::memcpy(&klen, record, 4);
  std::memcpy(&vlen, record + 4, 4);
  if (kRecordHeader + klen + vlen != length) {
    return Status::IoError("Kreon record length does not match its header");
  }
  value->erase(0, kRecordHeader + klen);
  return Status::Ok();
}

Status KreonDb::Scan(const Slice& start, int count,
                     const std::function<void(const Slice&, const Slice&)>& visit) {
  SharedLockGuard guard(tree_lock_);
  uint64_t leaf_page;
  AQUILA_RETURN_IF_ERROR(FindLeaf(start, &leaf_page, nullptr));
  int emitted = 0;
  std::string value;
  while (leaf_page != 0 && emitted < count) {
    Node leaf;
    AQUILA_RETURN_IF_ERROR(map_->Read(
        leaf_page * kNodeBytes, std::span(reinterpret_cast<uint8_t*>(&leaf), sizeof(leaf))));
    for (uint32_t i = LowerBound(leaf, start); i < leaf.count && emitted < count; i++) {
      if (leaf.slots[i].tomb) {
        continue;
      }
      AQUILA_RETURN_IF_ERROR(ReadRecord(leaf.slots[i].value, leaf.slots[i].length, &value));
      visit(SlotKey(leaf.slots[i]), Slice(value));
      emitted++;
    }
    leaf_page = leaf.next_leaf;
  }
  return Status::Ok();
}

Status KreonDb::Persist() {
  ExclusiveLockGuard guard(tree_lock_);
  // Data first, superblock last (the simplified CoW commit ordering).
  AQUILA_RETURN_IF_ERROR(map_->Sync(0, map_->length()));
  AQUILA_RETURN_IF_ERROR(WriteSuper());
  return map_->Sync(0, kNodeBytes);
}

}  // namespace aquila
