#include "src/vma/vma_tree.h"

#include <array>

#include "src/util/cpu.h"
#include "src/util/logging.h"

namespace aquila {

struct VmaTree::Node {
  std::array<std::atomic<uint64_t>, kEntriesPerNode> slots{};
};

VmaTree::VmaTree() : root_(new Node()) {}

VmaTree::~VmaTree() { FreeRecursive(root_, kLevels - 1); }

void VmaTree::FreeRecursive(Node* node, int level) {
  if (level > 0) {
    for (auto& slot : node->slots) {
      uint64_t child = slot.load(std::memory_order_relaxed);
      if (child != 0) {
        FreeRecursive(reinterpret_cast<Node*>(child), level - 1);
      }
    }
  }
  delete node;
}

VmaTree::Node* VmaTree::EnsureChild(Node* node, int index) {
  uint64_t child = node->slots[index].load(std::memory_order_acquire);
  if (child != 0) {
    return reinterpret_cast<Node*>(child);
  }
  Node* fresh = new Node();
  uint64_t expected = 0;
  if (node->slots[index].compare_exchange_strong(expected, reinterpret_cast<uint64_t>(fresh),
                                                 std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return reinterpret_cast<Node*>(expected);
}

std::atomic<uint64_t>* VmaTree::SlotFor(uint64_t page, bool create) const {
  AQUILA_DCHECK(page < (1ull << (9 * kLevels)));
  Node* node = root_;
  auto* self = const_cast<VmaTree*>(this);
  for (int level = kLevels - 1; level > 0; level--) {
    int index = IndexAt(page, level);
    if (create) {
      node = self->EnsureChild(node, index);
    } else {
      uint64_t child = node->slots[index].load(std::memory_order_acquire);
      if (child == 0) {
        return nullptr;
      }
      node = reinterpret_cast<Node*>(child);
    }
  }
  return const_cast<std::atomic<uint64_t>*>(&node->slots[IndexAt(page, 0)]);
}

Status VmaTree::Insert(Vma* vma) {
  AQUILA_CHECK((reinterpret_cast<uintptr_t>(vma) & 7) == 0);
  uint64_t installed = 0;
  for (uint64_t i = 0; i < vma->page_count; i++) {
    std::atomic<uint64_t>* slot = SlotFor(vma->start_page + i, /*create=*/true);
    uint64_t expected = 0;
    if (!slot->compare_exchange_strong(expected, reinterpret_cast<uint64_t>(vma),
                                       std::memory_order_acq_rel)) {
      // Roll back what we installed.
      for (uint64_t j = 0; j < installed; j++) {
        SlotFor(vma->start_page + j, false)->store(0, std::memory_order_release);
      }
      return Status::AlreadyExists("address range already mapped");
    }
    installed++;
  }
  mapped_pages_.fetch_add(vma->page_count, std::memory_order_relaxed);
  return Status::Ok();
}

Status VmaTree::Remove(Vma* vma) {
  for (uint64_t i = 0; i < vma->page_count; i++) {
    uint64_t page = vma->start_page + i;
    std::atomic<uint64_t>* slot = SlotFor(page, false);
    if (slot == nullptr) {
      return Status::NotFound("page not mapped");
    }
    // Acquire the entry lock before clearing so in-flight faults drain.
    uint64_t expected = reinterpret_cast<uint64_t>(vma);
    SpinBackoff backoff;
    while (!slot->compare_exchange_weak(expected, expected | kLockBit,
                                        std::memory_order_acquire)) {
      if ((expected & ~kLockBit) != reinterpret_cast<uint64_t>(vma)) {
        return Status::NotFound("page mapped by a different vma");
      }
      expected &= ~kLockBit;  // entry currently locked by a fault; retry
      backoff.Pause();
    }
    slot->store(0, std::memory_order_release);
  }
  mapped_pages_.fetch_sub(vma->page_count, std::memory_order_relaxed);
  return Status::Ok();
}

Vma* VmaTree::Find(uint64_t page) const {
  std::atomic<uint64_t>* slot = SlotFor(page, false);
  if (slot == nullptr) {
    return nullptr;
  }
  return reinterpret_cast<Vma*>(slot->load(std::memory_order_acquire) & ~kLockBit);
}

Vma* VmaTree::LockEntry(uint64_t page) {
  std::atomic<uint64_t>* slot = SlotFor(page, false);
  if (slot == nullptr) {
    return nullptr;
  }
  SpinBackoff backoff;
  while (true) {
    uint64_t value = slot->load(std::memory_order_acquire);
    uint64_t ptr = value & ~kLockBit;
    if (ptr == 0) {
      return nullptr;
    }
    if ((value & kLockBit) == 0 &&
        slot->compare_exchange_weak(value, value | kLockBit, std::memory_order_acquire)) {
      return reinterpret_cast<Vma*>(ptr);
    }
    backoff.Pause();
  }
}

bool VmaTree::TryLockEntry(uint64_t page, Vma** vma) {
  std::atomic<uint64_t>* slot = SlotFor(page, false);
  if (slot == nullptr) {
    return false;
  }
  uint64_t value = slot->load(std::memory_order_acquire);
  uint64_t ptr = value & ~kLockBit;
  if (ptr == 0 || (value & kLockBit) != 0) {
    return false;
  }
  if (!slot->compare_exchange_strong(value, value | kLockBit, std::memory_order_acquire)) {
    return false;
  }
  *vma = reinterpret_cast<Vma*>(ptr);
  return true;
}

void VmaTree::PrefetchEntry(uint64_t page) const {
  std::atomic<uint64_t>* slot = SlotFor(page, /*create=*/false);
  if (slot != nullptr) {
    PrefetchForWrite(slot);
  }
}

void VmaTree::UnlockEntry(uint64_t page) {
  std::atomic<uint64_t>* slot = SlotFor(page, false);
  AQUILA_CHECK(slot != nullptr);
  uint64_t value = slot->load(std::memory_order_relaxed);
  AQUILA_DCHECK((value & kLockBit) != 0);
  slot->store(value & ~kLockBit, std::memory_order_release);
}

}  // namespace aquila
