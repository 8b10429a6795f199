// Lock-free open-addressing hash table: page key -> cache frame.
//
// This is the structure the paper contrasts with Linux's per-file radix tree
// behind a single lock (§6.5): all cached pages of all mappings live here,
// lookups are wait-free reads, and inserts/removes are single-CAS claims, so
// the shared-file scalability collapse of the baseline cannot happen.
//
// Design (after David et al. [16], "asynchronized concurrency"):
//  - fixed capacity, power of two, linear probing;
//  - slot := { atomic key, atomic value };
//  - insert claims an EMPTY or TOMBSTONE slot by CAS on the key, then
//    publishes the value (readers briefly spin on kValueUnset);
//  - remove unsets the value, THEN stores TOMBSTONE into the key. This store
//    order is load-bearing: an insert reusing the tombstone claims the key
//    with an acquire CAS that happens-after the value unset, so a reader that
//    observes the new key can never observe the removed entry's stale value —
//    it sees kValueUnset (and waits) or the new value. Probes continue past
//    tombstones;
//  - empty slots are never re-created (a removed key only ever becomes a
//    tombstone), so the first EMPTY slot in a probe chain proves the key is
//    absent and every scan — insert, lookup, remove — stops there;
//  - readers that wait out kValueUnset re-validate the key inside the spin
//    loop: a concurrent remove parks the value at kValueUnset before
//    tombstoning the key, and a reader that kept spinning without re-checking
//    the key could wait forever (or return a value for the wrong key once the
//    slot is reused);
//  - same-page insert/remove races are excluded by the caller (the fault
//    handler holds the per-page VMA entry lock), so the table only needs to
//    be internally consistent across *different* keys.
//
// Capacity is 2x the frame count (load factor <= 0.5). Tombstones are NOT
// kept in check by reuse on insert: an insert reuses the first tombstone on
// its chain, but empties are never re-created, so under steady
// insert/remove churn the table fills with tombstones that every scan
// walks. On mmiobench randread_ooc a lookup probes ~11 slots and an insert
// ~9. Chain length is not where the cycles go, though: the first slot of a
// probe is the one cold miss, and the rest of the chain sits on adjacent
// lines. A 1.3-probe Remove cost as much as an 11-probe Lookup (~340 host
// cycles each), and a tombstone-free variant (seqlock readers, striped
// writers, backward-shift delete) measured no faster end to end (3 pairs:
// sim kop/s 2325/2240/2233 -> 2060/2173/2216, p99.9 128-137 -> 160-172 us).
// Eviction hides the miss instead: it prefetches each victim's home slot a
// few victims ahead (Prefetch below).
#ifndef AQUILA_SRC_CACHE_LOCKFREE_HASH_H_
#define AQUILA_SRC_CACHE_LOCKFREE_HASH_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/util/bitops.h"
#include "src/util/cpu.h"
#include "src/util/logging.h"
#include "src/util/sharded_counter.h"

namespace aquila {

class LockFreeHash {
 public:
  static constexpr uint64_t kEmptyKey = 0;
  static constexpr uint64_t kTombstoneKey = ~0ull;
  static constexpr uint64_t kValueUnset = ~0ull;

  // `capacity` is rounded up to a power of two. Keys 0 and ~0 are reserved.
  explicit LockFreeHash(uint64_t capacity)
      : capacity_(NextPowerOfTwo(capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  // Inserts key -> value. Returns false if the key is already present.
  // Two-phase: scan the whole probe chain for the key (a tombstone does NOT
  // terminate the chain, so the key may live past one), remembering the
  // first reusable slot; then claim it with a CAS. Same-key concurrency is
  // excluded by the caller (per-page entry lock); racing *different* keys
  // may steal the remembered slot, in which case the scan restarts.
  bool Insert(uint64_t key, uint64_t value) {
    AQUILA_DCHECK(key != kEmptyKey && key != kTombstoneKey);
    uint64_t start = Mix64(key) & mask_;
    uint64_t probes = 0;
    while (true) {
      uint64_t claim = capacity_;  // sentinel: none found
      uint64_t index = start;
      for (uint64_t probe = 0; probe < capacity_; probe++, index = (index + 1) & mask_) {
        probes++;
        uint64_t cur = slots_[index].key.load(std::memory_order_acquire);
        if (cur == key) {
          RecordInsertProbes(probes);
          return false;
        }
        if (cur == kTombstoneKey) {
          if (claim == capacity_) {
            claim = index;
          }
        } else if (cur == kEmptyKey) {
          // An EMPTY slot terminates the chain: empties are never re-created
          // (Remove only ever writes tombstones), so no matching key can live
          // past this slot. Claiming here — not probing the rest of the table
          // — is what keeps inserts O(chain) instead of O(capacity).
          if (claim == capacity_) {
            claim = index;
          }
          break;
        }
      }
      AQUILA_CHECK(claim != capacity_);  // table full: capacity must exceed frames
      Slot& slot = slots_[claim];
      uint64_t expected = slot.key.load(std::memory_order_acquire);
      if ((expected == kEmptyKey || expected == kTombstoneKey) &&
          slot.key.compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
        slot.value.store(value, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        RecordInsertProbes(probes);
        return true;
      }
      // A concurrent insert of a different key took the slot; rescan.
    }
  }

  // Looks up `key`. Returns true and sets *value on hit.
  bool Lookup(uint64_t key, uint64_t* value) const {
    uint64_t index = Mix64(key) & mask_;
    for (uint64_t probe = 0; probe < capacity_; probe++, index = (index + 1) & mask_) {
      const Slot& slot = slots_[index];
      uint64_t cur = slot.key.load(std::memory_order_acquire);
      if (cur == kEmptyKey) {
        return false;
      }
      if (cur == key) {
        uint64_t v = slot.value.load(std::memory_order_acquire);
        SpinBackoff backoff;
        while (v == kValueUnset) {
          // Either an insert is in flight (value not yet published) or a
          // remove parked the value at kValueUnset just before tombstoning
          // the key. Re-validate the key each iteration: without it a racing
          // Remove leaves this loop spinning until the slot is reused — and a
          // reuse for a *different* key would then hand back that key's value.
          if (slot.key.load(std::memory_order_acquire) != key) {
            return false;  // removed (or reused) while we waited
          }
          backoff.Pause();
          v = slot.value.load(std::memory_order_acquire);
        }
        // Re-check the key: the slot may have been removed and reused for a
        // different key between the two loads.
        if (slot.key.load(std::memory_order_acquire) != key) {
          return false;
        }
        *value = v;
        return true;
      }
    }
    return false;
  }

  // Removes `key`. Returns false when absent.
  bool Remove(uint64_t key) {
    uint64_t index = Mix64(key) & mask_;
    for (uint64_t probe = 0; probe < capacity_; probe++, index = (index + 1) & mask_) {
      Slot& slot = slots_[index];
      uint64_t cur = slot.key.load(std::memory_order_acquire);
      if (cur == kEmptyKey) {
        return false;
      }
      if (cur == key) {
        // Protocol order matters: park the value at kValueUnset BEFORE
        // tombstoning the key. An insert that reuses this tombstone claims
        // the key with an acquire CAS ordered after both stores, so readers
        // that observe the new key can only observe kValueUnset (and wait
        // for the insert's publication) — never this entry's stale value.
        // Readers spinning on kValueUnset re-validate the key (see Lookup),
        // which bounds their wait when no insert follows.
        slot.value.store(kValueUnset, std::memory_order_release);
        slot.key.store(kTombstoneKey, std::memory_order_release);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Prefetches `key`'s home slot for writing. The first line of a probe is
  // where Remove and Lookup stall; the rest of a chain is usually adjacent.
  void Prefetch(uint64_t key) const { PrefetchForWrite(&slots_[Mix64(key) & mask_]); }

  uint64_t size() const { return size_.load(); }
  uint64_t capacity() const { return capacity_; }

  // Probe-length accounting for the insert path (the only non-wait-free op:
  // a scan that fails to stop at the first empty slot degrades to
  // O(capacity) and this is how the regression test catches it). Inserts run
  // on the miss path only, so two relaxed adds per insert cost nothing the
  // paper's hit-path scalability claim cares about.
  struct ProbeStats {
    uint64_t insert_calls = 0;
    uint64_t insert_probes = 0;  // total slots examined across all inserts
  };
  ProbeStats probe_stats() const {
    ProbeStats s;
    s.insert_calls = insert_calls_.load();
    s.insert_probes = insert_probes_.load();
    return s;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint64_t> value{kValueUnset};
  };

  void RecordInsertProbes(uint64_t probes) {
    insert_calls_.fetch_add(1, std::memory_order_relaxed);
    insert_probes_.fetch_add(probes, std::memory_order_relaxed);
  }

  uint64_t capacity_;                // guarded-by: immutable after construction
  uint64_t mask_;                    // guarded-by: immutable after construction
  std::unique_ptr<Slot[]> slots_;    // guarded-by: immutable after construction
  ShardedCounter size_;
  ShardedCounter insert_calls_;
  ShardedCounter insert_probes_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_CACHE_LOCKFREE_HASH_H_
