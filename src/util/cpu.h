// Low-level CPU utilities: cycle counters, pause hints, cache-line geometry,
// and the logical-core registry used by all per-core data structures.
//
// The reproduction substrate models an N-core machine on top of however many
// OS threads the host actually provides. Every thread that participates in
// the Aquila runtime is assigned a stable *logical core id*; per-core
// structures (freelists, dirty trees, TLBs) are indexed by that id, so the
// sharding behaviour of the paper's dual-socket testbed is preserved even on
// a single physical CPU.
#ifndef AQUILA_SRC_UTIL_CPU_H_
#define AQUILA_SRC_UTIL_CPU_H_

#include <atomic>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#include <x86intrin.h>
#endif

namespace aquila {

inline constexpr int kCacheLineSize = 64;

// Read the time-stamp counter. On non-x86 hosts falls back to a steady
// nanosecond clock scaled to a nominal 2.4 GHz (the paper's testbed clock).
inline uint64_t ReadCycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  uint64_t ns = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + ts.tv_nsec;
  return ns * 24 / 10;
#endif
}

// Serializing cycle read for begin/end measurement pairs.
inline uint64_t ReadCyclesFenced() {
#if defined(__x86_64__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return ReadCycles();
#endif
}

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Requests the cache line holding `addr` with write intent, so a later store
// or RMW on it does not stall on the miss. A hint: never faults, even on an
// address that is not mapped.
#if defined(__x86_64__)
inline void PrefetchForWrite(const void* addr) {
  // PREFETCHW itself: __builtin_prefetch's write hint only emits it under
  // -mprfchw, and PREFETCHT0 fetches the line shared, so the later store
  // or RMW still waits for ownership from the core that last wrote it.
  // Decodes as a NOP on x86-64 cores without it.
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(addr)));
}
#else
inline void PrefetchForWrite(const void* addr) { __builtin_prefetch(addr, 1, 3); }
#endif

// Spin-wait helper: pause a few rounds, then yield the host CPU. Simulations
// oversubscribe host cores heavily (32 workers on 1 CPU); yielding lets the
// thread we are waiting on actually run instead of burning a quantum.
class SpinBackoff {
 public:
  void Pause() {
    if (++spins_ < 64) {
      CpuRelax();
    } else {
      Yield();
      spins_ = 0;
    }
  }

 private:
  static void Yield();
  int spins_ = 0;
};

// Logical-core registry. Threads call RegisterThisThread() once (done by
// Aquila::EnterThread) and CurrentCore() thereafter. Ids are dense, starting
// at 0, and never reused within a process lifetime modulo kMaxCores wrap.
class CoreRegistry {
 public:
  static constexpr int kMaxCores = 64;

  // Assigns (or returns the existing) logical core id for the calling thread.
  static int RegisterThisThread() {
    if (tls_core_id_ < 0) {
      tls_core_id_ = next_id_.fetch_add(1, std::memory_order_relaxed) % kMaxCores;
    }
    return tls_core_id_;
  }

  // Logical core id of the calling thread; auto-registers on first use so
  // helper threads and tests never observe a negative id.
  static int CurrentCore() {
    if (tls_core_id_ < 0) {
      return RegisterThisThread();
    }
    return tls_core_id_;
  }

  // Number of logical cores registered so far (upper bound kMaxCores).
  static int RegisteredCores() {
    int n = next_id_.load(std::memory_order_relaxed);
    return n < kMaxCores ? n : kMaxCores;
  }

  // The calling thread's id without registering it: -1 for a thread that
  // never registered. For callers that must not consume an id (registering
  // grows RegisteredCores(), the default shootdown population).
  static int PeekCurrentCore() { return tls_core_id_; }

  // Test-only: forces the calling thread's logical core id.
  static void SetCurrentCoreForTest(int core) { tls_core_id_ = core; }

 private:
  static inline std::atomic<int> next_id_{0};
  static inline thread_local int tls_core_id_ = -1;
};

// NUMA topology model: logical cores are split round-robin across
// kNumaNodes nodes, mirroring the paper's dual-socket layout.
struct NumaTopology {
  static constexpr int kNumaNodes = 2;
  static int NodeOfCore(int core) { return core % kNumaNodes; }
};

}  // namespace aquila

#endif  // AQUILA_SRC_UTIL_CPU_H_
