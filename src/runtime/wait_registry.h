// Process-wide registry of in-flight lock waits, feeding the StallWatchdog
// and the live wait-for graph (obs/waitgraph.h).
//
// Every thread that enters the contended path of the lock mechanism claims a
// thread-local slot (released at thread exit) and publishes
// {mechanism, mode, partition, wait-start} for the duration of the wait. A
// traced wait also publishes its wait-for edge in the same slot: the
// waiter's owner id and the blocker it sampled (owner id and lock site),
// the blocker refreshed in place at each park. Readers sample the table from
// their own thread; a per-slot sequence number (seqlock discipline, but with
// every field atomic so the scheme is data-race-free under TSan) lets them
// skip slots caught mid-update.
//
// Publication is best-effort diagnostics: if more threads than kSlots wait
// simultaneously, the overflow waiters simply go unobserved — the lock
// mechanism itself never depends on the registry.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/align.h"

namespace semlock::runtime {

class WaitRegistry {
 public:
  static constexpr int kSlots = 512;

  struct alignas(util::kCacheLineSize) Slot {
    // Even = stable, odd = being written. Readers validate that the value
    // is even and unchanged around their field reads.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uintptr_t> mechanism{0};  // 0 = slot idle
    std::atomic<std::int32_t> mode{-1};
    std::atomic<std::int32_t> partition{-1};
    std::atomic<std::uint64_t> start_ns{0};  // steady_clock, ns since epoch
    // Wait-for edge (obs owner ids); waiter 0 = no edge published.
    std::atomic<std::uint64_t> waiter{0};
    std::atomic<std::uint64_t> blocker{0};  // 0 = none sampled
    std::atomic<std::int32_t> blocker_site{-1};
    std::atomic<bool> claimed{false};
  };

  static WaitRegistry& instance();

  // The calling thread's claimed slot, or nullptr if all kSlots are taken.
  Slot* thread_slot();

  // A consistent snapshot of one active wait.
  struct ActiveWait {
    std::uintptr_t mechanism;
    std::int32_t mode;
    std::int32_t partition;
    std::uint64_t start_ns;
    std::uint64_t waiter;
    std::uint64_t blocker;
    std::int32_t blocker_site;
    int slot_index;
  };

  // Invokes `fn(const ActiveWait&)` for every slot publishing a wait that is
  // consistent at sampling time.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (int i = 0; i < kSlots; ++i) {
      const Slot& s = slots_[i];
      const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 & 1) continue;
      ActiveWait w;
      w.mechanism = s.mechanism.load(std::memory_order_relaxed);
      w.mode = s.mode.load(std::memory_order_relaxed);
      w.partition = s.partition.load(std::memory_order_relaxed);
      w.start_ns = s.start_ns.load(std::memory_order_relaxed);
      w.waiter = s.waiter.load(std::memory_order_relaxed);
      w.blocker = s.blocker.load(std::memory_order_relaxed);
      w.blocker_site = s.blocker_site.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
      if (w.mechanism == 0) continue;
      w.slot_index = i;
      fn(static_cast<const ActiveWait&>(w));
    }
  }

 private:
  WaitRegistry() = default;
  Slot slots_[kSlots];
};

// Steady-clock nanoseconds, shared by publication and sampling.
std::uint64_t steady_now_ns();

// CPU nanoseconds charged to the calling thread (CLOCK_THREAD_CPUTIME_ID).
// The waiting subsystem's key observable: a spinning waiter accumulates
// thread CPU for its entire wait, a parked waiter only around the futex
// calls.
std::uint64_t thread_cpu_now_ns();

// RAII publication of one wait episode. Constructed on entry to the
// contended lock path with the wait's start time, destroyed on acquisition.
// A nonzero `waiter` also publishes the wait-for edge to `blocker`, which
// set_blocker() refreshes. Null-slot safe.
class WaitScope {
 public:
  WaitScope(const void* mechanism, int mode, int partition,
            std::uint64_t start_ns, std::uint64_t waiter = 0,
            std::uint64_t blocker = 0, std::int32_t blocker_site = -1);
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;
  ~WaitScope();

  void set_blocker(std::uint64_t blocker, std::int32_t site);

 private:
  WaitRegistry::Slot* slot_;
};

}  // namespace semlock::runtime
