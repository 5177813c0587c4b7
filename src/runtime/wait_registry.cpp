#include "runtime/wait_registry.h"

#include <chrono>
#include <ctime>

namespace semlock::runtime {

WaitRegistry& WaitRegistry::instance() {
  static WaitRegistry registry;
  return registry;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

// Claims a registry slot for the thread's lifetime; scanning happens once
// per thread, not per wait.
struct ThreadSlotOwner {
  WaitRegistry::Slot* slot = nullptr;

  ThreadSlotOwner() = default;
  ~ThreadSlotOwner() {
    if (slot) slot->claimed.store(false, std::memory_order_release);
  }
};

}  // namespace

WaitRegistry::Slot* WaitRegistry::thread_slot() {
  thread_local ThreadSlotOwner owner;
  thread_local bool attempted = false;
  if (!attempted) {
    attempted = true;
    for (int i = 0; i < kSlots; ++i) {
      bool expected = false;
      if (slots_[i].claimed.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        owner.slot = &slots_[i];
        break;
      }
    }
  }
  return owner.slot;
}

WaitScope::WaitScope(const void* mechanism, int mode, int partition,
                     std::uint64_t start_ns, std::uint64_t waiter,
                     std::uint64_t blocker, std::int32_t blocker_site)
    : slot_(WaitRegistry::instance().thread_slot()) {
  if (!slot_) return;
  const std::uint64_t seq = slot_->seq.load(std::memory_order_relaxed);
  slot_->seq.store(seq + 1, std::memory_order_relaxed);  // odd: writing
  std::atomic_thread_fence(std::memory_order_release);
  slot_->mechanism.store(reinterpret_cast<std::uintptr_t>(mechanism),
                         std::memory_order_relaxed);
  slot_->mode.store(mode, std::memory_order_relaxed);
  slot_->partition.store(partition, std::memory_order_relaxed);
  slot_->start_ns.store(start_ns, std::memory_order_relaxed);
  slot_->waiter.store(waiter, std::memory_order_relaxed);
  slot_->blocker.store(blocker, std::memory_order_relaxed);
  slot_->blocker_site.store(blocker_site, std::memory_order_relaxed);
  slot_->seq.store(seq + 2, std::memory_order_release);  // even: published
}

void WaitScope::set_blocker(std::uint64_t blocker, std::int32_t site) {
  if (!slot_) return;
  const std::uint64_t seq = slot_->seq.load(std::memory_order_relaxed);
  slot_->seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot_->blocker.store(blocker, std::memory_order_relaxed);
  slot_->blocker_site.store(site, std::memory_order_relaxed);
  slot_->seq.store(seq + 2, std::memory_order_release);
}

WaitScope::~WaitScope() {
  if (!slot_) return;
  const std::uint64_t seq = slot_->seq.load(std::memory_order_relaxed);
  slot_->seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot_->mechanism.store(0, std::memory_order_relaxed);
  slot_->seq.store(seq + 2, std::memory_order_release);
}

}  // namespace semlock::runtime
