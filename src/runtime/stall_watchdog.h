// Background sampler that surfaces starved semantic-lock waiters.
//
// OS2PL never rolls back (Section 4): a transaction that waits on a mode
// waits until the conflicting holders release it, so a stuck holder turns
// into silent starvation rather than a timeout abort. The watchdog makes
// that visible: a background thread samples the WaitRegistry every
// `poll` interval and reports each wait that has exceeded `threshold` —
// (mode, partition, wait duration, and the per-conflicting-mode holder
// counts) — through a user callback, stderr by default.
//
// Holder counts require dereferencing the LockMechanism the waiter is
// blocked on, so the watchdog only inspects mechanisms explicitly registered
// via watch(); everything else is reported without holder detail. Watched
// mechanisms must outlive the watchdog (or be unwatch()ed first).
//
// Reports are diagnostics only — the watchdog never unparks, aborts, or
// otherwise perturbs the waiters it observes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/spinlock.h"

namespace semlock {
class LockMechanism;
}  // namespace semlock

namespace semlock::runtime {

// Stall reports emitted by EVERY watchdog instance since process start.
// Watchdogs are per-harness objects that come and go; a health endpoint
// (server/admin.h) needs the process-wide count after the instance that
// observed the stall is gone.
std::uint64_t global_stalls_reported() noexcept;

struct StallReport {
  const LockMechanism* mechanism = nullptr;  // null if not watch()ed
  int mode = -1;
  int partition = -1;
  std::uint64_t wait_ns = 0;
  // Wait accrued by this waiter across chained episodes: a waiter that
  // re-enters the wait loop under a different mode after a partial release
  // (new WaitScope, fresh start_ns) is still the same starved waiter, so
  // the watchdog chains temporally-adjacent episodes in the same registry
  // slot on the same mechanism and reports when the SUM crosses the
  // threshold. Equal to wait_ns for an unchained wait.
  std::uint64_t cumulative_wait_ns = 0;
  // (conflicting mode id, current holder count); empty when mechanism is
  // null. A stall with every holder count zero points at the mechanism's
  // internal lock or a wakeup bug rather than a long-held mode.
  std::vector<std::pair<int, std::uint32_t>> conflicting_holders;
  // Post-mortem from the observability layer (obs::stall_forensics): which
  // conflicting modes are held and by which transaction, plus the recent
  // trace events touching the stalled instance. Populated only when the
  // mechanism is watch()ed, built with SEMLOCK_OBS, and has trace_events on;
  // empty otherwise.
  std::string forensics;

  std::string to_string() const;
};

class StallWatchdog {
 public:
  struct Options {
    std::chrono::milliseconds poll{50};
    std::chrono::milliseconds threshold{250};
    // Minimum gap between two reports for the same ongoing wait, so a
    // permanently starved mode logs once per interval instead of once per
    // poll. Zero = report on every poll.
    std::chrono::milliseconds repeat_interval{1000};
  };

  using Callback = std::function<void(const StallReport&)>;

  // Default callback prints report.to_string() to stderr.
  explicit StallWatchdog(Options options, Callback callback = Callback{});
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;
  ~StallWatchdog();  // stops and joins

  // Registers a mechanism for holder-count introspection. Thread-safe.
  void watch(const LockMechanism& mechanism);
  void unwatch(const LockMechanism& mechanism);

  void start();
  void stop();
  bool running() const { return running_; }

  // Total stall reports emitted since construction.
  std::uint64_t stalls_reported() const {
    return stalls_reported_.load(std::memory_order_acquire);
  }

  // Starts a watchdog iff SEMLOCK_WATCHDOG_MS is set (value = threshold in
  // milliseconds; poll = threshold / 4, clamped to >= 1ms). Returns nullptr
  // otherwise. Benchmarks call this so starvation diagnosis is one
  // environment variable away.
  static std::unique_ptr<StallWatchdog> from_env(Callback callback = {});

  // Parsing half of from_env, split out for testability: "0" is an explicit
  // silent disable; malformed, negative, or overflowing text warns once on
  // stderr and disables (nullopt), never starts a misconfigured watchdog.
  static std::optional<std::chrono::milliseconds> parse_env_text(
      const char* text);

 private:
  void run();
  void sample();

  Options options_;
  Callback callback_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> stalls_reported_{0};
  std::thread thread_;

  mutable util::Spinlock watched_mutex_;
  std::vector<const LockMechanism*> watched_;

  // Per-slot waiter tracking. Keyed on the WAITER (slot + mechanism), not on
  // the episode (its start_ns): a waiter that retries under a different
  // mode publishes a fresh start_ns, and an episode-keyed dedup would
  // silently restart its stall clock every retry — the chronically starved
  // retrier is exactly the waiter forensics must not drop. Episodes whose
  // gap in the same slot on the same mechanism stays within a few polls are
  // chained; `accrued_ns` carries the completed episodes and the
  // repeat-interval rate limit applies to the waiter as a whole.
  struct WaiterTrack {
    std::uint64_t mechanism = 0;
    std::uint64_t episode_start_ns = 0;
    std::uint64_t accrued_ns = 0;
    std::uint64_t last_seen_ns = 0;
    std::uint64_t reported_at_ns = 0;
  };
  std::vector<WaiterTrack> tracks_;
};

}  // namespace semlock::runtime
