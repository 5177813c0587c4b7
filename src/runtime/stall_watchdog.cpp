#include "runtime/stall_watchdog.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "runtime/wait_registry.h"
#include "semlock/lock_mechanism.h"
#include "util/env.h"

#if defined(SEMLOCK_OBS)
#include "obs/trace.h"
#include "obs/waitgraph.h"
#endif

namespace semlock::runtime {

namespace {
std::atomic<std::uint64_t> g_stalls_reported{0};
}  // namespace

std::uint64_t global_stalls_reported() noexcept {
  return g_stalls_reported.load(std::memory_order_relaxed);
}

std::string StallReport::to_string() const {
  std::string out = "[semlock-watchdog] mode " + std::to_string(mode) +
                    " (partition " + std::to_string(partition) +
                    ") waiting " +
                    std::to_string(wait_ns / 1'000'000) + " ms";
  if (cumulative_wait_ns > wait_ns) {
    out += " (" + std::to_string(cumulative_wait_ns / 1'000'000) +
           " ms across retried episodes)";
  }
  if (mechanism == nullptr) {
    out += " (mechanism not watched; no holder detail)";
    return out;
  }
  out += "; conflicting holders:";
  if (conflicting_holders.empty()) out += " none";
  for (const auto& [m, holders] : conflicting_holders) {
    out += " l" + std::to_string(m) + "=" + std::to_string(holders);
  }
  if (!forensics.empty()) {
    out += '\n';
    out += forensics;
  }
  return out;
}

StallWatchdog::StallWatchdog(Options options, Callback callback)
    : options_(options),
      callback_(std::move(callback)),
      tracks_(WaitRegistry::kSlots) {
  if (!callback_) {
    callback_ = [](const StallReport& report) {
      std::fprintf(stderr, "%s\n", report.to_string().c_str());
    };
  }
}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::watch(const LockMechanism& mechanism) {
  watched_mutex_.lock();
  if (std::find(watched_.begin(), watched_.end(), &mechanism) ==
      watched_.end()) {
    watched_.push_back(&mechanism);
  }
  watched_mutex_.unlock();
}

void StallWatchdog::unwatch(const LockMechanism& mechanism) {
  watched_mutex_.lock();
  watched_.erase(std::remove(watched_.begin(), watched_.end(), &mechanism),
                 watched_.end());
  watched_mutex_.unlock();
}

void StallWatchdog::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void StallWatchdog::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void StallWatchdog::run() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    sample();
    // Sleep in small steps so stop() stays responsive under long polls.
    auto remaining = options_.poll;
    constexpr auto kStep = std::chrono::milliseconds(10);
    while (remaining.count() > 0 &&
           !stop_requested_.load(std::memory_order_acquire)) {
      const auto nap = remaining < kStep ? remaining : kStep;
      std::this_thread::sleep_for(nap);
      remaining -= nap;
    }
  }
}

void StallWatchdog::sample() {
  const std::uint64_t now = steady_now_ns();
  const std::uint64_t threshold_ns =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              options_.threshold)
              .count());
  const std::uint64_t repeat_ns =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              options_.repeat_interval)
              .count());

  // Chain gap: a retrying waiter re-registers within a couple of polls; a
  // slot reused by an unrelated wait after sitting idle longer than this
  // starts a fresh track. Generous (4 polls) because an episode can start
  // and end entirely between two samples.
  const std::uint64_t chain_gap_ns =
      4 * static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  options_.poll)
                  .count());

  WaitRegistry::instance().for_each_active(
      [&](const WaitRegistry::ActiveWait& wait) {
        WaiterTrack& track =
            tracks_[static_cast<std::size_t>(wait.slot_index)];
        if (track.episode_start_ns != wait.start_ns ||
            track.mechanism != wait.mechanism) {
          // New episode in this slot. Same mechanism and a small gap since
          // the waiter was last seen = the same waiter retrying (possibly
          // under a different mode after a partial release): carry its
          // accrued wait forward. Anything else is a new waiter.
          if (track.mechanism == wait.mechanism && track.last_seen_ns > 0 &&
              track.last_seen_ns + chain_gap_ns > now) {
            if (track.last_seen_ns > track.episode_start_ns) {
              track.accrued_ns += track.last_seen_ns - track.episode_start_ns;
            }
          } else {
            track.accrued_ns = 0;
            track.reported_at_ns = 0;
          }
          track.mechanism = wait.mechanism;
          track.episode_start_ns = wait.start_ns;
        }
        track.last_seen_ns = now;
        const std::uint64_t cumulative =
            track.accrued_ns + (now - wait.start_ns);
        if (cumulative < threshold_ns) return;
        if (repeat_ns > 0 && track.reported_at_ns != 0 &&
            track.reported_at_ns + repeat_ns > now) {
          return;  // this waiter was reported recently
        }

        StallReport report;
        report.mode = wait.mode;
        report.partition = wait.partition;
        report.wait_ns = now - wait.start_ns;
        report.cumulative_wait_ns = cumulative;

        watched_mutex_.lock();
        for (const LockMechanism* m : watched_) {
          if (reinterpret_cast<std::uintptr_t>(m) == wait.mechanism) {
            report.mechanism = m;
            break;
          }
        }
        if (report.mechanism != nullptr) {
          for (const std::int32_t other :
               report.mechanism->table().conflicts_of(wait.mode)) {
            report.conflicting_holders.emplace_back(
                other, report.mechanism->holders(other));
          }
        }
        watched_mutex_.unlock();

#if defined(SEMLOCK_OBS)
        if (report.mechanism != nullptr && report.mechanism->traced()) {
          // Leave a marker in the trace stream and attach the forensic dump:
          // held modes with the transaction that last acquired them, plus
          // the tail of the per-thread rings filtered to this instance.
          obs::emit(obs::EventType::kWatchdogStall, report.mechanism,
                    wait.mode);
          report.forensics = obs::stall_forensics(
              report.mechanism, wait.mode, report.conflicting_holders);
          // The full blocker chain (txn -> txn -> ...) from the live
          // wait-for graph, not just the immediate holder — when the stall
          // is transitive (A waits on B waits on C), the root cause is the
          // end of the chain. It starts at this slot's own waiter, so two
          // waiters stalled on one (instance, mode) each get their chain.
          const std::string chain = obs::waitgraph_chain(wait.waiter);
          if (!chain.empty()) report.forensics += "  " + chain;
        }
#endif

        track.reported_at_ns = now;
        stalls_reported_.fetch_add(1, std::memory_order_acq_rel);
        g_stalls_reported.fetch_add(1, std::memory_order_relaxed);
        callback_(report);
      });
}

std::optional<std::chrono::milliseconds> StallWatchdog::parse_env_text(
    const char* text) {
  if (text == nullptr) return std::nullopt;
  // Cap at ~1 year: bigger values are always typos and would overflow the
  // nanosecond math in sample().
  constexpr long long kMaxMs = 1'000LL * 60 * 60 * 24 * 365;
  const std::optional<long long> ms = util::env_int_in_range(
      "SEMLOCK_WATCHDOG_MS", text, 0, kMaxMs, "watchdog disabled");
  if (!ms || *ms == 0) return std::nullopt;  // 0 = explicit silent disable
  return std::chrono::milliseconds(*ms);
}

std::unique_ptr<StallWatchdog> StallWatchdog::from_env(Callback callback) {
  const std::optional<std::chrono::milliseconds> threshold =
      parse_env_text(std::getenv("SEMLOCK_WATCHDOG_MS"));
  if (!threshold) return nullptr;
  Options options;
  options.threshold = *threshold;
  options.poll = std::max(std::chrono::milliseconds(1), *threshold / 4);
  auto watchdog =
      std::make_unique<StallWatchdog>(options, std::move(callback));
  watchdog->start();
  return watchdog;
}

}  // namespace semlock::runtime
