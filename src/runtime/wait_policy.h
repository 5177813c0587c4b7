// Pluggable waiting strategies for the semantic-lock runtime.
//
// The Fig. 20 mechanism originally waited by pure spin-then-yield, which
// burns a core per blocked transaction and collapses when the benchmark
// oversubscribes the machine. This header names the four strategies the
// runtime supports and the one per-acquisition driver they all run:
//
//   SpinYield    — the historical behavior: exponential-backoff spinning that
//                  escalates to sched_yield. Never sleeps; lowest wakeup
//                  latency, highest CPU burn. Kept as the default so existing
//                  configurations are bit-for-bit compatible.
//   SpinThenPark — bounded adaptive spin (cheap when the conflicting holder
//                  leaves quickly), then futex-style parking on the
//                  partition's ParkingLot. The production default candidate.
//   AlwaysPark   — SpinThenPark with a spin budget of 0: park on the first
//                  failed attempt. Best CPU economy under heavy
//                  oversubscription; used by the no-lost-wakeup stress
//                  tests because it maximizes the park/notify interleavings.
//   FutexWord    — SpinThenPark's driver, but the waiter then sleeps
//                  DIRECTLY on the packed lock word via C++20
//                  std::atomic::wait/notify, bypassing the external
//                  ParkingLot (docs/FAST_PATH.md §7). Only the Packed
//                  storage policy has a single word to sleep on; mechanisms
//                  with flat/striped storage silently degrade this policy
//                  to SpinThenPark.
//
// Selection is per ModeTable (ModeTableConfig::wait_policy). The process-wide
// default honors the SEMLOCK_WAIT_POLICY environment variable and an ambient
// override (ScopedWaitPolicy) that the benchmark harness uses to sweep
// policies without rebuilding every module's config plumbing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/spinlock.h"

namespace semlock::runtime {

enum class WaitPolicyKind {
  SpinYield,
  SpinThenPark,
  AlwaysPark,
  FutexWord,
};

// Short stable name ("spin-yield", "spin-then-park", "always-park",
// "futex-word") used by benchmark tables, JSON output, and the environment
// knob.
const char* wait_policy_name(WaitPolicyKind kind);

// Accepts the canonical names plus the shorthands "spin", "adaptive",
// "park" and "futex". Returns nullopt for anything else.
std::optional<WaitPolicyKind> parse_wait_policy(std::string_view text);

// Resolves SEMLOCK_WAIT_POLICY text: recognized names parse as above;
// anything else (typos, empty) warns once on stderr and falls back to
// SpinYield. Split out from the cached env lookup for testability.
WaitPolicyKind wait_policy_from_env_text(const char* text);

// Process-wide default policy: the ambient override if one is installed,
// else SEMLOCK_WAIT_POLICY (parsed once), else SpinYield.
WaitPolicyKind default_wait_policy();

// Installs/clears the ambient override consulted by default_wait_policy().
// Passing nullopt restores the environment-derived default.
void set_ambient_wait_policy(std::optional<WaitPolicyKind> kind);

// RAII ambient override: every ModeTableConfig constructed inside the scope
// defaults to `kind`. Used by the harness to sweep policies.
class ScopedWaitPolicy {
 public:
  explicit ScopedWaitPolicy(WaitPolicyKind kind);
  ScopedWaitPolicy(const ScopedWaitPolicy&) = delete;
  ScopedWaitPolicy& operator=(const ScopedWaitPolicy&) = delete;
  ~ScopedWaitPolicy();

 private:
  std::optional<WaitPolicyKind> previous_;
};

// The driver each policy runs is "parks or not, plus a spin budget":
// SpinYield never parks; SpinThenPark and FutexWord spin `park_spin_limit`
// backoff rounds (FutexWord differs only in WHERE the waiter then sleeps,
// which is the mechanism's call); AlwaysPark spins 0.
inline bool policy_parks(WaitPolicyKind kind) noexcept {
  return kind != WaitPolicyKind::SpinYield;
}
inline std::uint32_t policy_spin_budget(
    WaitPolicyKind kind, std::uint32_t park_spin_limit) noexcept {
  return kind == WaitPolicyKind::AlwaysPark ? 0 : park_spin_limit;
}

// Per-acquisition wait driver. Each failed acquisition attempt calls
// step(): the driver either performs one unit of spinning/yielding and
// returns false, or returns true to tell the caller to park. Once a parking
// waiter exhausts its spin budget it keeps parking for the rest of the
// acquisition (re-spinning after every wakeup would re-burn the budget
// against the same long-held conflict). A waiter that never parks keeps a
// budget of 1 that is never charged, so it spins and yields forever.
class WaitState {
 public:
  WaitState(bool parks, std::uint32_t spin_budget)
      : spins_left_(parks ? spin_budget : 1), charge_(parks ? 1 : 0) {}

  bool step() noexcept {
    if (spins_left_ == 0) return true;
    spins_left_ -= charge_;
    backoff_.pause();
    return false;
  }

  // True when the next step() can take the waiter off its CPU: it yields
  // (a backoff past its pause rounds) or tells the caller to park. Until
  // then the waiter only spins on its own core, so its wait costs CPU equal
  // to its wall time and needs no CPU clock.
  bool may_leave_cpu() const noexcept {
    return spins_left_ == 0 || backoff_.yields_next();
  }

 private:
  std::uint32_t spins_left_;
  std::uint32_t charge_;
  util::Backoff backoff_;
};

}  // namespace semlock::runtime
