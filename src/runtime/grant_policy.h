// Pluggable grant policies for the semantic-lock runtime.
//
// The wait policies (wait_policy.h) say HOW a blocked transaction waits; the
// grant policy says WHO gets the lock next. The default — Free — is the
// historical behavior: any arrival whose conflicting counters are clear
// acquires immediately, including the lock-free optimistic tier. That
// maximizes throughput but has a real liveness hole: a sustained stream of
// mutually-commuting arrivals (e.g. readers of a self-commuting mode) keeps
// the conflicting counters nonzero forever, and a non-commuting waiter is
// bypassed indefinitely. The StallWatchdog only *reports* that starvation;
// these policies bound it:
//
//   Free          — no admission control. The compatibility baseline; the
//                   mechanism's fast paths are byte-for-byte the PR 3 code.
//   BoundedBypass — the throughput/fairness dial: commuting arrivals may
//                   bypass the oldest waiter at most K times
//                   (SEMLOCK_BYPASS_BOUND); the K-th bypass raises the
//                   barrier and new arrivals divert to the queue until that
//                   waiter is granted, which resets the budget. Queued
//                   waiters are granted in ticket order.
//   Fifo          — bounded bypass with K = 0: the barrier closes the moment
//                   anyone queues, so every new arrival (including the
//                   optimistic tier, which checks the partition's barrier
//                   before announcing) is diverted to the wait queue and
//                   grants happen in arrival order. Pays head-of-line
//                   blocking: a commuting flood behind one conflicting
//                   waiter serializes through the ticket cursor.
//
// One protocol serves both fair policies; only K differs.
//
// Selection mirrors the wait policies: per ModeTable via
// ModeTableConfig::grant_policy, defaulting to the ambient override
// (ScopedGrantPolicy) else the strictly-parsed SEMLOCK_GRANT_POLICY
// environment variable, else Free. The bypass bound comes from
// ModeTableConfig::bypass_bound / SEMLOCK_BYPASS_BOUND.
//
// The DCT no-starvation oracle counts true overtakes only — grants to
// later arrivals while a waiter is queued; a FIFO queue draining in arrival
// order charges nothing. A waiter is queued from its ticket draw, which
// raises the barrier in the same critical section, to its grant. One bound
// covers every K: K x T + (T - 1) for T threads (FIFO: T - 1). K refills
// once per queue head while the waiter is queued, and there are at most T
// heads (the one at its ticket draw, plus one per earlier ticket, at most
// one per thread). Each of the T - 1 other threads may also land one
// doorway straggler: an acquisition whose barrier check passed before the
// barrier rose. Later tickets cannot be granted first, so no other path
// overtakes (tests/dct_mutation_test.cpp certifies it).
//
// Grants outside that window are not overtakes: before the ticket draw the
// barrier cannot know the waiter, and after its grant it no longer waits.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace semlock::runtime {

enum class GrantPolicyKind {
  Free,
  Fifo,
  BoundedBypass,
};

// Short stable name ("free", "fifo", "bounded-bypass") used by
// benchmark tables, JSON output, and the environment knob.
const char* grant_policy_name(GrantPolicyKind kind);

// Accepts the canonical names plus the shorthands "ticket", "bounded",
// "bypass", "bb". Returns nullopt for anything else.
std::optional<GrantPolicyKind> parse_grant_policy(std::string_view text);

// Resolves SEMLOCK_GRANT_POLICY text: recognized names parse as above;
// anything else (typos, empty) warns once on stderr and falls back to Free.
// Split out from the cached env lookup for testability.
GrantPolicyKind grant_policy_from_env_text(const char* text);

// Process-wide default policy: the ambient override if one is installed,
// else SEMLOCK_GRANT_POLICY (parsed once), else Free.
GrantPolicyKind default_grant_policy();

// Installs/clears the ambient override consulted by default_grant_policy().
// Passing nullopt restores the environment-derived default.
void set_ambient_grant_policy(std::optional<GrantPolicyKind> kind);

// RAII ambient override: every ModeTableConfig constructed inside the scope
// defaults to `kind`. Used by bench_fairness to sweep policies.
class ScopedGrantPolicy {
 public:
  explicit ScopedGrantPolicy(GrantPolicyKind kind);
  ScopedGrantPolicy(const ScopedGrantPolicy&) = delete;
  ScopedGrantPolicy& operator=(const ScopedGrantPolicy&) = delete;
  ~ScopedGrantPolicy();

 private:
  std::optional<GrantPolicyKind> previous_;
};

// BoundedBypass budget K (Fifo runs with K = 0). Range 1..2^20; the
// strict-parse contract of util/env applies (malformed SEMLOCK_BYPASS_BOUND
// warns once on stderr and falls back to the default of 16).
inline constexpr std::uint32_t kDefaultBypassBound = 16;
std::uint32_t bypass_bound_from_env_text(const char* text);
std::uint32_t default_bypass_bound();

}  // namespace semlock::runtime
