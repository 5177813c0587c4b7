// No-starvation schedule oracle support for the DCT harness.
//
// The grant policies bound how often a conflicting waiter can be bypassed
// (src/runtime/grant_policy.h). To certify that bound under exhaustive
// schedule exploration, the mechanism reports two things here, compiled only
// under SEMLOCK_DCT and free when no tracker is installed:
//
//   - StarvationWaitScope: RAII around one contended wait episode in
//     LockMechanism::lock_contended. Registered at the waiter's doorway:
//     its ticket draw under a fair policy (so episodes register in ticket
//     order), wait-loop entry under Free. granted(), called under the lock
//     that granted the mode, closes the episode and charges one bypass to
//     every EARLIER-registered episode still waiting on the same
//     (mechanism, partition) — those are exactly the waiters this grant
//     overtook. Later-registered waiters were behind it all along, so a
//     grant in arrival order (FIFO draining its queue) counts nothing.
//   - starvation_on_grant(mechanism, partition): called at the fast-path
//     grant sites (optimistic hit, uncontended arbitrated grant, try_lock
//     success), where the grantee arrived later than every registered
//     waiter by definition. Bumps every open episode on the partition.
//
// A workload installs a StarvationTracker for the duration of a schedule and
// asserts on max_bypasses() in its check() function: the oracle fails the
// schedule when any single wait episode was overtaken more often than the
// policy's certified bound — K per queue head plus the in-flight doorway
// allowance (a thread that passed the barrier check before the barrier rose
// may still announce once), see runtime/grant_policy.h.
//
// Virtual DCT threads are real std::threads serialized by the Scheduler, so
// the tracker's mutex is never contended; it exists for the non-scheduled
// uses (a tracker installed around ordinary concurrent code works too).
#pragma once

#if defined(SEMLOCK_DCT)

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace semlock::dct {

class StarvationTracker {
 public:
  StarvationTracker();
  StarvationTracker(const StarvationTracker&) = delete;
  StarvationTracker& operator=(const StarvationTracker&) = delete;
  // Uninstalls itself if still the active tracker.
  ~StarvationTracker();

  // Makes this tracker the process-wide sink for wait/grant reports. At most
  // one tracker is active; installing replaces the previous one.
  void install();
  void uninstall();

  // Largest number of grants that overtook any single wait episode observed
  // so far (including episodes still open).
  std::uint64_t max_bypasses() const;
  // Total wait episodes registered (sanity: did the workload contend at all).
  std::uint64_t episodes() const;
  // One line per episode in registration order ("#i p<partition> <n>x"),
  // for oracle failure messages.
  std::string describe() const;

 private:
  friend class StarvationWaitScope;
  friend void starvation_on_grant(const void* mechanism, int partition);

  struct Episode {
    const void* mechanism;
    int partition;
    std::uint64_t bypasses;
    bool open;
  };

  mutable std::mutex mu_;
  std::vector<Episode> episodes_;
};

// RAII wait episode; see header comment. Safe to construct when no tracker
// is installed (all operations no-op).
class StarvationWaitScope {
 public:
  StarvationWaitScope(const void* mechanism, int partition);
  StarvationWaitScope(const StarvationWaitScope&) = delete;
  StarvationWaitScope& operator=(const StarvationWaitScope&) = delete;
  // Closes the episode; further grants no longer count against it. Called
  // before the waiter reports its own grant. The destructor closes too (a
  // waiter abandoned by an exception just stops accruing).
  void granted();
  ~StarvationWaitScope();

 private:
  StarvationTracker* tracker_;
  std::size_t index_;
};

// Reports one grant on (mechanism, partition) to the active tracker, if any.
void starvation_on_grant(const void* mechanism, int partition);

}  // namespace semlock::dct

#endif  // SEMLOCK_DCT
