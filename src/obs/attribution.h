// Conflict attribution: WHY did a contended wait happen? (ISSUE 5.)
//
// The semantic-lock design trades precision for a finite lock table twice:
// the hash phi merges distinct concrete keys into n abstract values, and the
// mode bound widens symbolic sets (Section 5.3). PR 4's blocked-by matrix
// records THAT mode pairs blocked each other; this module re-runs the
// commutativity check on the CONCRETE argument values of the waiter and of
// the blocking mode's last grantee, and classifies every sampled contended
// wait as one of:
//
//   TRUE_CONFLICT      the concrete ops genuinely do not commute — the wait
//                      is semantically required, no tuning helps.
//   SELF_MODE          waiter and holder use the same non-self-commuting
//                      mode and both argument records show the concrete ops
//                      conflict (the degenerate true conflict: same key).
//   PHI_COLLISION      the concrete values commute, but phi.alpha_of merged
//                      them into one abstract value — raising
//                      ModeTableConfig::abstract_values dissolves the wait.
//   MODE_OVERAPPROX    the locked symbolic set contains operations the
//                      holding transaction never executed against this
//                      instance (tracked per (owner, instance) in a bounded
//                      best-effort table) — a tighter symbolic set would
//                      dissolve the wait.
//   WRAPPER_COARSENING both sides carry distinct logical-instance ids, i.e.
//                      the Section 3.4 global-wrapper collapse funnels
//                      unrelated instances through one mechanism.
//   UNSAMPLED          no stable argument record was available (torn
//                      seqlock read, record overwritten or not yet
//                      published by the holder's core, or a caller that
//                      locked by bare mode id) — counted honestly instead
//                      of being folded into a guess, even for equal modes.
//
// Everything here is off the fast path: classification runs only on entry
// to the contended wait loop of a TRACED mechanism, subject to
// SEMLOCK_ATTRIBUTION / SEMLOCK_ATTRIBUTION_SAMPLE. The per-mode grant
// records are seqlock-published so grantors never block and readers never
// see torn values. docs/OBSERVABILITY.md section 9 explains how to read the
// output; bench/bench_attribution_sweep.cpp turns it into the
// abstract_values tuning curve.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "commute/value.h"

namespace semlock {
class ModeTable;
struct LockSiteArgs;
}  // namespace semlock

namespace semlock::obs {

// --- classification outcome -------------------------------------------------

enum class AttrClass : std::uint32_t {
  kTrueConflict = 0,
  kSelfMode = 1,
  kPhiCollision = 2,
  kModeOverapprox = 3,
  kWrapperCoarsening = 4,
  kUnsampled = 5,
};

inline constexpr std::size_t kNumAttrClasses = 6;

// Human name ("true conflict") for reports and snake_case key
// ("true_conflict") for JSON. Stable — committed artifacts depend on them.
const char* attr_class_name(AttrClass c) noexcept;
const char* attr_class_key(AttrClass c) noexcept;

// --- the per-mode last-grant argument record --------------------------------

// Bounded copy of a grant's LockSiteArgs. Sites with more variables simply
// record no arguments (classified UNSAMPLED) — every shipped ADT uses one.
inline constexpr std::uint32_t kAttrMaxVals = 4;

// One record per (mechanism, mode), written at every grant of a traced
// mechanism while attribution is enabled. Multi-writer seqlock: a grantor
// CASes seq even->odd, stores the payload relaxed, releases seq even again;
// a grantor that loses the CAS skips (newest-wins is all a sampled profile
// needs). All payload words are relaxed atomics so concurrent readers are
// exact under TSan, validated by re-reading seq.
struct AttrRecord {
  std::atomic<std::uint32_t> seq{0};  // 0 = never written; odd = mid-write
  std::atomic<std::uint64_t> owner{0};
  std::atomic<std::uint64_t> logical_instance{0};
  std::atomic<std::int32_t> site{-1};
  std::atomic<std::uint32_t> nvals{0};
  std::atomic<commute::Value> vals[kAttrMaxVals] = {};
};

// A decoded, race-free copy of an AttrRecord (or of a waiter's own
// LockSiteArgs). `valid` means "carries a usable (site, values) tuple".
struct AttrSnapshot {
  bool valid = false;
  std::uint64_t owner = 0;
  std::uint64_t logical_instance = 0;
  std::int32_t site = -1;
  std::uint32_t nvals = 0;
  commute::Value vals[kAttrMaxVals] = {};
};

// Publishes a grant into `rec` (no-op when another grantor is mid-write).
void attr_record_grant(AttrRecord& rec, std::uint64_t owner,
                       const LockSiteArgs* args) noexcept;

// Seqlock read; returns an invalid snapshot on a torn or never-written
// record.
AttrSnapshot attr_read(const AttrRecord& rec) noexcept;

// --- runtime gates and env knobs --------------------------------------------

// SEMLOCK_ATTRIBUTION=0|1 (default 1): classification runs iff the
// mechanism is traced AND this is set — tracing alone already pays for the
// blocked-by matrix, attribution adds the concrete re-check on top.
bool attribution_enabled() noexcept;
void set_attribution_enabled(bool on) noexcept;

// SEMLOCK_ATTRIBUTION_SAMPLE=N (default 1, range 1..1048576): classify
// every Nth contended wait per thread.
std::uint32_t attribution_sample_every() noexcept;
void set_attribution_sample_every(std::uint32_t every) noexcept;

// Per-thread sampling decision (increments the thread's wait counter).
bool attribution_should_sample() noexcept;

// Testable strict parsers (util/env convention: nullptr is silent, malformed
// text warns once on stderr and falls back).
bool attribution_enabled_from_env_text(const char* text);
std::uint32_t attribution_sample_from_env_text(const char* text);

// --- executed-ops tracking (MODE_OVERAPPROX evidence) -----------------------

// Records that `owner` (txn id or thread sentinel, see current_owner_id())
// executed spec method `method` against `instance`. Bounded direct-mapped
// table, newest-wins on slot collision; a lost or polluted entry only makes
// classification more conservative (fewer MODE_OVERAPPROX), never wrong
// about TRUE_CONFLICT.
void note_executed_op(const void* instance, std::uint64_t owner,
                      int method) noexcept;

// Bitmask of spec method indices `owner` executed against `instance`
// (bit i = method i; methods >= 64 are never tracked). 0 = unknown.
std::uint64_t executed_ops_mask(const void* instance,
                                std::uint64_t owner) noexcept;

// Test hook: clears the executed-ops table (obs::reset_for_test calls it).
void reset_executed_ops() noexcept;

// --- the classifier ---------------------------------------------------------

// Pure decision tree over two argument snapshots (unit-testable without any
// lock traffic). `holder_exec_mask` restricts the holder's symbolic set to
// the ops its owner actually executed against this instance (0 = no
// restriction). Rules, in order:
//   1. both sides valid with distinct nonzero logical ids -> WRAPPER_COARSENING
//   2. either side lacks a usable record -> UNSAMPLED, whatever the modes
//   3. any (waiter op, holder op) pair non-commuting on the concrete values
//      -> SELF_MODE if same mode else TRUE_CONFLICT
//   4. all pairs commute concretely but some pair fails the ABSTRACT check
//      through an alpha merge -> PHI_COLLISION
//   5. otherwise the conflict exists only between ops the holder never
//      executed -> MODE_OVERAPPROX
AttrClass classify_wait(const ModeTable& table, int waiter_mode,
                        const AttrSnapshot& waiter, int holder_mode,
                        const AttrSnapshot& holder,
                        std::uint64_t holder_exec_mask);

// Lock-path entry point (called from LockMechanism::lock_contended for each
// held conflicting mode of a sampled wait): builds the waiter snapshot from
// its live LockSiteArgs, seqlock-reads the holder's grant record (discarding
// it when it is the waiter's own previous grant), classifies, bumps the
// per-(instance, mode pair) tallies and emits a kAttribution event whose
// mode field is the AttrClass index. Returns the class assigned (kUnsampled
// when the holder record was torn or the waiter's own) so the span recorder
// can stamp the wait's lock-wait span with it.
AttrClass record_attribution(const void* instance, const ModeTable& table,
                             int waiter_mode, const LockSiteArgs* waiter_args,
                             int holder_mode, const AttrRecord* holder_rec);

}  // namespace semlock::obs
