#include "semlock/lock_mechanism.h"

#include <algorithm>
#include <new>

#include "dct/hooks.h"
#include "runtime/wait_registry.h"
#include "util/align.h"

#if defined(SEMLOCK_DCT)
#include <optional>

#include "dct/starvation.h"
// Grant hook for the DCT no-starvation oracle: every grant on a partition
// bumps the bypass count of the wait episodes still queued there. Compiles
// to nothing outside the harness.
#define LM_DCT_GRANT(partition) \
  ::semlock::dct::starvation_on_grant(this, (partition))
#else
#define LM_DCT_GRANT(partition) ((void)0)
#endif

#if defined(SEMLOCK_OBS)
#include "obs/attribution.h"
#include "obs/span.h"
#include "obs/trace.h"
// Mechanism-level trace hook: gated on this mechanism's cached
// ModeTableConfig::trace_events flag (trace_), not the global switch, so
// per-table overrides work and the disabled cost is one predictable branch.
#define LM_OBS_EVENT(type, mode)                                     \
  do {                                                               \
    if (trace_) [[unlikely]]                                         \
      ::semlock::obs::emit(::semlock::obs::EventType::type, this,    \
                           (mode));                                  \
  } while (0)
// Grant hook for the conflict-attribution profiler: refresh the mode's
// last-acquirer record with this caller's identity and concrete argument
// values. Same trace_ gate as LM_OBS_EVENT, so the traced-off cost stays one
// predictable branch.
#define LM_ATTR_GRANT(mode, args)                                    \
  do {                                                               \
    if (trace_) [[unlikely]] {                                       \
      if (attr_records_ != nullptr && obs::attribution_enabled()) {  \
        obs::attr_record_grant(                                      \
            attr_records_[static_cast<std::size_t>(mode)],           \
            obs::current_owner_id(), (args));                        \
      }                                                              \
    }                                                                \
  } while (0)
// Site hook for the hold-time profiler: stash the caller's lock site at
// acquisition entry so the grant event (whichever tier lands it) can stamp
// its OpenHold with the code path that took the lock.
#define LM_OBS_SITE(args)                                            \
  do {                                                               \
    if (trace_) [[unlikely]]                                         \
      ::semlock::obs::note_lock_site((args) != nullptr ? (args)->site \
                                                       : -1);        \
  } while (0)
#else
#define LM_OBS_EVENT(type, mode) ((void)0)
#define LM_ATTR_GRANT(mode, args) ((void)0)
#define LM_OBS_SITE(args) ((void)0)
#endif

namespace semlock {

namespace {

// Bounded retries for the lock-free optimistic tier before falling back to
// the spinlock-arbitrated slow path. Small on purpose: a validation failure
// means a conflicting mode is actually held, and repeated announce/retract
// cycles only disturb that holder's cache lines.
constexpr int kOptimisticAttempts = 4;

// Bounded CAS retries inside one packed acquisition attempt before reporting
// Contended. A CAS failure here is not a conflict — a commuting neighbor
// moved the word — so a couple of immediate retries usually land; past that
// the caller backs off or arbitrates.
constexpr int kPackedCasRetries = 4;

// Randomized backoff between optimistic retries: two racing conflicting
// announcers that failed against each other must not re-announce in
// lockstep. SplitMix64 per thread; only the pause count is randomized, never
// control flow, so DCT replay stays deterministic.
std::uint32_t backoff_jitter() noexcept {
  thread_local std::uint64_t state = [] {
    return 0x9E3779B97F4A7C15ull *
           (0x2545F4914F6CDD1Dull +
            reinterpret_cast<std::uintptr_t>(&state));
  }();
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(z >> 32);
}

void backoff_pause(int attempt) noexcept {
  const std::uint32_t ceiling = 8u << (attempt < 8 ? attempt : 8);
  const std::uint32_t spins = backoff_jitter() & (ceiling - 1);
  for (std::uint32_t i = 0; i < spins; ++i) util::cpu_relax();
}

// The futex-word policy degrades to SpinThenPark unless the storage is
// Packed — only a packed table has a single word to sleep on. Resolved once
// here so every consumer (parking allocation, can_park_, the public
// wait_policy() accessor) agrees on the effective policy.
runtime::WaitPolicyKind effective_wait_policy(const ModeTable& table,
                                              StorageKind kind) {
  const runtime::WaitPolicyKind p = table.config().wait_policy;
  if (p == runtime::WaitPolicyKind::FutexWord &&
      kind != StorageKind::Packed) {
    return runtime::WaitPolicyKind::SpinThenPark;
  }
  return p;
}

bool uses_futex_word(const ModeTable& table, StorageKind kind) {
  return kind == StorageKind::Packed &&
         effective_wait_policy(table, kind) ==
             runtime::WaitPolicyKind::FutexWord;
}

}  // namespace

AcquireStats& local_acquire_stats() {
#if defined(SEMLOCK_OBS)
  // The counters live inside the obs thread state so they are merged into
  // the process-wide MetricsRegistry when the thread exits — cross-thread
  // totals stay exact instead of losing whatever exited early.
  return obs::thread_acquire_stats();
#else
  thread_local AcquireStats stats;
  return stats;
#endif
}

LockMechanism::StorageVariant LockMechanism::make_storage(
    const ModeTable& table, StorageKind kind) {
  switch (kind) {
    case StorageKind::Flat:
      return StorageVariant(std::in_place_type<FlatStorage>, table);
    case StorageKind::Striped:
      return StorageVariant(std::in_place_type<StripedStorage>, table);
    case StorageKind::Packed:
      return StorageVariant(std::in_place_type<PackedStorage>,
                            *table.packed_layout());
  }
  return StorageVariant(std::in_place_type<FlatStorage>, table);
}

LockMechanism::LockMechanism(const ModeTable& table)
    : table_(&table),
      // A Packed request over a table with no packed layout (> 8 canonical
      // modes, too many partitions, ...) silently becomes Flat; storage()
      // reports the representation actually in use.
      storage_kind_(table.config().storage == StorageKind::Packed &&
                            table.packed_layout() == nullptr
                        ? StorageKind::Flat
                        : table.config().storage),
      storage_(make_storage(table, storage_kind_)),
      partition_locks_(
          new util::Spinlock[static_cast<std::size_t>(
              table.num_partitions())]),
      parking_(uses_futex_word(table, storage_kind_)
                   ? nullptr
                   : std::make_unique<runtime::ParkingLot>(
                         table.num_partitions())),
      policy_(effective_wait_policy(table, storage_kind_)),
      spin_limit_(runtime::policy_spin_budget(
          policy_, table.config().park_spin_limit > 0
                       ? static_cast<std::uint32_t>(
                             table.config().park_spin_limit)
                       : 0)),
      can_park_(runtime::policy_parks(policy_)),
      optimistic_(table.config().optimistic_acquire),
#if defined(SEMLOCK_OBS)
      trace_(table.config().trace_events),
#else
      trace_(false),
#endif
      futex_word_(uses_futex_word(table, storage_kind_)),
      grant_policy_(table.config().grant_policy),
      // Fifo is bounded bypass with a budget of 0.
      bypass_bound_(grant_policy_ == runtime::GrantPolicyKind::Fifo ? 0
                    : table.config().bypass_bound > 0
                        ? static_cast<std::uint32_t>(
                              table.config().bypass_bound)
                        : 1) {
  if (grant_policy_ != runtime::GrantPolicyKind::Free) {
    grant_slots_ = std::make_unique<GrantSlot[]>(
        static_cast<std::size_t>(table.num_partitions()));
  }
#if defined(SEMLOCK_OBS)
  if (trace_) {
    attr_records_ = std::make_unique<obs::AttrRecord[]>(
        static_cast<std::size_t>(table.num_modes()));
  }
#endif
}

// Out of line: obs::AttrRecord is incomplete in the header.
LockMechanism::~LockMechanism() = default;

std::uint32_t LockMechanism::holder_count(int mode,
                                          std::memory_order order) const {
  return std::visit(
      [&](const auto& s) { return s.holder_count(mode, order); }, storage_);
}

bool LockMechanism::mode_striped(int mode) const {
  return std::visit([&](const auto& s) { return s.mode_striped(mode); },
                    storage_);
}

std::uint32_t LockMechanism::stripes() const {
  return std::visit([](const auto& s) { return s.stripes(); }, storage_);
}

std::size_t LockMechanism::footprint_bytes() const {
  const auto partitions = static_cast<std::size_t>(table_->num_partitions());
  std::size_t total = sizeof(LockMechanism);
  total += std::visit([](const auto& s) { return s.heap_bytes(); }, storage_);
  total += partitions * sizeof(util::Spinlock);
  if (parking_ != nullptr) {
    // The lot object plus its one cache-line slot per partition
    // (runtime/parking_lot.h).
    total += sizeof(runtime::ParkingLot) + partitions * util::kCacheLineSize;
  }
  if (grant_slots_ != nullptr) total += partitions * sizeof(GrantSlot);
#if defined(SEMLOCK_OBS)
  if (attr_records_ != nullptr) {
    total += static_cast<std::size_t>(table_->num_modes()) *
             sizeof(obs::AttrRecord);
  }
#endif
  return total;
}

template <class Storage>
bool LockMechanism::conflicts_clear_impl(const Storage& s, int mode,
                                         std::uint32_t self_allow,
                                         std::memory_order order) const {
  if constexpr (Storage::kPacked) {
    // The whole conflict row is one masked load against the compiled mask.
    // A saturated own-mode field also blocks (acquiring would corrupt the
    // mini-counter), which is the saturation fallback: the arrival waits
    // like a conflicted one until a release drops the field. Packed storage
    // never announces transiently, so self_allow is moot.
    (void)self_allow;
    const PackedLayout& layout = s.layout();
    const auto mi = static_cast<std::size_t>(mode);
    SEMLOCK_DCT_POINT("word.check", &s.word());
    const std::uint64_t w = s.word().load(order);
    return (w & layout.conflict_mask[mi]) == 0 &&
           (w & layout.field_mask[mi]) != layout.field_mask[mi];
  } else {
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      SEMLOCK_DCT_POINT("mode.check", s.dct_id(other));
      const std::uint32_t allow = other == mode ? self_allow : 0;
      if (s.holder_count(other, order) > allow) {
        return false;
      }
    }
    return true;
  }
}

template <class Storage>
bool LockMechanism::conflicts_clear(const Storage& s, int mode) const {
  return conflicts_clear_impl(s, mode, 0, std::memory_order_acquire);
}

template <class Storage>
bool LockMechanism::announce_validate(Storage& s, int mode, int partition,
                                      AcquireStats& stats) {
  static_assert(!Storage::kPacked,
                "packed storage acquires via packed_try_acquire");
  SEMLOCK_DCT_POINT("mode.announce", s.dct_id(mode));
  // Announce-before-validate on both sides, all seq_cst: in the seq_cst
  // total order, of two conflicting announcers one increments second, and
  // that one's validation loads (also seq_cst) then see the other's
  // announcement (Dekker / SB litmus) — they cannot both validate. A seq_cst
  // RMW is the same instruction as a relaxed one on x86 and folds the
  // barrier into the load/add on ARM, which is why this beats a relaxed
  // announce plus a standalone fence. self_allow=1 discounts our own
  // announcement when the mode conflicts with itself.
  s.increment(mode, std::memory_order_seq_cst);
  if (conflicts_clear_impl(s, mode, 1, std::memory_order_seq_cst)) {
    return true;
  }
  ++stats.retracts;
  LM_OBS_EVENT(kRetract, mode);
  SEMLOCK_DCT_POINT("mode.retract", s.dct_id(mode));
#if defined(SEMLOCK_DCT)
  if (dct::mutation_drop_retract_rewake()) {
    // Test-only mutation: retract without the rewake — a conflicting waiter
    // that parked against our transient announcement is never woken
    // (tests/dct_mutation_test.cpp validates the detector against it).
    (void)s.release_one(mode, can_park_);
    return false;
  }
#endif
  if (s.release_one(mode, can_park_)) {
    // Our transient announcement may have parked a conflicting waiter whose
    // real blocker released in the meantime; since ours was possibly the
    // last visible hold, replay the unlock wakeup so that waiter
    // re-validates instead of sleeping forever.
    parking_->unpark_all(partition);
  }
  return false;
}

LockMechanism::PackedAttempt LockMechanism::packed_try_acquire(
    PackedStorage& s, int mode, int partition, AcquireStats& stats,
    bool doorway) {
  const PackedLayout& layout = s.layout();
  std::atomic<std::uint64_t>& word = s.word();
  const auto mi = static_cast<std::size_t>(mode);
  const auto pi = static_cast<std::size_t>(partition);
  // Whether the folded grant-barrier bits still gate this attempt. The
  // ticketed arbitrated tier (doorway=false) ignores them, exactly as the
  // flat contended tier never consults fast_path_admitted.
  bool barrier_passed = grant_slots_ == nullptr || !doorway;
#if defined(SEMLOCK_DCT)
  // Test-only mutation: ignore the barrier — the bypass tiers behave as
  // under Free and the no-starvation oracle must notice.
  if (dct::mutation_drop_barrier_check()) barrier_passed = true;
#endif
  std::uint64_t w = word.load(std::memory_order_seq_cst);
  for (int attempt = 0;; ++attempt) {
    SEMLOCK_DCT_POINT("word.check", &word);
    std::uint64_t conflict = layout.conflict_mask[mi];
#if defined(SEMLOCK_DCT)
    // Test-only mutation: skip the compiled conflict-mask test — holders of
    // conflicting modes stop excluding each other and the serializability
    // oracle must catch the damage (tests/dct_mutation_test.cpp).
    if (dct::mutation_drop_packed_mask_check()) conflict = 0;
#endif
    if ((w & conflict) != 0) return PackedAttempt::Blocked;
    if ((w & layout.field_mask[mi]) == layout.field_mask[mi]) {
      // Mini-counter saturated: another increment would overflow into the
      // neighbor field, so this arrival falls back to the arbitrated/wait
      // tier until a release drops the field below field_max (releases from
      // saturation replay the wakeup; see unlock_impl).
      return PackedAttempt::Blocked;
    }
    if (!barrier_passed) {
      // The barrier STATE is folded into the word's bits; the budget stays
      // in the external GrantSlot (it does not fit the word). The state is
      // read once per attempt series, so the budget is charged once too.
      SEMLOCK_DCT_POINT("grant.barrier", &word);
      const Barrier barrier = (w & layout.closed_bit[pi]) != 0 ? kClosed
                              : (w & layout.counting_bit[pi]) != 0
                                  ? kCounting
                                  : kOpen;
      if (!doorway_admits(s, partition, barrier, stats, mode)) {
        return PackedAttempt::Blocked;
      }
      // Admitted: like the flat doorway, a barrier that rises after this
      // point (possibly by our own charge) no longer diverts us.
      barrier_passed = true;
      if (barrier == kCounting) {
        // The charge may have closed the barrier, moving the word: re-run
        // the checks on a fresh value rather than burn a CAS on a stale one.
        w = word.load(std::memory_order_seq_cst);
        continue;
      }
    }
    // The CAS fuses announce+validate: it claims the field ONLY if the word
    // it validated is still the word it saw, so there is no transient
    // announcement, hence no retract and no rewake on this path.
    SEMLOCK_DCT_POINT("word.cas", &word);
    if (word.compare_exchange_weak(w, w + layout.inc[mi],
                                   std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
      return PackedAttempt::Acquired;
    }
    // compare_exchange reloaded w; re-run the checks on the fresh value.
    if (attempt >= kPackedCasRetries) return PackedAttempt::Contended;
  }
}

void LockMechanism::word_wait(std::atomic<std::uint64_t>& word,
                              std::uint64_t observed) {
#if defined(SEMLOCK_DCT)
  if (dct::scheduled()) {
    dct::futex_wait(word, observed);
    return;
  }
#endif
  word.wait(observed, std::memory_order_seq_cst);
}

template <class Storage>
bool LockMechanism::fast_path_admitted(Storage& s, int partition,
                                       AcquireStats& stats, int mode) {
  if (grant_slots_ == nullptr) return true;
#if defined(SEMLOCK_DCT)
  // Test-only mutation: ignore the barrier — the bypass tiers behave as
  // under Free and the no-starvation oracle must notice.
  if (dct::mutation_drop_barrier_check()) return true;
#endif
  std::atomic<std::uint32_t>& barrier =
      grant_slots_[static_cast<std::size_t>(partition)].barrier;
  SEMLOCK_DCT_POINT("grant.barrier", &barrier);
  return doorway_admits(
      s, partition,
      static_cast<Barrier>(barrier.load(std::memory_order_acquire)), stats,
      mode);
}

template <class Storage>
bool LockMechanism::doorway_admits(Storage& s, int partition, Barrier barrier,
                                   AcquireStats& stats, int mode) {
  if (barrier == kOpen) return true;
  if (barrier == kCounting) {
    // Charge the budget; the admission that exhausts it closes the barrier
    // for everyone after. A straggler that read a counting state before a
    // reset can only over-count — the bound holds.
    const std::uint32_t before =
        grant_slots_[static_cast<std::size_t>(partition)].bypasses.fetch_add(
            1, std::memory_order_acq_rel);
    if (before + 1 >= bypass_bound_) {
      store_barrier(s, partition, kClosed, /*only_if_counting=*/true);
    }
    if (before < bypass_bound_) return true;
  }
  ++stats.diverted;
  LM_OBS_EVENT(kBarrierDivert, mode);
  return false;
}

template <class Storage>
void LockMechanism::store_barrier(Storage& s, int partition, Barrier state,
                                  bool only_if_counting) {
  const auto pi = static_cast<std::size_t>(partition);
  if constexpr (Storage::kPacked) {
    // One CAS moves both bits, so no reader sees a mixed state.
    const PackedLayout& layout = s.layout();
    const std::uint64_t bits = layout.closed_bit[pi] | layout.counting_bit[pi];
    const std::uint64_t want = state == kClosed     ? layout.closed_bit[pi]
                               : state == kCounting ? layout.counting_bit[pi]
                                                    : 0;
    std::uint64_t cur = s.word().load(std::memory_order_relaxed);
    while ((cur & bits) != want &&
           (!only_if_counting || (cur & layout.counting_bit[pi]) != 0) &&
           !s.word().compare_exchange_weak(cur, (cur & ~bits) | want,
                                           std::memory_order_seq_cst)) {
    }
  } else {
    std::atomic<std::uint32_t>& barrier = grant_slots_[pi].barrier;
    if (only_if_counting) {
      std::uint32_t expected = kCounting;
      barrier.compare_exchange_strong(expected, state,
                                      std::memory_order_acq_rel);
    } else {
      barrier.store(state, std::memory_order_release);
    }
  }
}

template <class Storage>
void LockMechanism::rearm_barrier(Storage& s, int partition) {
  GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  slot.bypasses.store(0, std::memory_order_relaxed);
  store_barrier(s, partition,
                slot.waiting == 0    ? kOpen
                : bypass_bound_ == 0 ? kClosed
                                     : kCounting);
}

bool LockMechanism::waiter_eligible(int partition,
                                    std::uint64_t ticket) const {
  if (grant_slots_ == nullptr) return true;
  // Tickets are unique, so once granted == ticket the cursor cannot move
  // past us — eligibility is monotone and this lock-free read is final.
  return grant_slots_[static_cast<std::size_t>(partition)].granted.load(
             std::memory_order_acquire) == ticket;
}

template <class Storage>
bool LockMechanism::grant_complete(Storage& s, int partition) {
  GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
  --slot.waiting;
  slot.granted.fetch_add(1, std::memory_order_release);
  // The waiter the budget protected is gone: a fresh budget for the next
  // one, or an open fast path when the queue is empty.
  rearm_barrier(s, partition);
  // Waiters park against both "conflicts held" and "not my turn"; advancing
  // the cursor changes the latter, so the caller must replay the wakeup
  // (after dropping the internal lock) exactly like a releasing unlock does.
  return slot.waiting > 0;
}

template <class Storage>
void LockMechanism::wake_partition(Storage& s, int partition) {
  if constexpr (Storage::kPacked) {
    if (futex_word_) {
      // Futex-word wakeup: clearing W both licenses future releases to skip
      // the notify and CHANGES THE WORD'S VALUE, so sleepers blocked on any
      // stale `observed` return from wait — including handoff wakeups that
      // touched no counter field. Woken waiters re-publish W before
      // sleeping again, so a cleared bit never strands a still-blocked
      // waiter.
      const PackedLayout& layout = s.layout();
      std::atomic<std::uint64_t>& word = s.word();
      if ((word.load(std::memory_order_seq_cst) & layout.waiters_bit) != 0) {
        word.fetch_and(~layout.waiters_bit, std::memory_order_seq_cst);
        SEMLOCK_DCT_POINT("word.wake", &word);
        word.notify_all();
      }
      return;
    }
  }
  parking_->unpark_all(partition);
}

template <class Storage>
void LockMechanism::lock_impl(Storage& s, int mode,
                              const LockSiteArgs* args) {
  auto& stats = local_acquire_stats();
  ++stats.acquisitions;
  LM_OBS_EVENT(kAcquireBegin, mode);
  LM_OBS_SITE(args);
  const int partition = table_->partition_of(mode);
  util::Spinlock& internal =
      partition_locks_[static_cast<std::size_t>(partition)];
  const bool precheck = table_->config().fast_path_precheck;
  if constexpr (Storage::kPacked) {
    if (optimistic_) {
      // Tier T1: the packed CAS already validates, honors the folded
      // barrier bits, and cannot leave a transient announcement, so the
      // whole doorway+announce+validate sequence is one bounded CAS loop.
      for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
        const PackedAttempt r =
            packed_try_acquire(s, mode, partition, stats, /*doorway=*/true);
        if (r == PackedAttempt::Acquired) {
          ++stats.optimistic_hits;
          LM_OBS_EVENT(kOptimisticHit, mode);
          LM_ATTR_GRANT(mode, args);
          LM_DCT_GRANT(partition);
          return;
        }
        if (r == PackedAttempt::Blocked) break;
        backoff_pause(attempt);
      }
    } else {
      // Historical arbitrated flavor: one attempt under the internal lock
      // (the CAS subsumes check-then-increment). Still a ticketless bypass,
      // so the doorway bits apply.
      if (!precheck || conflicts_clear(s, mode)) {
        internal.lock();
        const PackedAttempt r =
            packed_try_acquire(s, mode, partition, stats, /*doorway=*/true);
        internal.unlock();
        if (r == PackedAttempt::Acquired) {
          LM_OBS_EVENT(kAcquireGrant, mode);
          LM_ATTR_GRANT(mode, args);
          LM_DCT_GRANT(partition);
          return;
        }
      }
    }
    lock_contended(s, mode, partition, internal, stats, args);
  } else {
    if (optimistic_) {
      // Tier T1: lock-free attempts. The pre-check keeps the ablation knob
      // meaningful (and skips a futile announce when a conflict is visibly
      // held); validation inside announce_validate is unconditional. Under
      // a non-Free grant policy every attempt first consults the
      // partition's barrier word — a raised barrier sends this arrival to
      // the wait path.
      for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
        if (!fast_path_admitted(s, partition, stats, mode)) break;
        if (precheck && !conflicts_clear(s, mode)) break;
        if (announce_validate(s, mode, partition, stats)) {
          ++stats.optimistic_hits;
          LM_OBS_EVENT(kOptimisticHit, mode);
          LM_ATTR_GRANT(mode, args);
          LM_DCT_GRANT(partition);
          return;
        }
        backoff_pause(attempt);
      }
      lock_contended(s, mode, partition, internal, stats, args);
      return;
    }
    // Historical arbitrated path (optimistic_acquire off): check-then-
    // increment is sound here because every increment happens under the
    // partition's internal lock. This uncontended grant is ticketless, so
    // it is a bypass too and obeys the same barrier.
    if ((!precheck || conflicts_clear(s, mode)) &&
        fast_path_admitted(s, partition, stats, mode)) {
      internal.lock();
      if (conflicts_clear(s, mode)) {
        SEMLOCK_DCT_POINT("mode.acquire", s.dct_id(mode));
        s.increment(mode, std::memory_order_relaxed);
        internal.unlock();
        LM_OBS_EVENT(kAcquireGrant, mode);
        LM_ATTR_GRANT(mode, args);
        LM_DCT_GRANT(partition);
        return;
      }
      internal.unlock();
    }
    lock_contended(s, mode, partition, internal, stats, args);
  }
}

template <class Storage>
void LockMechanism::lock_contended(Storage& s, int mode, int partition,
                                   util::Spinlock& internal,
                                   AcquireStats& stats,
                                   const LockSiteArgs* args) {
  ++stats.contended;
  LM_OBS_EVENT(kContendedWait, mode);
#if defined(SEMLOCK_OBS)
  // Blocker identity for the causal layer (span recorder + wait-for graph):
  // the owner that last acquired the first held conflicting mode, sampled
  // from the PR 5 seqlock grant records. Captured on entry and refreshed at
  // every park, so the recorded blocker is whoever was actually holding at
  // the moment this waiter went to sleep.
  obs::BlockerInfo blocker;
  const bool span_on = trace_ && obs::spans_enabled();
  const auto capture_blocker = [&](std::uint64_t now_ns) {
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      if (s.holder_count(other, std::memory_order_acquire) == 0) continue;
      blocker.mode = other;
      blocker.capture_ns = now_ns;
      blocker.owner = 0;
      blocker.site = -1;
      if (attr_records_ != nullptr) {
        // The owner field is stored even for bare-mode grants (site -1), so
        // this works without LockSiteArgs; only a torn read or our own
        // previous grant leaves the blocker anonymous.
        const obs::AttrSnapshot h =
            obs::attr_read(attr_records_[static_cast<std::size_t>(other)]);
        if (h.owner != 0 && h.owner != obs::current_owner_id()) {
          blocker.owner = h.owner;
          blocker.site = h.site;
        }
      }
      return;
    }
  };
  if (trace_) {
    if (span_on) capture_blocker(runtime::steady_now_ns());
    // Sample the blocked-by conflict matrix: which non-commuting modes were
    // actually held when this waiter gave up on the fast path. The walk is
    // over conflicts_of(mode) only, so commuting pairs can never appear.
    // When attribution is on (and this wait drew a sample), also classify
    // the wait against each blocking mode's last-acquirer record: true
    // semantic conflict, or which abstraction artifact (obs/attribution.h).
    const bool classify = attr_records_ != nullptr &&
                          obs::attribution_enabled() &&
                          obs::attribution_should_sample();
    for (const std::int32_t other : table_->conflicts_of(mode)) {
      if (s.holder_count(other, std::memory_order_acquire) > 0) {
        obs::record_blocked_by(this, mode, other);
        if (classify) {
          const obs::AttrClass cls = obs::record_attribution(
              this, *table_, mode, args, other,
              &attr_records_[static_cast<std::size_t>(other)]);
          if (other == blocker.mode) {
            blocker.attr_class = static_cast<std::uint32_t>(cls);
          }
        }
      }
    }
  }
#endif
  const std::uint64_t wait_start = runtime::steady_now_ns();
  // The thread-CPU clock is a syscall, so it is read only once the wait can
  // leave the CPU (the first step() that yields or parks). Until then the
  // waiter spins on its own core and its wait CPU is its wall time.
  bool escalated = false;
  std::uint64_t escalate_wall = 0;
  std::uint64_t escalate_cpu = 0;
#if defined(SEMLOCK_OBS)
  // One publication for the watchdog and, when spans are on, the live
  // wait-for graph: the slot carries this wait's waiter -> blocker edge,
  // refreshed with the blocker at each park and cleared on grant.
  runtime::WaitScope wait_scope(this, mode, partition, wait_start,
                                span_on ? obs::current_owner_id() : 0,
                                blocker.owner, blocker.site);
#else
  runtime::WaitScope wait_scope(this, mode, partition, wait_start);
#endif
#if defined(SEMLOCK_DCT)
  // The oracle's wait episode opens at this waiter's doorway: here under
  // Free, else at the ticket draw below, in the critical section that
  // raises the barrier, so episodes register in ticket order and a grant
  // before the waiter queued is not charged to it.
  std::optional<dct::StarvationWaitScope> starvation_scope;
  if (grant_slots_ == nullptr) starvation_scope.emplace(this, partition);
#endif
  // Under a non-Free grant policy this waiter takes a ticket (the first
  // one raises the barrier) and only attempts the arbitrated grant when the
  // cursor says it is its turn; the grant then hands the cursor off to the
  // next waiter. kMaxTicket marks the Free policy's ticketless waiters.
  constexpr std::uint64_t kMaxTicket = ~std::uint64_t{0};
  std::uint64_t ticket = kMaxTicket;
  if (grant_slots_ != nullptr) {
    GrantSlot& slot = grant_slots_[static_cast<std::size_t>(partition)];
    internal.lock();
    SEMLOCK_DCT_POINT("grant.enqueue", &slot.barrier);
    ticket = slot.next_ticket.fetch_add(1, std::memory_order_relaxed);
    // Later waiters find the barrier already raised for the queue head;
    // only a grant re-arms it (grant_complete).
    if (++slot.waiting == 1) rearm_barrier(s, partition);
#if defined(SEMLOCK_DCT)
    starvation_scope.emplace(this, partition);
#endif
    internal.unlock();
  }
  runtime::WaitState wait(can_park_, spin_limit_);
  const bool precheck = table_->config().fast_path_precheck;
  for (;;) {
    const bool eligible =
        ticket == kMaxTicket || waiter_eligible(partition, ticket);
    if (eligible && (!precheck || conflicts_clear(s, mode))) {
      internal.lock();
      bool acquired;
      if constexpr (Storage::kPacked) {
        // Tier T2, packed: the same fused CAS, arbitrated by the internal
        // lock and with doorway=false — a ticketed waiter whose turn came
        // must not divert against its own barrier.
        acquired = packed_try_acquire(s, mode, partition, stats,
                                      /*doorway=*/false) ==
                   PackedAttempt::Acquired;
      } else if (optimistic_) {
        // Tier T2: same announce/validate protocol, but arbitrated — the
        // internal lock serializes the slow-path waiters of this partition
        // so they cannot starve each other with dueling announcements.
        // (Plain check-then-increment would race with the lock-free T1
        // announcers, which never take this lock.)
        acquired = announce_validate(s, mode, partition, stats);
      } else {
        acquired = conflicts_clear(s, mode);
        if (acquired) {
          SEMLOCK_DCT_POINT("mode.acquire", s.dct_id(mode));
          s.increment(mode, std::memory_order_relaxed);
        }
      }
      bool handoff = false;
      if (acquired && ticket != kMaxTicket) {
        handoff = grant_complete(s, partition);
      }
#if defined(SEMLOCK_DCT)
      // A contended grant is an overtake only of waiters that registered
      // BEFORE this one (granted() bumps exactly those); the unconditional
      // LM_DCT_GRANT is for the fast-path sites, where the grantee arrived
      // later than every registered waiter by definition. Closed here, under
      // the lock that granted it, so grants after this one are not charged
      // to a waiter that already holds the mode.
      if (acquired) starvation_scope->granted();
#endif
      internal.unlock();
      if (acquired) {
        if (handoff) {
          // The cursor moved: wake the partition so the newly eligible
          // waiter re-validates instead of sleeping on a stale turn.
          wake_partition(s, partition);
          if (futex_word_) {
            grant_slots_[static_cast<std::size_t>(partition)]
                .granted.notify_all();
          }
          ++stats.handoffs;
          LM_OBS_EVENT(kGrantHandoff, mode);
        }
        const std::uint64_t granted = runtime::steady_now_ns();
        const std::uint64_t waited = granted - wait_start;
        stats.wait_ns += waited;
        if (waited > stats.max_wait_ns) stats.max_wait_ns = waited;
        // Past the escalation the CPU clock is capped at the wall time it
        // covers: the two clocks tick from different sources, and a thread
        // cannot burn more CPU than the time that passed.
        stats.wait_cpu_ns +=
            escalated ? (escalate_wall - wait_start) +
                            std::min(runtime::thread_cpu_now_ns() -
                                         escalate_cpu,
                                     granted - escalate_wall)
                      : waited;
        LM_OBS_EVENT(kAcquireGrant, mode);
        LM_ATTR_GRANT(mode, args);
#if defined(SEMLOCK_OBS)
        if (trace_) obs::record_wait(this, mode, waited);
        if (span_on) {
          obs::record_lock_wait_span(this, mode, wait_start,
                                     wait_start + waited, blocker);
        }
#endif
        return;
      }
    }
    // One unit of waiting: the policy spins/yields itself (step() == false)
    // or asks us to sleep. Sleeping re-validates after announcing so a
    // release racing with the announcement is never missed; with a ticket
    // the re-validation covers eligibility too, since the handoff wakeup
    // above races with this announcement the same way a release does.
    if (!escalated && wait.may_leave_cpu()) {
      escalated = true;
      escalate_wall = runtime::steady_now_ns();
      escalate_cpu = runtime::thread_cpu_now_ns();
    }
    if (wait.step()) {
      bool slept_on_word = false;
      if constexpr (Storage::kPacked) {
        if (futex_word_) {
          // Waiter half of the futex-word handshake: publish the waiters
          // bit with an RMW on the word itself, then re-validate against
          // the value that RMW returned. The word's modification order is
          // the Dekker arbiter: either our fetch_or precedes the release
          // that would satisfy us (then that release observes W and
          // notifies after clearing it), or it follows it (then `observed`
          // already shows the conflict clear and we retry instead of
          // sleeping). Eligibility is not in the word, so a waiter whose
          // turn has not come sleeps on the ticket cursor instead (below).
          const PackedLayout& layout = s.layout();
          const auto mi = static_cast<std::size_t>(mode);
          SEMLOCK_DCT_POINT("word.announce", &s.word());
          const std::uint64_t observed =
              s.word().fetch_or(layout.waiters_bit,
                                std::memory_order_seq_cst) |
              layout.waiters_bit;
          const bool turn_ok =
              ticket == kMaxTicket || waiter_eligible(partition, ticket);
          bool still_blocked =
              !turn_ok ||
              (observed & layout.conflict_mask[mi]) != 0 ||
              (observed & layout.field_mask[mi]) == layout.field_mask[mi];
#if defined(SEMLOCK_DCT)
          // Test-only mutation: sleep blind, skipping the re-validation
          // half of the handshake — the lost-wakeup bug the DCT harness
          // must detect.
          if (dct::mutation_drop_announce_revalidate()) still_blocked = true;
#endif
          if (still_blocked) {
            LM_OBS_EVENT(kPark, mode);
#if defined(SEMLOCK_OBS)
            if (span_on) {
              capture_blocker(runtime::steady_now_ns());
              wait_scope.set_blocker(blocker.owner, blocker.site);
            }
#endif
            // A waiter can be preempted between its decision and its sleep;
            // the scheduler point lets DCT run other threads in that window.
            SEMLOCK_DCT_POINT("word.sleep", &s.word());
            if (turn_ok) {
              word_wait(s.word(), observed);
            } else {
              // Not our turn: sleep on the ticket cursor, which only grows
              // and which a handoff notifies after moving it. On the word,
              // a handoff clearing W and a later announcer setting it again
              // could return the word to `observed` (ABA) and swallow the
              // handoff's wakeup.
              std::atomic<std::uint64_t>& cursor =
                  grant_slots_[static_cast<std::size_t>(partition)].granted;
              const std::uint64_t seen =
                  cursor.load(std::memory_order_seq_cst);
              if (seen != ticket) word_wait(cursor, seen);
            }
            ++stats.parks;
            LM_OBS_EVENT(kUnpark, mode);
          }
          // No retract: W stays set until a wakeup clears it. The cost is
          // at most one spurious notify from a release that found W with
          // no sleeper left — cheaper than racing a clear against other
          // announcing waiters.
          slept_on_word = true;
        }
      }
      if (!slept_on_word) {
        const std::uint32_t gen = parking_->prepare(partition);
        parking_->announce(partition);
        const bool turn_ok =
            ticket == kMaxTicket || waiter_eligible(partition, ticket);
#if defined(SEMLOCK_DCT)
        // Test-only mutation: park blind, skipping the re-validation half
        // of the handshake — the lost-wakeup bug the DCT harness must
        // detect.
        const bool revalidated =
            !dct::mutation_drop_announce_revalidate() && turn_ok &&
            conflicts_clear(s, mode);
#else
        const bool revalidated = turn_ok && conflicts_clear(s, mode);
#endif
        if (revalidated) {
          parking_->retract(partition);
        } else {
          LM_OBS_EVENT(kPark, mode);
#if defined(SEMLOCK_OBS)
          if (span_on) {
            capture_blocker(runtime::steady_now_ns());
            wait_scope.set_blocker(blocker.owner, blocker.site);
          }
#endif
          parking_->park(partition, gen);
          ++stats.parks;
          LM_OBS_EVENT(kUnpark, mode);
        }
      }
    }
  }
}

template <class Storage>
bool LockMechanism::try_lock_impl(Storage& s, int mode,
                                  const LockSiteArgs* args) {
  auto& stats = local_acquire_stats();
  ++stats.acquisitions;
  LM_OBS_EVENT(kAcquireBegin, mode);
  LM_OBS_SITE(args);
  const int partition = table_->partition_of(mode);
  util::Spinlock& internal =
      partition_locks_[static_cast<std::size_t>(partition)];
  // Mirrors lock(): the pre-check is the Fig. 20 fast path and obeys the
  // same ablation knob, and a refused attempt charges its duration to the
  // wait counters just like a contended lock() does. It never yields or
  // parks, so its wall time is also its wait CPU.
  const std::uint64_t wait_start = runtime::steady_now_ns();
  const bool precheck = table_->config().fast_path_precheck;
  bool ok = false;
  // A try_lock never queues, so under a raised grant barrier it simply
  // refuses — overtaking the queued waiters here would reopen the
  // starvation channel the barrier exists to close.
  if constexpr (Storage::kPacked) {
    // One lock-free attempt (doorway honored — the barrier bits are part of
    // the same word the CAS validates), then one arbitrated attempt when
    // only CAS churn stood in the way.
    const PackedAttempt first =
        packed_try_acquire(s, mode, partition, stats, /*doorway=*/true);
    if (first == PackedAttempt::Acquired) {
      ok = true;
      ++stats.optimistic_hits;
      LM_OBS_EVENT(kOptimisticHit, mode);
      LM_ATTR_GRANT(mode, args);
      LM_DCT_GRANT(partition);
    } else if (first == PackedAttempt::Contended) {
      internal.lock();
      ok = packed_try_acquire(s, mode, partition, stats,
                              /*doorway=*/true) == PackedAttempt::Acquired;
      internal.unlock();
      if (ok) {
        LM_OBS_EVENT(kAcquireGrant, mode);
        LM_ATTR_GRANT(mode, args);
        LM_DCT_GRANT(partition);
      }
    }
    (void)precheck;  // the CAS always validates; the knob has nothing to skip
  } else {
    if ((!precheck || conflicts_clear(s, mode)) &&
        fast_path_admitted(s, partition, stats, mode)) {
      if (optimistic_) {
        // One lock-free attempt, then one arbitrated attempt. The fallback
        // keeps try_lock as decisive as the historical path: two
        // conflicting try_locks that retract against each other's
        // announcements settle under the internal lock, where exactly one
        // of them revalidates.
        ok = announce_validate(s, mode, partition, stats);
        if (ok) {
          ++stats.optimistic_hits;
          LM_OBS_EVENT(kOptimisticHit, mode);
          LM_ATTR_GRANT(mode, args);
          LM_DCT_GRANT(partition);
        } else {
          internal.lock();
          ok = announce_validate(s, mode, partition, stats);
          internal.unlock();
          if (ok) {
            LM_OBS_EVENT(kAcquireGrant, mode);
            LM_ATTR_GRANT(mode, args);
            LM_DCT_GRANT(partition);
          }
        }
      } else {
        internal.lock();
        ok = conflicts_clear(s, mode);
        if (ok) {
          SEMLOCK_DCT_POINT("mode.acquire", s.dct_id(mode));
          s.increment(mode, std::memory_order_relaxed);
        }
        internal.unlock();
        if (ok) {
          LM_OBS_EVENT(kAcquireGrant, mode);
          LM_ATTR_GRANT(mode, args);
          LM_DCT_GRANT(partition);
        }
      }
    }
  }
  if (!ok) {
    ++stats.contended;
    const std::uint64_t waited = runtime::steady_now_ns() - wait_start;
    stats.wait_ns += waited;
    stats.wait_cpu_ns += waited;
  }
  return ok;
}

template <class Storage>
void LockMechanism::unlock_impl(Storage& s, int mode) {
  if constexpr (Storage::kPacked) {
    LM_OBS_EVENT(kRelease, mode);
    const PackedLayout& layout = s.layout();
    const auto mi = static_cast<std::size_t>(mode);
    SEMLOCK_DCT_POINT("word.release", &s.word());
    const std::uint64_t old =
        s.word().fetch_sub(layout.inc[mi], std::memory_order_seq_cst);
    if (!can_park_) return;
    const std::uint64_t field = old & layout.field_mask[mi];
    // Wake when a sleeper's predicate may have flipped: this was the mode's
    // last hold (conflicting waiters can now validate), or the field just
    // dropped out of saturation (same-mode waiters blocked on field_max).
    if (field == layout.inc[mi] || field == layout.field_mask[mi]) {
      wake_partition(s, table_->partition_of(mode));
    }
  } else {
    LM_OBS_EVENT(kRelease, mode);
    SEMLOCK_DCT_POINT("mode.release", s.dct_id(mode));
    if (s.release_one(mode, can_park_)) {
      // Wake only when this was the mode's last hold: a counter that stays
      // nonzero cannot turn any waiter's conflicts_clear from false to
      // true, so waking earlier would only stampede waiters into
      // re-parking. Scoped to the released mode's conflict partition;
      // unrelated mode families keep sleeping. unpark_all is a no-op
      // (fence + relaxed load) when nobody is parked.
      parking_->unpark_all(table_->partition_of(mode));
    }
  }
}

void LockMechanism::lock(int mode, const LockSiteArgs* args) {
  std::visit([&](auto& s) { lock_impl(s, mode, args); }, storage_);
}

bool LockMechanism::try_lock(int mode, const LockSiteArgs* args) {
  return std::visit([&](auto& s) { return try_lock_impl(s, mode, args); },
                    storage_);
}

void LockMechanism::unlock(int mode) {
  std::visit([&](auto& s) { unlock_impl(s, mode); }, storage_);
}

}  // namespace semlock
