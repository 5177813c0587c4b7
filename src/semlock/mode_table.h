// ModeTable: compiles the symbolic sets of an ADT's lock sites into locking
// modes and precomputes everything the runtime lock mechanism needs
// (Sections 5.1–5.3).
//
// One ModeTable is shared, immutably, by every ADT instance of the same
// (ADT class, pointer equivalence class) pair — per-instance state is only
// the counters held by SemanticLock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "commute/spec.h"
#include "commute/symbolic.h"
#include "commute/value.h"
#include "runtime/grant_policy.h"
#include "runtime/wait_policy.h"
#include "semlock/mode.h"
#include "semlock/packed_layout.h"
#include "semlock/storage_policy.h"

namespace semlock {

// Process-wide defaults for the lock-free fast path of the lock mechanism
// (docs/FAST_PATH.md), read once from the environment:
//   SEMLOCK_OPTIMISTIC=0|1   gates the optimistic announce/validate tier
//                            (default on).
//   SEMLOCK_STRIPES=N        0 disables holder-counter striping; 1..1024
//                            fixes the stripe count. Default: striping on
//                            with a hardware-concurrency-sized power of two.
bool default_optimistic_acquire();
bool default_stripe_self_commuting();
int default_counter_stripes();
// Whether mechanisms built from this config emit observability events
// (src/obs). Snapshot of the process-wide trace switch (SEMLOCK_TRACE /
// obs::ScopedTraceEnable) at config-creation time; always false when the
// library is built without SEMLOCK_OBS.
bool default_trace_events();

// Testable strict parsers behind the defaults. Same contract as the other
// runtime knobs (util/env): malformed values warn once on stderr and fall
// back to the documented default; nullptr (unset) is silent.
bool optimistic_from_env_text(const char* text);
struct StripeEnvChoice {
  bool enabled;
  int stripes;
};
StripeEnvChoice stripes_from_env_text(const char* text);

struct ModeTableConfig {
  // n: number of abstract values of phi (the paper evaluates with 64).
  int abstract_values = 64;
  // N: maximum number of locking modes (Section 5.3, optimization 3). When
  // exceeded, variable arguments are widened to `*` (which merges modes)
  // until the bound holds.
  int max_modes = 256;
  // Optimization 1 of Section 5.3: share a counter between modes with
  // identical F_c rows.
  bool merge_indistinguishable = true;
  // Section 5.2 lock partitioning: split modes into connected components of
  // the conflict graph, each with its own internal lock. Disabling this is
  // exposed only for the ablation benchmark (a single internal lock).
  bool partition = true;
  // Fig. 20 lines 3–4: spin outside the internal lock until the conflicting
  // counters clear. Disabling (ablation) makes every acquisition take the
  // internal lock immediately.
  bool fast_path_precheck = true;
  // Give every mode counter its own cache line. Costs memory per instance
  // (64 B per mode instead of 4 B) but removes false sharing between
  // commuting modes that happen to share a line — worthwhile for hot,
  // few-mode ADTs on real multicore hardware.
  bool pad_counters = false;
  // Safety cap on a single site's alpha-tuple resolution table.
  int max_tuple_entries = 1 << 16;
  // How a blocked acquisition waits for its conflicting holders (the
  // src/runtime/ waiting subsystem). Defaults to the ambient process policy:
  // a ScopedWaitPolicy override if installed, else SEMLOCK_WAIT_POLICY, else
  // the historical spin-then-yield behavior.
  runtime::WaitPolicyKind wait_policy = runtime::default_wait_policy();
  // SpinThenPark only: backoff rounds spent spinning before the waiter
  // parks on the partition's futex. Higher values favor latency over CPU.
  int park_spin_limit = 64;
  // WHO gets the lock next once waiters exist (src/runtime/grant_policy.h):
  // Free is the historical unbounded-bypass behavior; Fifo/PhaseFair/
  // BoundedBypass bound how often commuting arrivals (including the
  // optimistic tier) may overtake a conflicting waiter. Defaults to the
  // ambient process policy: ScopedGrantPolicy if installed, else
  // SEMLOCK_GRANT_POLICY, else Free.
  runtime::GrantPolicyKind grant_policy = runtime::default_grant_policy();
  // BoundedBypass budget K: commuting arrivals granted past the oldest
  // waiter before the barrier rises (SEMLOCK_BYPASS_BOUND, default 16).
  int bypass_bound = static_cast<int>(runtime::default_bypass_bound());
  // Lock-free fast path (docs/FAST_PATH.md). With optimistic_acquire, lock()
  // and try_lock() announce by incrementing the mode's counter BEFORE
  // validating that the conflicting counters are clear, retracting on
  // failure — mutual exclusion then follows from announce-before-validate on
  // both sides (Dekker), and the common commuting acquisition never takes
  // the partition spinlock. Disabling restores the spinlock-arbitrated
  // acquire path (and is the baseline of bench_contention's fastpath sweep).
  bool optimistic_acquire = default_optimistic_acquire();
  // Give every self-commuting mode counter_stripes cache-line-padded stripes
  // (util/striped_counter.h) so commuting holders stop ping-ponging one
  // counter line; conflict checks and holders() sum the stripes. Costs
  // 64 B * counter_stripes per striped mode per instance.
  bool stripe_self_commuting = default_stripe_self_commuting();
  int counter_stripes = default_counter_stripes();
  // Which counter representation mechanisms built over this table use
  // (semlock/storage_policy.h): Flat (per-mode atomics, the paper's Fig. 20
  // layout and the default), Striped (Flat plus the striping above, opt-in
  // for single-instance reader floods; whether striping actually engages is
  // still stripe_self_commuting/counter_stripes), or Packed (the whole table
  // in one 64-bit word, falling back to Flat when the table has more than
  // kMaxPackedModes modes). SEMLOCK_STORAGE overrides the default.
  StorageKind storage = default_storage();
  // Arm the HTM lock-elision tier above the optimistic path for Packed
  // mechanisms (docs/FAST_PATH.md §8). Requires the SEMLOCK_ELISION build
  // option and runtime RTM/TME support — without them the flag is inert.
  // SEMLOCK_ELISION=0|1 sets the default; off otherwise.
  bool elide_locks = default_elide_locks();
  // Emit binary trace events and conflict/latency metrics from mechanisms
  // built over this table (src/obs, docs/OBSERVABILITY.md). Cached by the
  // LockMechanism at construction; defaults to the ambient trace switch so
  // SEMLOCK_TRACE=1 traces everything without code changes, while tests can
  // turn it on per table.
  bool trace_events = default_trace_events();
};

class ModeTable {
 public:
  // `site_sets[i]` is the symbolic set of lock site i. Sites with equal
  // symbolic structure share modes.
  static ModeTable compile(const commute::AdtSpec& spec,
                           std::vector<commute::SymbolicSet> site_sets,
                           const ModeTableConfig& cfg = ModeTableConfig{});

  const commute::AdtSpec& spec() const { return *spec_; }
  const commute::ValueAbstraction& abstraction() const { return phi_; }
  const ModeTableConfig& config() const { return cfg_; }

  int num_sites() const { return static_cast<int>(sites_.size()); }
  int num_modes() const { return static_cast<int>(modes_.size()); }
  int num_raw_modes() const { return num_raw_modes_; }
  const Mode& mode(int id) const {
    return modes_[static_cast<std::size_t>(id)];
  }

  // F_c over (canonical) modes.
  bool commutes(int m1, int m2) const {
    return fc_[static_cast<std::size_t>(m1) * modes_.size() +
               static_cast<std::size_t>(m2)] != 0;
  }

  // The variables of site `s` that remained after any widening, in the
  // order `resolve` expects their runtime values.
  const std::vector<std::string>& site_variables(int site) const {
    return sites_[static_cast<std::size_t>(site)].variables;
  }
  // The (possibly widened) symbolic set of site `s`.
  const commute::SymbolicSet& site_set(int site) const {
    return sites_[static_cast<std::size_t>(site)].set;
  }

  // Runtime mode lookup for site `s` given the runtime values of
  // site_variables(s), in order. O(k) hashing + one table read.
  int resolve(int site, std::span<const commute::Value> values) const;
  // Shorthand for sites whose set is constant (no variables).
  int resolve_constant(int site) const { return resolve(site, {}); }

  // Lock partitioning.
  int num_partitions() const { return num_partitions_; }
  int partition_of(int mode) const {
    return partition_[static_cast<std::size_t>(mode)];
  }
  // Canonical ids of the modes conflicting with `mode` (all of them live in
  // partition_of(mode); may include `mode` itself if self-conflicting).
  const std::vector<std::int32_t>& conflicts_of(int mode) const {
    return conflicts_[static_cast<std::size_t>(mode)];
  }

  // The packed-word bit layout, or nullptr when this table does not fit in
  // one 64-bit word (more than kMaxPackedModes canonical modes). Computed
  // unconditionally by compile() — it is a few hundred bytes per table —
  // so mechanisms can pack whenever their config asks for it.
  const PackedLayout* packed_layout() const {
    return packed_ok_ ? &packed_ : nullptr;
  }

  // Human-readable dump of modes, F_c and partitions (used by examples and
  // golden tests; reproduces Fig. 19 for the paper's Set example).
  std::string describe() const;

 private:
  struct Site {
    commute::SymbolicSet set;            // after widening
    std::vector<std::string> variables;  // after widening
    std::vector<int> strides;            // mixed-radix strides, size == vars
    std::vector<std::int32_t> lookup;    // tuple index -> canonical mode id
  };

  ModeTable(const commute::AdtSpec& spec, ModeTableConfig cfg)
      : spec_(&spec), cfg_(cfg), phi_(cfg.abstract_values) {}

  const commute::AdtSpec* spec_;
  ModeTableConfig cfg_;
  commute::ValueAbstraction phi_;

  std::vector<Site> sites_;
  std::vector<Mode> modes_;       // canonical modes
  int num_raw_modes_ = 0;         // before indistinguishable merging
  std::vector<char> fc_;          // row-major F_c over canonical modes
  std::vector<std::int32_t> partition_;
  int num_partitions_ = 0;
  std::vector<std::vector<std::int32_t>> conflicts_;
  PackedLayout packed_;
  bool packed_ok_ = false;
};

}  // namespace semlock
