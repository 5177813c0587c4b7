// Conflict-attribution classifier and its runtime plumbing. The contract
// and decision tree live in attribution.h; this file is deliberately off the
// lock fast path — everything here runs only for sampled contended waits of
// traced mechanisms.
#include "obs/attribution.h"

#include <cstdlib>
#include <vector>

#include "obs/trace.h"
#include "semlock/lock_mechanism.h"
#include "semlock/mode.h"
#include "semlock/mode_table.h"
#include "util/env.h"

namespace semlock::obs {

const char* attr_class_name(AttrClass c) noexcept {
  switch (c) {
    case AttrClass::kTrueConflict: return "true conflict";
    case AttrClass::kSelfMode: return "self mode";
    case AttrClass::kPhiCollision: return "phi collision";
    case AttrClass::kModeOverapprox: return "mode overapprox";
    case AttrClass::kWrapperCoarsening: return "wrapper coarsening";
    case AttrClass::kUnsampled: return "unsampled";
  }
  return "unknown";
}

const char* attr_class_key(AttrClass c) noexcept {
  switch (c) {
    case AttrClass::kTrueConflict: return "true_conflict";
    case AttrClass::kSelfMode: return "self_mode";
    case AttrClass::kPhiCollision: return "phi_collision";
    case AttrClass::kModeOverapprox: return "mode_overapprox";
    case AttrClass::kWrapperCoarsening: return "wrapper_coarsening";
    case AttrClass::kUnsampled: return "unsampled";
  }
  return "unknown";
}

// --- grant records ----------------------------------------------------------

void attr_record_grant(AttrRecord& rec, std::uint64_t owner,
                       const LockSiteArgs* args) noexcept {
  std::uint32_t s = rec.seq.load(std::memory_order_relaxed);
  if (s & 1) return;  // another grantor mid-write: newest-wins, skip
  if (!rec.seq.compare_exchange_strong(s, s + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    return;
  }
  rec.owner.store(owner, std::memory_order_relaxed);
  const bool usable = args != nullptr && args->site >= 0 &&
                      args->values.size() <= kAttrMaxVals;
  if (usable) {
    rec.site.store(args->site, std::memory_order_relaxed);
    rec.nvals.store(static_cast<std::uint32_t>(args->values.size()),
                    std::memory_order_relaxed);
    for (std::size_t i = 0; i < args->values.size(); ++i) {
      rec.vals[i].store(args->values[i], std::memory_order_relaxed);
    }
  } else {
    rec.site.store(-1, std::memory_order_relaxed);
    rec.nvals.store(0, std::memory_order_relaxed);
  }
  rec.logical_instance.store(args != nullptr ? args->logical_instance : 0,
                             std::memory_order_relaxed);
  rec.seq.store(s + 2, std::memory_order_release);
}

AttrSnapshot attr_read(const AttrRecord& rec) noexcept {
  AttrSnapshot out;
  const std::uint32_t s1 = rec.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return out;  // never written / mid-write
  out.owner = rec.owner.load(std::memory_order_relaxed);
  out.logical_instance = rec.logical_instance.load(std::memory_order_relaxed);
  out.site = rec.site.load(std::memory_order_relaxed);
  out.nvals = rec.nvals.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < kAttrMaxVals; ++i) {
    out.vals[i] = rec.vals[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (rec.seq.load(std::memory_order_relaxed) != s1) return AttrSnapshot{};
  out.valid = out.site >= 0 && out.nvals <= kAttrMaxVals;
  return out;
}

// --- runtime gates ----------------------------------------------------------

namespace {

std::atomic<bool> g_attribution_enabled{true};
std::atomic<std::uint32_t> g_sample_every{1};

}  // namespace

bool attribution_enabled() noexcept {
  return g_attribution_enabled.load(std::memory_order_relaxed);
}

void set_attribution_enabled(bool on) noexcept {
  g_attribution_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t attribution_sample_every() noexcept {
  return g_sample_every.load(std::memory_order_relaxed);
}

void set_attribution_sample_every(std::uint32_t every) noexcept {
  g_sample_every.store(every == 0 ? 1 : every, std::memory_order_relaxed);
}

bool attribution_should_sample() noexcept {
  const std::uint32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every <= 1) return true;
  thread_local std::uint32_t counter = 0;
  return counter++ % every == 0;
}

bool attribution_enabled_from_env_text(const char* text) {
  return util::env_bool_01("SEMLOCK_ATTRIBUTION", text, "attribution on")
      .value_or(true);
}

std::uint32_t attribution_sample_from_env_text(const char* text) {
  return static_cast<std::uint32_t>(
      util::env_int_in_range("SEMLOCK_ATTRIBUTION_SAMPLE", text, 1, 1048576,
                             "classifying every contended wait")
          .value_or(1));
}

namespace {

// Reads the knobs once at static-init time, like TraceRuntimeInit does for
// the trace switch (trace.cpp).
struct AttributionEnvInit {
  AttributionEnvInit() {
    set_attribution_enabled(attribution_enabled_from_env_text(
        std::getenv("SEMLOCK_ATTRIBUTION")));
    set_attribution_sample_every(attribution_sample_from_env_text(
        std::getenv("SEMLOCK_ATTRIBUTION_SAMPLE")));
  }
};

const AttributionEnvInit g_attribution_env_init;

}  // namespace

// --- executed-ops table -----------------------------------------------------

namespace {

// Direct-mapped, fixed-size, lock-free. A slot is claimed seqlock-style by
// the first (instance, owner) pair that hashes to it; a colliding pair
// overwrites (newest-wins). The fast path — same pair noting another op —
// is a single fetch_or. A reader that races a reclaim gets mask 0 (absent),
// which classifies conservatively.
constexpr std::size_t kExecSlots = 2048;  // power of two

struct ExecSlot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint64_t> inst{0};
  std::atomic<std::uint64_t> owner{0};
  std::atomic<std::uint64_t> mask{0};
};

ExecSlot g_exec[kExecSlots];

std::size_t exec_index(std::uint64_t inst, std::uint64_t owner) noexcept {
  std::uint64_t z = inst ^ (owner * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(z >> 32) & (kExecSlots - 1);
}

}  // namespace

void note_executed_op(const void* instance, std::uint64_t owner,
                      int method) noexcept {
  if (method < 0 || method >= 64) return;
  const std::uint64_t inst = reinterpret_cast<std::uint64_t>(instance);
  const std::uint64_t bit = 1ull << method;
  ExecSlot& slot = g_exec[exec_index(inst, owner)];
  std::uint32_t s = slot.seq.load(std::memory_order_acquire);
  if ((s & 1) == 0 && s != 0 &&
      slot.inst.load(std::memory_order_relaxed) == inst &&
      slot.owner.load(std::memory_order_relaxed) == owner) {
    // Fast path: our slot. A racing overwrite can divert this bit to the
    // new tenant's mask; a spurious bit only shrinks MODE_OVERAPPROX, so
    // the race is tolerated rather than locked away.
    slot.mask.fetch_or(bit, std::memory_order_relaxed);
    return;
  }
  if (s & 1) return;  // another writer mid-claim: drop this note
  if (!slot.seq.compare_exchange_strong(s, s + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return;
  }
  slot.inst.store(inst, std::memory_order_relaxed);
  slot.owner.store(owner, std::memory_order_relaxed);
  slot.mask.store(bit, std::memory_order_relaxed);
  slot.seq.store(s + 2, std::memory_order_release);
}

std::uint64_t executed_ops_mask(const void* instance,
                                std::uint64_t owner) noexcept {
  const std::uint64_t inst = reinterpret_cast<std::uint64_t>(instance);
  const ExecSlot& slot = g_exec[exec_index(inst, owner)];
  const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return 0;
  if (slot.inst.load(std::memory_order_relaxed) != inst ||
      slot.owner.load(std::memory_order_relaxed) != owner) {
    return 0;
  }
  const std::uint64_t mask = slot.mask.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != s1) return 0;
  return mask;
}

void reset_executed_ops() noexcept {
  for (ExecSlot& slot : g_exec) {
    slot.seq.store(0, std::memory_order_relaxed);
    slot.inst.store(0, std::memory_order_relaxed);
    slot.owner.store(0, std::memory_order_relaxed);
    slot.mask.store(0, std::memory_order_relaxed);
  }
}

// --- the classifier ---------------------------------------------------------

namespace {

// A symbolic operation bound to the concrete values of one grant. Star
// arguments (and variables the record did not cover) stay unknown; a
// disequality atom over an unknown argument cannot be shown to hold.
struct ConcreteArg {
  bool known = false;
  commute::Value value = 0;
};

struct BoundOp {
  int method = -1;
  std::vector<ConcreteArg> args;
  AbstractOp abstract;  // the same op under phi, for the PHI_COLLISION test
};

// Binds site_set(site) of `snap` to its recorded values. When `exec_mask`
// is nonzero, ops whose spec method the owner never executed against this
// instance are dropped — the MODE_OVERAPPROX restriction.
std::vector<BoundOp> bind_ops(const ModeTable& table,
                              const AttrSnapshot& snap,
                              std::uint64_t exec_mask) {
  std::vector<BoundOp> out;
  const commute::SymbolicSet& set = table.site_set(snap.site);
  const std::vector<std::string>& vars = table.site_variables(snap.site);
  const commute::ValueAbstraction& phi = table.abstraction();
  for (const commute::SymOp& sop : set.ops()) {
    const int mi = table.spec().method_index(sop.method);
    if (mi < 0) continue;
    if (exec_mask != 0 && mi < 64 && (exec_mask >> mi & 1) == 0) continue;
    BoundOp b;
    b.method = mi;
    b.abstract.method = mi;
    for (const commute::SymArg& a : sop.args) {
      ConcreteArg c;
      AbstractArg abs = AbstractArg::star();
      if (a.kind == commute::SymArg::Kind::Const) {
        c = ConcreteArg{true, a.constant};
        abs = AbstractArg::of_const(a.constant);
      } else if (a.kind == commute::SymArg::Kind::Var) {
        for (std::size_t j = 0; j < vars.size(); ++j) {
          if (vars[j] == a.var) {
            if (j < snap.nvals) {
              c = ConcreteArg{true, snap.vals[j]};
              abs = AbstractArg::of_alpha(phi.alpha_of(snap.vals[j]));
            }
            break;
          }
        }
      }
      b.args.push_back(c);
      b.abstract.args.push_back(abs);
    }
    out.push_back(std::move(b));
  }
  return out;
}

// Concrete evaluation of the spec condition: a DNF clause holds only when
// every atom compares two KNOWN values that differ (mirrors the "definitely
// differ" discipline of mode.cpp, with concrete values instead of alphas).
bool concrete_ops_commute(const commute::AdtSpec& spec, const BoundOp& a,
                          const BoundOp& b) {
  const commute::CommCondition& cond = spec.condition(a.method, b.method);
  switch (cond.kind()) {
    case commute::CommCondition::Kind::Always: return true;
    case commute::CommCondition::Kind::Never: return false;
    case commute::CommCondition::Kind::Dnf: break;
  }
  for (const std::vector<commute::ArgsDiffer>& clause : cond.clauses()) {
    bool holds = true;
    for (const commute::ArgsDiffer& atom : clause) {
      const std::size_t li = static_cast<std::size_t>(atom.lhs_arg);
      const std::size_t ri = static_cast<std::size_t>(atom.rhs_arg);
      if (li >= a.args.size() || ri >= b.args.size() || !a.args[li].known ||
          !b.args[ri].known || a.args[li].value == b.args[ri].value) {
        holds = false;
        break;
      }
    }
    if (holds) return true;
  }
  return false;
}

}  // namespace

AttrClass classify_wait(const ModeTable& table, int waiter_mode,
                        const AttrSnapshot& waiter, int holder_mode,
                        const AttrSnapshot& holder,
                        std::uint64_t holder_exec_mask) {
  // Rule 1: the Section 3.4 wrapper collapse — the two transactions touch
  // DIFFERENT logical instances that share this mechanism.
  if (waiter.valid && holder.valid && waiter.logical_instance != 0 &&
      holder.logical_instance != 0 &&
      waiter.logical_instance != holder.logical_instance) {
    return AttrClass::kWrapperCoarsening;
  }
  // Rule 2: nothing to re-check the spec against. Equal modes are no
  // evidence either: a missing holder record is usually one not yet
  // published on another core, so guessing SELF_MODE would swallow the
  // PHI_COLLISION or MODE_OVERAPPROX waits it hides.
  if (!waiter.valid || !holder.valid) return AttrClass::kUnsampled;
  const commute::AdtSpec& spec = table.spec();
  const commute::ValueAbstraction& phi = table.abstraction();
  const std::vector<BoundOp> wops = bind_ops(table, waiter, 0);
  const std::vector<BoundOp> hops = bind_ops(table, holder, holder_exec_mask);
  // Rule 3: any concretely non-commuting pair makes the wait genuine.
  for (const BoundOp& w : wops) {
    for (const BoundOp& h : hops) {
      if (!concrete_ops_commute(spec, w, h)) {
        return waiter_mode == holder_mode ? AttrClass::kSelfMode
                                          : AttrClass::kTrueConflict;
      }
    }
  }
  // Rule 4: every pair commutes on the concrete values — so the abstract
  // conflict was manufactured. If some pair still fails the ABSTRACT check,
  // the only way (all its concrete atoms hold, so every abstractly-failing
  // atom compares known, differing values) is an alpha merge: PHI_COLLISION.
  for (const BoundOp& w : wops) {
    for (const BoundOp& h : hops) {
      if (!abstract_ops_commute(spec, phi, w.abstract, h.abstract)) {
        return AttrClass::kPhiCollision;
      }
    }
  }
  // Rule 5: even the abstract ops commute once the holder's set is
  // restricted to what it executed — the locked set was too big.
  return AttrClass::kModeOverapprox;
}

AttrClass record_attribution(const void* instance, const ModeTable& table,
                             int waiter_mode, const LockSiteArgs* waiter_args,
                             int holder_mode, const AttrRecord* holder_rec) {
  AttrSnapshot waiter;
  if (waiter_args != nullptr && waiter_args->site >= 0 &&
      waiter_args->values.size() <= kAttrMaxVals) {
    waiter.valid = true;
    waiter.site = waiter_args->site;
    waiter.nvals = static_cast<std::uint32_t>(waiter_args->values.size());
    for (std::size_t i = 0; i < waiter_args->values.size(); ++i) {
      waiter.vals[i] = waiter_args->values[i];
    }
    waiter.logical_instance = waiter_args->logical_instance;
    waiter.owner = current_owner_id();
  }
  AttrSnapshot holder;
  if (holder_rec != nullptr) {
    holder = attr_read(*holder_rec);
    // The record survives releases, so for a mode we ourselves held last it
    // describes OUR previous grant, not the current holder: discard rather
    // than "prove" a conflict against ourselves.
    if (holder.valid && waiter.valid && holder.owner == waiter.owner) {
      holder = AttrSnapshot{};
    }
  }
  const std::uint64_t exec_mask =
      holder.valid ? executed_ops_mask(instance, holder.owner) : 0;
  const AttrClass cls = classify_wait(table, waiter_mode, waiter, holder_mode,
                                      holder, exec_mask);
  record_attribution_tally(instance, waiter_mode, holder_mode,
                           static_cast<std::uint32_t>(cls));
  emit(EventType::kAttribution, instance, static_cast<int>(cls));
  return cls;
}

}  // namespace semlock::obs
