// Conflict attribution under the DCT scheduler (src/dct + src/obs): the
// classifier consumes racy, best-effort grant records, so it is worth
// proving that under a deterministic schedule the profile itself is
// deterministic — the same seed must produce the same per-class tallies —
// and that a cross-key workload whose keys collide only under phi is never
// blamed as a true conflict. Only built when both -DSEMLOCK_DCT=ON and
// SEMLOCK_OBS are enabled.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "commute/builtin_specs.h"
#include "dct/scheduler.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::AttrClass;

std::array<std::uint64_t, obs::kNumAttrClasses> class_totals() {
  std::array<std::uint64_t, obs::kNumAttrClasses> out{};
  for (const obs::AttributionCell& cell : obs::collect_metrics().attribution) {
    for (std::size_t c = 0; c < obs::kNumAttrClasses; ++c) {
      out[c] += cell.counts[c];
    }
  }
  return out;
}

std::uint64_t at(const std::array<std::uint64_t, obs::kNumAttrClasses>& a,
                 AttrClass c) {
  return a[static_cast<std::size_t>(c)];
}

// Three threads lock the same alpha class through DIFFERENT concrete keys
// (0, 2, 4 — all even, so alpha 0 mod 2). Every blocked wait between them
// is an artifact of the merge: add/remove commute whenever keys differ.
dct::ScheduleResult run_keyed_workload(std::uint64_t seed) {
  struct State {
    ModeTable table;
    LockMechanism mech;
    explicit State(ModeTableConfig c)
        : table(ModeTable::compile(
              commute::set_spec(),
              {SymbolicSet({op("add", {commute::var("v")}),
                            op("remove", {commute::var("v")})})},
              c)),
          mech(table) {}
  };
  ModeTableConfig c;
  c.abstract_values = 2;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  c.trace_events = true;
  auto state = std::make_shared<State>(c);

  std::vector<std::function<void()>> threads;
  for (int t = 0; t < 3; ++t) {
    threads.push_back([state, t] {
      const Value key[1] = {static_cast<Value>(t * 2)};
      const int mode = state->table.resolve(0, key);
      const LockSiteArgs args{0, std::span<const Value>(key, 1), 0};
      for (int i = 0; i < 2; ++i) {
        state->mech.lock(mode, &args);
        state->mech.unlock(mode);
      }
    });
  }
  dct::SchedulerOptions opts;
  opts.strategy = dct::StrategyKind::Random;
  opts.seed = seed;
  return dct::Scheduler(opts).run(std::move(threads));
}

TEST(DctAttribution, SameSeedProducesIdenticalClassTallies) {
  obs::set_attribution_enabled(true);
  obs::set_attribution_sample_every(1);

  obs::reset_for_test();
  const dct::ScheduleResult ra = run_keyed_workload(12345);
  ASSERT_FALSE(ra.hung()) << ra.to_string();
  const auto a = class_totals();

  obs::reset_for_test();
  const dct::ScheduleResult rb = run_keyed_workload(12345);
  ASSERT_FALSE(rb.hung()) << rb.to_string();
  const auto b = class_totals();

  // Same seed → same schedule → the same waits get classified the same
  // way: the grant records and executed-ops table reset with the run, so
  // nothing about the profile is left to wall-clock chance.
  ASSERT_EQ(ra.steps, rb.steps);
  for (std::size_t c = 0; c < obs::kNumAttrClasses; ++c) {
    EXPECT_EQ(a[c], b[c]) << obs::attr_class_key(
        static_cast<AttrClass>(c));
  }
}

TEST(DctAttribution, CrossKeyWaitsAreNeverBlamedAsTrueConflicts) {
  obs::set_attribution_enabled(true);
  obs::set_attribution_sample_every(1);
  std::uint64_t phi_total = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 12345u}) {
    obs::reset_for_test();
    const dct::ScheduleResult r = run_keyed_workload(seed);
    ASSERT_FALSE(r.hung()) << r.to_string();
    const auto counts = class_totals();
    // Keys always differ across threads, nobody passes a logical instance,
    // and the raw mechanism never notes executed ops: the only possible
    // classes are PHI_COLLISION and (for a stale/missing record on the
    // shared mode) UNSAMPLED.
    EXPECT_EQ(at(counts, AttrClass::kTrueConflict), 0u) << "seed " << seed;
    EXPECT_EQ(at(counts, AttrClass::kWrapperCoarsening), 0u)
        << "seed " << seed;
    EXPECT_EQ(at(counts, AttrClass::kModeOverapprox), 0u) << "seed " << seed;
    phi_total += at(counts, AttrClass::kPhiCollision);
  }
  // Across the explored schedules at least one contended wait was pinned
  // on the alpha merge (AlwaysPark + a non-self-commuting shared mode).
  EXPECT_GT(phi_total, 0u);
}

}  // namespace
}  // namespace semlock
