// The runtime waiting subsystem: ParkingLot protocol, wait-policy
// selection/plumbing, and the no-lost-wakeup stress the ISSUE's acceptance
// criteria require (conflicting-mode ping-pong under AlwaysPark, 100
// consecutive iterations, TSan-clean).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "runtime/parking_lot.h"
#include "runtime/wait_policy.h"
#include "semlock/lock_mechanism.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using commute::var;
using runtime::ParkingLot;
using runtime::WaitPolicyKind;

// The driver `kind` runs, exactly as LockMechanism builds it.
runtime::WaitState driver(WaitPolicyKind kind, std::uint32_t park_spin_limit) {
  return runtime::WaitState(runtime::policy_parks(kind),
                            runtime::policy_spin_budget(kind, park_spin_limit));
}

ModeTable make_set_table(WaitPolicyKind policy, int n = 4,
                         int park_spin_limit = 64) {
  ModeTableConfig c;
  c.abstract_values = n;
  c.wait_policy = policy;
  c.park_spin_limit = park_spin_limit;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {var("v")}), op("remove", {var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

TEST(WaitPolicy, NamesRoundTrip) {
  for (const auto kind :
       {WaitPolicyKind::SpinYield, WaitPolicyKind::SpinThenPark,
        WaitPolicyKind::AlwaysPark}) {
    const auto parsed = runtime::parse_wait_policy(wait_policy_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(runtime::parse_wait_policy("park"), WaitPolicyKind::AlwaysPark);
  EXPECT_EQ(runtime::parse_wait_policy("adaptive"),
            WaitPolicyKind::SpinThenPark);
  EXPECT_EQ(runtime::parse_wait_policy("spin"), WaitPolicyKind::SpinYield);
  EXPECT_FALSE(runtime::parse_wait_policy("busy-loop").has_value());
}

TEST(WaitPolicy, ScopedOverrideSetsModeTableConfigDefault) {
  const auto base = ModeTableConfig{}.wait_policy;
  {
    runtime::ScopedWaitPolicy scope(WaitPolicyKind::AlwaysPark);
    EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::AlwaysPark);
    {
      runtime::ScopedWaitPolicy nested(WaitPolicyKind::SpinThenPark);
      EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::SpinThenPark);
    }
    EXPECT_EQ(ModeTableConfig{}.wait_policy, WaitPolicyKind::AlwaysPark);
  }
  EXPECT_EQ(ModeTableConfig{}.wait_policy, base);
}

TEST(WaitPolicy, WaitStateSchedule) {
  runtime::WaitState spin = driver(WaitPolicyKind::SpinYield, 0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(spin.step());

  runtime::WaitState adaptive = driver(WaitPolicyKind::SpinThenPark, 3);
  EXPECT_FALSE(adaptive.step());
  EXPECT_FALSE(adaptive.step());
  EXPECT_FALSE(adaptive.step());
  EXPECT_TRUE(adaptive.step());  // budget exhausted: park from now on
  EXPECT_TRUE(adaptive.step());

  runtime::WaitState eager = driver(WaitPolicyKind::AlwaysPark, 1000);
  EXPECT_TRUE(eager.step());
}

// may_leave_cpu() is asked before each step(): it must turn true exactly at
// the first step that yields or parks, because lock_contended starts reading
// the thread-CPU clock there and charges wall time as CPU before it.
TEST(WaitPolicy, MayLeaveCpuSchedule) {
  // spin-yield: 8 backoff rounds of pause (1 + 2 + ... + 128), then yields.
  runtime::WaitState spin = driver(WaitPolicyKind::SpinYield, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(spin.may_leave_cpu()) << "step " << i;
    EXPECT_FALSE(spin.step());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(spin.may_leave_cpu());
    EXPECT_FALSE(spin.step());
  }

  // spin-then-park with a budget shorter than the pause rounds: true once
  // the budget is spent, i.e. at the step that parks.
  runtime::WaitState adaptive = driver(WaitPolicyKind::SpinThenPark, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(adaptive.may_leave_cpu()) << "step " << i;
    EXPECT_FALSE(adaptive.step());
  }
  EXPECT_TRUE(adaptive.may_leave_cpu());
  EXPECT_TRUE(adaptive.step());
  EXPECT_TRUE(adaptive.may_leave_cpu());

  // A budget longer than the pause rounds yields before it parks.
  runtime::WaitState long_budget = driver(WaitPolicyKind::SpinThenPark, 64);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(long_budget.may_leave_cpu()) << "step " << i;
    EXPECT_FALSE(long_budget.step());
  }
  EXPECT_TRUE(long_budget.may_leave_cpu());

  runtime::WaitState eager = driver(WaitPolicyKind::AlwaysPark, 1000);
  EXPECT_TRUE(eager.may_leave_cpu());

  // One driver for every policy: AlwaysPark is SpinThenPark with a budget
  // of 0, and FutexWord is SpinThenPark (only where it sleeps differs).
  // Equal means the same step() and may_leave_cpu() answers, step by step.
  const auto same_schedule = [](runtime::WaitState a, runtime::WaitState b) {
    for (int i = 0; i < 200; ++i) {
      if (a.may_leave_cpu() != b.may_leave_cpu()) return false;
      if (a.step() != b.step()) return false;
    }
    return true;
  };
  for (const std::uint32_t limit : {0u, 3u, 64u}) {
    EXPECT_TRUE(same_schedule(driver(WaitPolicyKind::AlwaysPark, limit),
                              driver(WaitPolicyKind::SpinThenPark, 0)))
        << limit;
    EXPECT_TRUE(same_schedule(driver(WaitPolicyKind::FutexWord, limit),
                              driver(WaitPolicyKind::SpinThenPark, limit)))
        << limit;
  }
  EXPECT_FALSE(same_schedule(driver(WaitPolicyKind::SpinYield, 3),
                             driver(WaitPolicyKind::SpinThenPark, 3)));
}

TEST(ParkingLot, GenerationAndParkedAccounting) {
  ParkingLot lot(2);
  EXPECT_EQ(lot.generation(0), 0u);
  EXPECT_EQ(lot.parked(0), 0u);

  // No waiters: unpark_all must not burn a generation (the uncontended
  // unlock path relies on this being cheap and side-effect free).
  lot.unpark_all(0);
  EXPECT_EQ(lot.generation(0), 0u);

  lot.announce(0);
  EXPECT_EQ(lot.parked(0), 1u);
  lot.retract(0);
  EXPECT_EQ(lot.parked(0), 0u);

  // With an announced waiter the generation moves and partition 1 is
  // untouched (wakeups are partition-scoped).
  lot.announce(0);
  lot.unpark_all(0);
  EXPECT_EQ(lot.generation(0), 1u);
  EXPECT_EQ(lot.generation(1), 0u);
  lot.retract(0);
}

TEST(ParkingLot, ParkReturnsAfterNotify) {
  ParkingLot lot(1);
  const std::uint32_t gen = lot.prepare(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    lot.announce(0);
    lot.park(0, gen);
    woke.store(true);
  });
  while (lot.parked(0) == 0) std::this_thread::yield();
  lot.unpark_all(0);
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(lot.parked(0), 0u);
}

TEST(ParkingLot, StaleGenerationDoesNotBlock) {
  ParkingLot lot(1);
  const std::uint32_t gen = lot.prepare(0);
  lot.announce(0);
  lot.unpark_all(0);  // bump happens before the park
  lot.park(0, gen);   // must return immediately: generation != gen
  SUCCEED();
}

// The acceptance-criteria stress: N threads ping-pong between two
// conflicting modes under AlwaysPark, 100 consecutive iterations. A lost
// wakeup leaves every thread parked and hangs the test; a mutual-exclusion
// bug corrupts the plain counters.
TEST(NoLostWakeupStress, AlwaysParkPingPong) {
  constexpr int kIterations = 100;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 250;
  for (int iter = 0; iter < kIterations; ++iter) {
    const auto t = make_set_table(WaitPolicyKind::AlwaysPark);
    LockMechanism m(t);
    const Value v0[1] = {0};
    const int mode_a = t.resolve(0, v0);       // {add(0),remove(0)}
    const int mode_b = t.resolve_constant(1);  // {size,clear}
    ASSERT_FALSE(t.commutes(mode_a, mode_b));
    long counter = 0;  // guarded by the (mutually exclusive) modes
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int k = 0; k < kOpsPerThread; ++k) {
          const int mode = (k + i) % 2 == 0 ? mode_a : mode_b;
          m.lock(mode);
          ++counter;
          m.unlock(mode);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(counter, static_cast<long>(kThreads) * kOpsPerThread)
        << "iteration " << iter;
    ASSERT_EQ(m.holders(mode_a), 0u);
    ASSERT_EQ(m.holders(mode_b), 0u);
  }
}

// Same shape under the adaptive policy with a tiny spin budget, so the
// spin->park transition is exercised rather than just pure parking.
TEST(NoLostWakeupStress, SpinThenParkPingPong) {
  constexpr int kIterations = 25;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  for (int iter = 0; iter < kIterations; ++iter) {
    const auto t =
        make_set_table(WaitPolicyKind::SpinThenPark, 4, /*spin_limit=*/2);
    LockMechanism m(t);
    const Value v0[1] = {0};
    const int mode_a = t.resolve(0, v0);
    const int mode_b = t.resolve_constant(1);
    long counter = 0;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int k = 0; k < kOpsPerThread; ++k) {
          const int mode = (k + i) % 2 == 0 ? mode_a : mode_b;
          m.lock(mode);
          ++counter;
          m.unlock(mode);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(counter, static_cast<long>(kThreads) * kOpsPerThread)
        << "iteration " << iter;
  }
}

// Parked policies must actually park under sustained conflict, and the new
// AcquireStats fields must observe it.
TEST(AcquireStatsParks, AlwaysParkRecordsParksAndWaitTime) {
  const auto t = make_set_table(WaitPolicyKind::AlwaysPark);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::atomic<std::uint64_t> parks{0}, wait_ns{0};
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode_b);
    m.unlock(mode_b);
    parks.store(stats.parks);
    wait_ns.store(stats.wait_ns);
  });
  // Wait until the waiter is parked before releasing.
  const int partition = t.partition_of(mode_b);
  while (m.parking_lot().parked(partition) == 0) std::this_thread::yield();
  m.unlock(mode_a);
  waiter.join();
  EXPECT_GE(parks.load(), 1u);
  EXPECT_GT(wait_ns.load(), 0u);
}

// A parked waiter is off its CPU for the holder's whole hold, so the CPU
// it is charged must be a small part of its wall wait.
TEST(AcquireStatsParks, ParkedWaitChargesLessCpuThanWall) {
  constexpr std::uint64_t kHoldNs = 50'000'000;
  const auto t = make_set_table(WaitPolicyKind::AlwaysPark);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::atomic<std::uint64_t> wait_ns{0}, wait_cpu_ns{0};
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode_b);
    m.unlock(mode_b);
    wait_ns.store(stats.wait_ns);
    wait_cpu_ns.store(stats.wait_cpu_ns);
  });
  const int partition = t.partition_of(mode_b);
  while (m.parking_lot().parked(partition) == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::nanoseconds(kHoldNs));
  m.unlock(mode_a);
  waiter.join();
  EXPECT_GE(wait_ns.load(), kHoldNs);
  EXPECT_LT(wait_cpu_ns.load(), wait_ns.load() / 2);
}

// A spin-yield waiter never parks, and whether it only spun (CPU charged as
// wall time) or also yielded (CPU clock from the first yield on), it is
// never charged more CPU than wall time.
TEST(AcquireStatsParks, SpinWaitNeverChargesMoreCpuThanWall) {
  const auto t = make_set_table(WaitPolicyKind::SpinYield);
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::atomic<bool> started{false};
  std::atomic<std::uint64_t> parks{1}, wait_ns{0}, wait_cpu_ns{0};
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    started.store(true);
    m.lock(mode_b);
    m.unlock(mode_b);
    parks.store(stats.parks);
    wait_ns.store(stats.wait_ns);
    wait_cpu_ns.store(stats.wait_cpu_ns);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock(mode_a);
  waiter.join();
  EXPECT_EQ(parks.load(), 0u);
  EXPECT_GT(wait_ns.load(), 0u);
  EXPECT_LE(wait_cpu_ns.load(), wait_ns.load());
}

TEST(AcquireStatsParks, SpinYieldNeverParks) {
  const auto t = make_set_table(WaitPolicyKind::SpinYield);
  LockMechanism m(t);
  EXPECT_EQ(m.wait_policy(), WaitPolicyKind::SpinYield);
  const Value v0[1] = {0};
  const int mode_a = t.resolve(0, v0);
  const int mode_b = t.resolve_constant(1);

  m.lock(mode_a);
  std::thread waiter([&] {
    auto& stats = local_acquire_stats();
    stats.reset();
    m.lock(mode_b);
    m.unlock(mode_b);
    EXPECT_EQ(stats.parks, 0u);
    EXPECT_EQ(stats.contended, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock(mode_a);
  waiter.join();
}

}  // namespace
}  // namespace semlock
