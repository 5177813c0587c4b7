// Microbenchmarks (google-benchmark): the raw cost of the semantic-locking
// runtime — uncontended acquire/release vs std::mutex, mode resolution, and
// mode-table compilation.
#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>
#include <vector>

#include "commute/builtin_specs.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace {

using namespace semlock;
using commute::op;
using commute::star;
using commute::SymbolicSet;
using commute::Value;
using commute::var;

ModeTable cia_table(int n) {
  ModeTableConfig cfg;
  cfg.abstract_values = n;
  return ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("containsKey", {var("k")}),
                    op("put", {var("k"), star()})})},
      cfg);
}

void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    benchmark::DoNotOptimize(&m);
    m.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_SemanticLockUncontended(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock lock(table);
  const Value vals[1] = {42};
  for (auto _ : state) {
    const int mode = lock.lock_site(0, vals);
    benchmark::DoNotOptimize(mode);
    lock.unlock(mode);
  }
}
BENCHMARK(BM_SemanticLockUncontended);

void BM_SemanticLockModeKnown(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock lock(table);
  const Value vals[1] = {42};
  const int mode = table.resolve(0, vals);
  for (auto _ : state) {
    lock.lock(mode);
    benchmark::DoNotOptimize(&lock);
    lock.unlock(mode);
  }
}
BENCHMARK(BM_SemanticLockModeKnown);

// Read-heavy acquisition of one self-commuting mode across threads — the
// headline microbench of the ISSUE 3 fast path. With optimistic + striped
// acquisition the series scales with threads; forcing every acquisition
// through the partition spinlock (`fast` == 0) flatlines it.
void BM_SelfCommutingAcquire(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  static const ModeTable fast_table = [] {
    ModeTableConfig cfg;
    cfg.optimistic_acquire = true;
    cfg.storage = StorageKind::Striped;
    cfg.stripe_self_commuting = true;
    cfg.counter_stripes = 64;
    return ModeTable::compile(
        commute::set_spec(),
        {SymbolicSet({op("contains", {star()})}),
         SymbolicSet({op("add", {star()}), op("remove", {star()})})},
        cfg);
  }();
  static const ModeTable slow_table = [] {
    ModeTableConfig cfg;
    cfg.optimistic_acquire = false;
    cfg.stripe_self_commuting = false;
    return ModeTable::compile(
        commute::set_spec(),
        {SymbolicSet({op("contains", {star()})}),
         SymbolicSet({op("add", {star()}), op("remove", {star()})})},
        cfg);
  }();
  const ModeTable& table = fast ? fast_table : slow_table;
  static SemanticLock* lock = nullptr;
  if (state.thread_index() == 0) lock = new SemanticLock(table);
  const int mode = table.resolve_constant(0);
  for (auto _ : state) {
    lock->lock(mode);
    benchmark::DoNotOptimize(lock);
    lock->unlock(mode);
  }
  if (state.thread_index() == 0) {
    delete lock;
    lock = nullptr;
  }
}
BENCHMARK(BM_SelfCommutingAcquire)
    ->ArgName("fast")
    ->Arg(1)
    ->Arg(0)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_ModeResolve(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  Value k = 0;
  for (auto _ : state) {
    const Value vals[1] = {k++};
    benchmark::DoNotOptimize(table.resolve(0, vals));
  }
}
BENCHMARK(BM_ModeResolve);

void BM_TransactionLvUnlockAll(benchmark::State& state) {
  static const ModeTable table = cia_table(64);
  SemanticLock a(table), b(table);
  const Value vals[1] = {7};
  for (auto _ : state) {
    Transaction txn;
    txn.lv(&a, 0, vals);
    txn.lv(&b, 0, vals);
    txn.unlock_all();
  }
}
BENCHMARK(BM_TransactionLvUnlockAll);

// LVn-heavy transaction shapes: lock N distinct instances, each lv paying
// one holds() membership test against everything locked so far. Exercises
// the inline-scan -> hash-index crossover in Transaction::holds (quadratic
// in N without the index).
void BM_TransactionLvManyInstances(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  static const ModeTable table = [] {
    ModeTableConfig cfg;
    cfg.abstract_values = 1;
    return ModeTable::compile(commute::set_spec(),
                              {SymbolicSet({op("add", {star()})})}, cfg);
  }();
  const int mode = table.resolve_constant(0);
  std::vector<std::unique_ptr<SemanticLock>> locks;
  locks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    locks.push_back(std::make_unique<SemanticLock>(table));
  }
  for (auto _ : state) {
    Transaction txn;
    for (auto& lk : locks) txn.lv_mode(lk.get(), mode);
    txn.unlock_all();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TransactionLvManyInstances)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_ModeTableCompile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cia_table(n));
  }
}
BENCHMARK(BM_ModeTableCompile)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
