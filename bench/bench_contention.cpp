// Contention profile: for each paper benchmark and strategy, the fraction
// of lock acquisitions that had to WAIT. This is the machine-independent
// signal behind Figs. 21–25: a strategy whose transactions almost never
// conflict (Ours / Manual / V8) scales on real multicore hardware, while a
// strategy that serializes (Global; 2PL when instances are few) cannot —
// even though a single-core container shows all of them as flat throughput.
//
// Every strategy reports through the same thread-local counters
// (semlock::local_acquire_stats), fed by the semantic-lock mechanism, the
// baseline mutexes, and the Manual implementations' counted guards.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "apps/cache_module.h"
#include "apps/compute_if_absent.h"
#include "apps/gossip_router.h"
#include "apps/graph_module.h"
#include "apps/intruder.h"
#include "bench/bench_common.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "semlock/lock_mechanism.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_team.h"

namespace {

using namespace semlock;
using namespace semlock::apps;

struct Contention {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  double percent() const {
    return acquisitions == 0
               ? 0.0
               : 100.0 * static_cast<double>(contended) /
                     static_cast<double>(acquisitions);
  }
};

// Runs `body(tid, rng)` on `threads` threads and aggregates the per-thread
// acquisition statistics.
Contention profile(
    std::size_t threads,
    const std::function<void(std::size_t, util::Xoshiro256&)>& body) {
  std::atomic<std::uint64_t> acq{0}, cont{0};
  util::run_team(threads, [&](std::size_t tid) {
    auto& stats = local_acquire_stats();
    stats.reset();
    util::Xoshiro256 rng(util::derive_seed(77, tid));
    body(tid, rng);
    acq.fetch_add(stats.acquisitions);
    cont.fetch_add(stats.contended);
  });
  return Contention{acq.load(), cont.load()};
}

void report(const char* bench, const char* strategy, const Contention& c) {
  std::printf("%-14s %-8s acquisitions=%10llu contended=%9llu (%6.2f%%)\n",
              bench, strategy, static_cast<unsigned long long>(c.acquisitions),
              static_cast<unsigned long long>(c.contended), c.percent());
}

// --- Fast-path sweep (ISSUE 3 headline) -------------------------------------
// Acquire/release throughput of a self-commuting read mode R={contains(*)}
// that conflicts with a writer mode W={add(*),remove(*)}, read-mostly mix.
// `fastpath` is optimistic + Striped counters, the reader-flood
// configuration (Striped is opt-in; the shipped default is Flat);
// `spinlock` forces every acquisition through the partition-spinlock
// arbitrated path — the pre-ISSUE-3 mechanism. Same table, same wait policy,
// same workload: the gap is pure acquire-path overhead.
ModeTable make_sweep_table(bool fastpath) {
  using commute::op;
  using commute::star;
  using commute::SymbolicSet;
  ModeTableConfig cfg;
  cfg.optimistic_acquire = fastpath;
  if (fastpath) cfg.storage = StorageKind::Striped;
  cfg.stripe_self_commuting = fastpath;  // stripe count: auto (per-machine)
  return ModeTable::compile(
      commute::set_spec(),
      {
          SymbolicSet({op("contains", {star()})}),
          SymbolicSet({op("add", {star()}), op("remove", {star()})}),
      },
      cfg);
}

double sweep_cell(std::size_t threads, bool fastpath, std::size_t ops,
                  semlock::bench::AcquireTally* tally) {
  const ModeTable table = make_sweep_table(fastpath);
  LockMechanism mech(table);
  const int read_mode = table.resolve_constant(0);
  const int write_mode = table.resolve_constant(1);
  const auto start = std::chrono::steady_clock::now();
  util::run_team(threads, [&](std::size_t tid) {
    auto& stats = local_acquire_stats();
    stats.reset();
    util::Xoshiro256 rng(util::derive_seed(91, tid));
    for (std::size_t i = 0; i < ops; ++i) {
      const bool write = rng.chance_percent(1);
      const int mode = write ? write_mode : read_mode;
      mech.lock(mode);
      mech.unlock(mode);
    }
    if (tally) tally->collect(stats);
  });
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(threads * ops) / ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semlock::bench;
  // Perf-trajectory artifact (override path with --json=PATH).
  std::string json_path = "BENCH_contention.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  print_figure_header(
      "Contention profile",
      "waiting acquisitions per strategy (4 threads; lower = more scalable)");
  const std::size_t kThreads = 4;
  const auto ops = static_cast<std::size_t>(50'000 * scale_factor());

  // Contended% per (figure, strategy), recorded for BENCH_contention.json.
  util::SeriesTable contended_tbl("figure", "contended %");
  contended_tbl.set_series({"Ours", "Global", "2PL", "Manual"});
  std::vector<double> cells;

  // --- ComputeIfAbsent (Fig. 21) -------------------------------------------
  for (const Strategy s : {Strategy::Ours, Strategy::Global, Strategy::TwoPL,
                           Strategy::Manual}) {
    CiaParams params;
    params.key_range = 1 << 18;
    auto module = make_cia_module(s, params);
    const auto c = profile(kThreads, [&](std::size_t, util::Xoshiro256& rng) {
      for (std::size_t i = 0; i < ops; ++i) {
        module->compute_if_absent(
            static_cast<commute::Value>(rng.next_below(params.key_range)));
      }
    });
    report("Fig21/CIA", strategy_name(s), c);
    cells.push_back(c.percent());
  }
  contended_tbl.add_row(21, cells);
  cells.clear();
  std::printf("\n");

  // --- Graph (Fig. 22) ------------------------------------------------------
  for (const Strategy s : {Strategy::Ours, Strategy::Global, Strategy::TwoPL,
                           Strategy::Manual}) {
    GraphParams params;
    auto g = make_graph_module(s, params);
    const auto c = profile(kThreads, [&](std::size_t, util::Xoshiro256& rng) {
      for (std::size_t i = 0; i < ops; ++i) {
        const auto a = static_cast<commute::Value>(rng.next_below(1 << 14));
        const auto b = static_cast<commute::Value>(rng.next_below(1 << 14));
        const auto pick = rng.next_below(100);
        if (pick < 35) {
          g->find_successors(a);
        } else if (pick < 70) {
          g->find_predecessors(a);
        } else if (pick < 90) {
          g->insert_edge(a, b);
        } else {
          g->remove_edge(a, b);
        }
      }
    });
    report("Fig22/Graph", strategy_name(s), c);
    cells.push_back(c.percent());
  }
  contended_tbl.add_row(22, cells);
  cells.clear();
  std::printf("\n");

  // --- Cache (Fig. 23) ------------------------------------------------------
  for (const Strategy s : {Strategy::Ours, Strategy::Global, Strategy::TwoPL,
                           Strategy::Manual}) {
    CacheParams params;
    params.size = 100'000;
    auto cache = make_cache_module(s, params);
    const auto c = profile(kThreads, [&](std::size_t, util::Xoshiro256& rng) {
      for (std::size_t i = 0; i < ops; ++i) {
        const auto k = static_cast<commute::Value>(rng.next_below(1 << 18));
        if (rng.chance_percent(10)) {
          cache->put(k, k);
        } else {
          cache->get(k);
        }
      }
    });
    report("Fig23/Cache", strategy_name(s), c);
    cells.push_back(c.percent());
  }
  contended_tbl.add_row(23, cells);
  cells.clear();
  std::printf("\n");

  // --- Intruder (Fig. 24) ---------------------------------------------------
  {
    IntruderParams params;
    params.num_flows = static_cast<std::size_t>(8192 * scale_factor());
    const PacketTrace trace = PacketTrace::generate(params);
    for (const Strategy s : {Strategy::Ours, Strategy::Global,
                             Strategy::TwoPL, Strategy::Manual}) {
      auto system = make_intruder_system(s, params);
      std::atomic<std::size_t> next{0};
      const auto c =
          profile(kThreads, [&](std::size_t, util::Xoshiro256&) {
            for (;;) {
              const std::size_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= trace.packets.size()) break;
              system->process(trace.packets[i]);
            }
          });
      report("Fig24/Intrudr", strategy_name(s), c);
      cells.push_back(c.percent());
    }
  }
  contended_tbl.add_row(24, cells);
  cells.clear();
  std::printf("\n");

  // --- GossipRouter (Fig. 25) ------------------------------------------------
  for (const Strategy s : {Strategy::Ours, Strategy::Global, Strategy::TwoPL,
                           Strategy::Manual}) {
    GossipParams params;
    auto router = make_gossip_router(s, params);
    for (std::size_t g = 0; g < params.num_groups; ++g) {
      for (int a = 0; a < params.num_clients; ++a) {
        router->register_member(static_cast<commute::Value>(g),
                                static_cast<commute::Value>(g * 100 + a));
      }
    }
    const auto c = profile(kThreads, [&](std::size_t, util::Xoshiro256& rng) {
      for (std::size_t i = 0; i < ops / 4; ++i) {
        router->route(
            static_cast<commute::Value>(rng.next_below(params.num_groups)),
            static_cast<std::int64_t>(i));
      }
    });
    report("Fig25/Gossip", strategy_name(s), c);
    cells.push_back(c.percent());
  }
  contended_tbl.add_row(25, cells);
  cells.clear();
  std::printf("\n");

  // --- Fast-path sweep ------------------------------------------------------
  std::printf(
      "Fast path: read-mostly acquire/release of a self-commuting mode\n"
      "(fastpath = optimistic + striped counters; spinlock = arbitrated "
      "path)\n");
  util::SeriesTable sweep_tbl("threads", "ops/ms");
  sweep_tbl.set_series({"fastpath", "spinlock", "speedup"});
  const auto sweep_ops = static_cast<std::size_t>(200'000 * scale_factor());
  AcquireTally tally;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{16}}) {
    const double fast = sweep_cell(t, true, sweep_ops, &tally);
    const double slow = sweep_cell(t, false, sweep_ops, nullptr);
    sweep_tbl.add_row(static_cast<double>(t), {fast, slow, fast / slow});
  }
  print_results(sweep_tbl);
  tally.print("fastpath");

  if (!write_bench_json(json_path, "contention",
                        {{"contended_percent", &contended_tbl},
                         {"fastpath_ops_per_ms", &sweep_tbl}})) {
    return 1;
  }
  return 0;
}
