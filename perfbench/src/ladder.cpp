#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "exact.h"
#include "host.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace perfbench {

using namespace semlock;
using server::Request;
using server::RequestKind;

namespace {

// Lock sites and symbolic sets of the SEMANTIC backend (server/cc_backend.cpp):
// accounts lock Move {deposit(*), withdraw(*)} or Audit {balance()}; the kv
// map and the graph's three containers lock the keyed read {get(k)} or
// update {get(k), put(k, *)} mode.
constexpr int kReadSite = 0;
constexpr int kUpdateSite = 1;

ModeTable account_table() {
  using commute::op;
  using commute::star;
  using commute::SymbolicSet;
  return ModeTable::compile(
      commute::account_spec(),
      {SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
       SymbolicSet({op("balance")})},
      ModeTableConfig{});
}

ModeTable map_table(int abstract_values) {
  using commute::op;
  using commute::star;
  using commute::SymbolicSet;
  using commute::var;
  ModeTableConfig cfg;
  cfg.abstract_values = abstract_values;
  return ModeTable::compile(
      commute::map_spec(),
      {SymbolicSet({op("get", {var("k")})}),
       SymbolicSet({op("get", {var("k")}), op("put", {var("k"), star()})})},
      cfg);
}

struct Locks {
  explicit Locks(const server::StoreConfig& store)
      : accounts_table(account_table()),
        map(map_table(store.abstract_values)),
        kv(map),
        edge(map),
        succ(map),
        pred(map),
        nodes(store.nodes) {
    move_mode = accounts_table.resolve_constant(0);
    audit_mode = accounts_table.resolve_constant(1);
    for (std::int64_t i = 0; i < store.accounts; ++i) {
      accounts.push_back(std::make_unique<SemanticLock>(accounts_table));
    }
  }

  SemanticLock* account(std::int64_t i) {
    return accounts[static_cast<std::size_t>(i)].get();
  }

  ModeTable accounts_table;
  ModeTable map;
  std::vector<std::unique_ptr<SemanticLock>> accounts;
  SemanticLock kv, edge, succ, pred;
  std::int64_t nodes;
  int move_mode = 0;
  int audit_mode = 0;
};

using commute::Value;

// Rung 1: the mode lookups execute() performs.
inline std::int64_t rung_resolve(Locks& L, const Request& r) {
  switch (r.kind) {
    case RequestKind::kComputeIfAbsent: {
      const Value v[1] = {r.a};
      return L.map.resolve(kUpdateSite, v);
    }
    case RequestKind::kTransfer:
      return L.move_mode;
    case RequestKind::kAudit:
      return L.audit_mode;
    case RequestKind::kInsertEdge:
    case RequestKind::kRemoveEdge: {
      const Value e[1] = {r.a * L.nodes + r.b};
      const Value s[1] = {r.a};
      const Value d[1] = {r.b};
      return L.map.resolve(kUpdateSite, e) + L.map.resolve(kUpdateSite, s) +
             L.map.resolve(kUpdateSite, d);
    }
    case RequestKind::kDegree: {
      const Value s[1] = {r.a};
      return L.map.resolve(kReadSite, s);
    }
  }
  return 0;
}

// Rung 2: the same modes, acquired and released on bare SemanticLocks.
inline std::int64_t rung_lock(Locks& L, const Request& r) {
  switch (r.kind) {
    case RequestKind::kComputeIfAbsent: {
      const Value v[1] = {r.a};
      const int m = L.kv.lock_site(kUpdateSite, v);
      L.kv.unlock(m);
      return m;
    }
    case RequestKind::kTransfer:
    case RequestKind::kAudit: {
      const int m =
          r.kind == RequestKind::kTransfer ? L.move_mode : L.audit_mode;
      SemanticLock* a = L.account(r.a);
      SemanticLock* b = L.account(r.b);
      a->lock(m);
      b->lock(m);
      b->unlock(m);
      a->unlock(m);
      return m;
    }
    case RequestKind::kInsertEdge:
    case RequestKind::kRemoveEdge: {
      const Value e[1] = {r.a * L.nodes + r.b};
      const Value s[1] = {r.a};
      const Value d[1] = {r.b};
      const int me = L.edge.lock_site(kUpdateSite, e);
      const int ms = L.succ.lock_site(kUpdateSite, s);
      const int md = L.pred.lock_site(kUpdateSite, d);
      L.pred.unlock(md);
      L.succ.unlock(ms);
      L.edge.unlock(me);
      return me + ms + md;
    }
    case RequestKind::kDegree: {
      const Value s[1] = {r.a};
      const int m = L.succ.lock_site(kReadSite, s);
      L.succ.unlock(m);
      return m;
    }
  }
  return 0;
}

// Rung 3: what execute() does before its body, through a Transaction.
// `timer`, when set, is called around each lv/lv_ordered call.
template <typename Timer>
inline void txn_lvs(Locks& L, Transaction& txn, const Request& r,
                    Timer&& timer) {
  switch (r.kind) {
    case RequestKind::kComputeIfAbsent: {
      const Value v[1] = {r.a};
      timer([&] { txn.lv(&L.kv, kUpdateSite, v); });
      break;
    }
    case RequestKind::kTransfer:
    case RequestKind::kAudit: {
      const int m =
          r.kind == RequestKind::kTransfer ? L.move_mode : L.audit_mode;
      Transaction::DynTarget t[2] = {{L.account(r.a), m}, {L.account(r.b), m}};
      timer([&] { txn.lv_ordered(t); });
      break;
    }
    case RequestKind::kInsertEdge:
    case RequestKind::kRemoveEdge: {
      const Value e[1] = {r.a * L.nodes + r.b};
      const Value s[1] = {r.a};
      const Value d[1] = {r.b};
      timer([&] { txn.lv(&L.edge, kUpdateSite, e); });
      timer([&] { txn.lv(&L.succ, kUpdateSite, s); });
      timer([&] { txn.lv(&L.pred, kUpdateSite, d); });
      break;
    }
    case RequestKind::kDegree: {
      const Value s[1] = {r.a};
      timer([&] { txn.lv(&L.succ, kReadSite, s); });
      break;
    }
  }
}

struct Untimed {
  template <typename F>
  void operator()(F&& f) const {
    f();
  }
};

std::atomic<std::int64_t> g_sink{0};

enum Rung { kLoop = 0, kResolve, kLock, kTxn, kExecute, kUnlockAll, kRungs };

// One pass of one rung over `n` requests; ns per request.
double pass(Rung rung, Locks& L, server::CCBackend& backend,
            const std::vector<Request>& reqs, std::size_t n,
            std::uint64_t clock_pair, SpanLog* log) {
  std::int64_t sink = 0;
  std::uint64_t timed = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = reqs[i];
    switch (rung) {
      case kLoop:
        sink += r.a ^ r.b;
        break;
      case kResolve:
        sink += (r.a ^ r.b) + rung_resolve(L, r);
        break;
      case kLock:
        sink += (r.a ^ r.b) + rung_lock(L, r);
        break;
      case kTxn: {
        sink += r.a ^ r.b;
        Transaction txn;
        txn_lvs(L, txn, r, Untimed{});
        break;
      }
      case kExecute:
        sink += (r.a ^ r.b) + backend.execute(r).observed;
        break;
      case kUnlockAll: {
        Transaction txn;
        txn_lvs(L, txn, r, Untimed{});
        const std::uint64_t a = now_ns();
        txn.unlock_all();
        const std::uint64_t b = now_ns();
        timed += b - a > clock_pair ? b - a - clock_pair : 0;
        break;
      }
      case kRungs:
        break;
    }
  }
  const std::uint64_t t1 = now_ns();
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  if (log != nullptr) {
    log->record(SpanName::kLadderRung, 0, t0, t1,
                static_cast<std::uint64_t>(rung));
  }
  const double total = rung == kUnlockAll ? static_cast<double>(timed)
                                          : static_cast<double>(t1 - t0);
  return total / static_cast<double>(n);
}

}  // namespace

LadderResult run_ladder(const std::vector<Request>& stream,
                        const server::StoreConfig& store, int threads,
                        double budget_s, SpanLog* log) {
  LadderResult out;
  const std::size_t n = std::min<std::size_t>(stream.size(), 100000);
  out.requests = n;
  if (n == 0) return out;
  const std::uint64_t pair = clock_pair_ns();

  // Single-threaded rungs, passes interleaved so drift hits every rung
  // alike; the median pass of each rung is reported.
  {
    Locks L(store);
    auto backend = server::make_cc_backend(server::CCMode::kSemantic, store);
    for (int r = 0; r < kRungs; ++r) {
      pass(static_cast<Rung>(r), L, *backend, stream, n, pair, nullptr);
    }
    std::vector<double> per[kRungs];
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(budget_s * 0.6 * 1e9);
    for (int round = 0; round < 25 && (round < 3 || now_ns() < end); ++round) {
      for (int r = 0; r < kRungs; ++r) {
        per[r].push_back(
            pass(static_cast<Rung>(r), L, *backend, stream, n, pair, log));
      }
    }
    out.loop_ns = median(per[kLoop]);
    out.resolve_ns = median(per[kResolve]);
    out.lock_ns = median(per[kLock]);
    out.txn_ns = median(per[kTxn]);
    out.execute_ns = median(per[kExecute]);
    out.unlock_all_ns = median(per[kUnlockAll]);
  }

  // Each lv/lv_ordered call timed at the workload's thread count, all
  // threads sharing one set of locks.
  {
    Locks L(store);
    std::vector<ExactHist> hists(static_cast<std::size_t>(threads));
    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    const auto dur = static_cast<std::uint64_t>(budget_s * 0.4 * 1e9);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ExactHist& h = hists[static_cast<std::size_t>(t)];
        auto timer = [&](auto&& f) {
          const std::uint64_t a = now_ns();
          f();
          const std::uint64_t b = now_ns();
          h.add(b - a > pair ? b - a - pair : 0);
        };
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::uint64_t end = now_ns() + dur;
        std::size_t i = static_cast<std::size_t>(t);
        do {
          for (int k = 0; k < 256; ++k) {
            Transaction txn;
            txn_lvs(L, txn, stream[i], timer);
            i += static_cast<std::size_t>(threads);
            if (i >= n) i -= n;
          }
        } while (now_ns() < end);
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    for (std::size_t t = 1; t < hists.size(); ++t) hists[0].merge(hists[t]);
    out.acquire_p50_ns = static_cast<double>(hists[0].percentile(0.50));
    out.acquire_p99_ns = static_cast<double>(hists[0].percentile(0.99));
  }
  return out;
}

}  // namespace perfbench
