#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "exact.h"
#include "host.h"
#include "ladder.h"
#include "semlock/acquire_stats.h"
#include "semlock/history.h"
#include "server/cc_backend.h"
#include "server/server.h"
#include "server/traffic_gen.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

using namespace semlock::server;
using semlock::AcquireStats;

namespace {

// Heavy rate of server-open, fixed so runs of different commits offer the
// same load: about 35% of the capacity measured on the reference host
// (4 vCPU KVM guest, median 1.4M req/s). At 70% of capacity single rounds
// read a p99 of 0.2-1 ms from host stalls alone.
constexpr double kHeavyRps = 500000.0;
// Capacity search bracket and steps: 5 bisections of a 2.7 octave bracket
// narrow it to 0.085 octave (6%) before interpolation.
constexpr double kCapacityLowRps = 400000.0;
constexpr double kCapacityHighRps = 2600000.0;
constexpr int kBisectSteps = 5;

// Closed loops draw from a pool of about 60000 pre-generated requests and
// wrap around it. At 3 MB the pool stays in a core's L2, so streaming it
// does not add memory traffic that neighbours on a shared host would slow
// down. The count is Poisson, kept clear of 2^16 so the vector's capacity,
// and with it peak RSS, is the same for every seed.
constexpr double kPoolRequests = 60000;
constexpr std::uint64_t kWarmupRequests = 50000;
constexpr int kSetupReps = 9;
constexpr int kClosedRounds = 10;
constexpr std::size_t kSpanRing = 1u << 16;

struct WorkloadDef {
  const char* name;
  const char* mix;
  double theta;
  StoreConfig store;
  int threads;       // closed-loop clients, or server workers
  bool open_loop;
};

StoreConfig bank_store() {
  StoreConfig s;
  s.accounts = 16;
  return s;
}

const WorkloadDef kWorkloads[] = {
    {"uncontended", "mixed", 0.0, StoreConfig{}, 1, false},
    {"hot-bank", "bank", 0.99, bank_store(), 3, false},
    {"server-open", "mixed", 0.6, StoreConfig{}, 2, true},
};

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::atomic<std::int64_t> g_sink{0};

constexpr double kLightRps = 200000.0;
constexpr std::uint64_t kSloNs = 100000;  // p99 limit for capacity

TrafficConfig stream_config(const char* mix, double theta,
                            const StoreConfig& store, double rate_rps,
                            std::uint64_t duration_ms, std::uint64_t seed) {
  TrafficConfig cfg;
  parse_traffic_mix(mix, &cfg.mix);
  cfg.zipf_theta = theta;
  cfg.store = store;
  cfg.rate_rps = rate_rps;
  cfg.duration_ms = duration_ms;
  cfg.burst_factor = 1;
  cfg.think_users = 0;
  cfg.seed = seed;
  return cfg;
}

AcquireStats stats_delta(const AcquireStats& after, const AcquireStats& before) {
  AcquireStats d;
  d.acquisitions = after.acquisitions - before.acquisitions;
  d.contended = after.contended - before.contended;
  d.parks = after.parks - before.parks;
  d.optimistic_hits = after.optimistic_hits - before.optimistic_hits;
  d.retracts = after.retracts - before.retracts;
  d.wait_ns = after.wait_ns - before.wait_ns;
  d.wait_cpu_ns = after.wait_cpu_ns - before.wait_cpu_ns;
  d.max_wait_ns = after.max_wait_ns;  // high-water mark; threads start fresh
  d.diverted = after.diverted - before.diverted;
  d.handoffs = after.handoffs - before.handoffs;
  return d;
}

// A slice of a request pool executed by one thread in one round: pool
// indices first, first + stride, ... (mod pool size), `count` of them.
struct Segment {
  std::uint64_t first = 0;
  std::uint64_t stride = 1;
  std::uint64_t count = 0;
};

// CCBackend decorator: stamps the steady-clock start and end of every
// execute() by request id, and optionally snapshots each worker thread's
// acquisition counters. Everything else forwards to the wrapped backend.
class StampingBackend final : public CCBackend {
  static constexpr int kMaxSlots = 16;
  struct Slot {
    AcquireStats before;
    AcquireStats after;
  };

 public:
  StampingBackend(CCBackend* inner, std::vector<ExecStamp>* stamps,
                  bool collect_stats)
      : inner_(inner), stamps_(stamps), collect_stats_(collect_stats) {}

  ExecResult execute(const Request& r) override {
    // Slot of this worker thread for this decorator; Server::run creates its
    // workers per run, so a fresh thread always takes a fresh slot.
    thread_local const StampingBackend* owner = nullptr;
    thread_local int slot = -1;
    if (collect_stats_ && owner != this) {
      owner = this;
      slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
      if (slot < kMaxSlots) {
        slots_[static_cast<std::size_t>(slot)].before =
            semlock::local_acquire_stats();
      }
    }
    const std::uint64_t t0 = now_ns();
    const ExecResult res = inner_->execute(r);
    const std::uint64_t t1 = now_ns();
    (*stamps_)[r.id] = ExecStamp{t0, t1};
    if (collect_stats_ && slot >= 0 && slot < kMaxSlots) {
      slots_[static_cast<std::size_t>(slot)].after =
          semlock::local_acquire_stats();
    }
    return res;
  }
  CCMode mode() const override { return inner_->mode(); }
  std::int64_t balance_total() const override {
    return inner_->balance_total();
  }
  std::int64_t kv_inserted() const override { return inner_->kv_inserted(); }
  std::int64_t edges_present() const override {
    return inner_->edges_present();
  }
  std::uint64_t digest() const override { return inner_->digest(); }

  // Acquisition counters accumulated by the worker threads during the run.
  AcquireStats stats() const {
    AcquireStats total;
    const int n = std::min(next_slot_.load(), kMaxSlots);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      total.merge(stats_delta(slots_[i].after, slots_[i].before));
    }
    return total;
  }

 private:
  CCBackend* inner_;
  std::vector<ExecStamp>* stamps_;
  bool collect_stats_;
  std::array<Slot, kMaxSlots> slots_{};
  std::atomic<int> next_slot_{0};
};

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- set-up -------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total_s, generate_s, backend_s;
  void add(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
           std::uint64_t t3) {
    generate_s.push_back(ns_to_s(t1 - t0));
    backend_s.push_back(ns_to_s(t2 - t1));
    total_s.push_back(ns_to_s(t3 - t0));
  }
};

void record_setup_spans(SpanLog* log, std::uint64_t t0, std::uint64_t t1,
                        std::uint64_t t2, std::uint64_t t3) {
  if (log == nullptr) return;
  const std::uint64_t root = log->next_id();
  log->record(SpanName::kGenerate, root, t0, t1);
  log->record(SpanName::kBackend, root, t1, t2);
  log->record(SpanName::kWarmup, root, t2, t3);
  log->record(SpanName::kSetup, 0, t0, t3, 0, root);
}

void report_setup(const SetupTimes& st, bool trace, Report& out) {
  if (trace) {
    out.add("setup.generate_s", median(st.generate_s), "s");
    out.add("setup.backend_s", median(st.backend_s), "s");
  } else {
    out.add("setup_s", median(st.total_s), "s");
  }
}

// --- closed loop --------------------------------------------------------------

struct ClosedRound {
  double seconds = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t cpu_ns = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double exec_mean_ns = 0.0;
  AcquireStats stats;

  double tps() const { return seconds > 0 ? executed / seconds : 0.0; }
};

class ClosedLoop {
 public:
  ClosedLoop(CCBackend* backend, const std::vector<Request>& pool,
             std::uint64_t warmed)
      : backend_(backend), pool_(pool), next_(warmed % pool.size()) {
    segments_.push_back(Segment{0, 1, warmed});
  }

  // Runs `threads` clients for `seconds`; every call is timed on the
  // steady clock. With `logs`, each call also records an execute span.
  ClosedRound round(int threads, double seconds, std::vector<SpanLog>* logs) {
    const std::uint64_t n_pool = pool_.size();
    const auto stride = static_cast<std::uint64_t>(threads);
    std::vector<ExactHist> hists(static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> counts(hists.size()), ends(hists.size());
    std::vector<AcquireStats> stats(hists.size());
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::uint64_t deadline = 0;  // written before go (release), read after

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const auto ti = static_cast<std::size_t>(t);
        const AcquireStats before = semlock::local_acquire_stats();
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::uint64_t dl = deadline;
        SpanLog* log = logs != nullptr ? &(*logs)[ti] : nullptr;
        const std::uint64_t root = log != nullptr ? log->next_id() : 0;
        ExactHist& h = hists[ti];
        std::uint64_t idx = (next_ + ti) % n_pool;
        std::uint64_t n = 0;
        std::int64_t sink = 0;
        const std::uint64_t start = now_ns();
        std::uint64_t t1 = start;
        do {
          const Request& r = pool_[idx];
          const std::uint64_t t0 = now_ns();
          sink += backend_->execute(r).observed;
          t1 = now_ns();
          h.add(t1 - t0);
          if (log != nullptr) {
            log->record(SpanName::kExecute, root, t0, t1, r.id);
          }
          ++n;
          idx += stride;
          if (idx >= n_pool) idx -= n_pool;
        } while (t1 < dl);
        if (log != nullptr) log->record(SpanName::kRun, 0, start, t1, 0, root);
        counts[ti] = n;
        ends[ti] = t1;
        stats[ti] = stats_delta(semlock::local_acquire_stats(), before);
        g_sink.fetch_add(sink, std::memory_order_relaxed);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t_go = now_ns();
    deadline = t_go + static_cast<std::uint64_t>(seconds * 1e9);
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    const std::uint64_t cpu1 = process_cpu_ns();

    ClosedRound out;
    std::uint64_t max_count = 0, last_end = t_go;
    for (std::size_t t = 0; t < hists.size(); ++t) {
      segments_.push_back(Segment{(next_ + t) % n_pool, stride, counts[t]});
      out.executed += counts[t];
      max_count = std::max(max_count, counts[t]);
      last_end = std::max(last_end, ends[t]);
      out.stats.merge(stats[t]);
      if (t > 0) hists[0].merge(hists[t]);
    }
    next_ = (next_ + max_count * stride) % n_pool;
    out.seconds = ns_to_s(last_end - t_go);
    out.cpu_ns = cpu1 - cpu0;
    out.p50_ns = static_cast<double>(hists[0].percentile(0.50));
    out.p99_ns = static_cast<double>(hists[0].percentile(0.99));
    out.exec_mean_ns = hists[0].mean();
    std::fprintf(stderr,
                 "[perfbench] round threads %d: %.0f txn/s p50 %.0f ns p99 "
                 "%.0f ns cpu %.0f ns/txn\n",
                 threads, out.tps(), out.p50_ns, out.p99_ns,
                 static_cast<double>(out.cpu_ns) /
                     static_cast<double>(std::max<std::uint64_t>(1, out.executed)));
    return out;
  }

  const std::vector<Segment>& segments() const { return segments_; }

 private:
  CCBackend* backend_;
  const std::vector<Request>& pool_;
  std::uint64_t next_;
  std::vector<Segment> segments_;
};

// --- server phase -------------------------------------------------------------

// Server latency percentiles are taken per 50 ms window of intended arrival
// and the median over windows is reported: the tail of a typical window.
// On a shared host a single stall of a few ms makes every request behind it
// late, and decides a whole-run p99 by itself; it moves only its own
// window's. At 200k req/s a window holds 10k requests, 100 beyond its p99.
constexpr std::uint64_t kWindowNs = 50'000'000;
constexpr std::size_t kMinWindowSamples = 2000;

// What the benchmark keeps of one Server::run: the server's report, which
// requests executed, and the latency figures, all in ns.
struct ServerPhase {
  ServerReport rep;
  std::vector<char> executed;  // by request id
  // Per-window percentiles of latency from intended arrival.
  std::vector<double> window_p50, window_p99;
  // Whole-run percentiles of execute() alone and of the rest of the latency.
  double service_p50 = 0, service_p99 = 0, service_mean = 0;
  double queue_p50 = 0, queue_p99 = 0;
  double overrun_ms = 0.0;  // wall time - schedule horizon
  AcquireStats stats;
};

// Appends the q-percentile of every window of `v` (bounds from `begin`,
// which holds the first index of each window) with enough samples.
void window_percentiles(const std::vector<std::uint64_t>& v,
                        const std::vector<std::size_t>& begin, double q,
                        std::vector<double>* out) {
  for (std::size_t w = 0; w < begin.size(); ++w) {
    const std::size_t e = w + 1 < begin.size() ? begin[w + 1] : v.size();
    if (e - begin[w] < kMinWindowSamples) continue;
    std::vector<std::uint64_t> c(v.begin() + static_cast<std::ptrdiff_t>(begin[w]),
                                 v.begin() + static_cast<std::ptrdiff_t>(e));
    out->push_back(static_cast<double>(percentile(c, q)));
  }
}

ServerPhase run_server_phase(CCBackend* backend,
                             const std::vector<Request>& sched,
                             std::uint64_t horizon_ns, int workers, bool paced,
                             bool collect_stats, SpanLog* log) {
  ServerPhase out;
  std::vector<ExecStamp> stamps(sched.size());
  StampingBackend stamping(backend, &stamps, collect_stats);
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.shards = 16;
  Server server(cfg, &stamping);
  const std::uint64_t t_run = now_ns();
  out.rep = server.run(sched, paced);
  const std::uint64_t t_end = now_ns();
  out.stats = stamping.stats();
  out.overrun_ms = (out.rep.wall_seconds - ns_to_s(horizon_ns)) * 1e3;

  const std::uint64_t epoch = reconstruct_epoch(sched, stamps);
  const std::uint64_t root = log != nullptr ? log->next_id() : 0;
  std::vector<std::uint64_t> latency, service, queue;
  std::vector<std::size_t> window_begin;  // latency is in arrival order
  latency.reserve(sched.size());
  service.reserve(sched.size());
  queue.reserve(sched.size());
  out.executed.assign(sched.size(), 0);
  std::uint64_t window = 0;
  double service_sum = 0;
  for (const Request& r : sched) {
    const ExecStamp& s = stamps[r.id];
    if (s.start_ns == 0) continue;
    out.executed[r.id] = 1;
    if (window_begin.empty() || r.arrival_ns / kWindowNs != window) {
      window = r.arrival_ns / kWindowNs;
      window_begin.push_back(latency.size());
    }
    const std::uint64_t due = epoch + r.arrival_ns;
    const std::uint64_t lat = s.end_ns > due ? s.end_ns - due : 0;
    const std::uint64_t svc = s.end_ns - s.start_ns;
    latency.push_back(lat);
    service.push_back(svc);
    queue.push_back(lat > svc ? lat - svc : 0);
    service_sum += static_cast<double>(svc);
    if (log != nullptr) {
      const std::uint64_t req =
          log->record(SpanName::kRequest, root, due, s.end_ns, r.id);
      log->record(SpanName::kService, req, s.start_ns, s.end_ns, r.id);
    }
  }
  if (log != nullptr) {
    log->record(SpanName::kServerRun, 0, t_run, t_end, 0, root);
  }
  window_percentiles(latency, window_begin, 0.50, &out.window_p50);
  window_percentiles(latency, window_begin, 0.99, &out.window_p99);
  out.service_p50 = static_cast<double>(percentile(service, 0.50));
  out.service_p99 = static_cast<double>(percentile(service, 0.99));
  out.service_mean =
      service.empty() ? 0.0 : service_sum / static_cast<double>(service.size());
  out.queue_p50 = static_cast<double>(percentile(queue, 0.50));
  out.queue_p99 = static_cast<double>(percentile(queue, 0.99));
  if (paced) {
    std::fprintf(stderr,
                 "[perfbench] server run %.0f req/s offered: window median "
                 "p50 %.0f ns p99 %.0f ns, shed %llu, overrun %.3f ms\n",
                 static_cast<double>(sched.size()) / ns_to_s(horizon_ns),
                 median(out.window_p50), median(out.window_p99),
                 static_cast<unsigned long long>(out.rep.shed), out.overrun_ms);
  }
  return out;
}

// --- correctness gate ---------------------------------------------------------

// The same requests, one at a time, on a SERIAL backend.
class SerialReplay {
 public:
  explicit SerialReplay(const StoreConfig& store)
      : backend_(make_cc_backend(CCMode::kSerial, store)) {}

  void run(const Request& r) { backend_->execute(r); }
  void run(const std::vector<Request>& pool, const Segment& s) {
    std::uint64_t idx = s.first;
    for (std::uint64_t k = 0; k < s.count; ++k) {
      backend_->execute(pool[idx]);
      idx += s.stride;
      if (idx >= pool.size()) idx -= pool.size();
    }
  }
  const CCBackend& backend() const { return *backend_; }

 private:
  std::unique_ptr<CCBackend> backend_;
};

void check_conservation(const CCBackend& b, const StoreConfig& store,
                        const char* what, Report& out) {
  out.check(b.balance_total() == store.accounts * store.initial_balance,
            std::string(what) + ": balance_total conserved");
}

// Outside the timed window: a short replay through a checked SEMANTIC
// backend on `threads` threads, then the conflict-serializability oracle.
void check_history(const std::vector<Request>& pool, const StoreConfig& store,
                   int threads, Report& out) {
  semlock::HistoryRecorder recorder;
  auto backend = make_cc_backend(CCMode::kSemantic, store, &recorder);
  const std::size_t n = std::min<std::size_t>(pool.size(), 4000);
  std::vector<std::thread> pool_threads;
  for (int t = 0; t < threads; ++t) {
    pool_threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < n;
           i += static_cast<std::size_t>(threads)) {
        backend->execute(pool[i]);
      }
    });
  }
  for (auto& th : pool_threads) th.join();
  const auto rep =
      semlock::check_conflict_serializability(recorder.snapshot());
  out.check(rep.serializable,
            "checked replay is conflict-serializable: " + rep.to_string());
  check_conservation(*backend, store, "checked replay", out);
}

// --- per-layer helpers --------------------------------------------------------

void report_acquire_stats(const AcquireStats& s, std::uint64_t txns,
                          Report& out) {
  const double acq = static_cast<double>(std::max<std::uint64_t>(1, s.acquisitions));
  const double tx = static_cast<double>(std::max<std::uint64_t>(1, txns));
  out.add("semlock.optimistic_hit_ratio", s.optimistic_hits / acq, "ratio");
  out.add("semlock.retracts_per_kacq", 1000.0 * s.retracts / acq, "count");
  out.add("semlock.acq_per_txn", s.acquisitions / tx, "count");
  out.add("runtime.contended_ratio", s.contended / acq, "ratio");
  out.add("runtime.wait_ns_per_txn", s.wait_ns / tx, "ns");
  out.add("runtime.wait_cpu_ns_per_txn", s.wait_cpu_ns / tx, "ns");
  out.add("runtime.parks_per_kacq", 1000.0 * s.parks / acq, "count");
  out.add("runtime.max_wait_us", s.max_wait_ns / 1e3, "us");
  out.add("runtime.diverted", static_cast<double>(s.diverted), "count");
  out.add("runtime.handoffs", static_cast<double>(s.handoffs), "count");
}

void report_ladder(const LadderResult& l, double exec_span_ns, Report& out) {
  out.add("commute.resolve_ns", l.resolve_ns - l.loop_ns, "ns");
  out.add("semlock.lock_unlock_ns", l.lock_ns - l.resolve_ns, "ns");
  out.add("semlock.txn_overhead_ns", l.txn_ns - l.lock_ns, "ns");
  out.add("semlock.unlock_all_ns", l.unlock_all_ns, "ns");
  out.add("semlock.acquire_ns.p50", l.acquire_p50_ns, "ns");
  out.add("semlock.acquire_ns.p99", l.acquire_p99_ns, "ns");
  out.add("server.exec_ns", l.execute_ns - l.loop_ns, "ns");
  out.add("server.body_ns", l.execute_ns - l.txn_ns, "ns");
  out.add("server.exec_span_ns", exec_span_ns, "ns");
  std::fprintf(stderr,
               "[perfbench] ladder per section: loop %.1f | resolve +%.1f | "
               "lock word +%.1f | txn +%.1f | body +%.1f = exec %.1f ns "
               "(execute spans: %.1f ns)\n",
               l.loop_ns, l.resolve_ns - l.loop_ns, l.lock_ns - l.resolve_ns,
               l.txn_ns - l.lock_ns, l.execute_ns - l.txn_ns,
               l.execute_ns - l.loop_ns, exec_span_ns);
}

void report_server_layers(const std::vector<ServerPhase>& phases,
                          const std::vector<double>& drain_rps, Report& out) {
  std::vector<double> s50, s99, q50, q99, overrun;
  double max_depth = 0;
  for (const auto& ph : phases) {
    s50.push_back(ph.service_p50);
    s99.push_back(ph.service_p99);
    q50.push_back(ph.queue_p50);
    q99.push_back(ph.queue_p99);
    overrun.push_back(ph.overrun_ms);
    max_depth = std::max(max_depth, static_cast<double>(ph.rep.max_queue_depth));
  }
  out.add("server.service_ns.p50", median(s50), "ns");
  out.add("server.service_ns.p99", median(s99), "ns");
  out.add("server.queue_wait_ns.p50", median(q50), "ns");
  out.add("server.queue_wait_ns.p99", median(q99), "ns");
  out.add("server.max_queue_depth", max_depth, "count");
  out.add("server.overrun_ms", median(overrun), "ms");
  out.add("server.drain_rps", median(drain_rps), "1/s");
}

// Schedule horizon in whole ms, as generate_schedule takes it.
std::uint64_t schedule_ms(double seconds) {
  return std::max<std::uint64_t>(1, std::llround(seconds * 1e3));
}

std::vector<Request> make_schedule(const WorkloadDef& w, double rate,
                                   double seconds, std::uint64_t seed) {
  return generate_schedule(stream_config(
      w.mix, w.theta, w.store, rate,
      schedule_ms(seconds),
      seed));
}

// Server rung of the traced run for every workload: its own stream through
// Server::run, paced at `rate` (latency split into service and queue wait),
// then unpaced (the drain ceiling). Runs on its own backend.
void server_rung(const WorkloadDef& w, double rate, double budget_s,
                 std::uint64_t seed, SpanLog* log, Report& out) {
  auto backend = make_cc_backend(CCMode::kSemantic, w.store);
  std::vector<ServerPhase> phases;
  std::vector<double> drains;
  const double paced_s = budget_s * 0.6 / 3;
  const double drain_s = budget_s * 0.4 / 3;
  std::uint64_t offered = 0, done = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto sched = make_schedule(
        w, rate, paced_s, semlock::util::derive_seed(seed, 100 + rep));
    phases.push_back(run_server_phase(
        backend.get(), sched,
        schedule_ms(paced_s) * 1000000, w.threads, true, false,
        log));
    const auto drain = make_schedule(
        w, rate, drain_s, semlock::util::derive_seed(seed, 200 + rep));
    const ServerPhase d = run_server_phase(backend.get(), drain, 0,
                                           w.threads, false, false, nullptr);
    drains.push_back(d.rep.throughput_rps());
    offered += phases.back().rep.offered + d.rep.offered;
    done += phases.back().rep.completed + phases.back().rep.shed +
            d.rep.completed + d.rep.shed;
  }
  out.check(done == offered, "server rung: completed + shed == offered");
  check_conservation(*backend, w.store, "server rung", out);
  report_server_layers(phases, drains, out);
}

// --- closed-loop workloads ----------------------------------------------------

void run_closed(const WorkloadDef& w, const Options& opt, Report& out) {
  std::vector<SpanLog> main_log;
  if (opt.trace) main_log.emplace_back(99, kSpanRing);
  SpanLog* mlog = opt.trace ? &main_log[0] : nullptr;

  SetupTimes setup;
  std::vector<Request> pool;
  std::unique_ptr<CCBackend> backend;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    backend.reset();
    const std::uint64_t t0 = now_ns();
    pool = make_schedule(w, kPoolRequests, 1.0, opt.seed);
    const std::uint64_t t1 = now_ns();
    backend = make_cc_backend(CCMode::kSemantic, w.store);
    const std::uint64_t t2 = now_ns();
    for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
      backend->execute(pool[i]);
    }
    const std::uint64_t t3 = now_ns();
    setup.add(t0, t1, t2, t3);
    record_setup_spans(mlog, t0, t1, t2, t3);
  }

  ClosedLoop loop(backend.get(), pool, kWarmupRequests);
  const double S = opt.seconds;
  std::vector<ClosedRound> main, traced;
  std::vector<SpanLog> logs;
  if (opt.trace) {
    for (int t = 0; t < w.threads; ++t) logs.emplace_back(t, kSpanRing);
  }
  // Untraced: every round measured. Traced: untraced and traced rounds
  // alternate; the A/B gives the tracing overhead, the traced rounds the
  // acquisition counters.
  for (int r = 0; r < kClosedRounds; ++r) {
    const bool tr = opt.trace && r % 2 == 1;
    const double round_s = (opt.trace ? 0.5 : 1.0) * S / kClosedRounds;
    (tr ? traced : main)
        .push_back(loop.round(w.threads, round_s, tr ? &logs : nullptr));
  }
  const double rss = peak_rss_mb();

  std::vector<double> tps, p50, p99, cpu;
  std::uint64_t executed = 0;
  for (const auto& r : main) {
    tps.push_back(r.tps());
    p50.push_back(r.p50_ns / 1e3);
    p99.push_back(r.p99_ns / 1e3);
    cpu.push_back(static_cast<double>(r.cpu_ns) / static_cast<double>(r.executed));
    executed += r.executed;
  }

  if (!opt.trace) {
    report_setup(setup, false, out);
    out.add("txn_per_s", median(tps), "1/s");
    out.add("latency_p50_us", median(p50), "us");
    out.add("latency_p99_us", median(p99), "us");
    out.add("cpu_ns_per_txn", median(cpu), "ns");
    out.add("peak_rss_mb", rss, "MB");
  } else {
    std::vector<double> ttps, exec_mean;
    AcquireStats st;
    std::uint64_t traced_txns = 0;
    for (const auto& r : traced) {
      ttps.push_back(r.tps());
      exec_mean.push_back(r.exec_mean_ns);
      st.merge(r.stats);
      traced_txns += r.executed;
      executed += r.executed;
    }
    report_setup(setup, true, out);
    out.add("obs.trace_overhead_pct", (median(tps) / median(ttps) - 1.0) * 100.0,
            "%");
    report_acquire_stats(st, traced_txns, out);
    const LadderResult lad = run_ladder(pool, w.store, w.threads, 0.3 * S, mlog);
    const std::uint64_t pair = clock_pair_ns();
    report_ladder(lad, median(exec_mean) - static_cast<double>(pair), out);
    server_rung(w, kLightRps, 0.2 * S, opt.seed, mlog, out);
  }
  out.attempted = executed;

  // Correctness gate: every executed request, replayed one at a time on a
  // SERIAL backend, must leave the same kv table. One client executes in
  // pool order and the bank's transfers commute, so the whole store must
  // match too.
  SerialReplay serial(w.store);
  for (const Segment& s : loop.segments()) serial.run(pool, s);
  check_conservation(*backend, w.store, w.name, out);
  out.check(backend->kv_inserted() == serial.backend().kv_inserted(),
            std::string(w.name) + ": kv_inserted equals SERIAL replay");
  out.check(backend->digest() == serial.backend().digest(),
            std::string(w.name) + ": store digest equals SERIAL replay");
  check_history(pool, w.store, w.threads, out);

  if (opt.trace) {
    std::vector<const SpanLog*> all{mlog};
    for (const auto& l : logs) all.push_back(&l);
    out.check(write_spans(opt.spans_path, all),
              "spans written to " + opt.spans_path);
  }
}

// --- server-open --------------------------------------------------------------

struct Trial {
  double rate = 0.0;
  double p99_us = 0.0;
  std::uint64_t shed = 0;
  double overrun_ms = 0.0;
  bool pass = false;
};

Trial capacity_trial(const WorkloadDef& w, CCBackend* backend, double rate,
                     double seconds, std::uint64_t seed, Report& out) {
  const auto sched = make_schedule(w, rate, seconds, seed);
  const ServerPhase ph = run_server_phase(
      backend, sched, schedule_ms(seconds) * 1000000, w.threads,
      true, false, nullptr);
  out.check(ph.rep.completed + ph.rep.shed == ph.rep.offered,
            "capacity trial: completed + shed == offered");
  Trial t;
  t.rate = rate;
  t.p99_us = median(ph.window_p99) / 1e3;
  t.shed = ph.rep.shed;
  t.overrun_ms = ph.overrun_ms;
  t.pass = t.p99_us * 1e3 <= static_cast<double>(kSloNs) && t.shed == 0 &&
           t.overrun_ms <= 1.0;
  return t;
}

// One probe of the capacity search: three short paced trials at `rate`,
// passing when at least two of them meet the SLO. A single host stall of a
// few ms breaks one short trial's p99 at any rate; the majority vote keeps
// such a stall from ending the search early.
struct Probe {
  double rate = 0.0;
  double p99_us = 0.0;  // median over the trials
  bool pass = false;
};

Probe capacity_probe(const WorkloadDef& w, CCBackend* backend, double rate,
                     std::uint64_t seed, Report& out) {
  constexpr int kTrials = 3;
  constexpr double kTrialS = 0.3;
  Probe p;
  p.rate = rate;
  std::vector<double> p99;
  int passes = 0;
  for (int i = 0; i < kTrials; ++i) {
    const Trial t = capacity_trial(
        w, backend, rate, kTrialS,
        semlock::util::derive_seed(seed, static_cast<std::uint64_t>(i)), out);
    p99.push_back(t.p99_us);
    passes += t.pass;
  }
  p.p99_us = median(p99);
  p.pass = passes * 2 > kTrials;
  std::fprintf(stderr, "[perfbench] capacity probe %.0f req/s: p99 %.1f us, %d/%d "
               "trials pass -> %s\n", rate, p.p99_us, passes, kTrials,
               p.pass ? "pass" : "fail");
  return p;
}

// Highest paced rate meeting the SLO: bracket the capacity between a
// passing and a failing probe, bisect the bracket geometrically, then
// interpolate log p99 between its ends to where it crosses the SLO.
double capacity_search(const WorkloadDef& w, std::uint64_t seed,
                       Report& out) {
  auto backend = make_cc_backend(CCMode::kSemantic, w.store);
  std::uint64_t probe_seed = semlock::util::derive_seed(seed, 300);
  auto probe = [&](double rate) {
    probe_seed = semlock::util::derive_seed(probe_seed, 1);
    return capacity_probe(w, backend.get(), rate, probe_seed, out);
  };
  Probe lo = probe(kCapacityLowRps);
  for (int i = 0; i < 3 && !lo.pass; ++i) lo = probe(lo.rate / 2);
  Probe hi = probe(kCapacityHighRps);
  for (int i = 0; i < 3 && hi.pass; ++i) hi = probe(hi.rate * 1.5);
  check_conservation(*backend, w.store, "capacity search", out);
  if (!lo.pass || hi.pass) {
    out.check(false, "capacity search could not bracket the capacity");
    return 0.0;
  }
  for (int step = 0; step < kBisectSteps; ++step) {
    const Probe mid = probe(std::sqrt(lo.rate * hi.rate));
    (mid.pass ? lo : hi) = mid;
  }
  const double slo_us = static_cast<double>(kSloNs) / 1e3;
  double f = 0.0;
  if (hi.p99_us > slo_us && lo.p99_us > 0 && lo.p99_us < slo_us) {
    f = std::log(slo_us / lo.p99_us) / std::log(hi.p99_us / lo.p99_us);
  }
  return lo.rate * std::pow(hi.rate / lo.rate, std::clamp(f, 0.0, 1.0));
}

void run_server_open(const WorkloadDef& w, const Options& opt, Report& out) {
  std::vector<SpanLog> logs;
  if (opt.trace) logs.emplace_back(0, 1u << 17);
  SpanLog* log = opt.trace ? &logs[0] : nullptr;
  const double S = opt.seconds;
  constexpr int kRounds = 5;
  const double light_s = 0.25 * S / kRounds;
  const double heavy_s = 0.35 * S / kRounds;

  // Set-up generates the warm-up and the first round's schedules; later
  // rounds generate theirs just before they run, so only one round's
  // schedules are alive at a time.
  auto light_schedule = [&](int r) {
    return make_schedule(w, kLightRps, light_s,
                         semlock::util::derive_seed(opt.seed, 10 + r));
  };
  auto heavy_schedule = [&](int r) {
    return make_schedule(w, kHeavyRps, heavy_s,
                         semlock::util::derive_seed(opt.seed, 20 + r));
  };
  SetupTimes setup;
  std::vector<Request> warm, light_sched, heavy_sched, first_heavy;
  std::unique_ptr<CCBackend> backend;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    backend.reset();
    const std::uint64_t t0 = now_ns();
    warm = make_schedule(w, kLightRps, kWarmupRequests / kLightRps,
                         semlock::util::derive_seed(opt.seed, 1));
    light_sched = light_schedule(0);
    heavy_sched = heavy_schedule(0);
    const std::uint64_t t1 = now_ns();
    backend = make_cc_backend(CCMode::kSemantic, w.store);
    const std::uint64_t t2 = now_ns();
    for (const Request& r : warm) backend->execute(r);
    const std::uint64_t t3 = now_ns();
    setup.add(t0, t1, t2, t3);
    record_setup_spans(log, t0, t1, t2, t3);
  }
  // The cost ladder and the checked replay use the head of the first heavy
  // schedule.
  first_heavy.assign(heavy_sched.begin(),
                     heavy_sched.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                               heavy_sched.size(), 100000)));

  SerialReplay serial(w.store);
  for (const Request& r : warm) serial.run(r);
  // `paced` runs count toward attempted/failed; an unpaced drain sheds by
  // design whatever overflows the queues.
  auto replay = [&](const std::vector<Request>& sched, const ServerPhase& ph,
                    bool paced) {
    for (const Request& r : sched) {
      if (ph.executed[r.id]) serial.run(r);
    }
    out.check(ph.rep.completed + ph.rep.shed == ph.rep.offered,
              "server-open: completed + shed == offered");
    if (paced) {
      out.attempted += ph.rep.offered;
      out.failed += ph.rep.shed;
    }
  };

  std::vector<ServerPhase> light, heavy;
  std::vector<double> heavy_tps, heavy_cpu;
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) {
      light_sched = light_schedule(r);
      heavy_sched = heavy_schedule(r);
    }
    if (!opt.trace) {
      light.push_back(run_server_phase(
          backend.get(), light_sched, schedule_ms(light_s) * 1000000,
          w.threads, true, false, nullptr));
      replay(light_sched, light.back(), true);
    }
    const std::uint64_t cpu0 = process_cpu_ns();
    heavy.push_back(run_server_phase(
        backend.get(), heavy_sched, schedule_ms(heavy_s) * 1000000,
        w.threads, true, opt.trace, log));
    const std::uint64_t cpu1 = process_cpu_ns();
    const ServerPhase& ph = heavy.back();
    heavy_tps.push_back(ph.rep.throughput_rps());
    heavy_cpu.push_back(static_cast<double>(cpu1 - cpu0) /
                        static_cast<double>(std::max<std::uint64_t>(1, ph.rep.completed)));
    replay(heavy_sched, ph, true);
  }

  if (!opt.trace) {
    const double capacity = capacity_search(w, opt.seed, out);
    const double rss = peak_rss_mb();
    std::vector<double> p50, p99, lp50, lp99;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (const auto& ph : heavy) {
      append(&p50, ph.window_p50);
      append(&p99, ph.window_p99);
    }
    for (const auto& ph : light) {
      append(&lp50, ph.window_p50);
      append(&lp99, ph.window_p99);
    }
    report_setup(setup, false, out);
    out.add("txn_per_s", median(heavy_tps), "1/s");
    out.add("latency_p50_us", median(p50) / 1e3, "us");
    out.add("latency_p99_us", median(p99) / 1e3, "us");
    out.add("latency_p50_us.light", median(lp50) / 1e3, "us");
    out.add("latency_p99_us.light", median(lp99) / 1e3, "us");
    out.add("capacity_rps", capacity, "1/s");
    out.add("cpu_ns_per_txn", median(heavy_cpu), "ns");
    out.add("peak_rss_mb", rss, "MB");
  } else {
    report_setup(setup, true, out);
    AcquireStats st;
    std::uint64_t txns = 0;
    std::vector<double> exec_mean;
    for (const auto& ph : heavy) {
      st.merge(ph.stats);
      txns += ph.rep.completed;
      exec_mean.push_back(ph.service_mean);
    }
    report_acquire_stats(st, txns, out);
    // Tracing overhead on the server path: unpaced drains with and without
    // the decorator's per-worker counter snapshots, alternated.
    std::vector<double> plain, traced;
    for (int r = 0; r < 6; ++r) {
      const auto sched = make_schedule(
          w, kHeavyRps, 0.05 * S, semlock::util::derive_seed(opt.seed, 40 + r));
      const ServerPhase d = run_server_phase(backend.get(), sched, 0,
                                             w.threads, false, r % 2 == 1,
                                             nullptr);
      replay(sched, d, false);
      (r % 2 == 1 ? traced : plain).push_back(d.rep.throughput_rps());
    }
    out.add("obs.trace_overhead_pct", (median(plain) / median(traced) - 1.0) * 100.0,
            "%");
    const LadderResult lad =
        run_ladder(first_heavy, w.store, w.threads, 0.2 * S, log);
    report_ladder(lad, median(exec_mean) - static_cast<double>(clock_pair_ns()),
                  out);
    std::vector<double> drains;
    for (int r = 0; r < 3; ++r) {
      const auto sched = make_schedule(
          w, kHeavyRps, 0.03 * S, semlock::util::derive_seed(opt.seed, 50 + r));
      const ServerPhase d = run_server_phase(backend.get(), sched, 0,
                                             w.threads, false, false, nullptr);
      replay(sched, d, false);
      drains.push_back(d.rep.throughput_rps());
    }
    report_server_layers(heavy, drains, out);
  }

  check_conservation(*backend, w.store, w.name, out);
  out.check(backend->kv_inserted() == serial.backend().kv_inserted(),
            "server-open: kv_inserted equals SERIAL replay");
  check_history(first_heavy, w.store, w.threads, out);
  if (opt.trace) {
    out.check(write_spans(opt.spans_path, {log}),
              "spans written to " + opt.spans_path);
  }
}

}  // namespace

int workload_threads(const std::string& name, bool trace) {
  const WorkloadDef* w = find_workload(name);
  if (w == nullptr) return -1;
  // Server::run adds its dispatcher to the workers: always on server-open,
  // and in the server rung of a traced closed-loop run.
  return w->open_loop || trace ? w->threads + 1 : w->threads;
}

void run_workload(const Options& opt, Report& out) {
  const WorkloadDef* w = find_workload(opt.workload);
  if (w->open_loop) {
    run_server_open(*w, opt, out);
  } else {
    run_closed(*w, opt, out);
  }
}

}  // namespace perfbench
