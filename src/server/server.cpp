#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "server/shard_queue.h"
#include "server/traffic_gen.h"

#if defined(SEMLOCK_OBS)
#include "obs/span.h"
#include "obs/trace.h"
#include "server/admin.h"
#endif

namespace semlock::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

struct WorkerState {
  // Atomic so the admin endpoint's health provider can read completion
  // progress while the worker runs. Single writer (the owning worker), so
  // updates are load+store, never an RMW — no fast-path cost.
  std::atomic<std::uint64_t> completed{0};
  std::uint64_t retries = 0;
  std::int64_t observed_sum = 0;
  util::Log2Histogram latency_ns;
  // Exponential moving average of service time, published for the
  // dispatcher's retry-after hints. Seeded at 1us so the first hints are
  // sane before any sample lands.
  std::atomic<std::uint64_t> ema_service_ns{1000};
};

}  // namespace

Server::Server(const ServerConfig& cfg, CCBackend* backend)
    : backend_(backend),
      workers_(cfg.workers < 1 ? 1 : cfg.workers),
      shards_(cfg.shards < 1 ? 1 : cfg.shards),
      queue_capacity_(cfg.queue_capacity < 1 ? 1 : cfg.queue_capacity) {
  if (backend_->mode() == CCMode::kSerial) workers_ = 1;
  if (workers_ > shards_) workers_ = shards_;
}

Server::~Server() {
#if defined(SEMLOCK_OBS)
  clear_admin_stats_provider();
#endif
}

ServerReport Server::run(const std::vector<Request>& schedule, bool paced) {
  ServerReport report;
  report.offered = schedule.size();

  std::vector<std::unique_ptr<ShardQueue>> queues;
  queues.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    queues.push_back(std::make_unique<ShardQueue>(
        static_cast<std::size_t>(queue_capacity_)));
  }

  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    states.push_back(std::make_unique<WorkerState>());
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start_tp;  // written before go, read after (acq/rel)

  // Live dispatch progress for the admin endpoint's health provider.
  // Single writer (the dispatcher), load+store only.
  std::atomic<std::uint64_t> offered_live{0};
  std::atomic<std::uint64_t> shed_live{0};

#if defined(SEMLOCK_OBS)
  // /healthz and semlock_server_* scrape through this for the duration of
  // the run; every captured local outlives the replacement below. The
  // counters continue from this Server's earlier runs.
  HealthSample idle;
  idle.cc_backend = backend_->name();
  idle.workers = workers_;
  idle.shards = shards_;
  idle.queue_capacity = static_cast<std::uint64_t>(queue_capacity_);
  idle.offered = offered_total_;
  idle.completed = completed_total_;
  idle.shed = shed_total_;
  set_admin_stats_provider([&, idle]() {
    HealthSample s = idle;
    s.server_running = true;
    s.offered += offered_live.load(std::memory_order_relaxed);
    s.shed += shed_live.load(std::memory_order_relaxed);
    for (const auto& st : states) {
      s.completed += st->completed.load(std::memory_order_relaxed);
    }
    s.queue_depths.reserve(queues.size());
    for (const auto& q : queues) {
      const std::uint64_t d = q->depth();
      s.queue_depths.push_back(d);
      s.queue_depth_total += d;
      if (d > s.queue_depth_max) s.queue_depth_max = d;
      if (q->high_watermark() > s.queue_high_watermark) {
        s.queue_high_watermark = q->high_watermark();
      }
    }
    return s;
  });
#endif

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads.emplace_back([&, w] {
      WorkerState& st = *states[static_cast<std::size_t>(w)];
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point start = start_tp;
      std::uint64_t ema = st.ema_service_ns.load(std::memory_order_relaxed);
      Request r;
      for (;;) {
        bool any = false;
        for (int s = w; s < shards_; s += workers_) {
          if (!queues[static_cast<std::size_t>(s)]->try_pop(&r)) continue;
          any = true;
          const std::uint64_t t0 = ns_since(start);
#if defined(SEMLOCK_OBS)
          // Admission span: the request waited [arrival, t0) in its shard
          // queue. Run times are relative to start, span clocks absolute, so
          // shift by the run epoch; the transaction id the request executed
          // as is picked up after the fact via last_completed_txn (the
          // backend opens/closes the Transaction internally).
          const bool span_on =
              obs::runtime_enabled() && obs::spans_enabled();
          const std::uint64_t txn_before =
              span_on ? obs::last_completed_txn() : 0;
#endif
          const ExecResult res = backend_->execute(r);
          const std::uint64_t t1 = ns_since(start);
#if defined(SEMLOCK_OBS)
          if (span_on) {
            const std::uint64_t txn_after = obs::last_completed_txn();
            const std::uint64_t epoch_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start.time_since_epoch())
                    .count());
            obs::record_queue_wait_span(
                txn_after != txn_before ? txn_after : 0,
                epoch_ns + r.arrival_ns, epoch_ns + t0);
          }
#endif
          st.completed.store(st.completed.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
          st.retries += res.retries;
          st.observed_sum += res.observed;
          st.latency_ns.add(t1 > r.arrival_ns ? t1 - r.arrival_ns : 0);
          const std::uint64_t service = t1 - t0;
          ema = ema - ema / 16 + service / 16;
          st.ema_service_ns.store(ema, std::memory_order_relaxed);
        }
        if (!any) {
          if (stop.load(std::memory_order_acquire)) {
            // stop is set only after the final dispatch, so empty-once
            // after observing it means drained for good.
            bool drained = true;
            for (int s = w; s < shards_; s += workers_) {
              if (queues[static_cast<std::size_t>(s)]->depth() != 0) {
                drained = false;
                break;
              }
            }
            if (drained) break;
          } else {
            std::this_thread::yield();
          }
        }
      }
    });
  }

  while (ready.load(std::memory_order_acquire) < workers_) {
    std::this_thread::yield();
  }
  start_tp = Clock::now();
  go.store(true, std::memory_order_release);

  for (const Request& r : schedule) {
    if (paced) {
      // Sleep down to ~100us before the intended arrival, then yield-spin:
      // coarse sleep keeps the single-core container's workers fed, the
      // final spin keeps dispatch jitter well under the latency buckets.
      for (;;) {
        const std::uint64_t now = ns_since(start_tp);
        if (now >= r.arrival_ns) break;
        const std::uint64_t ahead = r.arrival_ns - now;
        if (ahead > 100000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(ahead - 50000));
        } else {
          std::this_thread::yield();
        }
      }
    }
    const std::uint32_t shard =
        shard_of(r, static_cast<std::uint32_t>(shards_));
    offered_live.store(offered_live.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    ShardQueue& q = *queues[shard];
    if (!q.try_push(r)) {
      // Admission control: shed with a retry-after hint — the time this
      // shard needs to work off its current depth at its recent pace. The
      // pace is the OWNING worker's EMA (worker w owns shards ≡ w mod W):
      // averaging across all workers lets the idle ones dilute a hot
      // shard's hint, under-reporting exactly the backlog being shed.
      const std::uint64_t ema =
          states[shard % static_cast<std::uint32_t>(workers_)]
              ->ema_service_ns.load(std::memory_order_relaxed);
      report.shed += 1;
      shed_live.store(report.shed, std::memory_order_relaxed);
      report.last_retry_after_ns =
          (static_cast<std::uint64_t>(q.depth()) + 1) * ema;
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  report.wall_seconds =
      static_cast<double>(ns_since(start_tp)) / 1e9;

  for (const auto& st : states) {
    report.completed += st->completed.load(std::memory_order_relaxed);
    report.retries += st->retries;
    report.observed_sum += st->observed_sum;
    report.latency_ns.merge(st->latency_ns);
  }
  for (const auto& q : queues) {
    if (q->high_watermark() > report.max_queue_depth) {
      report.max_queue_depth = q->high_watermark();
    }
  }
  offered_total_ += report.offered;
  completed_total_ += report.completed;
  shed_total_ += report.shed;
#if defined(SEMLOCK_OBS)
  // The live provider captures this frame's locals by reference; replace
  // it before they go out of scope. Until the next run the endpoint reports
  // the totals so far, with no queues and server_running false.
  idle.offered = offered_total_;
  idle.completed = completed_total_;
  idle.shed = shed_total_;
  set_admin_stats_provider([idle] { return idle; });
#endif
  return report;
}

}  // namespace semlock::server
