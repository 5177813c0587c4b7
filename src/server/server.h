// semlock-server: a sharded transaction-processing service over the
// pluggable concurrency-control backends (cc_backend.h).
//
// Architecture (docs/SERVER.md):
//
//   dispatcher (caller thread)          workers (static pool)
//   ─ replays the pre-generated        ─ worker w owns every shard s with
//     schedule, pacing each request       s % workers == w; sweeps its
//     to its intended arrival_ns          queues round-robin
//   ─ routes by shard_of(request)      ─ executes each request as one
//   ─ bounded queues: a full shard       atomic section in the backend
//     queue SHEDS the request with a   ─ records completion latency from
//     retry-after hint derived from      the request's INTENDED arrival
//     queue depth x EMA service time     (open-loop: queueing is charged
//                                        to the mode that caused it)
//
// Shutdown is drain-and-stop: after the last request is dispatched the
// workers finish every enqueued request before exiting, so for every run
// completed + shed == offered, exactly (server_test.cpp holds this under
// TSan).
//
// SERIAL mode is clamped to one worker — that backend's contract is a
// single executor, and the clamp is the honest way to benchmark "no
// concurrency control" as the paper's lower bound.
#pragma once

#include <cstdint>
#include <vector>

#include "server/cc_backend.h"
#include "server/config.h"
#include "server/request.h"
#include "util/stats.h"

namespace semlock::server {

struct ServerReport {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;        // OCC aborted attempts (0 elsewhere)
  std::uint64_t max_queue_depth = 0;  // high watermark across shards
  std::uint64_t last_retry_after_ns = 0;  // hint attached to the last shed
  double wall_seconds = 0.0;        // dispatch start to last worker done
  util::Log2Histogram latency_ns;   // completion - intended arrival
  std::int64_t observed_sum = 0;    // sum of read results (activity check)

  double throughput_rps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(completed) / wall_seconds
               : 0.0;
  }
};

class Server {
 public:
  // `backend` must outlive the Server. Worker count is clamped to
  // [1, shards], and to 1 for a SERIAL backend.
  Server(const ServerConfig& cfg, CCBackend* backend);
  // Detaches the admin endpoint's stats provider.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Replays `schedule` once and drains. `paced` replays in real time
  // against each request's arrival_ns (the open-loop measurement mode);
  // unpaced dispatches as fast as admission control allows (the drain /
  // stress mode used by tests).
  ServerReport run(const std::vector<Request>& schedule, bool paced);

  int workers() const { return workers_; }
  int shards() const { return shards_; }

 private:
  CCBackend* backend_;
  int workers_;
  int shards_;
  int queue_capacity_;
  // Requests offered, completed and shed by the runs this Server finished.
  // The live semlock_server_*_total counters start from these, so they
  // never go back between run() calls (semlock-server --repeat).
  std::uint64_t offered_total_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t shed_total_ = 0;
};

}  // namespace semlock::server
