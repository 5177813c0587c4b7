// Embedded admin endpoint: /metrics, /metrics.json, /healthz (ISSUE 9,
// tentpole layer 2).
//
// A deliberately tiny HTTP/1.0 server — blocking accept loop on its own
// thread, one request per connection, no keep-alive, no dependencies beyond
// POSIX sockets — because its job is to be scraped every few seconds by one
// Prometheus/curl, not to serve traffic. It binds 127.0.0.1 only: the
// exposition includes lock-site ids and instance addresses, which are
// diagnostics for the operator, not the network.
//
//   GET /metrics       Prometheus text 0.0.4 (obs/exposition.h) — the lock
//                      runtime families plus, when a Server is running, the
//                      semlock_server_* family from the registered stats
//                      provider.
//   GET /metrics.json  {"schema": "semlock-metrics-live-v1", "windows":
//                      <window ring>, "cumulative": <MetricsSnapshot>} —
//                      the machine-readable view `semlock-trace metrics
//                      --watch` polls.
//   GET /healthz       admission state (ok / saturated / overloaded with
//                      queue depths, shed counts, watchdog stalls); HTTP
//                      503 when overloaded so load balancers and the CI
//                      smoke test can alert on status alone.
//
// Off by default: nothing listens unless SEMLOCK_METRICS_PORT is set (or a
// test constructs AdminEndpoint directly with port 0 for an ephemeral
// port). This header is only compiled under SEMLOCK_OBS — the exposition it
// serves does not exist otherwise — and tools guard their use with
// #if defined(SEMLOCK_OBS).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace semlock::server {

// One point-in-time health sample from the running Server (or whatever else
// registers a provider). Everything is a plain copy — the provider reads
// its own atomics; the endpoint never touches server internals.
struct HealthSample {
  bool server_running = false;
  const char* cc_backend = "";
  int workers = 0;
  int shards = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_capacity = 0;       // per-shard bound
  std::uint64_t queue_depth_max = 0;      // current max across shards
  std::uint64_t queue_depth_total = 0;    // current sum across shards
  std::uint64_t queue_high_watermark = 0; // lifetime max across shards
  std::vector<std::uint64_t> queue_depths;  // current depth per shard
};

// Admission state derived from a sample: 0 ok, 1 saturated (some queue at
// or past half capacity), 2 overloaded (requests have been shed). Shed is
// cumulative over the Server's runs, so overloaded is sticky — by design:
// a server that shed load is not healthy until someone looks at why.
int admission_state(const HealthSample& s);
const char* admission_state_name(int state);

// Server::run registers a provider for its lifetime; nullptr clears. The
// endpoint calls the provider from its serve thread, so the provider must
// be safe to call concurrently with the server's workers (read atomics,
// copy, return).
using AdminStatsProvider = std::function<HealthSample()>;
void set_admin_stats_provider(AdminStatsProvider provider);
void clear_admin_stats_provider();

// The serve thread plus its listening socket.
class AdminEndpoint {
 public:
  // port 0 = ephemeral (tests); port() reports the bound port after
  // start(). Binds 127.0.0.1 only.
  explicit AdminEndpoint(std::uint16_t port);
  AdminEndpoint(const AdminEndpoint&) = delete;
  AdminEndpoint& operator=(const AdminEndpoint&) = delete;
  ~AdminEndpoint();  // stop()s

  // Binds, listens, and starts the serve thread. False (with *error set)
  // on socket failure — e.g. the port is taken.
  bool start(std::string* error = nullptr);
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  // Total requests served (any path), for tests.
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // The routing core, exposed for in-process tests: maps a request target
  // ("/metrics") to (status, content type, body).
  static std::string handle(const std::string& target, int* status,
                            std::string* content_type);

 private:
  void serve_loop();

  std::uint16_t port_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::thread thread_;
};

// Strict parse of SEMLOCK_METRICS_PORT: 1..65535, anything else warns and
// returns 0 (= endpoint disabled). Unset is silently 0.
int metrics_port_from_env_text(const char* text);

// Reads SEMLOCK_METRICS_PORT; when set to a valid port, starts the global
// window collector (obs/window.h) and an endpoint on that port, returning
// it (caller owns; destruction stops it). Returns nullptr when the knob is
// unset/invalid or the port cannot be bound (after a one-line warning).
std::unique_ptr<AdminEndpoint> start_admin_endpoint_from_env();

}  // namespace semlock::server
