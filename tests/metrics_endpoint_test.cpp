// The embedded admin endpoint (src/server/admin.h): a live in-process
// listener on an ephemeral port serves /metrics (validated against the
// Prometheus text grammar, counters monotone across scrapes),
// /metrics.json (structurally valid, windowed schema), and /healthz
// (admission state flips to overloaded — and HTTP 503 — when the stats
// provider reports shed load). Only built with SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "commute/builtin_specs.h"
#include "obs/attribution.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "semlock/lock_mechanism.h"
#include "server/admin.h"
#include "server/cc_backend.h"
#include "server/server.h"
#include "server/traffic_gen.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using server::AdminEndpoint;

// Minimal blocking HTTP GET against 127.0.0.1:<port>; returns the full
// response (status line + headers + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string out;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, req.data(), req.size(), 0);
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

int status_of(const std::string& response) {
  // "HTTP/1.0 NNN ..."
  return response.size() > 12 ? std::atoi(response.c_str() + 9) : -1;
}

// The value of an unlabeled `name <value>` sample in an exposition page,
// -1 when absent.
double sample_value(const std::string& page, const std::string& name) {
  std::size_t pos = 0;
  const std::string needle = name + " ";
  while ((pos = page.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') {
      return std::atof(page.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return -1.0;
}

ModeTable make_traced_table() {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.trace_events = true;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {commute::var("v")}),
                    op("remove", {commute::var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

class MetricsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_for_test();
    server::clear_admin_stats_provider();
    endpoint_ = std::make_unique<AdminEndpoint>(0);  // ephemeral port
    std::string error;
    ASSERT_TRUE(endpoint_->start(&error)) << error;
    ASSERT_GT(endpoint_->port(), 0);
  }
  void TearDown() override {
    endpoint_->stop();
    server::clear_admin_stats_provider();
  }
  std::unique_ptr<AdminEndpoint> endpoint_;
};

TEST_F(MetricsEndpointTest, MetricsPageIsValidPrometheusText) {
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  for (int i = 0; i < 25; ++i) {
    m.lock(mode);
    m.unlock(mode);
  }

  const std::string resp = http_get(endpoint_->port(), "/metrics");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string page = body_of(resp);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(page, &error)) << error;
  EXPECT_EQ(sample_value(page, "semlock_acquisitions_total"), 25.0);
  EXPECT_NE(page.find("semlock_wait_ns_count"), std::string::npos);
  EXPECT_NE(page.find("semlock_hold_ns_count"), std::string::npos);
  EXPECT_NE(page.find("attribution_class=\"true_conflict\""),
            std::string::npos);
  EXPECT_NE(page.find("semlock_server_admission_state"), std::string::npos);
}

TEST_F(MetricsEndpointTest, CountersAreMonotoneAcrossScrapes) {
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);

  for (int i = 0; i < 10; ++i) { m.lock(mode); m.unlock(mode); }
  const std::string first = body_of(http_get(endpoint_->port(), "/metrics"));
  for (int i = 0; i < 7; ++i) { m.lock(mode); m.unlock(mode); }
  const std::string second = body_of(http_get(endpoint_->port(), "/metrics"));

  const double a = sample_value(first, "semlock_acquisitions_total");
  const double b = sample_value(second, "semlock_acquisitions_total");
  EXPECT_EQ(a, 10.0);
  EXPECT_EQ(b, 17.0);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(second, &error)) << error;
}

TEST_F(MetricsEndpointTest, MetricsJsonCarriesWindowsAndCumulative) {
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int mode = t.resolve(0, v0);
  for (int i = 0; i < 5; ++i) { m.lock(mode); m.unlock(mode); }
  obs::global_windows().rotate_now();

  const std::string resp = http_get(endpoint_->port(), "/metrics.json");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const std::string json = body_of(resp);
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"schema\": \"semlock-metrics-live-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"windowed\""), std::string::npos);
  EXPECT_NE(json.find("\"cumulative\""), std::string::npos);
  EXPECT_NE(json.find("\"acquisitions_per_sec\""), std::string::npos);
}

TEST_F(MetricsEndpointTest, HealthzReportsOkWithoutLoadAndFlipsOnOverload) {
  const std::string ok_resp = http_get(endpoint_->port(), "/healthz");
  EXPECT_EQ(status_of(ok_resp), 200);
  std::string error;
  EXPECT_TRUE(obs::validate_json(body_of(ok_resp), &error)) << error;
  EXPECT_NE(body_of(ok_resp).find("\"status\": \"ok\""), std::string::npos);

  // A provider reporting shed load makes the endpoint overloaded — HTTP
  // 503, so status-code-only monitors see it too.
  server::set_admin_stats_provider([] {
    server::HealthSample s;
    s.server_running = true;
    s.cc_backend = "semantic";
    s.offered = 100;
    s.completed = 60;
    s.shed = 40;
    s.queue_capacity = 8;
    s.queue_depth_max = 8;
    return s;
  });
  const std::string bad_resp = http_get(endpoint_->port(), "/healthz");
  EXPECT_EQ(status_of(bad_resp), 503);
  EXPECT_NE(body_of(bad_resp).find("\"status\": \"overloaded\""),
            std::string::npos);
  EXPECT_NE(body_of(bad_resp).find("\"shed\": 40"), std::string::npos);

  // Saturated (queue at half capacity, nothing shed) stays HTTP 200: it is
  // a warning state, not an outage.
  server::set_admin_stats_provider([] {
    server::HealthSample s;
    s.queue_capacity = 8;
    s.queue_depth_max = 4;
    return s;
  });
  const std::string warn_resp = http_get(endpoint_->port(), "/healthz");
  EXPECT_EQ(status_of(warn_resp), 200);
  EXPECT_NE(body_of(warn_resp).find("\"status\": \"saturated\""),
            std::string::npos);
}

TEST_F(MetricsEndpointTest, WaitgraphRoutesServeJsonAndDot) {
  // Idle process: both renderings succeed with an empty edge set.
  const std::string resp = http_get(endpoint_->port(), "/waitgraph");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_json(body_of(resp), &error)) << error;
  EXPECT_NE(body_of(resp).find("\"schema\": \"semlock-waitgraph-v1\""),
            std::string::npos);
  EXPECT_NE(body_of(resp).find("\"edges\": []"), std::string::npos);

  const std::string dot_resp = http_get(endpoint_->port(), "/waitgraph.dot");
  EXPECT_EQ(status_of(dot_resp), 200);
  EXPECT_NE(dot_resp.find("text/plain"), std::string::npos);
  EXPECT_NE(body_of(dot_resp).find("digraph waitfor"), std::string::npos);

  // With a live blocked waiter, the served JSON names the edge.
  obs::set_attribution_enabled(true);
  const auto t = make_traced_table();
  LockMechanism m(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);
  const int starved = t.resolve_constant(1);
  m.lock(held);
  std::thread waiter([&] {
    m.lock(starved);
    m.unlock(starved);
  });
  std::string loaded_body;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    loaded_body = body_of(http_get(endpoint_->port(), "/waitgraph"));
    if (loaded_body.find("\"waiter\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m.unlock(held);
  waiter.join();
  obs::set_attribution_enabled(false);
  EXPECT_TRUE(obs::validate_json(loaded_body, &error)) << error;
  EXPECT_NE(loaded_body.find("\"waiter\""), std::string::npos)
      << loaded_body;
  char instance_hex[32];
  std::snprintf(instance_hex, sizeof(instance_hex), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&m)));
  EXPECT_NE(loaded_body.find(instance_hex), std::string::npos)
      << loaded_body;
}

// semlock-server --repeat runs one Server many times: its offered,
// completed and shed counters must keep counting across runs and between
// them, since a Prometheus counter that goes back reads as a restart.
TEST_F(MetricsEndpointTest, ServerCountersKeepCountingAcrossRuns) {
  server::StoreConfig store;
  store.accounts = 64;
  store.kv_keys = 1024;
  store.nodes = 32;
  store.abstract_values = 16;
  server::TrafficConfig traffic;
  traffic.rate_rps = 200000.0;
  traffic.duration_ms = 5;
  traffic.store = store;
  ASSERT_TRUE(server::parse_traffic_mix("mixed", &traffic.mix));
  const auto schedule = server::generate_schedule(traffic);
  ASSERT_GT(schedule.size(), 0u);
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  cfg.queue_capacity = static_cast<int>(schedule.size());  // no sheds
  cfg.mode = server::CCMode::kGlobalLock;
  const auto backend = server::make_cc_backend(cfg.mode, store);
  {
    server::Server srv(cfg, backend.get());
    for (std::size_t run = 1; run <= 2; ++run) {
      srv.run(schedule, /*paced=*/false);
      const std::string page =
          body_of(http_get(endpoint_->port(), "/metrics"));
      EXPECT_EQ(sample_value(page, "semlock_server_offered_total"),
                static_cast<double>(run * schedule.size()))
          << "after run " << run;
      const std::string health =
          body_of(http_get(endpoint_->port(), "/healthz"));
      EXPECT_NE(health.find("\"server_running\": false"), std::string::npos)
          << health;
      EXPECT_NE(health.find("\"completed\": " +
                            std::to_string(run * schedule.size())),
                std::string::npos)
          << health;
    }
  }
  // A destroyed Server detaches: nothing is left to report.
  EXPECT_EQ(sample_value(body_of(http_get(endpoint_->port(), "/metrics")),
                         "semlock_server_offered_total"),
            0.0);
}

TEST_F(MetricsEndpointTest, UnknownPathsAndMethodsAreRejected) {
  EXPECT_EQ(status_of(http_get(endpoint_->port(), "/nope")), 404);
  // Raw non-GET request.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoint_->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char req[] = "POST /metrics HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req, sizeof(req) - 1, 0);
  std::string out;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(status_of(out), 405);
}

TEST(AdmissionState, DerivesFromTheSample) {
  server::HealthSample s;
  EXPECT_EQ(server::admission_state(s), 0);
  s.queue_capacity = 10;
  s.queue_depth_max = 4;
  EXPECT_EQ(server::admission_state(s), 0);
  s.queue_depth_max = 5;
  EXPECT_EQ(server::admission_state(s), 1);
  s.shed = 1;
  EXPECT_EQ(server::admission_state(s), 2);
  EXPECT_STREQ(server::admission_state_name(0), "ok");
  EXPECT_STREQ(server::admission_state_name(1), "saturated");
  EXPECT_STREQ(server::admission_state_name(2), "overloaded");
}

TEST(MetricsPort, StrictParse) {
  EXPECT_EQ(server::metrics_port_from_env_text(nullptr), 0);
  EXPECT_EQ(server::metrics_port_from_env_text("9464"), 9464);
  EXPECT_EQ(server::metrics_port_from_env_text("1"), 1);
  EXPECT_EQ(server::metrics_port_from_env_text("65535"), 65535);
  EXPECT_EQ(server::metrics_port_from_env_text("0"), 0);
  EXPECT_EQ(server::metrics_port_from_env_text("65536"), 0);
  EXPECT_EQ(server::metrics_port_from_env_text("http"), 0);
  EXPECT_EQ(server::metrics_port_from_env_text("9464x"), 0);
}

TEST(PromValidator, AcceptsWellFormedAndRejectsMalformed) {
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(
      "# HELP a_total things\n# TYPE a_total counter\na_total 3\n"
      "a_labeled{x=\"1\",y=\"two\\\"quoted\\\"\"} 4.5\n"
      "inf_ok +Inf\nts_ok 1 1234567\n",
      &error))
      << error;
  EXPECT_FALSE(obs::validate_prometheus_text("no_final_newline 1", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("bad name 1\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("x{unclosed=\"1\" 2\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("x{9bad=\"1\"} 2\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("x notanumber\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE t counter\n# TYPE t counter\nt 1\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text(
      "t 1\n# TYPE t counter\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("# TYPE t sideways\nt 1\n",
                                             &error));
  // Histogram series bind to the base family, so TYPE-after-sample still
  // trips when the sample was a _bucket.
  EXPECT_TRUE(obs::validate_prometheus_text(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n",
      &error))
      << error;
  EXPECT_FALSE(obs::validate_prometheus_text(
      "h_bucket{le=\"+Inf\"} 1\n# TYPE h histogram\n", &error));
}

}  // namespace
}  // namespace semlock
