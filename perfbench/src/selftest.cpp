// Self-tests of the benchmark's own helpers: exact percentiles, metric-name
// validation, epoch reconstruction and the result line. Exits non-zero on
// the first failure. Run by perfbench/run.py --selftest.
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "exact.h"
#include "report.h"

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_percentile_known_samples() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);  // 1..100 reversed
  expect(perfbench::percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(perfbench::percentile(v, 1.00) == 100, "p100 of 1..100 is 100");
  expect(perfbench::percentile(v, 0.0) == 1, "p0 of 1..100 is 1");
  expect(perfbench::percentile(v, 0.995) == 100, "p99.5 of 1..100 is 100");
  std::vector<std::uint64_t> one{7};
  expect(perfbench::percentile(one, 0.99) == 7, "single sample");
  std::vector<std::uint64_t> none;
  expect(perfbench::percentile(none, 0.5) == 0, "empty gives 0");
  // Not a power of two: the failure mode of the log2 histogram.
  std::vector<std::uint64_t> w{16400, 16400, 16400, 20000, 32800};
  expect(perfbench::percentile(w, 0.8) == 20000, "p80 picks 20000 exactly");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median odd");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median even");
}

void test_exact_hist_matches_raw() {
  std::mt19937_64 rng(12345);
  std::vector<std::uint64_t> raw;
  perfbench::ExactHist h;
  for (int i = 0; i < 200000; ++i) {
    // Mostly sub-linear-range values plus a heavy tail into the overflow.
    std::uint64_t v = rng() % 5000;
    if (i % 97 == 0) v = perfbench::ExactHist::kLinear + rng() % 10000000;
    raw.push_back(v);
    h.add(v);
  }
  perfbench::ExactHist a, b;  // merge must be exact too
  for (std::size_t i = 0; i < raw.size(); ++i) (i % 2 ? a : b).add(raw[i]);
  a.merge(b);
  for (const double p : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    std::vector<std::uint64_t> copy = raw;
    const std::uint64_t want = perfbench::percentile(copy, p);
    expect(h.percentile(p) == want,
           "hist p" + std::to_string(p) + " equals raw percentile");
    expect(a.percentile(p) == want,
           "merged hist p" + std::to_string(p) + " equals raw percentile");
  }
  expect(h.count() == raw.size(), "count");
}

void test_metric_names() {
  for (const char* ok :
       {"setup_s", "txn_per_s", "latency_p99_us.light", "semlock.acquire_ns.p99",
        "server.queue_wait_ns.p50", "obs.trace_overhead_pct", "9lives",
        "a-b_c.d"}) {
    expect(perfbench::valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".lead", "_lead", "has space", "sl/ash",
                          "quo\"te", "per%"}) {
    expect(!perfbench::valid_metric_name(bad),
           std::string("invalid name '") + bad + "'");
  }
  expect(!perfbench::valid_metric_name(std::string(65, 'a')), "65 chars");
  expect(perfbench::valid_metric_name(std::string(64, 'a')), "64 chars");
  for (const char* ok : {"ms", "s", "1/s", "count", "%", "ratio", "MB"}) {
    expect(perfbench::valid_unit(ok), std::string("valid unit ") + ok);
  }
  expect(!perfbench::valid_unit("req per s"), "unit with spaces");
}

void test_epoch_reconstruction() {
  using semlock::server::Request;
  const std::uint64_t epoch = 5'000'000'000ull;
  std::vector<Request> sched;
  std::vector<perfbench::ExecStamp> stamps;
  std::mt19937_64 rng(7);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Request r;
    r.id = i;
    r.arrival_ns = i * 2000;
    sched.push_back(r);
    // Dispatch-to-execute delay of at least 150 ns, up to 50 us of queueing.
    const std::uint64_t delay = 150 + rng() % 50000;
    const std::uint64_t start = epoch + r.arrival_ns + delay;
    stamps.push_back({start, start + 300});
  }
  stamps[500] = {};  // a shed request never executes
  stamps[10].start_ns = epoch + sched[10].arrival_ns + 150;  // the minimum
  stamps[10].end_ns = stamps[10].start_ns + 300;
  const std::uint64_t got = perfbench::reconstruct_epoch(sched, stamps);
  expect(got == epoch + 150,
         "epoch = true epoch + minimum dispatch delay (" +
             std::to_string(got - epoch) + " ns bias)");
  // Latency from the reconstructed epoch reads low by exactly that bias.
  const std::uint64_t lat =
      stamps[10].end_ns - (got + sched[10].arrival_ns);
  expect(lat == 300, "fastest request's latency is its service time");
  std::vector<perfbench::ExecStamp> empty(sched.size());
  expect(perfbench::reconstruct_epoch(sched, empty) == 0,
         "no executed request gives 0");
}

void test_report_json() {
  perfbench::Report r;
  r.attempted = 10;
  r.add("txn_per_s", 1234.5, "1/s");
  expect(r.correct(), "report starts correct");
  expect(r.json() ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"txn_per_s\": {\"value\": 1234.5, \"unit\": "
             "\"1/s\"}}}",
         "result line format: " + r.json());
  r.add("bad name", 1.0, "s");
  expect(!r.correct(), "an invalid metric name makes the run incorrect");
  perfbench::Report c;
  c.check(false, "selftest: deliberately failed check");
  expect(!c.correct(), "a failed check makes the run incorrect");
}

}  // namespace

int main() {
  test_percentile_known_samples();
  test_exact_hist_matches_raw();
  test_metric_names();
  test_epoch_reconstruction();
  test_report_json();
  if (g_failed == 0) std::printf("perfbench selftest: all passed\n");
  return g_failed == 0 ? 0 : 1;
}
