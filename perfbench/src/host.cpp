#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "obs/attribution.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "semlock/mode_table.h"

extern char** environ;

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Data-dependent integer kernel the compiler cannot fold or vectorise.
std::uint64_t spin_kernel(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_sink{0};

double time_kernels(int threads) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      g_sink.fetch_add(spin_kernel(static_cast<std::uint64_t>(t) + 7));
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return CPU_COUNT(&set);
}

double loadavg1() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1.0;
  double v = -1.0;
  if (std::fscanf(f, "%lf", &v) != 1) v = -1.0;
  std::fclose(f);
  return v;
}

std::uint64_t clock_pair_ns() {
  std::vector<std::uint64_t> d(10001);
  for (auto& x : d) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    x = b - a;
  }
  std::nth_element(d.begin(), d.begin() + 5000, d.end());
  return d[5000];
}

ParallelismProbe probe_parallelism(int threads) {
  ParallelismProbe p;
  p.threads = std::max(1, threads);
  p.one_thread_s = time_kernels(1);
  p.n_thread_s = time_kernels(p.threads);
  for (int rep = 0; rep < 2; ++rep) {
    p.one_thread_s = std::min(p.one_thread_s, time_kernels(1));
    p.n_thread_s = std::min(p.n_thread_s, time_kernels(p.threads));
  }
  p.speedup = p.n_thread_s > 0.0
                  ? p.threads * p.one_thread_s / p.n_thread_s
                  : 0.0;
  return p;
}

std::vector<std::string> semlock_env_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "SEMLOCK_", 8) == 0) out.emplace_back(*e);
  }
  return out;
}

std::string effective_config() {
  const semlock::ModeTableConfig cfg;
  std::ostringstream os;
  os << "wait=" << semlock::runtime::wait_policy_name(cfg.wait_policy)
     << " grant=" << semlock::runtime::grant_policy_name(cfg.grant_policy)
     << " bypass_bound=" << cfg.bypass_bound
     << " storage=" << semlock::storage_kind_name(cfg.storage)
     << " optimistic=" << cfg.optimistic_acquire
     << " stripes=" << (cfg.stripe_self_commuting ? cfg.counter_stripes : 0)
     << " elision=" << cfg.elide_locks << " trace=" << cfg.trace_events
     << " obs_runtime=" << semlock::obs::runtime_enabled()
     << " spans=" << semlock::obs::spans_enabled()
     << " attribution=" << semlock::obs::attribution_enabled();
  return os.str();
}

}  // namespace perfbench
