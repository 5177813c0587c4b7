// Host and process facts the benchmark stamps on every run: clocks, CPU
// time, memory, the parallelism the host actually delivers, and the
// library's effective configuration.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns();
double peak_rss_mb();
// CPUs this process may run on (the affinity mask), which is what a thread
// budget must respect.
int online_cpus();
// 1-minute load average, or -1 if /proc/loadavg is unreadable.
double loadavg1();

// Median cost of one back-to-back pair of now_ns() calls; subtracted from
// per-call timings of calls that are only tens of ns long.
std::uint64_t clock_pair_ns();

struct ParallelismProbe {
  int threads = 1;
  double one_thread_s = 0.0;   // one kernel on one thread
  double n_thread_s = 0.0;     // one kernel per thread, all at once
  double speedup = 0.0;        // threads * one_thread_s / n_thread_s
};
// Times a fixed integer spin kernel on 1 thread and on `threads` threads
// (best of three each).
ParallelismProbe probe_parallelism(int threads);

// SEMLOCK_* variables present in the environment. The benchmark refuses to
// run with any set, so a stray knob cannot change the program measured.
std::vector<std::string> semlock_env_vars();

// One line naming every runtime default a ModeTableConfig and the obs
// layer pick up: wait, grant, storage, optimistic, stripes, elision, trace,
// spans and attribution.
std::string effective_config();

}  // namespace perfbench
