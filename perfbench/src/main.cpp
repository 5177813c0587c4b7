// perfbench: one run of one workload of the semantic-locking benchmark.
//
//   perfbench --workload uncontended|hot-bank|server-open --seed N
//             --seconds S --trace 0|1 [--spans-out PATH] [--source-id ID]
//
// Prints progress and the host stamp on stderr and, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check fails, 2 on bad arguments or a refused environment.
// perfbench/run.py builds this binary and is the intended entry point.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH] [--source-id ID]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // moves large blocks freed during set-up between mmap and the heap from
  // run to run, and with them peak RSS by tens of MB.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Options opt;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, &opt.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &n) || n < 1 || n > 60) return usage("bad --seconds");
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") {
        return usage("bad --trace");
      }
      opt.trace = std::string(v) == "1";
      have_trace = true;
    } else if (a == "--spans-out") {
      opt.spans_path = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (opt.trace && opt.spans_path.empty()) {
    return usage("--trace 1 needs --spans-out");
  }

  const auto env = perfbench::semlock_env_vars();
  if (!env.empty()) {
    for (const auto& e : env) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   e.c_str());
    }
    return 2;
  }
  const int threads = perfbench::workload_threads(opt.workload, opt.trace);
  if (threads < 0) return usage(("unknown workload " + opt.workload).c_str());
  const int cpus = perfbench::online_cpus();
  if (threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: workload %s runs %d threads but only %d CPUs are "
                 "available; refusing\n",
                 opt.workload.c_str(), threads, cpus);
    return 2;
  }

  std::fprintf(stderr, "[perfbench] source %s\n[perfbench] config %s\n",
               source_id.c_str(), perfbench::effective_config().c_str());
  const double load_start = perfbench::loadavg1();
  const auto probe = perfbench::probe_parallelism(cpus);
  std::fprintf(stderr,
               "[perfbench] workload %s seed %llu seconds %.0f trace %d "
               "threads %d\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, threads);

  perfbench::Report report;
  perfbench::run_workload(opt, report);

  for (const auto& f : report.failures()) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", f.c_str());
  }
  const double load_end = perfbench::loadavg1();
  std::fprintf(stderr,
               "[perfbench] host nproc=%d probe_threads=%d "
               "probe_speedup=%.2f (1 thread %.3f s, %d threads %.3f s) "
               "loadavg_start=%.2f loadavg_end=%.2f\n",
               cpus, probe.threads, probe.speedup, probe.one_thread_s,
               probe.threads, probe.n_thread_s, load_start, load_end);
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
