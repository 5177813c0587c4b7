// The benchmark's workloads:
//
//   uncontended   closed loop, 1 thread, `mixed` mix, uniform keys
//   hot-bank      closed loop, 3 threads, `bank` mix, theta 0.99, 16 accounts
//   server-open   open loop through Server::run(paced), `mixed`, theta 0.6,
//                 16 shards, 2 workers + the dispatcher
//
// perfbench/README.md gives the reason for each choice.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
};

// Most threads a run of the workload has running at once (a server's
// dispatcher included), or -1 for an unknown name. main() refuses a run
// that needs more than the host's CPUs.
int workload_threads(const std::string& name, bool trace);

// Runs one workload, untraced (end-to-end metrics) or traced (per-layer
// metrics), with the correctness gate, filling `out`.
void run_workload(const Options& opt, Report& out);

}  // namespace perfbench
