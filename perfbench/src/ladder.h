// The cost ladder: one workload's own request stream replayed through the
// public calls of each layer, each rung adding one layer on top of the one
// below, with the same specs and symbolic sets as the server's SEMANTIC
// backend:
//
//   loop      iterate the requests (harness overhead, subtracted)
//   resolve   ModeTable::resolve for every lock site the request uses
//   lock      SemanticLock::lock_site/lock + unlock (the lock word)
//   txn       Transaction::lv / lv_ordered + unlock_all (bookkeeping)
//   execute   CCBackend::execute (adds the store body)
//
// A layer's self time is the difference between adjacent rungs, per atomic
// section of the stream. Rungs run single-threaded, so they measure cost
// without waiting; acquire_ns percentiles time each lv/lv_ordered call at
// the workload's thread count, where waiting shows.
#pragma once

#include <cstdint>
#include <vector>

#include "server/cc_backend.h"
#include "server/request.h"
#include "spans.h"

namespace perfbench {

struct LadderResult {
  std::uint64_t requests = 0;   // per rung pass
  double loop_ns = 0.0;         // per section, median over passes
  double resolve_ns = 0.0;      // rung totals, loop included
  double lock_ns = 0.0;
  double txn_ns = 0.0;
  double execute_ns = 0.0;
  double unlock_all_ns = 0.0;   // Transaction::unlock_all alone, per section
  double acquire_p50_ns = 0.0;  // per lv/lv_ordered call at `threads`
  double acquire_p99_ns = 0.0;
};

LadderResult run_ladder(const std::vector<semlock::server::Request>& stream,
                        const semlock::server::StoreConfig& store, int threads,
                        double budget_s, SpanLog* log);

}  // namespace perfbench
