// Live wait-for graph (ISSUE 10).
//
// Every traced contended wait publishes one edge — waiter owner id →
// blocking owner id, tagged with the instance/mode and the blocker's lock
// site — in the runtime::WaitRegistry slot its wait already occupies for the
// StallWatchdog (runtime/wait_registry.h): the edge is part of the wait's
// one publication on entry to the contended path, its blocker is refreshed
// in the same slot at each park (the moment the PR 5 grant record is
// sampled), and the grant clears the slot — so a snapshot taken from any
// thread is the *current* blocked-by structure of the process.
//
// Consumers:
//   - the admin endpoint serves snapshots as /waitgraph (JSON, with cycles
//     flagged) and /waitgraph.dot (Graphviz);
//   - cycle detection names potential deadlocks before the StallWatchdog's
//     timeout fires (each waiter has at most one outgoing edge, so the
//     graph is functional and detection is a simple chain walk);
//   - the StallWatchdog appends the full blocker chain (txn -> txn -> ...)
//     starting at the stalled waiter to its forensics report.
//
// Publication is best-effort diagnostics, like the rest of the registry:
// with more than WaitRegistry::kSlots simultaneous waiters the overflow goes
// unobserved, and the lock mechanism never depends on the table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace semlock::obs {

// One sampled waiter -> blocker edge.
struct WaitGraphEdge {
  std::uint64_t waiter = 0;       // owner id (txn, or thread sentinel)
  std::uint64_t instance = 0;     // LockMechanism address
  std::int32_t mode = -1;         // mode the waiter wants
  std::uint64_t blocker = 0;      // owner id of the sampled holder; 0 none
  std::int32_t blocker_site = -1; // holder's LockSiteArgs::site
  std::uint64_t since_ns = 0;     // wait start, steady clock
};

// Consistent sample of the current edges (skipping slots caught mid-write),
// ordered by waiter id.
std::vector<WaitGraphEdge> snapshot_waitgraph();

// Cycles among the sampled edges: each inner vector is one cycle's owner
// ids in waiter->blocker order, starting from its smallest owner id so the
// representation is stable. A cycle here is a *potential* deadlock (the
// sampled blockers may be stale by microseconds), which is exactly the
// early-warning semantic the watchdog wants.
std::vector<std::vector<std::uint64_t>> waitgraph_cycles(
    const std::vector<WaitGraphEdge>& edges);

// {"schema":"semlock-waitgraph-v1","now_ns":...,"edges":[...],"cycles":[...]}
std::string waitgraph_json();

// Graphviz: digraph waitfor { "txn 3" -> "txn 7" [label="0x... mode 2"]; }
std::string waitgraph_dot();

// The blocker chain behind `waiter`'s wait, rendered for the StallWatchdog
// forensics: "wait-for chain: txn 1 -> txn 2 -> txn 3\n", or "" when the
// waiter has no published edge with a sampled blocker. Walks waiter->blocker
// links up to max_depth, cutting (and annotating) cycles.
std::string waitgraph_chain(std::uint64_t waiter, std::size_t max_depth = 8);

}  // namespace semlock::obs
