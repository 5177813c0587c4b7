#include "obs/waitgraph.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "obs/span.h"
#include "runtime/wait_registry.h"

namespace semlock::obs {

namespace {

void append_hex(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::vector<WaitGraphEdge> snapshot_waitgraph() {
  std::vector<WaitGraphEdge> out;
  runtime::WaitRegistry::instance().for_each_active(
      [&](const runtime::WaitRegistry::ActiveWait& w) {
        if (w.waiter == 0) return;  // untraced wait: no edge
        out.push_back(WaitGraphEdge{w.waiter, w.mechanism, w.mode, w.blocker,
                                    w.blocker_site, w.start_ns});
      });
  std::sort(out.begin(), out.end(),
            [](const WaitGraphEdge& a, const WaitGraphEdge& b) {
              return a.waiter < b.waiter;
            });
  return out;
}

std::vector<std::vector<std::uint64_t>> waitgraph_cycles(
    const std::vector<WaitGraphEdge>& edges) {
  // Each waiter (a thread) has at most one outgoing edge, so the graph is
  // functional: walking waiter->blocker from every node visits each node
  // O(1) times with the three-color scheme.
  std::map<std::uint64_t, std::uint64_t> next;  // waiter -> blocker
  for (const WaitGraphEdge& e : edges) {
    if (e.blocker != 0) next[e.waiter] = e.blocker;
  }
  std::vector<std::vector<std::uint64_t>> cycles;
  std::map<std::uint64_t, int> color;  // 0 unseen, 1 on path, 2 done
  for (const auto& [start, unused] : next) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<std::uint64_t> path;
    std::uint64_t cur = start;
    while (true) {
      const int c = color[cur];
      if (c == 1) {
        // Found a cycle: the suffix of `path` from cur onward.
        const auto it = std::find(path.begin(), path.end(), cur);
        std::vector<std::uint64_t> cycle(it, path.end());
        // Rotate to the smallest id so the representation is stable.
        const auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        cycles.push_back(std::move(cycle));
        break;
      }
      if (c == 2) break;
      color[cur] = 1;
      path.push_back(cur);
      const auto nit = next.find(cur);
      if (nit == next.end()) break;
      cur = nit->second;
    }
    for (const std::uint64_t n : path) color[n] = 2;
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

std::string waitgraph_json() {
  const std::vector<WaitGraphEdge> edges = snapshot_waitgraph();
  const std::vector<std::vector<std::uint64_t>> cycles =
      waitgraph_cycles(edges);
  std::string out = "{\n  \"schema\": \"semlock-waitgraph-v1\",\n";
  out += "  \"now_ns\": " + std::to_string(runtime::steady_now_ns()) + ",\n";
  out += "  \"edges\": [";
  bool first = true;
  for (const WaitGraphEdge& e : edges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"waiter\": " + std::to_string(e.waiter) +
           ", \"waiter_name\": \"" + format_owner(e.waiter) + "\"";
    out += ", \"instance\": \"";
    append_hex(out, e.instance);
    out += "\", \"mode\": " + std::to_string(e.mode);
    out += ", \"blocker\": " + std::to_string(e.blocker) +
           ", \"blocker_name\": \"" + format_owner(e.blocker) + "\"";
    out += ", \"blocker_site\": " + std::to_string(e.blocker_site);
    out += ", \"since_ns\": " + std::to_string(e.since_ns) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"cycles\": [";
  first = true;
  for (const std::vector<std::uint64_t>& cycle : cycles) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    [";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(cycle[i]);
    }
    out += "]";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string waitgraph_dot() {
  const std::vector<WaitGraphEdge> edges = snapshot_waitgraph();
  const std::vector<std::vector<std::uint64_t>> cycles =
      waitgraph_cycles(edges);
  std::set<std::uint64_t> in_cycle;
  for (const std::vector<std::uint64_t>& cycle : cycles) {
    in_cycle.insert(cycle.begin(), cycle.end());
  }
  std::string out = "digraph waitfor {\n";
  out += "  rankdir=LR;\n";
  for (const WaitGraphEdge& e : edges) {
    out += "  \"" + format_owner(e.waiter) + "\" -> \"" +
           format_owner(e.blocker) + "\" [label=\"";
    append_hex(out, e.instance);
    out += " mode " + std::to_string(e.mode) + "\"";
    if (in_cycle.count(e.waiter) != 0 && in_cycle.count(e.blocker) != 0) {
      out += " color=red";
    }
    out += "];\n";
  }
  out += "}\n";
  return out;
}

std::string waitgraph_chain(std::uint64_t waiter, std::size_t max_depth) {
  const std::vector<WaitGraphEdge> edges = snapshot_waitgraph();
  // Whom `owner` is blocked by, or 0 when it has no edge with a sampled
  // blocker (each waiter publishes at most one edge).
  const auto blocker_of = [&](std::uint64_t owner) -> std::uint64_t {
    for (const WaitGraphEdge& e : edges) {
      if (e.waiter == owner && e.blocker != 0) return e.blocker;
    }
    return 0;
  };
  std::uint64_t cur = blocker_of(waiter);
  if (cur == 0) return "";
  std::string out = "wait-for chain: " + format_owner(waiter);
  std::set<std::uint64_t> seen{waiter};
  for (std::size_t depth = 0; depth < max_depth && cur != 0; ++depth) {
    out += " -> " + format_owner(cur);
    if (seen.count(cur) != 0) {
      out += " (cycle)";
      break;
    }
    seen.insert(cur);
    cur = blocker_of(cur);
  }
  out += "\n";
  return out;
}

}  // namespace semlock::obs
