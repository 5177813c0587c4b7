// Exporters for the observability layer: the binary dump format, the Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing), and the text
// report. Shared by the runtime's exit dump (trace.cpp) and the
// tools/semlock-trace CLI, so both ends of the format live in one place.
//
// Binary dump format v5 (native endianness; produced and consumed on the
// same machine):
//   char[8]  magic "SLTRACE1"
//   u32      version (5)
//   u32      thread count
//   metrics section (MetricsSnapshot, see read/write below; v2 added the
//   per-instance AttrClass tallies and the per-mode-pair attribution cells,
//   v3 appends max_wait_ns/diverted/handoffs to the acquire totals, v4
//   appends the hold-time profiler block — hold histogram, paired/unmatched
//   counts, top holds — at the end of the section, so the loader still
//   accepts v3 dumps and reads them with empty hold data)
//   per thread: u32 tid, u32 live, u64 event count,
//               count * Event::kWords u64 words (oldest event first)
//   v5 appends the span sections (obs/span.h) after the last thread:
//   u32 span-thread count, then per thread: u32 tid, u32 live,
//   u64 span count, count * Span::kWords u64 words (oldest span first).
//   Older dumps (v3/v4) load with empty spans.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace semlock::obs {

struct TraceDump {
  std::vector<ThreadTrace> threads;
  MetricsSnapshot metrics;
  std::vector<ThreadSpans> spans;  // v5+; empty when absent from the file
};

// In-process capture: ring snapshots (live + retired) plus collect_metrics().
TraceDump capture();

bool write_dump_file(const TraceDump& dump, const std::string& path,
                     std::string* error = nullptr);
bool load_dump_file(const std::string& path, TraceDump& out,
                    std::string* error = nullptr);

// Chrome trace-event JSON: acquire begin→grant and park→unpark pairs become
// duration ("X") events; everything else becomes instant ("i") events. The
// metrics snapshot rides along under the top-level "semlockMetrics" key
// (Perfetto ignores unknown keys).
std::string to_chrome_json(const TraceDump& dump);

// Plain-text report: event totals, top contended instances, hottest
// non-commuting mode pairs, longest waits, attribution summary.
std::string text_report(const TraceDump& dump);

// Attribution-focused text report: overall true-conflict vs. artifact
// split, then the per-mode-pair breakdown by AttrClass. Backing for the
// `semlock-trace attribution` command.
std::string attribution_report(const TraceDump& dump);

// Hold-time report: the hold histogram's tail quantiles, the paired vs.
// unmatched counts, the top-K longest holds with holder txn and lock site,
// and an offline re-pairing of the retained grant/release events (LIFO per
// thread, same algorithm as the online profiler) so a short schedule can
// cross-check metrics.holds_paired exactly. Backing for `semlock-trace
// holds`.
std::string holds_report(const TraceDump& dump);

// The offline half of that cross-check, exposed for tests: LIFO-pairs
// grant→release per (instance, mode) within each thread's retained events
// and returns the number of pairs formed.
std::uint64_t pair_holds_from_events(const TraceDump& dump);

// Minimal structural JSON validator (strings/escapes/nesting/commas) used by
// `semlock-trace check` so CI can validate the Chrome export without a JSON
// library. Not a full parser — it validates syntax, not schema.
bool validate_json(const std::string& text, std::string* error = nullptr);

}  // namespace semlock::obs
