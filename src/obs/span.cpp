// Span gating knobs and the span builders. The per-thread span ring and
// its retirement live beside the event ring in trace.cpp (record_span,
// snapshot_spans), so one registry serves both.

#include "obs/span.h"

#include <atomic>
#include <cstdlib>

#include "obs/ring.h"
#include "obs/trace.h"
#include "util/env.h"

namespace semlock::obs {

namespace {

std::atomic<bool> g_spans_enabled{true};
std::atomic<std::uint32_t> g_span_ring_capacity{kDefaultSpanRingCapacity};

// Reads SEMLOCK_SPANS once at startup (same static-init slot discipline as
// trace.cpp's TraceRuntimeInit; ordering between the two does not matter
// because neither touches the other's state).
struct SpanRuntimeInit {
  SpanRuntimeInit() {
    g_spans_enabled.store(
        spans_enabled_from_env_text(std::getenv("SEMLOCK_SPANS")),
        std::memory_order_relaxed);
  }
};
SpanRuntimeInit g_span_runtime_init;

}  // namespace

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kLockWait:
      return "lock_wait";
    case SpanKind::kExec:
      return "exec";
    case SpanKind::kCommit:
      return "commit";
  }
  return "unknown";
}

bool spans_enabled() noexcept {
  return g_spans_enabled.load(std::memory_order_relaxed);
}

void set_spans_enabled(bool on) noexcept {
  g_spans_enabled.store(on, std::memory_order_relaxed);
}

bool spans_enabled_from_env_text(const char* text) {
  return util::env_bool_01("SEMLOCK_SPANS", text, "spans on").value_or(true);
}

std::uint32_t span_ring_capacity() noexcept {
  return g_span_ring_capacity.load(std::memory_order_relaxed);
}

void set_span_ring_capacity(std::uint32_t spans) noexcept {
  g_span_ring_capacity.store(spans < Ring<Span>::kMinCapacity
                                 ? Ring<Span>::kMinCapacity
                                 : spans,
                             std::memory_order_relaxed);
}

void record_lock_wait_span(const void* instance, int mode,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           const BlockerInfo& b) {
  Span s;
  s.kind = SpanKind::kLockWait;
  s.start_ns = start_ns;
  s.end_ns = end_ns > start_ns ? end_ns : start_ns;
  s.txn = current_owner_id();
  s.instance = reinterpret_cast<std::uint64_t>(instance);
  s.mode = mode;
  s.blocker_mode = b.mode;
  s.attr_class = b.attr_class;
  s.blocker = b.owner;
  s.blocker_site = b.site;
  s.capture_ns = b.capture_ns;
  record_span(s);
}

void record_txn_spans(std::uint64_t exec_start_ns,
                      std::uint64_t commit_start_ns, std::uint64_t end_ns,
                      int released) {
  const std::uint64_t txn = current_owner_id();
  Span exec;
  exec.kind = SpanKind::kExec;
  exec.start_ns = exec_start_ns;
  exec.end_ns = commit_start_ns > exec_start_ns ? commit_start_ns
                                                : exec_start_ns;
  exec.txn = txn;
  exec.mode = released;
  record_span(exec);
  Span commit;
  commit.kind = SpanKind::kCommit;
  commit.start_ns = exec.end_ns;
  commit.end_ns = end_ns > exec.end_ns ? end_ns : exec.end_ns;
  commit.txn = txn;
  commit.mode = released;
  record_span(commit);
}

void record_queue_wait_span(std::uint64_t txn, std::uint64_t arrival_ns,
                            std::uint64_t dequeue_ns) {
  Span s;
  s.kind = SpanKind::kQueueWait;
  s.start_ns = arrival_ns < dequeue_ns ? arrival_ns : dequeue_ns;
  s.end_ns = dequeue_ns;
  s.txn = txn;
  record_span(s);
}

std::string format_owner(std::uint64_t owner) {
  if (owner == 0) return "?";
  if ((owner & 0x8000000000000000ull) != 0) {
    return "thread " + std::to_string(owner & 0x7FFFFFFFFFFFFFFFull);
  }
  return "txn " + std::to_string(owner);
}

}  // namespace semlock::obs
