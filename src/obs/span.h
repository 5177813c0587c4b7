// Per-transaction causal spans (ISSUE 10).
//
// Where the event rings (obs/ring.h) record *points* in the acquisition
// lifecycle, a span is an *interval* with a cause attached: each one covers
// a phase of a transaction's life — server queue wait, one contended lock
// wait, execution, commit/unlockAll — and a lock-wait span additionally
// carries the identity of the transaction that was blocking it (owner id,
// lock site, holding mode, sampled from the PR 5 seqlock grant records at
// the moment the waiter parked) plus the wait's attribution class. Together
// the spans of one dump form the blocked-by graph the critical-path
// analyzer (obs/critical_path.h) walks to explain tail latency.
//
// Recording uses the event layer's own machinery: each thread's span ring
// is the same obs::Ring as its event ring (8-word records instead of 4),
// held in the same per-thread trace state, registered in the same registry
// and retired into it at thread exit, so dumps include threads that are
// already gone. A span's tid is therefore the tid of its thread's events.
//
// Gating is the same three-level scheme as events, with one extra knob:
//   - compiled out entirely under -DSEMLOCK_OBS=OFF (this header is only
//     included from obs TUs and #if-guarded call sites);
//   - lock-path spans fire only for TRACED mechanisms (the cached trace_
//     flag), process-level spans only when runtime_enabled();
//   - SEMLOCK_SPANS=0|1 (default 1) turns the span recorder itself off
//     while leaving event tracing untouched — the compiled-in-but-off
//     configuration bench_trace_overhead measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace semlock::obs {

// --- the span record --------------------------------------------------------

enum class SpanKind : std::uint32_t {
  kQueueWait = 0,  // server admission: request arrival -> worker dequeue
  kLockWait = 1,   // one contended lock wait, with blocker identity
  kExec = 2,       // transaction begin -> epilogue entry
  kCommit = 3,     // epilogue: unlock_all begin -> done
};

inline constexpr std::size_t kNumSpanKinds = 4;

const char* span_kind_name(SpanKind kind) noexcept;

struct Span {
  std::uint64_t start_ns = 0;  // steady clock, same epoch as Event::ts_ns
  std::uint64_t end_ns = 0;
  // Owner identity of the side that recorded the span: the open transaction
  // id, or the thread sentinel (top bit set) outside any transaction — the
  // same id space as attribution's current_owner_id(). 0 = unknown (a queue
  // wait whose request never opened a transaction).
  std::uint64_t txn = 0;
  std::uint64_t instance = 0;  // LockMechanism address; 0 = process-level
  SpanKind kind = SpanKind::kExec;
  std::int32_t mode = -1;          // waited mode (kLockWait), else payload
  std::int32_t blocker_mode = -1;  // held conflicting mode sampled; -1 none
  // AttrClass index for the (waiter, blocker_mode) classification;
  // kUnsampled when attribution was off or drew no sample.
  std::uint32_t attr_class = 5;
  std::uint64_t blocker = 0;        // blocking owner id; 0 = none sampled
  std::int32_t blocker_site = -1;   // blocker's LockSiteArgs::site
  std::uint32_t tid = 0;            // recording thread's obs tid
  // When the blocker identity was sampled (the last pre-park refresh) —
  // what the offline event-stream reconstruction replays against.
  std::uint64_t capture_ns = 0;

  // Fixed width for the ring and the dump:
  //   w0 start_ns, w1 end_ns, w2 txn, w3 instance,
  //   w4 kind<<48 | mode16<<32 | blocker_mode16<<16 | attr_class16,
  //   w5 blocker, w6 tid<<32 | blocker_site32, w7 capture_ns
  static constexpr std::size_t kWords = 8;

  void encode(std::uint64_t* w) const noexcept;
  static Span decode(const std::uint64_t* w) noexcept;
};

inline std::uint64_t span_pack_meta(const Span& s) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.kind) &
                                     0xFFFFu)
          << 48) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint16_t>(s.mode)) << 32) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint16_t>(s.blocker_mode)) << 16) |
         static_cast<std::uint64_t>(
             static_cast<std::uint16_t>(s.attr_class));
}

inline void span_unpack_meta(std::uint64_t w, Span& s) noexcept {
  s.kind = static_cast<SpanKind>(static_cast<std::uint32_t>(w >> 48));
  s.mode = static_cast<std::int16_t>(static_cast<std::uint16_t>(w >> 32));
  s.blocker_mode =
      static_cast<std::int16_t>(static_cast<std::uint16_t>(w >> 16));
  s.attr_class = static_cast<std::uint16_t>(w);
}

inline void Span::encode(std::uint64_t* w) const noexcept {
  w[0] = start_ns;
  w[1] = end_ns;
  w[2] = txn;
  w[3] = instance;
  w[4] = span_pack_meta(*this);
  w[5] = blocker;
  w[6] = (static_cast<std::uint64_t>(tid) << 32) |
         static_cast<std::uint32_t>(blocker_site);
  w[7] = capture_ns;
}

inline Span Span::decode(const std::uint64_t* w) noexcept {
  Span s;
  s.start_ns = w[0];
  s.end_ns = w[1];
  s.txn = w[2];
  s.instance = w[3];
  span_unpack_meta(w[4], s);
  s.blocker = w[5];
  s.tid = static_cast<std::uint32_t>(w[6] >> 32);
  s.blocker_site = static_cast<std::int32_t>(static_cast<std::uint32_t>(w[6]));
  s.capture_ns = w[7];
  return s;
}

// --- runtime gate and knobs -------------------------------------------------

// SEMLOCK_SPANS=0|1 (default 1): the span recorder's own switch on top of
// the usual tracing gates. Spans are recorded iff the caller's trace gate
// passes (mechanism trace_ flag, or runtime_enabled() for process-level
// sites) AND this is on.
bool spans_enabled() noexcept;
void set_spans_enabled(bool on) noexcept;

// Testable strict parser (util/env convention: nullptr silent, malformed
// text warns once and falls back to on).
bool spans_enabled_from_env_text(const char* text);

// Ring capacity (spans) for threads recording their first span from now on.
inline constexpr std::uint32_t kDefaultSpanRingCapacity = 4096;
std::uint32_t span_ring_capacity() noexcept;
void set_span_ring_capacity(std::uint32_t spans) noexcept;

// --- recording --------------------------------------------------------------
// Span timestamps come from runtime::steady_now_ns(), the clock of the
// event stamps, so spans and events from one run share one timeline.

// Appends to the calling thread's span ring (creating it on first use).
// Callers gate; this function does not re-check spans_enabled().
void record_span(const Span& s);

// Blocker identity sampled on entry to (and refreshed at each park of) a
// contended wait. Default state means "nothing sampled".
struct BlockerInfo {
  std::uint64_t owner = 0;
  std::int32_t site = -1;
  std::int32_t mode = -1;
  std::uint32_t attr_class = 5;  // AttrClass::kUnsampled
  std::uint64_t capture_ns = 0;
};

// One finished contended wait on `instance`: [start_ns, end_ns) in `mode`,
// blocked by whatever `b` sampled. txn/tid are stamped from the caller.
void record_lock_wait_span(const void* instance, int mode,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           const BlockerInfo& b);

// Transaction epilogue: records the kExec span [exec_start, commit_start)
// and the kCommit span [commit_start, end). Called from ~Transaction()
// before txn_end() so current_txn() still names the transaction. `released`
// (instances released by unlock_all) rides in the exec span's mode field.
void record_txn_spans(std::uint64_t exec_start_ns,
                      std::uint64_t commit_start_ns, std::uint64_t end_ns,
                      int released);

// Server admission: request arrival -> worker dequeue, attributed to the
// transaction the request executed as (0 when the backend opened none).
void record_queue_wait_span(std::uint64_t txn, std::uint64_t arrival_ns,
                            std::uint64_t dequeue_ns);

// --- snapshots --------------------------------------------------------------

struct ThreadSpans {
  std::uint32_t tid = 0;  // same tid space as ThreadTrace (events)
  bool live = false;
  std::vector<Span> spans;  // oldest first
};

// Retired threads' retained spans plus a racy-but-consistent snapshot of
// the live threads' rings, ordered by tid.
std::vector<ThreadSpans> snapshot_spans();

// "txn 12" / "thread 3" / "?" — shared rendering of the owner-id space
// (top bit set = thread sentinel) for chains, reports, and the wait graph.
std::string format_owner(std::uint64_t owner);

}  // namespace semlock::obs
