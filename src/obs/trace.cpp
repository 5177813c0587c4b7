// Per-thread trace state, the process-wide registry it retires into, and
// the metrics fold. See trace.h for the lifecycle contract.
//
// Synchronization summary:
//   - the registry (live-thread list, retired data, dump path) is guarded
//     by a util::Spinlock; under DCT the spinlock is a schedule point, so
//     deterministic tests explore interleavings through here too;
//   - each thread's slow-path metric accumulators are guarded by a
//     per-thread spinlock (held by the owner in record_*, by the collector
//     in collect_metrics), so mid-run collection is race-free;
//   - each thread's AcquireStats is plain memory written on the acquire
//     fast path; it is folded only at retirement (merge-on-exit) or read
//     from the calling thread itself, so totals are exact once worker
//     threads have joined and no fast-path write is ever contended;
//   - event and span rings are SPSC with lock-free concurrent snapshot
//     (ring.h); both hang off the same ThreadState and retire together.
//
// The registry itself is a leaky heap singleton: thread exit order versus
// static destruction order is unknowable across toolchains, and a retiring
// thread must always find the registry alive.
#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include <csignal>

#include "obs/attribution.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/span.h"
#include "runtime/wait_registry.h"
#include "util/env.h"
#include "util/spinlock.h"

namespace semlock::obs {

const char* event_name(EventType type) noexcept {
  switch (type) {
    case EventType::kNone: return "none";
    case EventType::kAcquireBegin: return "acquire_begin";
    case EventType::kAcquireGrant: return "acquire_grant";
    case EventType::kContendedWait: return "contended_wait";
    case EventType::kPark: return "park";
    case EventType::kUnpark: return "unpark";
    case EventType::kOptimisticHit: return "optimistic_hit";
    case EventType::kRetract: return "retract";
    case EventType::kRelease: return "release";
    case EventType::kUnlockAll: return "unlock_all";
    case EventType::kWatchdogStall: return "watchdog_stall";
    case EventType::kMark: return "mark";
    case EventType::kAttribution: return "attribution";
    case EventType::kBarrierDivert: return "barrier_divert";
    case EventType::kGrantHandoff: return "grant_handoff";
  }
  return "unknown";
}

namespace detail {
std::atomic<bool> g_runtime_enabled{false};
std::atomic<std::uint64_t> g_next_txn{0};

void refill_txn_block(TxnTls& tls) noexcept {
  const std::uint64_t first =
      g_next_txn.fetch_add(kTxnIdBlock, std::memory_order_relaxed) + 1;
  tls.next_id = first;
  tls.block_end = first + kTxnIdBlock;
}
}  // namespace detail

namespace {

std::atomic<std::uint32_t> g_ring_capacity{kDefaultRingEvents};

// (waiter_mode, holder_mode) packed for the per-thread blocked-by map.
std::uint64_t pack_pair(std::int32_t waiter, std::int32_t holder) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(waiter))
          << 32) |
         static_cast<std::uint32_t>(holder);
}

struct InstanceAccum {
  std::uint64_t contended = 0;
  std::uint64_t waits = 0;
  std::uint64_t wait_ns = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> blocked_by;
  std::uint64_t attr_classes[kNumAttrClasses] = {};
};

using AttrCounts = std::array<std::uint64_t, kNumAttrClasses>;

// The slow-path accumulators, guarded by ThreadState::metrics_lock.
struct MetricsAccum {
  std::unordered_map<std::uint64_t, InstanceAccum> instances;
  // (waiter mode, holder mode) -> per-AttrClass counts of classified waits.
  std::unordered_map<std::uint64_t, AttrCounts> attr_pairs;
  util::Log2Histogram wait_hist;
  TopWaits top_waits;
  // Hold-time profiler tallies: one hold_hist sample per paired release
  // (hold_hist.count() == holds_paired by construction, the invariant
  // dct_trace_test pins against offline event pairing).
  util::Log2Histogram hold_hist;
  TopHolds top_holds;
  std::uint64_t holds_paired = 0;
  std::uint64_t holds_unmatched = 0;

  void merge_into(MetricsAccum& out) const {
    for (const auto& [inst, acc] : instances) {
      InstanceAccum& dst = out.instances[inst];
      dst.contended += acc.contended;
      dst.waits += acc.waits;
      dst.wait_ns += acc.wait_ns;
      for (const auto& [pair, n] : acc.blocked_by) dst.blocked_by[pair] += n;
      for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
        dst.attr_classes[c] += acc.attr_classes[c];
      }
    }
    for (const auto& [pair, counts] : attr_pairs) {
      AttrCounts& dst = out.attr_pairs[pair];
      for (std::size_t c = 0; c < kNumAttrClasses; ++c) dst[c] += counts[c];
    }
    out.wait_hist.merge(wait_hist);
    out.top_waits.merge(top_waits);
    out.hold_hist.merge(hold_hist);
    out.top_holds.merge(top_holds);
    out.holds_paired += holds_paired;
    out.holds_unmatched += holds_unmatched;
  }
};

// One grant the owning thread has not released yet. Plain owner-only state:
// pushed at grant, LIFO-matched at release, never read cross-thread.
struct OpenHold {
  std::uint64_t instance = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t txn = 0;
  std::int32_t mode = -1;
  std::int32_t site = -1;
};

// Bound on per-thread simultaneously open holds the profiler tracks. A
// transaction deeper than this sees its excess releases counted as
// unmatched rather than growing without bound.
constexpr std::size_t kMaxOpenHolds = 4096;

struct ThreadState {
  std::uint32_t tid = 0;
  // Created lazily on the first emitted event; published with release so
  // concurrent snapshotters see fully constructed storage.
  std::atomic<EventRing*> ring{nullptr};
  // The span recorder's ring (obs/span.h), created lazily by record_span()
  // and published the same way. Kept apart from `ring` so emit() never
  // branches on spans and SEMLOCK_SPANS=0 leaves events untouched.
  std::atomic<Ring<Span>*> span_ring{nullptr};
  AcquireStats stats;  // fast-path counters; owner-written, folded on retire
  mutable util::Spinlock metrics_lock;
  MetricsAccum metrics;
  // Per-EventType tallies, bumped in emit(). Single-writer (the owner), so
  // the increment is a relaxed load+store pair — no RMW — while any thread
  // may sum them concurrently (event_count_totals, the window collector).
  std::atomic<std::uint64_t> event_counts[kNumEventTypes] = {};
  // Hold-time profiler working state (owner-only, see OpenHold).
  std::vector<OpenHold> open_holds;
  std::int32_t pending_site = -1;  // stashed by note_lock_site()

  ~ThreadState() {
    delete ring.load(std::memory_order_relaxed);
    delete span_ring.load(std::memory_order_relaxed);
  }
};

class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry;  // leaky: see file comment
    return *r;
  }

  std::uint32_t register_thread(ThreadState* ts) {
    std::lock_guard<util::Spinlock> g(lock_);
    live_.push_back(ts);
    return next_tid_++;
  }

  void retire_thread(ThreadState* ts) {
    // Snapshot the rings outside the registry lock: the owner is retiring,
    // so they are quiescent and this is a plain read.
    std::vector<Event> events;
    if (EventRing* ring = ts->ring.load(std::memory_order_acquire)) {
      events = ring->snapshot();
    }
    std::vector<Span> spans;
    if (Ring<Span>* ring = ts->span_ring.load(std::memory_order_acquire)) {
      spans = ring->snapshot();
    }
    std::lock_guard<util::Spinlock> g(lock_);
    live_.erase(std::remove(live_.begin(), live_.end(), ts), live_.end());
    retired_stats_.merge(ts->stats);
    ts->metrics.merge_into(retired_metrics_);
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      retired_event_counts_[i] +=
          ts->event_counts[i].load(std::memory_order_relaxed);
    }
    if (!events.empty()) {
      retired_event_count_ += events.size();
      retired_.push_back(ThreadTrace{ts->tid, false, std::move(events)});
      // Cap retained post-mortem data; evict whole oldest-retired threads
      // first (their events are the least likely to matter in a dump).
      while (retired_event_count_ > kMaxRetiredEvents && retired_.size() > 1) {
        retired_event_count_ -= retired_.front().events.size();
        retired_.pop_front();
      }
    }
    if (!spans.empty()) {
      retired_span_count_ += spans.size();
      retired_spans_.push_back(ThreadSpans{ts->tid, false, std::move(spans)});
      while (retired_span_count_ > kMaxRetiredSpans &&
             !retired_spans_.empty()) {
        retired_span_count_ -= retired_spans_.front().spans.size();
        retired_spans_.pop_front();
      }
    }
  }

  std::vector<ThreadTrace> snapshot_traces() {
    std::lock_guard<util::Spinlock> g(lock_);
    std::vector<ThreadTrace> out(retired_.begin(), retired_.end());
    out.reserve(retired_.size() + live_.size());
    for (ThreadState* ts : live_) {
      ThreadTrace t;
      t.tid = ts->tid;
      t.live = true;
      if (EventRing* ring = ts->ring.load(std::memory_order_acquire)) {
        t.events = ring->snapshot();
      }
      out.push_back(std::move(t));
    }
    std::sort(out.begin(), out.end(),
              [](const ThreadTrace& a, const ThreadTrace& b) {
                return a.tid < b.tid;
              });
    return out;
  }

  std::vector<ThreadSpans> snapshot_spans() {
    std::lock_guard<util::Spinlock> g(lock_);
    std::vector<ThreadSpans> out(retired_spans_.begin(), retired_spans_.end());
    out.reserve(retired_spans_.size() + live_.size());
    for (ThreadState* ts : live_) {
      const Ring<Span>* ring = ts->span_ring.load(std::memory_order_acquire);
      if (ring == nullptr) continue;  // this thread never recorded a span
      out.push_back(ThreadSpans{ts->tid, true, ring->snapshot()});
    }
    std::sort(out.begin(), out.end(),
              [](const ThreadSpans& a, const ThreadSpans& b) {
                return a.tid != b.tid ? a.tid < b.tid : a.live < b.live;
              });
    return out;
  }

  std::array<std::uint64_t, kNumEventTypes> event_count_totals() {
    std::array<std::uint64_t, kNumEventTypes> out{};
    std::lock_guard<util::Spinlock> g(lock_);
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      out[i] = retired_event_counts_[i];
    }
    for (ThreadState* ts : live_) {
      for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        out[i] += ts->event_counts[i].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  MetricsSnapshot collect(ThreadState* self) {
    AcquireStats totals;
    MetricsAccum merged;
    {
      std::lock_guard<util::Spinlock> g(lock_);
      totals = retired_stats_;
      retired_metrics_.merge_into(merged);
      for (ThreadState* ts : live_) {
        std::lock_guard<util::Spinlock> tg(ts->metrics_lock);
        ts->metrics.merge_into(merged);
      }
    }
    // AcquireStats is fast-path plain memory: only the caller's own live
    // counters can be read without a race. Retired threads are already
    // folded, so totals are exact at quiescence.
    if (self != nullptr) totals.merge(self->stats);

    MetricsSnapshot snap;
    snap.acquire_totals = totals;
    snap.wait_hist = merged.wait_hist;
    snap.top_waits = merged.top_waits.sorted();
    snap.hold_hist = merged.hold_hist;
    snap.top_holds = merged.top_holds.sorted();
    snap.holds_paired = merged.holds_paired;
    snap.holds_unmatched = merged.holds_unmatched;
    std::unordered_map<std::uint64_t, std::uint64_t> matrix;
    for (const auto& [inst, acc] : merged.instances) {
      InstanceMetrics im;
      im.instance = inst;
      im.contended = acc.contended;
      im.waits = acc.waits;
      im.wait_ns = acc.wait_ns;
      for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
        im.attribution[c] = acc.attr_classes[c];
      }
      for (const auto& [pair, n] : acc.blocked_by) {
        im.blocked_by.push_back(BlockedByCell{
            static_cast<std::int32_t>(pair >> 32),
            static_cast<std::int32_t>(static_cast<std::uint32_t>(pair)), n});
        matrix[pair] += n;
      }
      std::sort(im.blocked_by.begin(), im.blocked_by.end(),
                [](const BlockedByCell& a, const BlockedByCell& b) {
                  return a.count > b.count;
                });
      snap.instances.push_back(std::move(im));
    }
    std::sort(snap.instances.begin(), snap.instances.end(),
              [](const InstanceMetrics& a, const InstanceMetrics& b) {
                return a.contended != b.contended ? a.contended > b.contended
                                                  : a.instance < b.instance;
              });
    for (const auto& [pair, n] : matrix) {
      snap.conflict_matrix.push_back(BlockedByCell{
          static_cast<std::int32_t>(pair >> 32),
          static_cast<std::int32_t>(static_cast<std::uint32_t>(pair)), n});
    }
    std::sort(snap.conflict_matrix.begin(), snap.conflict_matrix.end(),
              [](const BlockedByCell& a, const BlockedByCell& b) {
                return a.count != b.count ? a.count > b.count
                       : a.waiter != b.waiter ? a.waiter < b.waiter
                                              : a.holder < b.holder;
              });
    for (const auto& [pair, counts] : merged.attr_pairs) {
      AttributionCell cell;
      cell.waiter = static_cast<std::int32_t>(pair >> 32);
      cell.holder = static_cast<std::int32_t>(static_cast<std::uint32_t>(pair));
      for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
        cell.counts[c] = counts[c];
      }
      snap.attribution.push_back(cell);
    }
    std::sort(snap.attribution.begin(), snap.attribution.end(),
              [](const AttributionCell& a, const AttributionCell& b) {
                const std::uint64_t ta = a.total();
                const std::uint64_t tb = b.total();
                return ta != tb ? ta > tb
                       : a.waiter != b.waiter ? a.waiter < b.waiter
                                              : a.holder < b.holder;
              });
    return snap;
  }

  void reset(ThreadState* self) {
    std::lock_guard<util::Spinlock> g(lock_);
    retired_.clear();
    retired_event_count_ = 0;
    retired_spans_.clear();
    retired_span_count_ = 0;
    retired_stats_ = AcquireStats{};
    retired_metrics_ = MetricsAccum{};
    for (std::uint64_t& c : retired_event_counts_) c = 0;
    if (self != nullptr) {
      delete self->ring.exchange(nullptr, std::memory_order_acq_rel);
      delete self->span_ring.exchange(nullptr, std::memory_order_acq_rel);
      self->stats = AcquireStats{};
      for (std::atomic<std::uint64_t>& c : self->event_counts) {
        c.store(0, std::memory_order_relaxed);
      }
      self->open_holds.clear();
      self->pending_site = -1;
      std::lock_guard<util::Spinlock> tg(self->metrics_lock);
      self->metrics = MetricsAccum{};
    }
  }

  void set_dump_path(std::string path) {
    std::lock_guard<util::Spinlock> g(lock_);
    dump_path_ = std::move(path);
  }

  std::string dump_path() {
    std::lock_guard<util::Spinlock> g(lock_);
    return dump_path_;
  }

 private:
  Registry() = default;

  static constexpr std::size_t kMaxRetiredEvents = 1u << 18;  // 262144 events
  static constexpr std::size_t kMaxRetiredSpans = 1u << 16;   // 65536 spans

  util::Spinlock lock_;
  std::uint32_t next_tid_ = 1;
  std::vector<ThreadState*> live_;
  std::deque<ThreadTrace> retired_;
  std::size_t retired_event_count_ = 0;
  std::deque<ThreadSpans> retired_spans_;
  std::size_t retired_span_count_ = 0;
  AcquireStats retired_stats_;
  MetricsAccum retired_metrics_;
  std::uint64_t retired_event_counts_[kNumEventTypes] = {};
  std::string dump_path_;
};

// Thread-local handle whose destructor retires the state into the registry.
// The handle (not ThreadState directly) is the thread_local so registration
// happens exactly once per thread, on first use.
struct TlsHandle {
  ThreadState state;
  TlsHandle() { state.tid = Registry::instance().register_thread(&state); }
  ~TlsHandle() { Registry::instance().retire_thread(&state); }
};

ThreadState& thread_state() {
  thread_local TlsHandle handle;
  return handle.state;
}

}  // namespace

// --- configuration ----------------------------------------------------------

bool trace_enabled_from_env_text(const char* text) {
  return util::env_bool_01("SEMLOCK_TRACE", text, "tracing off")
      .value_or(false);
}

std::uint32_t trace_ring_events_from_env_text(const char* text) {
  char fallback[64];
  std::snprintf(fallback, sizeof(fallback), "%u events",
                kDefaultRingEvents);
  return static_cast<std::uint32_t>(
      util::env_int_in_range("SEMLOCK_TRACE_EVENTS", text, 64, 4194304,
                             fallback)
          .value_or(kDefaultRingEvents));
}

std::string trace_file_from_env_text(const char* text) {
  if (text == nullptr) return kDefaultTraceFile;
  if (text[0] == '\0') {
    util::warn_invalid_env("SEMLOCK_TRACE_FILE", text, kDefaultTraceFile);
    return kDefaultTraceFile;
  }
  return text;
}

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  cfg.enabled = trace_enabled_from_env_text(std::getenv("SEMLOCK_TRACE"));
  cfg.ring_events =
      trace_ring_events_from_env_text(std::getenv("SEMLOCK_TRACE_EVENTS"));
  cfg.file = trace_file_from_env_text(std::getenv("SEMLOCK_TRACE_FILE"));
  return cfg;
}

void set_runtime_enabled(bool on) noexcept {
  detail::g_runtime_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t ring_capacity() noexcept {
  return g_ring_capacity.load(std::memory_order_relaxed);
}

void set_ring_capacity(std::uint32_t events) noexcept {
  g_ring_capacity.store(events < EventRing::kMinCapacity
                            ? EventRing::kMinCapacity
                            : events,
                        std::memory_order_relaxed);
}

// --- emission ---------------------------------------------------------------

namespace {

// Pending vs. claimed snapshot requests. The signal handler only increments
// g_snapshot_requests (async-signal-safe); emit() — which runs only on
// tracing threads, outside any obs lock — notices the gap and drains it.
std::atomic<std::uint32_t> g_snapshot_requests{0};
std::atomic<std::uint32_t> g_snapshot_claims{0};
std::atomic<std::uint32_t> g_snapshots_written{0};

void drain_snapshot_requests() {
  for (;;) {
    const std::uint32_t pending =
        g_snapshot_requests.load(std::memory_order_acquire);
    std::uint32_t claimed = g_snapshot_claims.load(std::memory_order_relaxed);
    if (claimed >= pending) return;
    if (!g_snapshot_claims.compare_exchange_strong(
            claimed, claimed + 1, std::memory_order_acq_rel)) {
      continue;  // another thread took this request
    }
    const std::uint32_t n =
        g_snapshots_written.fetch_add(1, std::memory_order_relaxed) + 1;
    std::string base = Registry::instance().dump_path();
    if (base.empty()) base = kDefaultTraceFile;
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".snap%u", n);
    const std::string path = base + suffix;
    if (!write_dump(path)) continue;
    const std::string json = collect_metrics().to_json();
    const std::string jpath = path + ".metrics.json";
    if (std::FILE* f = std::fopen(jpath.c_str(), "wb")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
    std::fprintf(stderr, "[semlock] snapshot %u written to %s (+%s)\n", n,
                 path.c_str(), jpath.c_str());
  }
}

// Hold-time profiler: the grant side pushes an OpenHold, the release side
// LIFO-matches it by (instance, mode) and records the span. LIFO is the
// right order for lock scopes — nested acquisitions release innermost
// first — and degrades gracefully for the rare hand-over-hand pattern (the
// match walks past non-matching entries).
void open_hold_on_grant(ThreadState& ts, const Event& e) {
  if (ts.open_holds.size() >= kMaxOpenHolds) {
    // Full table: drop this grant (its release will count as unmatched)
    // rather than evicting an older hold into a silently wrong pairing.
    ts.pending_site = -1;
    return;
  }
  ts.open_holds.push_back(OpenHold{e.instance, e.ts_ns, e.txn,
                                   e.mode, ts.pending_site});
  ts.pending_site = -1;
}

void close_hold_on_release(ThreadState& ts, const Event& e) {
  for (std::size_t i = ts.open_holds.size(); i > 0; --i) {
    OpenHold& h = ts.open_holds[i - 1];
    if (h.instance != e.instance || h.mode != e.mode) continue;
    const std::uint64_t hold_ns = e.ts_ns > h.ts_ns ? e.ts_ns - h.ts_ns : 0;
    const HoldSample sample{hold_ns, h.instance, h.mode, h.txn, h.site};
    ts.open_holds.erase(ts.open_holds.begin() +
                        static_cast<std::ptrdiff_t>(i - 1));
    std::lock_guard<util::Spinlock> g(ts.metrics_lock);
    ts.metrics.hold_hist.add(hold_ns);
    ts.metrics.top_holds.add(sample);
    ts.metrics.holds_paired += 1;
    return;
  }
  std::lock_guard<util::Spinlock> g(ts.metrics_lock);
  ts.metrics.holds_unmatched += 1;
}

}  // namespace

void emit(EventType type, const void* instance, int mode) {
  ThreadState& ts = thread_state();
  EventRing* ring = ts.ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new EventRing(ring_capacity());
    ts.ring.store(ring, std::memory_order_release);
  }
  Event e;
  e.ts_ns = runtime::steady_now_ns();
  e.instance = reinterpret_cast<std::uint64_t>(instance);
  e.txn = current_txn();
  e.type = type;
  e.mode = mode;
  ring->append(e);
  const auto ti = static_cast<std::size_t>(type);
  if (ti < kNumEventTypes) {
    // Owner-only writer: load+store, not an RMW (see event_count_totals).
    std::atomic<std::uint64_t>& c = ts.event_counts[ti];
    c.store(c.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }
  switch (type) {
    case EventType::kAcquireGrant:
    case EventType::kOptimisticHit:
      open_hold_on_grant(ts, e);
      break;
    case EventType::kRelease:
      close_hold_on_release(ts, e);
      break;
    default:
      break;
  }
  // The lock-path poll point for on-demand snapshots: any tracing thread
  // between events (never inside an obs lock) claims pending requests.
  if (g_snapshot_requests.load(std::memory_order_relaxed) !=
      g_snapshot_claims.load(std::memory_order_relaxed)) [[unlikely]] {
    drain_snapshot_requests();
  }
}

void note_lock_site(std::int32_t site) noexcept {
  thread_state().pending_site = site;
}

std::array<std::uint64_t, kNumEventTypes> event_count_totals() {
  return Registry::instance().event_count_totals();
}

AcquireStats& thread_acquire_stats() { return thread_state().stats; }

std::uint64_t current_owner_id() noexcept {
  const std::uint64_t txn = detail::txn_tls().id;
  if (txn != 0) return txn;
  return 0x8000000000000000ull | thread_state().tid;
}

std::uint32_t thread_obs_tid() { return thread_state().tid; }

void record_span(const Span& s) {
  ThreadState& ts = thread_state();
  Ring<Span>* ring = ts.span_ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new Ring<Span>(span_ring_capacity());
    ts.span_ring.store(ring, std::memory_order_release);
  }
  Span stamped = s;
  stamped.tid = ts.tid;
  ring->append(stamped);
}

void record_blocked_by(const void* instance, int waiter_mode,
                       int holder_mode) {
  ThreadState& ts = thread_state();
  std::lock_guard<util::Spinlock> g(ts.metrics_lock);
  InstanceAccum& acc =
      ts.metrics.instances[reinterpret_cast<std::uint64_t>(instance)];
  acc.contended += 1;
  acc.blocked_by[pack_pair(waiter_mode, holder_mode)] += 1;
}

void record_wait(const void* instance, int mode, std::uint64_t wait_ns) {
  ThreadState& ts = thread_state();
  std::lock_guard<util::Spinlock> g(ts.metrics_lock);
  InstanceAccum& acc =
      ts.metrics.instances[reinterpret_cast<std::uint64_t>(instance)];
  acc.waits += 1;
  acc.wait_ns += wait_ns;
  ts.metrics.wait_hist.add(wait_ns);
  ts.metrics.top_waits.add(WaitSample{
      wait_ns, reinterpret_cast<std::uint64_t>(instance),
      static_cast<std::int32_t>(mode)});
}

void record_attribution_tally(const void* instance, int waiter_mode,
                              int holder_mode, std::uint32_t attr_class) {
  if (attr_class >= kNumAttrClasses) return;
  ThreadState& ts = thread_state();
  std::lock_guard<util::Spinlock> g(ts.metrics_lock);
  InstanceAccum& acc =
      ts.metrics.instances[reinterpret_cast<std::uint64_t>(instance)];
  acc.attr_classes[attr_class] += 1;
  ts.metrics.attr_pairs[pack_pair(waiter_mode, holder_mode)][attr_class] += 1;
}

// --- snapshots and dumps ----------------------------------------------------

std::vector<ThreadTrace> snapshot_traces() {
  return Registry::instance().snapshot_traces();
}

std::vector<ThreadSpans> snapshot_spans() {
  return Registry::instance().snapshot_spans();
}

MetricsSnapshot collect_metrics() {
  return Registry::instance().collect(&thread_state());
}

// Defined here (declared in export.h) so the exit-time dump path never
// constructs thread-local state: after main's TLS destructors have run,
// touching thread_state() again would re-register a handle mid-exit. The
// caller's own live AcquireStats is therefore not in the dump's metrics —
// exact totals come from retired threads, which at exit is everyone.
TraceDump capture() {
  TraceDump dump;
  dump.threads = Registry::instance().snapshot_traces();
  dump.metrics = Registry::instance().collect(nullptr);
  dump.spans = snapshot_spans();
  return dump;
}

std::string stall_forensics(
    const void* instance, int waited_mode,
    const std::vector<std::pair<int, std::uint32_t>>& conflicting_holders,
    std::size_t tail_events) {
  const std::uint64_t inst = reinterpret_cast<std::uint64_t>(instance);
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "stall forensics: instance 0x%llx, waited mode %d\n",
                static_cast<unsigned long long>(inst), waited_mode);
  out += buf;

  const std::vector<ThreadTrace> traces = snapshot_traces();

  // Per held mode: the holder count the watchdog sampled, plus the
  // transaction that most recently acquired that mode on this instance
  // (latest grant/optimistic-hit event across all rings).
  out += "  held conflicting modes:\n";
  if (conflicting_holders.empty()) {
    out += "    (none sampled — holders drained between poll and dump)\n";
  }
  for (const auto& [mode, holders] : conflicting_holders) {
    std::uint64_t last_txn = 0;
    std::uint64_t last_ts = 0;
    std::uint32_t last_tid = 0;
    for (const ThreadTrace& t : traces) {
      for (const Event& e : t.events) {
        if (e.instance != inst || e.mode != mode) continue;
        if (e.type != EventType::kAcquireGrant &&
            e.type != EventType::kOptimisticHit) {
          continue;
        }
        if (e.ts_ns >= last_ts) {
          last_ts = e.ts_ns;
          last_txn = e.txn;
          last_tid = t.tid;
        }
      }
    }
    std::snprintf(buf, sizeof(buf), "    mode %d: holders=%u", mode, holders);
    out += buf;
    if (last_ts != 0) {
      std::snprintf(buf, sizeof(buf),
                    ", last acquired by txn %llu (thread %u)",
                    static_cast<unsigned long long>(last_txn), last_tid);
      out += buf;
    } else {
      out += ", no acquire event retained";
    }
    out += '\n';
  }

  // The tail of each ring, filtered to this instance: what happened here
  // most recently, per thread, oldest first.
  out += "  recent events for this instance:\n";
  bool any = false;
  for (const ThreadTrace& t : traces) {
    std::vector<const Event*> hits;
    for (const Event& e : t.events) {
      if (e.instance == inst) hits.push_back(&e);
    }
    if (hits.empty()) continue;
    any = true;
    const std::size_t keep = hits.size() < tail_events ? hits.size()
                                                       : tail_events;
    for (std::size_t i = hits.size() - keep; i < hits.size(); ++i) {
      const Event& e = *hits[i];
      std::snprintf(buf, sizeof(buf),
                    "    [thread %u%s] ts=%llu %s mode=%d txn=%llu\n", t.tid,
                    t.live ? "" : " exited",
                    static_cast<unsigned long long>(e.ts_ns),
                    event_name(e.type), e.mode,
                    static_cast<unsigned long long>(e.txn));
      out += buf;
    }
  }
  if (!any) out += "    (no events retained for this instance)\n";
  return out;
}

bool write_dump(const std::string& path) {
  std::string error;
  if (!write_dump_file(capture(), path, &error)) {
    std::fprintf(stderr, "[semlock] trace dump failed: %s\n", error.c_str());
    return false;
  }
  return true;
}

// --- on-demand snapshots ----------------------------------------------------

void request_snapshot() noexcept {
  // Only the increment — everything else (file I/O, locks, allocation)
  // happens at the next emit() poll point, never in the signal handler.
  g_snapshot_requests.fetch_add(1, std::memory_order_release);
}

namespace {
extern "C" void snapshot_signal_handler(int) { request_snapshot(); }
}  // namespace

void install_snapshot_signal_handler() noexcept {
#if defined(SIGUSR1)
  std::signal(SIGUSR1, &snapshot_signal_handler);
#endif
}

std::uint32_t snapshots_written() noexcept {
  return g_snapshots_written.load(std::memory_order_relaxed);
}

void set_trace_file(const std::string& path) {
  Registry::instance().set_dump_path(path);
}

void reset_for_test() {
  Registry::instance().reset(&thread_state());
  detail::g_next_txn.store(0, std::memory_order_relaxed);
  detail::txn_tls() = detail::TxnTls{};
  // Drop un-drained snapshot requests (the written count stays monotonic so
  // earlier files are never overwritten) and the executed-ops evidence.
  g_snapshot_claims.store(g_snapshot_requests.load(std::memory_order_acquire),
                          std::memory_order_release);
  reset_executed_ops();
}

// --- process startup / exit -------------------------------------------------

namespace {

void dump_at_exit() {
  if (!runtime_enabled()) return;
  const std::string path = Registry::instance().dump_path();
  if (path.empty()) return;
  if (write_dump(path)) {
    std::fprintf(stderr, "[semlock] trace written to %s\n", path.c_str());
  }
}

// Reads the env knobs once at static-init time. The atexit handler is
// registered here, i.e. before main runs and therefore before main's
// thread_local TLS handles are constructed; main's TLS destructors run
// first at exit, so the dump sees main's events already retired.
struct TraceRuntimeInit {
  TraceRuntimeInit() {
    const TraceConfig cfg = TraceConfig::from_env();
    set_ring_capacity(cfg.ring_events);
    if (cfg.enabled) {
      Registry::instance().set_dump_path(cfg.file);
      set_runtime_enabled(true);
      install_snapshot_signal_handler();
      std::atexit(&dump_at_exit);
    }
  }
};

const TraceRuntimeInit g_trace_runtime_init;

}  // namespace

}  // namespace semlock::obs
