// The window collector and its seqlock ring. See window.h for the design.
#include "obs/window.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/wait_registry.h"
#include "util/env.h"

namespace semlock::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

// --- env knobs --------------------------------------------------------------

std::uint64_t metrics_window_ms_from_env_text(const char* text) {
  char fallback[48];
  std::snprintf(fallback, sizeof(fallback), "%llu ms",
                static_cast<unsigned long long>(kDefaultWindowMs));
  return static_cast<std::uint64_t>(
      util::env_int_in_range("SEMLOCK_METRICS_WINDOW_MS", text, 10, 60000,
                             fallback)
          .value_or(static_cast<long long>(kDefaultWindowMs)));
}

std::uint32_t metrics_windows_from_env_text(const char* text) {
  char fallback[48];
  std::snprintf(fallback, sizeof(fallback), "%u windows",
                kDefaultWindowSlots);
  return static_cast<std::uint32_t>(
      util::env_int_in_range("SEMLOCK_METRICS_WINDOWS", text, 2, 128,
                             fallback)
          .value_or(kDefaultWindowSlots));
}

// --- WindowStats ------------------------------------------------------------

double WindowStats::false_conflict_pct() const {
  std::uint64_t classified = 0;
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    classified += attr_classes[c];
  }
  classified -= attr_classes[static_cast<std::size_t>(AttrClass::kUnsampled)];
  if (classified == 0) return 0.0;
  const std::uint64_t artifacts =
      attr_classes[static_cast<std::size_t>(AttrClass::kPhiCollision)] +
      attr_classes[static_cast<std::size_t>(AttrClass::kModeOverapprox)] +
      attr_classes[static_cast<std::size_t>(AttrClass::kWrapperCoarsening)];
  return 100.0 * static_cast<double>(artifacts) /
         static_cast<double>(classified);
}

std::string WindowStats::to_json() const {
  std::string out = "{\"seq\": ";
  append_u64(out, seq);
  out += ", \"start_ns\": ";
  append_u64(out, start_ns);
  out += ", \"end_ns\": ";
  append_u64(out, end_ns);
  out += ", \"grants\": ";
  append_u64(out, grants);
  out += ", \"begins\": ";
  append_u64(out, begins);
  out += ", \"contended\": ";
  append_u64(out, contended);
  out += ", \"parks\": ";
  append_u64(out, parks);
  out += ", \"diverts\": ";
  append_u64(out, diverts);
  out += ", \"handoffs\": ";
  append_u64(out, handoffs);
  out += ", \"releases\": ";
  append_u64(out, releases);
  out += ", \"acquisitions_per_sec\": ";
  append_double(out, acquisitions_per_sec());
  out += ", \"false_conflict_pct\": ";
  append_double(out, false_conflict_pct());
  out += ", \"attribution\": {";
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    if (c > 0) out += ", ";
    out += '"';
    out += attr_class_key(static_cast<AttrClass>(c));
    out += "\": ";
    append_u64(out, attr_classes[c]);
  }
  out += "}, \"waits\": ";
  append_u64(out, wait_hist.count());
  out += ", \"wait_p50_ns\": ";
  append_u64(out, wait_hist.p50());
  out += ", \"wait_p99_ns\": ";
  append_u64(out, wait_hist.p99());
  out += ", \"wait_p999_ns\": ";
  append_u64(out, wait_hist.p999());
  out += ", \"holds_paired\": ";
  append_u64(out, holds_paired);
  out += ", \"hold_p50_ns\": ";
  append_u64(out, hold_hist.p50());
  out += ", \"hold_p99_ns\": ";
  append_u64(out, hold_hist.p99());
  out += ", \"hold_p999_ns\": ";
  append_u64(out, hold_hist.p999());
  out += '}';
  return out;
}

// --- the seqlock ring -------------------------------------------------------

namespace {

// Fixed word layout of one published WindowStats. The histogram counts are
// recomputed from the buckets on decode (Log2Histogram::load), so only the
// buckets and totals travel.
constexpr std::size_t kHistWords = util::Log2Histogram::kBuckets + 1;
constexpr std::size_t kFixedWords = 3 /* seq,start,end */ +
                                    7 /* event deltas */ + kNumAttrClasses;
constexpr std::size_t kPayloadWords = kFixedWords + 2 * kHistWords +
                                      1 /* holds_paired */;

}  // namespace

// Same protocol as PR 5's AttrRecord (obs/attribution.h): the version word
// goes even->odd, the payload words are relaxed atomic stores (so a racing
// reader is exact under TSan), then even again with release; readers
// validate by re-reading the version across an acquire fence. Single
// writer here (the collector), so the odd transition is a plain store, not
// a CAS.
struct WindowedMetrics::Slot {
  std::atomic<std::uint64_t> version{0};  // 0 = never written
  std::atomic<std::uint64_t> words[kPayloadWords] = {};
};

struct WindowedMetrics::Baseline {
  std::array<std::uint64_t, kNumEventTypes> events{};
  std::uint64_t attr_classes[kNumAttrClasses] = {};
  util::Log2Histogram wait_hist;
  util::Log2Histogram hold_hist;
  std::uint64_t holds_paired = 0;
  std::uint64_t window_start_ns = 0;

  // The collector's sleep/stop handshake lives with the baseline so the
  // header stays free of <mutex>.
  std::mutex mu;
  std::condition_variable cv;
};

WindowedMetrics::WindowedMetrics(std::uint32_t slots, std::uint64_t window_ms)
    : nslots_(slots < 2 ? 2 : slots),
      window_ms_(window_ms < 1 ? 1 : window_ms),
      ring_(new Slot[nslots_]),
      base_(new Baseline) {
  base_->window_start_ns = runtime::steady_now_ns();
}

WindowedMetrics::~WindowedMetrics() { stop(); }

namespace {

struct CumulativeSample {
  std::array<std::uint64_t, kNumEventTypes> events;
  std::uint64_t attr_classes[kNumAttrClasses] = {};
  util::Log2Histogram wait_hist;
  util::Log2Histogram hold_hist;
  std::uint64_t holds_paired = 0;
};

CumulativeSample take_sample() {
  CumulativeSample s;
  s.events = event_count_totals();
  const MetricsSnapshot m = collect_metrics();
  for (const AttributionCell& cell : m.attribution) {
    for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
      s.attr_classes[c] += cell.counts[c];
    }
  }
  s.wait_hist = m.wait_hist;
  s.hold_hist = m.hold_hist;
  s.holds_paired = m.holds_paired;
  return s;
}

std::uint64_t ev(const std::array<std::uint64_t, kNumEventTypes>& a,
                 EventType t) {
  return a[static_cast<std::size_t>(t)];
}

std::uint64_t sub_sat(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

void WindowedMetrics::rotate_now() {
  drain_reset_requests();
  const CumulativeSample cur = take_sample();
  const std::uint64_t end = runtime::steady_now_ns();

  WindowStats w;
  w.seq = next_seq_.load(std::memory_order_relaxed) + 1;
  w.start_ns = base_->window_start_ns;
  w.end_ns = end;
  const auto d = [&](EventType t) {
    return sub_sat(ev(cur.events, t),
                   base_->events[static_cast<std::size_t>(t)]);
  };
  w.grants = d(EventType::kAcquireGrant) + d(EventType::kOptimisticHit);
  w.begins = d(EventType::kAcquireBegin);
  w.contended = d(EventType::kContendedWait);
  w.parks = d(EventType::kPark);
  w.diverts = d(EventType::kBarrierDivert);
  w.handoffs = d(EventType::kGrantHandoff);
  w.releases = d(EventType::kRelease);
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    w.attr_classes[c] = sub_sat(cur.attr_classes[c], base_->attr_classes[c]);
  }
  w.wait_hist = cur.wait_hist.delta(base_->wait_hist);
  w.hold_hist = cur.hold_hist.delta(base_->hold_hist);
  w.holds_paired = sub_sat(cur.holds_paired, base_->holds_paired);

  publish(w);

  base_->events = cur.events;
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    base_->attr_classes[c] = cur.attr_classes[c];
  }
  base_->wait_hist = cur.wait_hist;
  base_->hold_hist = cur.hold_hist;
  base_->holds_paired = cur.holds_paired;
  base_->window_start_ns = end;
  next_seq_.store(w.seq, std::memory_order_release);
}

void WindowedMetrics::reset_window() {
  const CumulativeSample cur = take_sample();
  base_->events = cur.events;
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
    base_->attr_classes[c] = cur.attr_classes[c];
  }
  base_->wait_hist = cur.wait_hist;
  base_->hold_hist = cur.hold_hist;
  base_->holds_paired = cur.holds_paired;
  base_->window_start_ns = runtime::steady_now_ns();
  resets_.fetch_add(1, std::memory_order_relaxed);
}

void WindowedMetrics::publish(const WindowStats& w) {
  Slot& slot = ring_[static_cast<std::size_t>(w.seq % nslots_)];
  const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::size_t i = 0;
  const auto put = [&](std::uint64_t value) {
    slot.words[i++].store(value, std::memory_order_relaxed);
  };
  put(w.seq);
  put(w.start_ns);
  put(w.end_ns);
  put(w.grants);
  put(w.begins);
  put(w.contended);
  put(w.parks);
  put(w.diverts);
  put(w.handoffs);
  put(w.releases);
  for (std::size_t c = 0; c < kNumAttrClasses; ++c) put(w.attr_classes[c]);
  for (std::size_t b = 0; b < util::Log2Histogram::kBuckets; ++b) {
    put(w.wait_hist.bucket(b));
  }
  put(w.wait_hist.total());
  for (std::size_t b = 0; b < util::Log2Histogram::kBuckets; ++b) {
    put(w.hold_hist.bucket(b));
  }
  put(w.hold_hist.total());
  put(w.holds_paired);
  slot.version.store(v + 2, std::memory_order_release);
}

std::vector<WindowStats> WindowedMetrics::snapshot() const {
  std::vector<WindowStats> out;
  out.reserve(nslots_);
  for (std::uint32_t s = 0; s < nslots_; ++s) {
    const Slot& slot = ring_[s];
    const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0) continue;  // never written
    if ((v1 & 1) != 0) {    // collector mid-publish
      torn_reads_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    WindowStats w;
    std::size_t i = 0;
    const auto get = [&] {
      return slot.words[i++].load(std::memory_order_relaxed);
    };
    w.seq = get();
    w.start_ns = get();
    w.end_ns = get();
    w.grants = get();
    w.begins = get();
    w.contended = get();
    w.parks = get();
    w.diverts = get();
    w.handoffs = get();
    w.releases = get();
    for (std::size_t c = 0; c < kNumAttrClasses; ++c) {
      w.attr_classes[c] = get();
    }
    std::uint64_t buckets[util::Log2Histogram::kBuckets];
    for (std::uint64_t& b : buckets) b = get();
    w.wait_hist.load(buckets, get());
    for (std::uint64_t& b : buckets) b = get();
    w.hold_hist.load(buckets, get());
    w.holds_paired = get();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v1) {
      torn_reads_.fetch_add(1, std::memory_order_relaxed);
      continue;  // rotated under us — skip rather than misreport
    }
    out.push_back(std::move(w));
  }
  std::sort(out.begin(), out.end(),
            [](const WindowStats& a, const WindowStats& b) {
              return a.seq > b.seq;
            });
  return out;
}

std::string WindowedMetrics::to_json() const {
  std::string out = "{\"window_ms\": ";
  append_u64(out, window_ms_);
  out += ", \"slots\": ";
  append_u64(out, nslots_);
  out += ", \"rotations\": ";
  append_u64(out, rotations());
  out += ", \"torn_reads\": ";
  append_u64(out, torn_reads());
  out += ", \"resets\": ";
  append_u64(out, resets());
  out += ", \"windows\": [";
  const std::vector<WindowStats> windows = snapshot();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) out += ", ";
    out += windows[i].to_json();
  }
  out += "]}";
  return out;
}

// --- collector thread -------------------------------------------------------

void WindowedMetrics::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;  // already running
  }
  stop_requested_.store(false, std::memory_order_release);
  base_->window_start_ns = runtime::steady_now_ns();
  install_window_reset_signal_handler();
  collector_ = std::thread([this] { collector_loop(); });
}

void WindowedMetrics::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> g(base_->mu);
    stop_requested_.store(true, std::memory_order_release);
  }
  base_->cv.notify_all();
  if (collector_.joinable()) collector_.join();
  running_.store(false, std::memory_order_release);
}

void WindowedMetrics::collector_loop() {
  std::unique_lock<std::mutex> lk(base_->mu);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    base_->cv.wait_for(lk, std::chrono::milliseconds(window_ms_), [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
    if (stop_requested_.load(std::memory_order_acquire)) break;
    lk.unlock();
    rotate_now();
    lk.lock();
  }
}

// --- SIGUSR2 window reset ---------------------------------------------------

namespace {

// Pending vs. claimed reset requests: the signal handler only increments
// (async-signal-safe); the collector's tick drains the gap. Same pattern as
// the SIGUSR1 snapshot counters in trace.cpp.
std::atomic<std::uint32_t> g_reset_requests{0};
std::atomic<std::uint32_t> g_reset_claims{0};
std::atomic<std::uint32_t> g_resets_done{0};

extern "C" void window_reset_signal_handler(int) { request_window_reset(); }

}  // namespace

void request_window_reset() noexcept {
  g_reset_requests.fetch_add(1, std::memory_order_release);
}

void install_window_reset_signal_handler() noexcept {
#if defined(SIGUSR2)
  std::signal(SIGUSR2, &window_reset_signal_handler);
#endif
}

std::uint32_t window_resets() noexcept {
  return g_resets_done.load(std::memory_order_relaxed);
}

void WindowedMetrics::drain_reset_requests() {
  const std::uint32_t pending =
      g_reset_requests.load(std::memory_order_acquire);
  std::uint32_t claimed = g_reset_claims.load(std::memory_order_relaxed);
  if (claimed >= pending) return;
  // Claim every pending request with one reset: N rapid SIGUSR2s mean "drop
  // the partial window", not "reset N times".
  if (!g_reset_claims.compare_exchange_strong(claimed, pending,
                                              std::memory_order_acq_rel)) {
    return;  // another collector instance took them
  }
  reset_window();
  g_resets_done.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "[semlock] window baseline reset (SIGUSR2)\n");
}

// --- process-wide collector -------------------------------------------------

WindowedMetrics& global_windows() {
  // Leaky for the same reason as the trace registry: scrapers may race
  // static destruction at exit.
  static WindowedMetrics* w = new WindowedMetrics(
      metrics_windows_from_env_text(std::getenv("SEMLOCK_METRICS_WINDOWS")),
      metrics_window_ms_from_env_text(
          std::getenv("SEMLOCK_METRICS_WINDOW_MS")));
  return *w;
}

void start_window_collector_from_env() { global_windows().start(); }

}  // namespace semlock::obs
