// Causal transaction tracing (ISSUE 10): the per-thread span recorder and
// its SEMLOCK_SPANS gate, blocker-identity capture on contended waits, the
// live wait-for graph (snapshot / cycles / JSON / DOT / chain), the v5 dump
// round-trip with v4 back-compat, the tail critical-path analyzer, the
// offline blocker reconstruction, and the Chrome flow events binding a
// waiter's parked slice to the release that woke it. Only built with
// SEMLOCK_OBS (the default).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "commute/builtin_specs.h"
#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"

namespace semlock {
namespace {

using commute::op;
using commute::SymbolicSet;
using commute::Value;
using obs::Span;
using obs::SpanKind;

ModeTable make_traced_table() {
  ModeTableConfig c;
  c.abstract_values = 4;
  c.wait_policy = runtime::WaitPolicyKind::AlwaysPark;
  c.trace_events = true;
  return ModeTable::compile(
      commute::set_spec(),
      {SymbolicSet({op("add", {commute::var("v")}),
                    op("remove", {commute::var("v")})}),
       SymbolicSet({op("size"), op("clear")})},
      c);
}

std::vector<Span> all_spans() {
  std::vector<Span> out;
  for (const obs::ThreadSpans& t : obs::snapshot_spans()) {
    out.insert(out.end(), t.spans.begin(), t.spans.end());
  }
  return out;
}

TEST(Span, MetaPackRoundTripsSignedModes) {
  Span s;
  s.kind = SpanKind::kLockWait;
  s.mode = -7;
  s.blocker_mode = 12345;
  s.attr_class = 3;
  Span back;
  obs::span_unpack_meta(obs::span_pack_meta(s), back);
  EXPECT_EQ(back.kind, SpanKind::kLockWait);
  EXPECT_EQ(back.mode, -7);
  EXPECT_EQ(back.blocker_mode, 12345);
  EXPECT_EQ(back.attr_class, 3u);
}

TEST(Span, KindNamesAreStable) {
  EXPECT_STREQ(obs::span_kind_name(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(obs::span_kind_name(SpanKind::kLockWait), "lock_wait");
  EXPECT_STREQ(obs::span_kind_name(SpanKind::kExec), "exec");
  EXPECT_STREQ(obs::span_kind_name(SpanKind::kCommit), "commit");
}

TEST(Span, RingWrapsOverwritingOldest) {
  obs::set_span_ring_capacity(64);
  obs::reset_for_test();  // drop this thread's ring so the new capacity
                          // applies to the next record
  constexpr int kTotal = 200;
  for (int i = 0; i < kTotal; ++i) {
    Span s;
    s.start_ns = static_cast<std::uint64_t>(i);
    s.end_ns = static_cast<std::uint64_t>(i) + 1;
    s.kind = SpanKind::kExec;
    s.txn = 1;
    obs::record_span(s);
  }
  const std::vector<Span> got = all_spans();
  // Same retention contract as the event ring: the last `capacity` spans
  // minus the one torn-slot guard, oldest first.
  ASSERT_EQ(got.size(), 63u);
  EXPECT_EQ(got.front().start_ns, static_cast<std::uint64_t>(kTotal - 63));
  EXPECT_EQ(got.back().start_ns, static_cast<std::uint64_t>(kTotal - 1));
  obs::set_span_ring_capacity(obs::kDefaultSpanRingCapacity);
  obs::reset_for_test();
}

TEST(Span, EnvTextParserIsStrictAndDefaultsOn) {
  EXPECT_TRUE(obs::spans_enabled_from_env_text(nullptr));
  EXPECT_FALSE(obs::spans_enabled_from_env_text("0"));
  EXPECT_TRUE(obs::spans_enabled_from_env_text("1"));
  // Malformed text falls back to on (warn-once is a side channel).
  EXPECT_TRUE(obs::spans_enabled_from_env_text("2"));
  EXPECT_TRUE(obs::spans_enabled_from_env_text("yes"));
  EXPECT_TRUE(obs::spans_enabled_from_env_text(""));
}

TEST(Span, TransactionRecordsExecAndCommitOnlyWhenEnabled) {
  obs::reset_for_test();
  obs::ScopedTraceEnable trace_on;

  obs::set_spans_enabled(false);
  { Transaction txn; }
  EXPECT_TRUE(all_spans().empty());

  obs::set_spans_enabled(true);
  const auto t = make_traced_table();
  SemanticLock lk(t);
  std::uint64_t txn_id = 0;
  {
    Transaction txn;
    txn.lv_mode(&lk, t.resolve_constant(1));
    txn_id = obs::current_txn();
  }
  const std::vector<Span> spans = all_spans();
  std::size_t execs = 0, commits = 0;
  for (const Span& s : spans) {
    if (s.txn != txn_id) continue;
    if (s.kind == SpanKind::kExec) {
      ++execs;
      EXPECT_EQ(s.mode, 1);  // one instance released by unlock_all
      EXPECT_LE(s.start_ns, s.end_ns);
    }
    if (s.kind == SpanKind::kCommit) {
      ++commits;
      EXPECT_LE(s.start_ns, s.end_ns);
    }
  }
  EXPECT_EQ(execs, 1u);
  EXPECT_EQ(commits, 1u);
}

TEST(Span, QueueWaitSpanCarriesTxnAndWindow) {
  obs::reset_for_test();
  obs::ScopedTraceEnable trace_on;
  obs::record_queue_wait_span(42, 1000, 5000);
  const std::vector<Span> spans = all_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kQueueWait);
  EXPECT_EQ(spans[0].txn, 42u);
  EXPECT_EQ(spans[0].start_ns, 1000u);
  EXPECT_EQ(spans[0].end_ns, 5000u);
  EXPECT_EQ(spans[0].instance, 0u);
}

TEST(Span, FormatOwnerRendersBothIdSpaces) {
  EXPECT_EQ(obs::format_owner(12), "txn 12");
  EXPECT_EQ(obs::format_owner(0x8000000000000000ull | 3), "thread 3");
  EXPECT_EQ(obs::format_owner(0), "?");
}

// The tentpole wiring end to end: a holder transaction keeps a conflicting
// mode while a waiter blocks. While blocked, the live wait-for graph names
// the waiter -> holder edge (and the watchdog chain renders it); after the
// grant, the waiter's lock-wait span carries the holder's identity.
TEST(Span, ContendedWaitCapturesBlockerIdentityAndWaitGraphEdge) {
  obs::reset_for_test();
  obs::set_attribution_enabled(true);
  const auto t = make_traced_table();
  SemanticLock lk(t);
  const Value v0[1] = {0};
  const int held = t.resolve(0, v0);
  const int starved = t.resolve_constant(1);
  ASSERT_FALSE(t.commutes(held, starved));
  const std::uint64_t instance =
      reinterpret_cast<std::uint64_t>(&lk.mechanism());

  Transaction holder;
  holder.lv_mode(&lk, held);
  const std::uint64_t holder_id = obs::current_txn();
  ASSERT_NE(holder_id, 0u);

  std::atomic<std::uint64_t> waiter_id{0};
  std::thread waiter([&] {
    Transaction txn;
    waiter_id.store(obs::current_txn(), std::memory_order_release);
    txn.lv_mode(&lk, starved);
  });

  // Wait until the waiter's edge shows up in the live graph.
  std::vector<obs::WaitGraphEdge> edges;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    edges = obs::snapshot_waitgraph();
    if (!edges.empty() && edges.front().blocker == holder_id) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.front().instance, instance);
  EXPECT_EQ(edges.front().mode, starved);
  EXPECT_EQ(edges.front().waiter,
            waiter_id.load(std::memory_order_acquire));
  EXPECT_EQ(edges.front().blocker, holder_id);
  EXPECT_GT(edges.front().since_ns, 0u);

  // The exposition formats render the same edge, cycle-free.
  EXPECT_TRUE(obs::waitgraph_cycles(edges).empty());
  const std::string json = obs::waitgraph_json();
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"schema\": \"semlock-waitgraph-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cycles\": []"), std::string::npos) << json;
  const std::string dot = obs::waitgraph_dot();
  EXPECT_NE(dot.find("digraph waitfor"), std::string::npos) << dot;
  EXPECT_NE(dot.find(obs::format_owner(holder_id)), std::string::npos)
      << dot;
  const std::string chain =
      obs::waitgraph_chain(waiter_id.load(std::memory_order_acquire));
  EXPECT_NE(chain.find("wait-for chain: "), std::string::npos) << chain;
  EXPECT_NE(chain.find(obs::format_owner(holder_id)), std::string::npos)
      << chain;

  holder.unlock_all();
  waiter.join();

  // The edge is gone once the wait is granted...
  EXPECT_TRUE(obs::snapshot_waitgraph().empty());
  EXPECT_EQ(obs::waitgraph_chain(waiter_id.load(std::memory_order_acquire)),
            "");

  // ...and the waiter's lock-wait span names the holder.
  bool saw_wait_span = false;
  for (const Span& s : all_spans()) {
    if (s.kind != SpanKind::kLockWait || s.instance != instance) continue;
    saw_wait_span = true;
    EXPECT_EQ(s.mode, starved);
    EXPECT_EQ(s.txn, waiter_id.load(std::memory_order_acquire));
    EXPECT_EQ(s.blocker, holder_id);
    EXPECT_EQ(s.blocker_mode, held);
    EXPECT_GT(s.capture_ns, 0u);
    EXPECT_LT(s.attr_class,
              static_cast<std::uint32_t>(obs::kNumAttrClasses));
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_TRUE(saw_wait_span);
  obs::set_attribution_enabled(false);
}

// Spans retire through the event layer's registry: a worker that ran a
// traced transaction and exited leaves a non-live span entry whose tid is
// the tid of that worker's events.
TEST(Span, ExitedThreadSpansRetireUnderItsEventTid) {
  obs::reset_for_test();
  obs::ScopedTraceEnable trace_on;
  const auto t = make_traced_table();
  SemanticLock lk(t);
  std::uint64_t txn_id = 0;
  std::thread worker([&] {
    Transaction txn;
    txn.lv_mode(&lk, t.resolve_constant(1));
    txn_id = obs::current_txn();
  });
  worker.join();
  ASSERT_NE(txn_id, 0u);

  // The worker's tid, from its (now retired) events.
  std::uint32_t worker_tid = 0;
  for (const obs::ThreadTrace& tt : obs::snapshot_traces()) {
    for (const obs::Event& e : tt.events) {
      if (e.txn == txn_id) {
        EXPECT_FALSE(tt.live);
        worker_tid = tt.tid;
      }
    }
  }
  ASSERT_NE(worker_tid, 0u);

  bool found = false;
  for (const obs::ThreadSpans& ts : obs::snapshot_spans()) {
    if (ts.live) continue;
    for (const Span& s : ts.spans) {
      if (s.txn != txn_id) continue;
      found = true;
      EXPECT_EQ(ts.tid, worker_tid);
      EXPECT_EQ(s.tid, worker_tid);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WaitGraph, CycleDetectionFindsTheLoopAndSkipsTheTail) {
  // Synthetic functional graph: 7 -> 3 -> 5 -> 3-cycle start... actually
  // A(3) -> B(5) -> C(9) -> A(3) plus the acyclic feeder D(7) -> A(3).
  auto edge = [](std::uint64_t waiter, std::uint64_t blocker) {
    obs::WaitGraphEdge e;
    e.waiter = waiter;
    e.blocker = blocker;
    e.instance = 0xABC;
    e.mode = 1;
    return e;
  };
  const std::vector<obs::WaitGraphEdge> edges = {
      edge(5, 9), edge(3, 5), edge(9, 3), edge(7, 3)};
  const auto cycles = obs::waitgraph_cycles(edges);
  ASSERT_EQ(cycles.size(), 1u);
  // Rotated to start from the smallest owner id: 3 -> 5 -> 9.
  EXPECT_EQ(cycles[0], (std::vector<std::uint64_t>{3, 5, 9}));

  // No cycle without the back edge.
  const std::vector<obs::WaitGraphEdge> acyclic = {
      edge(5, 9), edge(3, 5), edge(7, 3)};
  EXPECT_TRUE(obs::waitgraph_cycles(acyclic).empty());
}

TEST(SpanDump, V5RoundTripsSpansThroughFile) {
  obs::reset_for_test();
  obs::ScopedTraceEnable trace_on;
  Span s;
  s.start_ns = 100;
  s.end_ns = 900;
  s.txn = 7;
  s.instance = 0xBEEF;
  s.kind = SpanKind::kLockWait;
  s.mode = 2;
  s.blocker_mode = 3;
  s.attr_class = 2;
  s.blocker = 11;
  s.blocker_site = 42;
  s.capture_ns = 150;
  obs::record_span(s);

  const obs::TraceDump dump = obs::capture();
  ASSERT_FALSE(dump.spans.empty());
  const std::string path = testing::TempDir() + "/semlock_span_rt.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;
  obs::TraceDump loaded;
  ASSERT_TRUE(obs::load_dump_file(path, loaded, &error)) << error;

  ASSERT_EQ(loaded.spans.size(), dump.spans.size());
  bool found = false;
  for (const obs::ThreadSpans& t : loaded.spans) {
    for (const Span& got : t.spans) {
      if (got.txn != 7) continue;
      found = true;
      EXPECT_EQ(got.start_ns, 100u);
      EXPECT_EQ(got.end_ns, 900u);
      EXPECT_EQ(got.instance, 0xBEEFu);
      EXPECT_EQ(got.kind, SpanKind::kLockWait);
      EXPECT_EQ(got.mode, 2);
      EXPECT_EQ(got.blocker_mode, 3);
      EXPECT_EQ(got.attr_class, 2u);
      EXPECT_EQ(got.blocker, 11u);
      EXPECT_EQ(got.blocker_site, 42);
      EXPECT_EQ(got.capture_ns, 150u);
      EXPECT_EQ(got.tid, obs::thread_obs_tid());
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

// A v5 dump with no span sections is byte-identical to a v4 dump plus a
// trailing zero span-thread count — so rewriting the version field and
// truncating those 4 bytes manufactures a genuine v4 file, which must still
// load (with empty spans). A version from the future must not.
TEST(SpanDump, V4FilesStillLoadAndFutureVersionsAreRejected) {
  obs::reset_for_test();
  obs::TraceDump dump;
  obs::ThreadTrace tt;
  tt.tid = 1;
  obs::Event e;
  e.ts_ns = 10;
  e.instance = 0xA;
  e.type = obs::EventType::kMark;
  e.mode = 0;
  tt.events.push_back(e);
  dump.threads.push_back(tt);

  const std::string path = testing::TempDir() + "/semlock_span_v4.bin";
  std::string error;
  ASSERT_TRUE(obs::write_dump_file(dump, path, &error)) << error;

  // Read the v5 bytes back.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  ASSERT_GT(bytes.size(), 16u);
  // Trailing u32 is the empty span-thread count.
  ASSERT_EQ(bytes.substr(bytes.size() - 4), std::string(4, '\0'));

  auto write_variant = [&](std::uint32_t version, bool drop_span_count) {
    std::string v = bytes;
    std::memcpy(&v[8], &version, sizeof(version));  // version follows magic
    if (drop_span_count) v.resize(v.size() - 4);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(v.data(), 1, v.size(), out), v.size());
    std::fclose(out);
  };

  write_variant(4, true);
  obs::TraceDump v4;
  ASSERT_TRUE(obs::load_dump_file(path, v4, &error)) << error;
  EXPECT_TRUE(v4.spans.empty());
  ASSERT_EQ(v4.threads.size(), 1u);
  EXPECT_EQ(v4.threads[0].events.size(), 1u);

  write_variant(6, false);
  obs::TraceDump v6;
  EXPECT_FALSE(obs::load_dump_file(path, v6, &error));
  EXPECT_NE(error.find("unsupported dump version"), std::string::npos);
  std::remove(path.c_str());
}

// Synthetic dump for the analyzer: ten ~100ns transactions and one 10x
// outlier that spent most of its time blocked on a phi collision.
obs::TraceDump make_tail_dump() {
  obs::TraceDump dump;
  obs::ThreadSpans ts;
  ts.tid = 1;
  auto add = [&](std::uint64_t txn, SpanKind kind, std::uint64_t start,
                 std::uint64_t end) -> Span& {
    Span s;
    s.txn = txn;
    s.kind = kind;
    s.start_ns = start;
    s.end_ns = end;
    ts.spans.push_back(s);
    return ts.spans.back();
  };
  for (std::uint64_t i = 1; i <= 10; ++i) {
    add(i, SpanKind::kExec, i * 1000, i * 1000 + 90 + i);
    add(i, SpanKind::kCommit, i * 1000 + 90 + i, i * 1000 + 100 + i);
  }
  // txn 11: latency 10100ns, 8900ns of it blocked on 0xABC mode 2 by txn 1.
  add(11, SpanKind::kExec, 20000, 30000);
  add(11, SpanKind::kCommit, 30000, 30100);
  Span& w = add(11, SpanKind::kLockWait, 20100, 29000);
  w.instance = 0xABC;
  w.mode = 2;
  w.blocker = 1;
  w.blocker_mode = 3;
  w.attr_class = static_cast<std::uint32_t>(obs::AttrClass::kPhiCollision);
  w.capture_ns = 20200;
  dump.spans.push_back(ts);
  return dump;
}

TEST(CriticalPath, NamesTheTailGroupAndItsShare) {
  const obs::TraceDump dump = make_tail_dump();
  const obs::CriticalPathStats stats = obs::analyze_critical_paths(dump);
  EXPECT_EQ(stats.txns, 11u);
  ASSERT_GE(stats.tail_txns, 1u);
  EXPECT_GT(stats.p99_threshold_ns, 0u);
  ASSERT_FALSE(stats.groups.empty());
  const obs::TailGroup& g = stats.groups.front();
  EXPECT_EQ(g.instance, 0xABCu);
  EXPECT_EQ(g.mode, 2);
  EXPECT_EQ(g.attr_class,
            static_cast<std::uint32_t>(obs::AttrClass::kPhiCollision));
  EXPECT_EQ(g.blocked_ns, 8900u);
  EXPECT_EQ(g.waits, 1u);
  EXPECT_GT(g.share_of_tail_latency, 0.0);
  EXPECT_LE(g.share_of_tail_latency, 1.0);

  // The worst chain starts from the outlier and names its blocker.
  ASSERT_FALSE(stats.chains.empty());
  EXPECT_NE(stats.chains.front().find("txn 11"), std::string::npos);
  EXPECT_NE(stats.chains.front().find("phi collision"), std::string::npos);
  EXPECT_NE(stats.chains.front().find("txn 1"), std::string::npos);

  // The acceptance headline: the report names at least one (instance,
  // mode, attribution class) group with its share of p99+ tail latency.
  const std::string report = obs::critical_path_report(dump);
  EXPECT_NE(report.find("0xabc mode 2 phi collision"), std::string::npos)
      << report;
  EXPECT_NE(report.find("% of p99+ tail latency"), std::string::npos)
      << report;
  EXPECT_NE(report.find("longest blocking chains"), std::string::npos)
      << report;
}

TEST(CriticalPath, EmptyDumpReportsGracefully) {
  obs::TraceDump dump;
  const obs::CriticalPathStats stats = obs::analyze_critical_paths(dump);
  EXPECT_EQ(stats.txns, 0u);
  EXPECT_NE(obs::critical_path_report(dump).find("no transactions"),
            std::string::npos);
}

TEST(CriticalPath, OfflineReconstructionFollowsLatestQualifyingGrant) {
  obs::TraceDump dump;
  // Event stream: txn 9 granted mode 3 at t=40, txn 7 granted mode 3 at
  // t=50 — the later one at or before the capture point wins. An unrelated
  // mode-1 grant and a post-capture grant must not.
  obs::ThreadTrace events;
  events.tid = 1;
  auto grant = [&](std::uint64_t ts, std::uint64_t txn, int mode) {
    obs::Event e;
    e.ts_ns = ts;
    e.instance = 0xABC;
    e.txn = txn;
    e.type = obs::EventType::kAcquireGrant;
    e.mode = mode;
    events.events.push_back(e);
  };
  grant(40, 9, 3);
  grant(50, 7, 3);
  grant(60, 8, 1);
  grant(200, 6, 3);
  dump.threads.push_back(events);

  obs::ThreadSpans spans;
  spans.tid = 2;
  Span w;
  w.txn = 2;
  w.kind = SpanKind::kLockWait;
  w.instance = 0xABC;
  w.mode = 2;
  w.blocker_mode = 3;
  w.blocker = 7;  // what the runtime captured online
  w.capture_ns = 100;
  w.start_ns = 30;
  w.end_ns = 300;
  spans.spans.push_back(w);
  dump.spans.push_back(spans);

  const auto recon = obs::reconstruct_blockers(dump);
  ASSERT_EQ(recon.size(), 1u);
  EXPECT_EQ(recon[0].waiter, 2u);
  EXPECT_EQ(recon[0].online, 7u);
  EXPECT_EQ(recon[0].offline, 7u);

  // A bare-mechanism grant (txn == 0) reconstructs to the emitting
  // thread's sentinel — the same owner-id space the online capture uses.
  dump.threads[0].events[1].txn = 0;
  dump.spans[0].spans[0].blocker = 0x8000000000000000ull | 1;
  const auto recon2 = obs::reconstruct_blockers(dump);
  ASSERT_EQ(recon2.size(), 1u);
  EXPECT_EQ(recon2[0].offline, 0x8000000000000000ull | 1);
  EXPECT_EQ(recon2[0].online, recon2[0].offline);
}

TEST(ChromeExport, FlowEventsBindParkedSliceToItsWakingRelease) {
  obs::TraceDump dump;
  // Holder (tid 1): grant then release of mode 3 on instance 0xA.
  obs::ThreadTrace holder;
  holder.tid = 1;
  obs::Event e;
  e.instance = 0xA;
  e.txn = 5;
  e.ts_ns = 100;
  e.type = obs::EventType::kAcquireGrant;
  e.mode = 3;
  holder.events.push_back(e);
  e.ts_ns = 400;
  e.type = obs::EventType::kRelease;
  holder.events.push_back(e);
  dump.threads.push_back(holder);
  // Waiter (tid 2): parked on the same instance across that release.
  obs::ThreadTrace waiter;
  waiter.tid = 2;
  e.txn = 6;
  e.mode = 2;
  e.ts_ns = 150;
  e.type = obs::EventType::kPark;
  waiter.events.push_back(e);
  e.ts_ns = 450;
  e.type = obs::EventType::kUnpark;
  waiter.events.push_back(e);
  dump.threads.push_back(waiter);

  const std::string json = obs::to_chrome_json(dump);
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error << "\n" << json;
  // One flow: "s" on the releasing holder's track, "f" (bp:"e") landing on
  // the waiter's unpark, sharing id 1.
  EXPECT_NE(json.find("\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                      "\"ph\": \"s\", \"id\": 1, \"pid\": 1, \"tid\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"unblocked-by\", \"cat\": \"semlock\", "
                      "\"ph\": \"f\", \"bp\": \"e\", \"id\": 1, "
                      "\"pid\": 1, \"tid\": 2"),
            std::string::npos)
      << json;

  // No flow when the release happens outside the parked window.
  obs::TraceDump no_wake = dump;
  no_wake.threads[0].events[1].ts_ns = 500;  // release after the unpark
  const std::string json2 = obs::to_chrome_json(no_wake);
  EXPECT_TRUE(obs::validate_json(json2, &error)) << error;
  EXPECT_EQ(json2.find("unblocked-by"), std::string::npos) << json2;
}

}  // namespace
}  // namespace semlock
