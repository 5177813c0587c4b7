// Shared scaffolding for the figure-regeneration benchmarks.
//
// Every binary prints the paper-figure header, an aligned table (rows =
// thread counts, columns = synchronization strategies) and the same data as
// CSV. Workload sizes scale with SEMLOCK_BENCH_SCALE (default 1; the paper's
// testbed ran 10M ops/thread on 32 cores — far beyond a CI container).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/compute_if_absent.h"
#include "runtime/grant_policy.h"
#include "runtime/wait_policy.h"
#include "semlock/lock_mechanism.h"
#include "util/stats.h"

#if defined(SEMLOCK_OBS)
#include "obs/metrics.h"
#include "obs/trace.h"
#endif

namespace semlock::bench {

inline double scale_factor() {
  const char* env = std::getenv("SEMLOCK_BENCH_SCALE");
  if (!env) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline std::vector<std::size_t> default_threads() {
  return {1, 2, 4, 8, 16, 32};
}

inline void print_figure_header(const std::string& figure,
                                const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("hardware threads available: %u (paper: 32 physical cores)\n",
              std::thread::hardware_concurrency());
  std::printf("scale factor: %.2f (set SEMLOCK_BENCH_SCALE to change)\n",
              scale_factor());
  std::printf("==============================================================\n");
}

inline void print_results(const util::SeriesTable& table) {
  std::printf("%s\ncsv:\n%s\n", table.to_table().c_str(),
              table.to_csv().c_str());
}

// Cross-thread aggregation of the thread-local AcquireStats, so benches can
// attribute throughput to the acquisition tier that produced it
// (docs/FAST_PATH.md): optimistic hits won lock-free, retracts paid for
// failed announcements, parks went through the ParkingLot. Workers call
// collect() (after reset() at thread start); the driver prints one line.
class AcquireTally {
 public:
  void collect(const AcquireStats& s) {
    acquisitions.fetch_add(s.acquisitions, std::memory_order_relaxed);
    contended.fetch_add(s.contended, std::memory_order_relaxed);
    parks.fetch_add(s.parks, std::memory_order_relaxed);
    optimistic_hits.fetch_add(s.optimistic_hits, std::memory_order_relaxed);
    retracts.fetch_add(s.retracts, std::memory_order_relaxed);
  }

  void print(const char* label) const {
    const std::uint64_t acq = acquisitions.load(std::memory_order_relaxed);
    const std::uint64_t hits = optimistic_hits.load(std::memory_order_relaxed);
    std::printf(
        "  [%s] acquisitions=%llu optimistic_hits=%llu (%.1f%%) "
        "retracts=%llu contended=%llu parks=%llu\n",
        label, static_cast<unsigned long long>(acq),
        static_cast<unsigned long long>(hits),
        acq > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(acq)
                : 0.0,
        static_cast<unsigned long long>(
            retracts.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            contended.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(parks.load(std::memory_order_relaxed)));
  }

  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> optimistic_hits{0};
  std::atomic<std::uint64_t> retracts{0};
};

// The wait-policy knob shared by every bench binary: `--wait-policy=NAME`
// on the command line wins, then SEMLOCK_WAIT_POLICY, then `fallback`.
// Unknown names abort with the list of valid ones (a silently ignored typo
// would quietly benchmark the wrong policy).
inline runtime::WaitPolicyKind wait_policy_from_args(
    int argc, char** argv,
    runtime::WaitPolicyKind fallback = runtime::default_wait_policy()) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--wait-policy=";
    if (arg.substr(0, kPrefix.size()) != kPrefix) continue;
    const auto parsed = runtime::parse_wait_policy(arg.substr(kPrefix.size()));
    if (!parsed) {
      std::fprintf(stderr,
                   "unknown wait policy '%s' (valid: spin-yield, "
                   "spin-then-park, always-park, futex-word)\n",
                   std::string(arg.substr(kPrefix.size())).c_str());
      std::exit(2);
    }
    return *parsed;
  }
  return fallback;
}

// What the artifact is allowed to claim about thread scaling. On one
// hardware thread every multi-thread series measures oversubscription, not
// scaling, so the stamp is "refused-single-core" and CI rejects artifacts
// that would be read as the paper's scaling figures. tools/run_benches.sh
// exports SEMLOCK_SCALING_CLAIMS to pin the stamp; unset, it derives from
// hardware_concurrency.
inline std::string scaling_claims() {
  const char* env = std::getenv("SEMLOCK_SCALING_CLAIMS");
  if (env != nullptr && env[0] != '\0') return env;
  return std::thread::hardware_concurrency() <= 1 ? "refused-single-core"
                                                  : "multi-core";
}

// Run metadata stamped into every BENCH_*.json: enough to tell two
// committed artifacts apart without replaying CI. The git SHA comes from
// SEMLOCK_GIT_SHA (tools/run_benches.sh exports it; "unknown" when run by
// hand outside the script); the fast-path/wait knobs record the ambient
// defaults the run actually used.
inline std::string run_metadata_json() {
  const char* sha = std::getenv("SEMLOCK_GIT_SHA");
  std::string out = "{\"git_sha\": \"";
  out += (sha != nullptr && sha[0] != '\0') ? sha : "unknown";
  out += "\", \"compiler\": \"";
#if defined(__clang__)
  out += "clang " __clang_version__;
#elif defined(__GNUC__)
  out += "gcc " __VERSION__;
#else
  out += "unknown";
#endif
  out += "\", \"build\": \"";
#if defined(NDEBUG)
  out += "release";
#else
  out += "debug";
#endif
#if defined(SEMLOCK_DCT)
  out += "+dct";
#endif
#if defined(SEMLOCK_OBS)
  out += "+obs";
#endif
  char buf[384];
  // "hardware_threads" is stamped both here and at the artifact top level:
  // a single-core CI container makes every scaling figure meaningless, and
  // the reader of a lone "run" object must be able to see that without
  // cross-referencing the wrapper.
  std::snprintf(buf, sizeof(buf),
                "\", \"hardware_threads\": %u"
                ", \"hardware_concurrency\": %u, \"scale_factor\": %.2f, "
                "\"wait_policy\": \"%s\", \"optimistic\": %s, "
                "\"stripes\": %d, \"grant_policy\": \"%s\", "
                "\"bypass_bound\": %u, \"storage\": \"%s\", "
                "\"elision\": %s, \"scaling_claims\": \"%s\"}",
                std::thread::hardware_concurrency(),
                std::thread::hardware_concurrency(), scale_factor(),
                runtime::wait_policy_name(runtime::default_wait_policy()),
                default_optimistic_acquire() ? "true" : "false",
                default_storage() == StorageKind::Striped &&
                        default_stripe_self_commuting()
                    ? default_counter_stripes()
                    : 0,
                runtime::grant_policy_name(runtime::default_grant_policy()),
                static_cast<unsigned>(runtime::default_bypass_bound()),
                storage_kind_name(default_storage()),
                default_elide_locks() ? "true" : "false",
                scaling_claims().c_str());
  out += buf;
  return out;
}

// Writes one BENCH_*.json artifact: run metadata plus a named SeriesTable
// per metric. The format is shared by every bench that records a perf
// trajectory file at the repo root. Returns false if the file cannot be
// written so callers can exit non-zero instead of silently dropping the
// artifact. When tracing is on (SEMLOCK_TRACE=1), the observability
// metrics snapshot is written alongside as <path>.metrics.json.
inline bool write_bench_json(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, const util::SeriesTable*>>&
        metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"hardware_threads\": %u,\n"
               "  \"scale_factor\": %.2f,\n  \"run\": %s,\n  \"metrics\": {",
               bench_name.c_str(), std::thread::hardware_concurrency(),
               scale_factor(), run_metadata_json().c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %s", i > 0 ? "," : "",
                 metrics[i].first.c_str(),
                 metrics[i].second->to_json().c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
#if defined(SEMLOCK_OBS)
  if (obs::runtime_enabled()) {
    const std::string side = path + ".metrics.json";
    if (std::FILE* mf = std::fopen(side.c_str(), "w")) {
      const std::string json = obs::collect_metrics().to_json();
      std::fwrite(json.data(), 1, json.size(), mf);
      std::fputc('\n', mf);
      std::fclose(mf);
      std::printf("wrote %s\n", side.c_str());
    }
  }
#endif
  return true;
}

}  // namespace semlock::bench
