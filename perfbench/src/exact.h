// Exact order statistics for the benchmark's end-to-end metrics.
//
// No end-to-end metric comes from util::Log2Histogram: its buckets are a
// factor of two wide, so a p99 can only read as a power of two. Here every
// percentile is the nearest-rank order statistic of the recorded samples,
// at 1 ns resolution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "server/request.h"

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least
// p * n samples are <= it (p in [0, 1]). Reorders `v`. Empty input gives 0.
inline std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// Median of doubles (mean of the middle two for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact histogram of nanosecond durations: one counter per nanosecond up to
// kLinear, and every larger sample kept verbatim. Percentiles read from it
// equal percentile() over the raw samples, at a fixed 1 MiB per instance
// however many samples are added, so closed loops can time every call.
class ExactHist {
 public:
  static constexpr std::uint64_t kLinear = 1u << 18;  // 262 us

  ExactHist() : counts_(kLinear, 0) {}

  void add(std::uint64_t ns) {
    ++n_;
    sum_ += ns;
    if (ns < kLinear) {
      ++counts_[ns];
    } else {
      overflow_.push_back(ns);
    }
  }

  void merge(const ExactHist& o) {
    n_ += o.n_;
    sum_ += o.sum_;
    for (std::uint64_t i = 0; i < kLinear; ++i) counts_[i] += o.counts_[i];
    overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
  }

  std::uint64_t count() const { return n_; }
  double mean() const {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }

  std::uint64_t percentile(double p) {
    if (n_ == 0) return 0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n_)));
    if (rank < 1) rank = 1;
    if (rank > n_) rank = n_;
    std::uint64_t seen = 0;
    for (std::uint64_t i = 0; i < kLinear; ++i) {
      seen += counts_[i];
      if (seen >= rank) return i;
    }
    const auto k = static_cast<std::ptrdiff_t>(rank - seen - 1);
    std::nth_element(overflow_.begin(), overflow_.begin() + k,
                     overflow_.end());
    return overflow_[static_cast<std::size_t>(k)];
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> overflow_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// Per-request execution stamps taken by the benchmark's CCBackend decorator
// on the steady clock (ns since the clock's epoch). 0 = never executed.
struct ExecStamp {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Server::run times requests against a run epoch it does not expose. Each
// request is dispatched at or after epoch + arrival_ns, and executes after
// that, so exec_start - arrival_ns >= epoch for every request; the minimum
// over the run is the epoch plus the smallest dispatch-to-execute delay
// (a few hundred ns on an idle worker). Latencies measured from the
// reconstructed epoch therefore read low by at most that delay, a sub-us
// bias. Returns 0 when no request executed.
inline std::uint64_t reconstruct_epoch(
    const std::vector<semlock::server::Request>& schedule,
    const std::vector<ExecStamp>& stamps) {
  std::uint64_t best = UINT64_MAX;
  for (const auto& r : schedule) {
    const ExecStamp& s = stamps[r.id];
    if (s.start_ns == 0) continue;
    const std::uint64_t e =
        s.start_ns > r.arrival_ns ? s.start_ns - r.arrival_ns : 0;
    best = std::min(best, e);
  }
  return best == UINT64_MAX ? 0 : best;
}

}  // namespace perfbench
