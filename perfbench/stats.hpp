#pragma once

// Sample statistics for the benchmark's metrics: percentiles over per-call
// latencies, the "highest percentile with at least ten samples beyond it"
// rule, the useful-work rate, and the fast percentile over one-second
// chunks that the end-to-end metrics report.  Header-only; the self-test pins the
// arithmetic on synthetic samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (0 <= q <= 100) of `samples`, the
/// definition numpy and Python's statistics module call "inclusive":
/// rank q/100 * (n - 1) between the two neighbouring order statistics.
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of `n`
/// samples beyond it, or 0 when not even the median qualifies (n < 20).
inline double reportable_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

/// Useful GFLOP/s: `flops` of useful work (2 m n k per GEMM) over `seconds`
/// of wall time.
inline double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

struct WindowStats {
  double gflops = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t chunks = 0;  ///< chunks the figures were taken over
};

/// Splits a window's calls into consecutive chunks of whole call cycles
/// (`cycle` calls each), every chunk spanning at least `chunk_seconds` of
/// window time; a shorter remainder at the end is dropped, unless the
/// window holds no full chunk, when it is one chunk.  For each chunk it
/// computes GFLOP/s (sum of flops over sum of window seconds) and the p50
/// and p90 latencies, and returns the fast `q`-th percentile of each over
/// the chunks: the q-th percentile of the latencies, the (100 - q)-th of
/// GFLOP/s.
///
/// Other tenants of a shared host only ever slow a chunk down, and they
/// come and go in phases of a second or more.  A low percentile over
/// one-second chunks reads the program's speed in the quieter part of the
/// window, where the median of the window (or of a few long chunks) shifts
/// with whatever share of it was contended.  A change to the program moves
/// every chunk, so it moves this figure too.  Whole cycles give every chunk
/// the same mix of problems.
inline WindowStats fast_chunk_stats(const std::vector<double>& ms,
                                    const std::vector<double>& flops,
                                    const std::vector<double>& seconds,
                                    std::size_t cycle, double chunk_seconds,
                                    double q) {
  std::vector<double> rate, p50, p90;
  auto add_chunk = [&](std::size_t lo, std::size_t hi) {
    double f = 0.0, s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      f += flops[i];
      s += seconds[i];
    }
    rate.push_back(gflops(f, s));
    const std::vector<double> part(ms.begin() + static_cast<std::ptrdiff_t>(lo),
                                   ms.begin() + static_cast<std::ptrdiff_t>(hi));
    p50.push_back(percentile(part, 50.0));
    p90.push_back(percentile(part, 90.0));
  };
  const std::size_t n = ms.size();
  cycle = std::max<std::size_t>(1, cycle);
  std::size_t lo = 0;
  double span = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    span += seconds[i];
    if ((i + 1) % cycle == 0 && span >= chunk_seconds) {
      add_chunk(lo, i + 1);
      lo = i + 1;
      span = 0.0;
    }
  }
  if (rate.empty() && n > 0) add_chunk(0, n);
  return {percentile(rate, 100.0 - q), percentile(p50, q), percentile(p90, q),
          rate.size()};
}

}  // namespace perfbench
