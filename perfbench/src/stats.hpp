// Statistics of one benchmark run: percentiles, the tail-percentile rule,
// and op accounting. Header-only so the self-test binary can check it
// without linking the library.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (the "type 7" rule numpy uses by default)
/// of an ascending-sorted sample; p in [0, 100]. 0 for an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

/// The tail a run can support: the highest percentile of the ladder that
/// still has at least `min_beyond` samples strictly above it. A short run
/// falls back to the median and says so through `beyond`.
struct TailPick {
  double percentile = 50.0;
  double value = 0.0;
  int beyond = 0;  // samples strictly greater than `value`
  int samples = 0;
};

inline constexpr std::array<double, 6> kTailLadder{99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

inline TailPick pick_tail(std::vector<double> samples, int min_beyond = 10) {
  std::sort(samples.begin(), samples.end());
  TailPick pick;
  pick.samples = static_cast<int>(samples.size());
  for (const double p : kTailLadder) {
    const double v = percentile_sorted(samples, p);
    const auto beyond = static_cast<int>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
    pick = {p, v, beyond, pick.samples};
    if (beyond >= min_beyond) break;
  }
  return pick;
}

/// Attempted/failed ops and the nodes of the ones answered correctly.
struct OpTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t nodes_ok = 0;

  void add(bool ok, std::int64_t nodes) {
    ++attempted;
    if (ok) {
      nodes_ok += nodes;
    } else {
      ++failed;
    }
  }
  double failed_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
  /// Correctly verified nodes per second of measured wall time.
  double nodes_per_s(double wall_s) const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(nodes_ok) / wall_s;
  }
};

}  // namespace perfbench
