// Checks of the benchmark's own statistics: percentiles, the tail rule,
// failure accounting and nodes/s. Run through `run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(near(percentile_sorted({}, 50), 0.0), "percentile of an empty sample is 0");
  expect(near(percentile_sorted({7}, 99), 7.0), "percentile of one sample is that sample");
  expect(near(percentile_sorted(one_to(5), 50), 3.0), "median of 1..5 is 3");
  expect(near(percentile_sorted(one_to(4), 50), 2.5), "median of 1..4 interpolates to 2.5");
  expect(near(percentile_sorted(one_to(101), 90), 91.0), "p90 of 1..101 is 91");
  expect(near(median({5, 1, 3}), 3.0), "median sorts its input");

  // Tail rule: the highest ladder percentile with >= 10 samples above it.
  {
    const TailPick t = pick_tail(one_to(1000));
    expect(t.percentile == 99.0 && t.beyond == 10, "1000 samples: p99 with 10 beyond");
  }
  {
    const TailPick t = pick_tail(one_to(200));
    expect(t.percentile == 95.0 && t.beyond == 10, "200 samples: p95 with 10 beyond");
  }
  {
    const TailPick t = pick_tail(one_to(100));
    expect(t.percentile == 90.0 && t.beyond == 10, "100 samples: p90 with 10 beyond");
  }
  {
    const TailPick t = pick_tail(one_to(40));
    expect(t.percentile == 75.0 && t.beyond == 10, "40 samples: p75 with 10 beyond");
  }
  {
    const TailPick t = pick_tail(one_to(12));
    expect(t.percentile == 50.0 && t.beyond == 6 && t.samples == 12,
           "12 samples: falls back to p50 and reports 6 beyond");
  }
  {
    std::vector<double> ties(50, 4.0);
    ties.push_back(9.0);
    const TailPick t = pick_tail(ties);
    expect(t.percentile == 50.0 && t.beyond == 1 && near(t.value, 4.0),
           "ties: samples equal to the percentile do not count as beyond");
  }
  {
    const TailPick t = pick_tail({3, 1, 2}, 1);
    expect(t.percentile == 99.9 && near(t.value, 2.998) && t.beyond == 1,
           "min_beyond 1 on 3 samples: the interpolated p99.9 has the max beyond it");
  }

  // Failure accounting and nodes/s: failed ops count as attempted and add no nodes.
  {
    OpTally t;
    t.add(true, 100);
    t.add(false, 50);
    t.add(true, 300);
    t.add(false, 1);
    expect(t.attempted == 4 && t.failed == 2, "tally counts attempted and failed ops");
    expect(near(t.failed_ratio(), 0.5), "failed_ratio is failed / attempted");
    expect(t.nodes_ok == 400, "only correctly answered ops add nodes");
    expect(near(t.nodes_per_s(2.0), 200.0), "nodes/s divides by measured wall time");
    expect(near(t.nodes_per_s(0.0), 0.0), "nodes/s of an empty measurement is 0");
  }
  expect(near(OpTally{}.failed_ratio(), 0.0), "failed_ratio of no ops is 0");

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
