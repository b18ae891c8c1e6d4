// Experiment E-1.6 (Theorem 1.6): series-parallel graphs.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/bits.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(1606);
  print_header("E-1.6: series-parallel (Theorem 1.6)",
               "claim: 5 rounds, O(log log n) bits via nested ear decompositions; "
               "perfect completeness; 1/polylog n soundness");

  Table t({"n", "m", "ears", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc", "k4_rej"});
  const int trials = soundness_trials(15);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const SpInstance gi = random_series_parallel(n, rng);
    const SeriesParallelInstance inst{&gi.graph, gi.ears};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    const int pls_bits = protocol_spec(Task::series_parallel).pls_bits(gi.graph.n());

    int rej = 0;
    for (int s = 0; s < trials; ++s) {
      const Graph bad = series_parallel_no_instance(256, rng);
      const SeriesParallelInstance no{&bad, std::nullopt};
      rej += !run_protocol(make_instance(no), {3}, rng).accepted;
    }
    t.add_row({Table::num(std::uint64_t(gi.graph.n())), Table::num(std::uint64_t(gi.graph.m())),
               Table::num(std::uint64_t(gi.ears.size())), Table::num(o.rounds),
               Table::num(o.proof_size_bits), Table::num(pls_bits),
               Table::num(double(pls_bits) / o.proof_size_bits, 2),
               o.accepted ? "1.00" : "0.00", Table::num(double(rej) / trials, 2)});
  }
  t.print(std::cout);
  return 0;
}
