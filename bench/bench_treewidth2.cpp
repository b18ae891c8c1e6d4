// Experiment E-1.7 (Theorem 1.7): graphs of treewidth at most 2.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/bits.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(1707);
  print_header("E-1.7: treewidth <= 2 (Theorem 1.7)",
               "claim: 5 rounds, O(log log n) bits; every biconnected block is "
               "series-parallel (Lemma 8.2)");

  Table t({"n", "blocks", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc", "k4_rej"});
  const int trials = soundness_trials(10);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const int blocks = std::max(2, logn / 2);
    const Tw2CertInstance gi = random_treewidth2_with_cert(n, blocks, rng);
    const Treewidth2Instance inst{&gi.graph, gi.block_ears};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    const int pls_bits = protocol_spec(Task::treewidth2).pls_bits(gi.graph.n());

    int rej = 0;
    for (int s = 0; s < trials; ++s) {
      const Graph bad = treewidth2_no_instance(256, 3, rng);
      const Treewidth2Instance no{&bad, std::nullopt};
      rej += !run_protocol(make_instance(no), {3}, rng).accepted;
    }
    t.add_row({Table::num(std::uint64_t(gi.graph.n())), Table::num(blocks),
               Table::num(o.rounds), Table::num(o.proof_size_bits), Table::num(pls_bits),
               Table::num(double(pls_bits) / o.proof_size_bits, 2),
               o.accepted ? "1.00" : "0.00", Table::num(double(rej) / trials, 2)});
  }
  t.print(std::cout);
  return 0;
}
