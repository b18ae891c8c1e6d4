// Experiment E-1.3 (Theorem 1.3): outerplanarity.
#include <iostream>

#include "bench_util.hpp"
#include "support/bits.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/registry.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(1303);
  print_header("E-1.3: outerplanarity (Theorem 1.3)",
               "claim: 5 rounds, O(log log n) bits, perfect completeness, "
               "1/polylog n soundness error; block-cut-tree decomposition");

  Table t({"n", "blocks", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc", "no_rej"});
  const int trials = soundness_trials(15);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const int blocks = std::max(2, logn);
    const auto gi = random_outerplanar_with_cert(n, blocks, rng);
    const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    const int pls_bits = protocol_spec(Task::outerplanar).pls_bits(n);

    int no_rej = 0;
    for (int s = 0; s < trials; ++s) {
      const auto bad = outerplanar_no_instance(256, 4, rng);
      const OuterplanarityInstance no{&bad.graph, bad.block_cycles};
      no_rej += !run_protocol(make_instance(no), {3}, rng).accepted;
    }
    t.add_row({Table::num(std::uint64_t(n)), Table::num(blocks), Table::num(o.rounds),
               Table::num(o.proof_size_bits), Table::num(pls_bits),
               Table::num(double(pls_bits) / o.proof_size_bits, 2), o.accepted ? "1.00" : "0.00",
               Table::num(double(no_rej) / trials, 2)});
  }
  t.print(std::cout);
  return 0;
}
