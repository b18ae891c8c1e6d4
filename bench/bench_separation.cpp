// Experiment E-SEP: the headline separation (Figure 2 / the theorem table).
//
// One row per registry task at a fixed n: interactive (5-round) proof size
// vs. the one-round Theta(log n) PLS baselines, and where each task's bits
// come from. This is the paper's "power of interaction" story in one table.
// The PLS column is the registry's textbook one-round label width (pls_bits);
// the baselines are widths only, nothing executes them.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(99);
  const int logn = std::min(16, max_log_n());
  const int n = 1 << logn;
  print_header("E-SEP: interaction separation at n = 2^" + std::to_string(logn),
               "every task of Theorems 1.2-1.7: 5-round DIP vs 1-round PLS");

  Table t({"task", "theorem", "n", "rounds", "dip_bits", "pls_bits", "ratio"});
  for (const ProtocolSpec& spec : protocol_registry()) {
    const BoundInstance bi = spec.make_yes(n, rng);
    const int nn = bi.graph().n();  // glued families land near, not at, n
    const Outcome o = spec.run(bi.view(), {3}, rng, nullptr);
    const int pls = spec.pls_bits(nn);
    t.add_row({spec.name, spec.theorem, Table::num(std::uint64_t(nn)), Table::num(o.rounds),
               Table::num(o.proof_size_bits), Table::num(pls),
               Table::num(double(pls) / o.proof_size_bits, 2)});
  }
  t.print(std::cout);
  std::cout << "\nall DIP rows: 5 rounds, double-log-sized labels; PLS rows pay "
               "Theta(log n), matching the Theorem 1.8 lower bound.\n";
  return 0;
}
