// Experiment E-1.4 (Theorem 1.4): planar embedding.
#include <iostream>

#include "bench_util.hpp"
#include "graph/rotation.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(1404);
  print_header("E-1.4: planar embedding (Theorem 1.4)",
               "claim: 5 rounds, O(log log n) bits, perfect completeness, "
               "1/polylog n soundness; reduction via the Euler expansion h(G,T,rho)");

  Table t({"n", "m", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc", "corrupt_rej"});
  const int trials = soundness_trials(15);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const auto gi = random_planar(n, 0.4, rng);
    const PlanarEmbeddingInstance inst{&gi.graph, &gi.rotation};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    const int pls_bits = protocol_spec(Task::embedding).pls_bits(n);

    int rej = 0, tried = 0;
    while (tried < trials) {
      auto bad = corrupt_rotation(random_apollonian(256, rng), 2, rng);
      if (is_planar_embedding(bad.graph, bad.rotation)) continue;
      ++tried;
      const PlanarEmbeddingInstance no{&bad.graph, &bad.rotation};
      rej += !run_protocol(make_instance(no), {3}, rng).accepted;
    }
    t.add_row({Table::num(std::uint64_t(n)), Table::num(std::uint64_t(gi.graph.m())),
               Table::num(o.rounds), Table::num(o.proof_size_bits), Table::num(pls_bits),
               Table::num(double(pls_bits) / o.proof_size_bits, 2),
               o.accepted ? "1.00" : "0.00", Table::num(double(rej) / trials, 2)});
  }
  t.print(std::cout);
  return 0;
}
