// Experiment E-LOC (Section 3): why the clustering approach fails.
//
// The paper's overview argues that partition-into-clusters verification is
// unsound for planarity: stretch a K5 so its branch nodes are Omega(n) apart
// and every polylog-size cluster looks planar. Measured: the radius up to
// which ALL balls around every node are planar grows linearly with the
// stretch, while the 5-round interactive protocol keeps rejecting.
#include <iostream>

#include "bench_util.hpp"
#include "graph/planarity.hpp"
#include "protocols/locality.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(303);
  print_header("E-LOC: the locality barrier (Section 3)",
               "stretched-K5 no-instances: every local ball is planar, any "
               "cluster-local scheme is fooled, the DIP rejects");

  Table t({"stretch", "n", "max_all_planar_radius", "dip_rejects"});
  for (int stretch : {8, 16, 32, 64}) {
    const Graph g = plant_subdivision(path_graph(8), complete_graph(5), stretch, rng);
    // Largest r with every radius-r ball planar (binary-ish upward scan).
    int r_ok = 0;
    for (int r = 1; r <= 2 * stretch; ++r) {
      if (!all_balls_planar(g, r)) break;
      r_ok = r;
    }
    int rejects = 0;
    const int trials = 5;
    for (int s = 0; s < trials; ++s) {
      rejects += !run_protocol(make_instance(PlanarityInstance{&g, nullptr}), {3}, rng).accepted;
    }
    t.add_row({Table::num(stretch), Table::num(std::uint64_t(g.n())), Table::num(r_ok),
               Table::num(rejects) + "/" + Table::num(trials)});
  }
  t.print(std::cout);
  std::cout << "\nshape check: the fooling radius grows linearly with the stretch "
               "(no polylog-local scheme can be sound); interaction is immune.\n";
  return 0;
}
