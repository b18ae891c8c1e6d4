// Topology audit: the motivating deployment scenario for distributed
// interactive proofs. An overlay network of n agents wants to certify that
// its topology belongs to a "cheap-to-route" class (here: treewidth <= 2,
// which guarantees small separators) without any node learning the global
// topology. A central coordinator — possibly buggy or compromised — acts as
// the prover; each agent exchanges O(log log n) bits with it and talks only
// to direct neighbors.
//
//   $ ./topology_audit [n]
#include <iostream>
#include <optional>

#include "gen/generators.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace lrdip;
  const std::optional<int> arg = argc > 1 ? parse_number<int>(argv[1]) : 4096;
  if (!arg || *arg < 1) {
    std::cerr << "usage: topology_audit [n]\n";
    return 2;
  }
  const int n = *arg;
  Rng rng(7);

  std::cout << "scenario: " << n << "-agent overlay; coordinator claims the "
            << "topology has treewidth <= 2\n\n";

  // --- Act 1: the topology really is treewidth <= 2 and the coordinator is
  // honest (it holds the construction certificates).
  const Tw2CertInstance good = random_treewidth2_with_cert(n, 8, rng);
  const Treewidth2Instance certified{&good.graph, good.block_ears};
  const Outcome honest = run_protocol(make_instance(certified), {3}, rng);
  std::cout << "honest coordinator, compliant topology (n=" << good.graph.n()
            << ", m=" << good.graph.m() << "):\n"
            << "  verdict      : " << (honest.accepted ? "CERTIFIED" : "REJECTED") << "\n"
            << "  rounds       : " << honest.rounds << "\n"
            << "  bits per node: " << honest.proof_size_bits << " (max)\n\n";

  // --- Act 2: someone patched in a shortcut link that creates a K4
  // subdivision; the coordinator tries its best to hide it.
  const Graph bad = treewidth2_no_instance(n, 8, rng);
  std::cout << "after an unauthorized shortcut link (treewidth now 3):\n";
  int rejected = 0;
  const int audits = 10;
  for (int i = 0; i < audits; ++i) {
    const Treewidth2Instance patched{&bad, std::nullopt};
    rejected += !run_protocol(make_instance(patched), {3}, rng).accepted;
  }
  std::cout << "  audits run   : " << audits << "\n"
            << "  rejected     : " << rejected << "/" << audits << "\n\n";

  std::cout << "a non-compliant topology cannot be certified: some agent flags\n"
            << "the violation with probability 1 - 1/polylog n per audit.\n";
  return 0;
}
