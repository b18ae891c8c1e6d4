// Embedding audit: verify a CLAIMED combinatorial embedding (Theorem 1.4).
//
// Each node of a planar network stores a clockwise order of its links (e.g.
// from physical port positions). A malfunctioning node swapping two ports
// silently raises the genus — routing schemes relying on planarity break.
// The 5-round protocol certifies genus 0 with O(log log n)-bit labels, and
// pinpoints rejection without shipping the topology anywhere.
//
//   $ ./embedding_audit [n]
#include <iostream>
#include <optional>

#include "gen/generators.hpp"
#include "graph/rotation.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace lrdip;
  const std::optional<int> arg = argc > 1 ? parse_number<int>(argv[1]) : 2048;
  if (!arg || *arg < 1) {
    std::cerr << "usage: embedding_audit [n]\n";
    return 2;
  }
  const int n = *arg;
  Rng rng(23);

  const auto good = random_planar(n, 0.35, rng);
  std::cout << "network: n=" << good.graph.n() << " m=" << good.graph.m()
            << "; every node holds a clockwise port order\n\n";

  const PlanarEmbeddingInstance honest{&good.graph, &good.rotation};
  const Outcome ok = run_protocol(make_instance(honest), {3}, rng);
  std::cout << "audit of the correct port orders:\n"
            << "  genus-0 certified: " << (ok.accepted ? "yes" : "no") << "\n"
            << "  rounds: " << ok.rounds << ", bits/node: " << ok.proof_size_bits << "\n\n";

  // One node swaps two ports.
  int corrupted_runs = 0, rejected = 0;
  Rng corrupt_rng(99);
  while (corrupted_runs < 8) {
    auto bad = corrupt_rotation({good.graph, good.rotation}, 1, corrupt_rng);
    if (is_planar_embedding(bad.graph, bad.rotation)) continue;  // harmless swap
    ++corrupted_runs;
    const PlanarEmbeddingInstance swapped{&bad.graph, &bad.rotation};
    rejected += !run_protocol(make_instance(swapped), {3}, rng).accepted;
  }
  std::cout << "audits after a single bad port swap (8 distinct corruptions):\n"
            << "  rejected: " << rejected << "/" << corrupted_runs << "\n\n"
            << "the centralized check (face tracing + Euler's formula) needs the\n"
            << "whole topology; the DIP needs " << ok.proof_size_bits
            << " bits per node and 5 message exchanges.\n";
  return 0;
}
