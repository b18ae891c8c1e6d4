#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/outerplanar.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(OuterplanarityProtocol, CompletenessBiconnected) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_biconnected_outerplanar(60 + t * 20, 0.3, rng);
    std::vector<NodeId> cycle(g.n());
    for (int i = 0; i < g.n(); ++i) cycle[i] = i;  // generator polygon order
    const OuterplanarityInstance inst{&g, std::vector<std::vector<NodeId>>{cycle}};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(OuterplanarityProtocol, CompletenessGlued) {
  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const auto gi = random_outerplanar_with_cert(120, 4, rng);
    const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
    EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted) << t;
  }
}

TEST(OuterplanarityProtocol, CompletenessWithoutCertificateSmall) {
  // Falls back to the centralized embedder per block.
  Rng rng(3);
  const auto gi = random_outerplanar_with_cert(40, 3, rng);
  const OuterplanarityInstance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted);
}

TEST(OuterplanarityProtocol, CompletenessTreesAndBridges) {
  // A path graph: every block is a bridge.
  Rng rng(4);
  const Graph g = path_graph(30);
  const OuterplanarityInstance inst{&g, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted);
}

TEST(OuterplanarityProtocol, RejectsBadBlock) {
  Rng rng(5);
  int rejects = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto gi = outerplanar_no_instance(100, 4, rng);
    ASSERT_FALSE(is_outerplanar(gi.graph));
    const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
    rejects += !run_protocol(make_instance(inst), {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(OuterplanarityProtocol, RejectsWheel) {
  Rng rng(6);
  Graph wheel = cycle_graph(10);
  const NodeId hub = wheel.add_node();
  for (NodeId v = 0; v < 10; ++v) wheel.add_edge(hub, v);
  const OuterplanarityInstance inst{&wheel, std::nullopt};
  for (int t = 0; t < 10; ++t) {
    EXPECT_FALSE(run_protocol(make_instance(inst), {3}, rng).accepted);
  }
}

TEST(OuterplanarityProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(7);
  const auto g1 = random_outerplanar_with_cert(1 << 10, 4, rng);
  const auto g2 = random_outerplanar_with_cert(1 << 16, 4, rng);
  const OuterplanarityInstance i1{&g1.graph, g1.block_cycles};
  const OuterplanarityInstance i2{&g2.graph, g2.block_cycles};
  const Outcome o1 = run_protocol(make_instance(i1), {3}, rng);
  const Outcome o2 = run_protocol(make_instance(i2), {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
  // The one-round baseline's width: 4 positions of ceil(log2 n) bits.
  EXPECT_EQ(protocol_spec(Task::outerplanar).pls_bits(64), 4 * 6);
}

}  // namespace
}  // namespace lrdip
