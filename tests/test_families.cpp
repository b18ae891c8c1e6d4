// Membership tests for the structured generator families, plus the protocol
// verdicts the memberships dictate.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Families, Caterpillar) {
  const Graph g = caterpillar(6, 2);
  EXPECT_EQ(g.n(), 6 + 12);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_outerplanar(g));
  EXPECT_TRUE(is_treewidth_at_most_2(g));
  // Spine nodes with two legs kill Hamiltonian paths.
  EXPECT_FALSE(brute_force_path_outerplanar_order(caterpillar(3, 2)).has_value());
}

TEST(Families, FanIsMaximalOuterplanarWithHugeDegree) {
  const Graph g = fan_graph(40);
  EXPECT_EQ(g.m(), 2 * 40 - 3);
  EXPECT_TRUE(is_outerplanar(g));
  EXPECT_TRUE(is_biconnected(g));
  EXPECT_EQ(g.degree(g.n() - 1), 39);  // the apex
  // The outerplanarity protocol handles the Theta(n)-degree apex fine.
  Rng rng(1);
  const auto cyc = outerplanar_hamiltonian_cycle(g);
  ASSERT_TRUE(cyc.has_value());
  const OuterplanarityInstance inst{&g, std::vector<std::vector<NodeId>>{*cyc}};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted);
}

TEST(Families, RandomTree) {
  Rng rng(2);
  const Graph g = random_tree(200, rng);
  EXPECT_EQ(g.m(), 199);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_outerplanar(g));
  EXPECT_TRUE(is_treewidth_at_most_2(g));
  Rng prng(3);
  const Treewidth2Instance inst{&g, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, prng).accepted);
}

TEST(Families, HalinGraphs) {
  Rng rng(4);
  for (int leaves : {5, 12, 30}) {
    const Graph g = halin_graph(leaves, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_TRUE(is_planar(g)) << leaves;
    EXPECT_FALSE(is_outerplanar(g)) << leaves;
    EXPECT_FALSE(is_treewidth_at_most_2(g)) << leaves;
    // Halin graphs are 3-connected in particular biconnected.
    EXPECT_TRUE(is_biconnected(g)) << leaves;
  }
}

TEST(Families, HalinRejectedByTw2Protocol) {
  Rng rng(5);
  const Graph g = halin_graph(16, rng);
  const Treewidth2Instance tw{&g, std::nullopt};
  const SeriesParallelInstance sp{&g, std::nullopt};
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(run_protocol(make_instance(tw), {3}, rng).accepted);
    EXPECT_FALSE(run_protocol(make_instance(sp), {3}, rng).accepted);
  }
}

TEST(Families, LadderIsOuterplanarAndTw2) {
  // All vertices of a 2 x n grid lie on its boundary cycle and the rungs
  // nest, so ladders are (biconnected) outerplanar — and treewidth 2.
  const auto gi = grid_graph(2, 8);
  EXPECT_TRUE(is_treewidth_at_most_2(gi.graph));
  EXPECT_TRUE(is_outerplanar(gi.graph));
  EXPECT_TRUE(is_biconnected(gi.graph));
  Rng rng(6);
  const Treewidth2Instance tw{&gi.graph, std::nullopt};
  const OuterplanarityInstance op{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(tw), {3}, rng).accepted);
  EXPECT_TRUE(run_protocol(make_instance(op), {3}, rng).accepted);
  // Width 3 breaks it: the middle column leaves the outer face.
  const auto wide = grid_graph(3, 5);
  EXPECT_FALSE(is_outerplanar(wide.graph));
  const OuterplanarityInstance wide_op{&wide.graph, std::nullopt};
  EXPECT_FALSE(run_protocol(make_instance(wide_op), {3}, rng).accepted);
}

}  // namespace
}  // namespace lrdip
