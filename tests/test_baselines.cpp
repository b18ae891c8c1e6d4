// Tests for the one-round PLS baseline widths, Theorem 6.1 through the
// outerplanarity protocol, and DOT export.
#include <gtest/gtest.h>

#include <sstream>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/dot.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(PathOuterplanarityPls, LabelsAreThetaLogN) {
  // The baseline is a label width (the registry's pls_bits): all its fields
  // are positions, so doubling log n doubles it.
  const ProtocolSpec& spec = protocol_spec(Task::path_outerplanar);
  EXPECT_EQ(spec.pls_bits(1 << 8), 3 * 8);
  EXPECT_EQ(spec.pls_bits(1 << 16), 3 * 16);
}

// Theorem 6.1 through the outerplanarity protocol: a biconnected graph is one
// block, whose certificate is a Hamiltonian cycle.
TEST(BiconnectedOuterplanarity, Theorem61) {
  Rng rng(5);
  const auto run = [&](const Graph& g, std::optional<std::vector<NodeId>> cycle) {
    std::optional<std::vector<std::vector<NodeId>>> certs;
    if (cycle) certs = std::vector<std::vector<NodeId>>{*cycle};
    const OuterplanarityInstance inst{&g, certs};
    return run_protocol(make_instance(inst), {3}, rng).accepted;
  };
  // Yes: a maximal outerplanar polygon with its cycle certificate.
  const Graph g = random_maximal_outerplanar(64, rng);
  std::vector<NodeId> cycle(64);
  for (int i = 0; i < 64; ++i) cycle[i] = i;
  EXPECT_TRUE(run(g, cycle));
  // No certificate: recomputed centrally.
  EXPECT_TRUE(run(g, std::nullopt));
  // Non-outerplanar: rejected.
  const Graph bad = crossing_chords_no_instance(20, rng);
  std::vector<NodeId> bad_cycle(bad.n());
  for (int i = 0; i < bad.n(); ++i) bad_cycle[i] = i;
  EXPECT_FALSE(run(bad, bad_cycle));
}

TEST(Dot, UndirectedWithPath) {
  Rng rng(6);
  const auto gi = random_path_outerplanar(6, 1.0, rng);
  DotStyle style;
  style.path_order = gi.order;
  const std::string dot = to_dot(gi.graph, style);
  EXPECT_NE(dot.find("graph lrdip {"), std::string::npos);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2.4"), std::string::npos);
  EXPECT_EQ(dot.find("->"), std::string::npos);
}

TEST(Dot, DirectedWithClasses) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  DotStyle style;
  style.tails = std::vector<NodeId>{1, 1};  // both edges out of node 1
  style.node_class = std::vector<int>{0, 1, 0};
  style.edge_attrs = std::vector<std::string>{"color=red", ""};
  const std::string dot = to_dot(g, style);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("1 -> 0"), std::string::npos);
  EXPECT_NE(dot.find("1 -> 2"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(Dot, RejectsForeignTail) {
  Graph g(2);
  g.add_edge(0, 1);
  DotStyle style;
  style.tails = std::vector<NodeId>{5};
  std::ostringstream ss;
  EXPECT_THROW(write_dot(ss, g, style), InvariantError);
}

}  // namespace
}  // namespace lrdip
