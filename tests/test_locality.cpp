// Tests for the Section 3 locality barrier and the labeled multiset-equality
// reference implementation.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/planarity.hpp"
#include "protocols/locality.hpp"
#include "protocols/multiset_equality_labeled.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Locality, StretchedK5FoolsLocalChecks) {
  // The paper's Section 3 instance: a K5 whose edges are subdivided so branch
  // nodes sit far apart. Every small ball is planar; the graph is not; the
  // 5-round protocol still rejects.
  Rng rng(1);
  const int stretch = 24;
  const Graph g = plant_subdivision(path_graph(8), complete_graph(5), stretch, rng);
  ASSERT_FALSE(is_planar(g));
  // Balls of radius < stretch/2 cannot contain a full K5 subdivision.
  EXPECT_TRUE(all_balls_planar(g, stretch / 2 - 1));
  // ... so any cluster-local scheme with polylog-radius views accepts; the
  // interactive protocol does not:
  const PlanarityInstance inst{&g, nullptr};
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(run_protocol(make_instance(inst), {3}, rng).accepted);
  }
}

TEST(Locality, BallRadiusScalesWithStretch) {
  Rng rng(2);
  int last = 0;
  for (int stretch : {6, 12, 24}) {
    const Graph g = plant_subdivision(Graph(0), complete_graph(5), stretch, rng);
    const int r = planar_ball_radius(g, 0, 4 * stretch);
    EXPECT_GT(r, last);
    EXPECT_LT(r, 4 * stretch);  // the ball eventually swallows the K5
    last = r;
  }
}

TEST(Locality, PlanarGraphsHavePlanarBallsEverywhere) {
  Rng rng(3);
  const auto gi = random_planar(120, 0.4, rng);
  EXPECT_TRUE(all_balls_planar(gi.graph, 4));
}

TEST(MeLabeled, MatchesArrayImplementation) {
  Rng rng(4);
  const auto gi = random_planar(60, 0.4, rng);
  const RootedForest tree = bfs_tree(gi.graph, 0);
  for (int t = 0; t < 20; ++t) {
    MultisetEqualityInput in;
    in.s1.resize(gi.graph.n());
    in.s2.resize(gi.graph.n());
    in.size_bound = 32;
    in.universe_exponent = 2;
    const bool make_equal = t % 2 == 0;
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t val = rng.uniform(1024);
      in.s1[rng.uniform(gi.graph.n())].push_back(val);
      in.s2[rng.uniform(gi.graph.n())].push_back(make_equal ? val : val ^ 1);
    }
    const Outcome o = verify_multiset_equality_labeled(gi.graph, tree, in, rng);
    EXPECT_EQ(o.rounds, 2);
    if (make_equal) {
      EXPECT_TRUE(o.accepted);
      const Fp f = multiset_equality_field(32, 2);
      EXPECT_EQ(o.proof_size_bits, 3 * f.element_bits());
    }
    const StageResult arr = verify_multiset_equality(gi.graph, tree, in, rng);
    // The two implementations agree on equal inputs deterministically; on
    // unequal inputs both reject up to independent PIT luck (~1/k^2).
    if (make_equal) {
      EXPECT_TRUE(arr.all_accept());
    }
  }
}

TEST(MeLabeled, RejectsUnequalMultisets) {
  Rng rng(5);
  const auto gi = random_planar(50, 0.4, rng);
  const RootedForest tree = bfs_tree(gi.graph, 0);
  int rejects = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    MultisetEqualityInput in;
    in.s1.resize(gi.graph.n());
    in.s2.resize(gi.graph.n());
    in.size_bound = 16;
    in.universe_exponent = 2;
    in.s1[rng.uniform(gi.graph.n())].push_back(1 + rng.uniform(200));
    rejects += !verify_multiset_equality_labeled(gi.graph, tree, in, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

}  // namespace
}  // namespace lrdip
