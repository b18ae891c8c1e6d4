#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(SeriesParallelProtocol, CompletenessWithCertificate) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const SpInstance gi = random_series_parallel(60 + 20 * t, rng);
    const SeriesParallelInstance inst{&gi.graph, gi.ears};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(SeriesParallelProtocol, CompletenessWithoutCertificate) {
  Rng rng(2);
  const SpInstance gi = random_series_parallel(80, rng);
  const SeriesParallelInstance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted);
}

TEST(SeriesParallelProtocol, CompletenessBasicShapes) {
  Rng rng(3);
  const Graph cyc = cycle_graph(24);
  const SeriesParallelInstance cyc_inst{&cyc, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(cyc_inst), {3}, rng).accepted);
  const Graph pth = path_graph(24);
  const SeriesParallelInstance pth_inst{&pth, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(pth_inst), {3}, rng).accepted);
}

TEST(SeriesParallelProtocol, RejectsK4Chord) {
  Rng rng(4);
  int rejects = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    const Graph g = series_parallel_no_instance(60, rng);
    ASSERT_FALSE(is_series_parallel(g));
    const SeriesParallelInstance inst{&g, std::nullopt};
    rejects += !run_protocol(make_instance(inst), {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(SeriesParallelProtocol, RejectsK4Subdivision) {
  Rng rng(5);
  const Graph g = plant_subdivision(Graph(0), complete_graph(4), 4, rng);
  const SeriesParallelInstance inst{&g, std::nullopt};
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(run_protocol(make_instance(inst), {3}, rng).accepted);
  }
}

TEST(SeriesParallelProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(6);
  const SpInstance g1 = random_series_parallel(1 << 10, rng);
  const SpInstance g2 = random_series_parallel(1 << 16, rng);
  const SeriesParallelInstance i1{&g1.graph, g1.ears};
  const SeriesParallelInstance i2{&g2.graph, g2.ears};
  const Outcome o1 = run_protocol(make_instance(i1), {3}, rng);
  const Outcome o2 = run_protocol(make_instance(i2), {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
}

TEST(Treewidth2Protocol, Completeness) {
  Rng rng(7);
  for (int t = 0; t < 8; ++t) {
    const Tw2CertInstance gi = random_treewidth2_with_cert(150, 3, rng);
    const Treewidth2Instance inst{&gi.graph, gi.block_ears};
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(Treewidth2Protocol, CompletenessWithoutCertificate) {
  Rng rng(8);
  const Tw2CertInstance gi = random_treewidth2_with_cert(90, 3, rng);
  const Treewidth2Instance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_protocol(make_instance(inst), {3}, rng).accepted);
}

TEST(Treewidth2Protocol, RejectsPlantedK4) {
  Rng rng(9);
  int rejects = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const Graph g = treewidth2_no_instance(120, 3, rng);
    ASSERT_FALSE(is_treewidth_at_most_2(g));
    const Treewidth2Instance inst{&g, std::nullopt};
    rejects += !run_protocol(make_instance(inst), {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

}  // namespace
}  // namespace lrdip
