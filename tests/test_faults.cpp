// Byzantine fault injection: determinism of the injector, the never-throw
// contract of every task execution under arbitrary transcript corruption,
// and the reject-reason taxonomy surfaced through Outcome.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dip/faults.hpp"
#include "dip/store.hpp"
#include "dip/verdict.hpp"
#include "gen/generators.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

bool labels_equal(const Label& a, const Label& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (std::size_t i = 0; i < a.num_fields(); ++i) {
    if (a.field_bits(i) != b.field_bits(i)) return false;
    if (a.try_get(i) != b.try_get(i)) return false;
    // try_get folds defects to nullopt; compare the raw words too so forged
    // out-of-width values still participate in the equality.
    LocalVerdict v;
    if (read_or_reject(a, i, -1, v, 0) != read_or_reject(b, i, -1, v, 0)) return false;
  }
  return true;
}

std::pair<LabelStore, CoinStore> sample_stores(const Graph& g, Rng& rng) {
  LabelStore labels(g, 2);
  CoinStore coins(g, 2);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (int r = 0; r < 2; ++r) {
      Label l;
      l.put(rng.uniform(1u << 9), 9).put_flag(rng.uniform(2) != 0).put(rng.uniform(1u << 5), 5);
      labels.assign_node(r, v, std::move(l));
    }
    coins.draw(0, v, 2, 1u << 20, 20, rng);
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    Label l;
    l.put(rng.uniform(1u << 7), 7);
    labels.assign_edge(0, e, std::move(l), g.endpoints(e).first);
  }
  return {std::move(labels), std::move(coins)};
}

TEST(FaultModel, NamesRoundTrip) {
  for (int m = 0; m < kNumFaultModels; ++m) {
    const FaultModel model = static_cast<FaultModel>(m);
    const char* name = fault_model_name(model);
    ASSERT_NE(name, nullptr);
    const auto back = fault_model_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, model);
  }
  EXPECT_FALSE(fault_model_from_name("no_such_model").has_value());
}

TEST(FaultInjector, SamePlanSameCorruption) {
  Rng tree_rng(5);
  const Graph g = random_tree(40, tree_rng);
  Rng fill(7);
  auto [la, ca] = sample_stores(g, fill);
  Rng fill2(7);
  auto [lb, cb] = sample_stores(g, fill2);

  const FaultPlan plan{/*seed=*/99, /*rate=*/0.5, kAllFaultModels};
  FaultInjector ia(plan), ib(plan);
  ia.corrupt(la, ca);
  ib.corrupt(lb, cb);

  EXPECT_GT(ia.total_faults(), 0);
  EXPECT_EQ(ia.total_faults(), ib.total_faults());
  for (int m = 0; m < kNumFaultModels; ++m) {
    EXPECT_EQ(ia.count(static_cast<FaultModel>(m)), ib.count(static_cast<FaultModel>(m)));
  }
  for (int r = 0; r < 2; ++r) {
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_TRUE(labels_equal(la.node_label(r, v), lb.node_label(r, v)));
    }
    for (EdgeId e = 0; e < g.m(); ++e) {
      EXPECT_TRUE(labels_equal(la.edge_label(0, e), lb.edge_label(0, e)));
    }
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto sa = ca.coins(0, v);
    const auto sb = cb.coins(0, v);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const Graph g = path_graph(200);
  Rng fill(11);
  auto [la, ca] = sample_stores(g, fill);
  Rng fill2(11);
  auto [lb, cb] = sample_stores(g, fill2);
  FaultInjector ia({1, 0.5, kAllFaultModels});
  FaultInjector ib({2, 0.5, kAllFaultModels});
  ia.corrupt(la, ca);
  ib.corrupt(lb, cb);
  bool differ = false;
  for (NodeId v = 0; v < g.n() && !differ; ++v) {
    differ = !labels_equal(la.node_label(0, v), lb.node_label(0, v));
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjector, RateZeroIsIdentity) {
  const Graph g = path_graph(30);
  Rng fill(3);
  auto [la, ca] = sample_stores(g, fill);
  Rng fill2(3);
  auto [lb, cb] = sample_stores(g, fill2);
  FaultInjector inj({42, 0.0, kAllFaultModels});
  inj.corrupt(la, ca);
  EXPECT_EQ(inj.total_faults(), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_TRUE(labels_equal(la.node_label(0, v), lb.node_label(0, v)));
  }
}

// ------------------------------------------------- protocol-level contracts

struct FaultTask {
  std::string name;
  std::function<Outcome(Rng&, FaultInjector*)> run;
};

/// Six tasks through run_protocol on fixed honest yes-instances.
std::vector<FaultTask> make_tasks(int n) {
  Rng gen(2024);
  auto lr_inst = std::make_shared<LrInstance>(random_lr_yes(n, 1.0, gen));
  auto lr = std::make_shared<LrSortingInstance>(lr_sorting_instance(*lr_inst));
  auto po = std::make_shared<PathOuterplanarInstance>(random_path_outerplanar(n, 1.0, gen));
  auto op = std::make_shared<OuterplanarCertInstance>(random_outerplanar_with_cert(n, 2, gen));
  auto pl = std::make_shared<PlanarInstance>(random_planar(n, 0.3, gen));
  auto sp = std::make_shared<SpInstance>(random_series_parallel(n, gen));
  auto tw = std::make_shared<Tw2CertInstance>(random_treewidth2_with_cert(n, 2, gen));
  return {
      {"lr-sorting",
       [lr_inst, lr](Rng& r, FaultInjector* f) {
         return run_protocol(make_instance(*lr), {3}, r, f);
       }},
      {"path-outerplanar",
       [po](Rng& r, FaultInjector* f) {
         const PathOuterplanarityInstance inst{&po->graph, po->order};
         return run_protocol(make_instance(inst), {3}, r, f);
       }},
      {"outerplanar",
       [op](Rng& r, FaultInjector* f) {
         const OuterplanarityInstance inst{&op->graph, op->block_cycles};
         return run_protocol(make_instance(inst), {3}, r, f);
       }},
      {"planarity",
       [pl](Rng& r, FaultInjector* f) {
         const PlanarityInstance inst{&pl->graph, &pl->rotation};
         return run_protocol(make_instance(inst), {3}, r, f);
       }},
      {"series-parallel",
       [sp](Rng& r, FaultInjector* f) {
         const SeriesParallelInstance inst{&sp->graph, sp->ears};
         return run_protocol(make_instance(inst), {3}, r, f);
       }},
      {"treewidth2",
       [tw](Rng& r, FaultInjector* f) {
         const Treewidth2Instance inst{&tw->graph, tw->block_ears};
         return run_protocol(make_instance(inst), {3}, r, f);
       }},
  };
}

TEST(FaultSweep, HonestTranscriptsKeepPerfectCompleteness) {
  for (const FaultTask& task : make_tasks(64)) {
    for (int s = 0; s < 3; ++s) {
      Rng rng(100 + s);
      // Both the clean path and a wired-up injector at rate 0 must accept.
      const Outcome clean = task.run(rng, nullptr);
      EXPECT_TRUE(clean.accepted) << task.name;
      EXPECT_EQ(clean.reject_reason, RejectReason::none) << task.name;
      FaultInjector idle({7, 0.0, kAllFaultModels});
      Rng rng2(100 + s);
      const Outcome wired = task.run(rng2, &idle);
      EXPECT_TRUE(wired.accepted) << task.name;
      EXPECT_EQ(idle.total_faults(), 0);
    }
  }
}

TEST(FaultSweep, EveryLabelDroppedRejectsWithMissingLabel) {
  // Regression for the never-throw contract at its extreme: every recorded
  // label replaced by the empty label. A run must return a rejecting Outcome
  // whose dominant reason is missing_label — not throw.
  for (const FaultTask& task : make_tasks(64)) {
    FaultInjector inj({1, 1.0, fault_bit(FaultModel::label_drop)});
    Rng rng(1);
    Outcome o;
    ASSERT_NO_THROW(o = task.run(rng, &inj)) << task.name;
    EXPECT_GT(inj.total_faults(), 0) << task.name;
    EXPECT_FALSE(o.accepted) << task.name;
    EXPECT_GT(o.rejected_nodes, 0) << task.name;
    EXPECT_EQ(o.reject_reason, RejectReason::missing_label) << task.name;
  }
}

TEST(FaultSweep, MutatedTranscriptsNeverThrow) {
  // The crash-freedom sweep: all models x all tasks, >= 1000 mutated
  // transcripts in total. Every execution must return (reject or, for
  // semantically null mutations, accept) — zero exceptions — and every
  // rejection must carry a populated reason.
  const auto tasks = make_tasks(48);
  const double rates[] = {0.05, 0.3, 1.0};
  int transcripts = 0;
  int mutated = 0;
  int detected = 0;
  for (const FaultTask& task : tasks) {
    for (int m = 0; m < kNumFaultModels; ++m) {
      for (double rate : rates) {
        for (int s = 0; s < 4; ++s) {
          FaultInjector inj({static_cast<std::uint64_t>(s) * 977 + m, rate,
                             fault_bit(static_cast<FaultModel>(m))});
          Rng rng(5000 + s);
          Outcome o;
          ASSERT_NO_THROW(o = task.run(rng, &inj))
              << task.name << " model=" << fault_model_name(static_cast<FaultModel>(m))
              << " rate=" << rate << " seed=" << s;
          ++transcripts;
          if (inj.total_faults() > 0) ++mutated;
          if (!o.accepted) {
            ++detected;
            EXPECT_NE(o.reject_reason, RejectReason::none) << task.name;
            EXPECT_GT(o.rejected_nodes, 0) << task.name;
          }
        }
      }
    }
  }
  EXPECT_GE(transcripts, 500);
  EXPECT_GT(mutated, transcripts / 2);
  // Detection is not required for every mutation (a swap of equal labels is
  // semantically null; coin flips on sparsely-coined tasks can miss), but the
  // hardened decode must catch the bulk of them.
  EXPECT_GT(detected, mutated / 2);
}

TEST(FaultSweep, DominantReasonReflectsModel) {
  // width_corrupt surfaces as width_mismatch, field_append as malformed_label:
  // the taxonomy is preserved end-to-end through Outcome.
  const auto tasks = make_tasks(48);
  for (const FaultTask& task : tasks) {
    FaultInjector wc({3, 1.0, fault_bit(FaultModel::width_corrupt)});
    Rng rng(9);
    const Outcome o = task.run(rng, &wc);
    EXPECT_FALSE(o.accepted) << task.name;
    EXPECT_EQ(o.reject_reason, RejectReason::width_mismatch) << task.name;
  }
  for (const FaultTask& task : tasks) {
    FaultInjector fa({3, 1.0, fault_bit(FaultModel::field_append)});
    Rng rng(9);
    const Outcome o = task.run(rng, &fa);
    EXPECT_FALSE(o.accepted) << task.name;
    EXPECT_EQ(o.reject_reason, RejectReason::malformed_label) << task.name;
  }
}

}  // namespace
}  // namespace lrdip
