#include <gtest/gtest.h>

#include <cmath>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(LrSorting, PerfectCompleteness) {
  Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    const int n = 32 + static_cast<int>(rng.uniform(400));
    const LrInstance gi = random_lr_yes(n, 1.0, rng);
    const LrSortingInstance inst = lr_sorting_instance(gi);
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    EXPECT_TRUE(o.accepted) << "n=" << n << " trial=" << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(LrSorting, CompletenessAtLargeScale) {
  Rng rng(2);
  const LrInstance gi = random_lr_yes(1 << 15, 1.0, rng);
  const LrSortingInstance inst = lr_sorting_instance(gi);
  const Outcome o = run_protocol(make_instance(inst), {3}, rng);
  EXPECT_TRUE(o.accepted);
}

TEST(LrSorting, SoundnessOneFlip) {
  Rng rng(3);
  int rejects = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_no(300, 1.0, 1, rng);
    const LrSortingInstance inst = lr_sorting_instance(gi);
    rejects += !run_protocol(make_instance(inst), {3}, rng).accepted;
  }
  // Soundness error is 1/polylog n; with c=3 and n=300 the cheat should
  // essentially never slip through 60 trials.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, SoundnessManyFlips) {
  Rng rng(4);
  int rejects = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_no(500, 1.0, 8, rng);
    const LrSortingInstance inst = lr_sorting_instance(gi);
    rejects += !run_protocol(make_instance(inst), {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(LrSorting, BlockShiftCheatIsCaught) {
  Rng rng(5);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(400, 1.0, rng);
    const LrSortingInstance inst = lr_sorting_instance(gi);
    LrCheatSpec cheat;
    cheat.shift_block = true;
    rejects += !run_lr_sorting_cheating(inst, {3}, rng, cheat).accepted;
  }
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, MisclassifiedEdgeCheatIsCaught) {
  Rng rng(21);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(600, 1.0, rng);
    LrCheatSpec cheat;
    cheat.misclassify_edge = true;
    rejects += !run_lr_sorting_cheating(lr_sorting_instance(gi), {3}, rng, cheat).accepted;
  }
  // Caught by the r_b block-identity check except on a 1/p collision.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, CorruptedMultiplicityCheatIsCaught) {
  Rng rng(22);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(600, 1.0, rng);
    LrCheatSpec cheat;
    cheat.corrupt_multiplicity = true;
    rejects += !run_lr_sorting_cheating(lr_sorting_instance(gi), {3}, rng, cheat).accepted;
  }
  // Caught by the verification-scheme PIT except with probability ~1/p'.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, DeterministicGivenSeed) {
  Rng gen1(77), gen2(77);
  const LrInstance a = random_lr_yes(800, 1.0, gen1);
  const LrInstance b = random_lr_yes(800, 1.0, gen2);
  Rng run1(5), run2(5);
  const Outcome oa = run_protocol(make_instance(lr_sorting_instance(a)), {3}, run1);
  const Outcome ob = run_protocol(make_instance(lr_sorting_instance(b)), {3}, run2);
  EXPECT_EQ(oa.accepted, ob.accepted);
  EXPECT_EQ(oa.proof_size_bits, ob.proof_size_bits);
  EXPECT_EQ(oa.total_label_bits, ob.total_label_bits);
}

TEST(LrSorting, ProofSizeGrowsDoublyLogarithmically) {
  Rng rng(6);
  // O(log log n): going from n=2^10 to n=2^20 should grow the proof size by
  // a small additive amount, far below the 2x of a log-n scheme.
  const LrInstance g1 = random_lr_yes(1 << 10, 1.0, rng);
  const LrInstance g2 = random_lr_yes(1 << 20, 1.0, rng);
  const Outcome o1 = run_protocol(make_instance(lr_sorting_instance(g1)), {3}, rng);
  const Outcome o2 = run_protocol(make_instance(lr_sorting_instance(g2)), {3}, rng);
  EXPECT_TRUE(o1.accepted);
  EXPECT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 1.7);
  // ... while the baseline doubles exactly.
  const ProtocolSpec& spec = protocol_spec(Task::lr_sorting);
  EXPECT_EQ(spec.pls_bits(1 << 10), 10);
  EXPECT_EQ(spec.pls_bits(1 << 20), 20);
}

// The one-round position-labeling stage (the short-path fallback) decides
// correctly on its own at any length.
TEST(LrSorting, BaselineDecidesCorrectly) {
  Rng rng(7);
  const LrInstance yes = random_lr_yes(100, 1.0, rng);
  const Outcome o = finalize(lr_trivial_position_stage(lr_sorting_instance(yes)));
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.rounds, 1);
  EXPECT_EQ(o.proof_size_bits, 7);  // ceil(log2 100) position bits
  const LrInstance no = random_lr_no(100, 1.0, 2, rng);
  EXPECT_FALSE(finalize(lr_trivial_position_stage(lr_sorting_instance(no))).accepted);
}

TEST(LrSorting, TinyInstancesUseTrivialProtocol) {
  Rng rng(8);
  const LrInstance yes = random_lr_yes(5, 1.0, rng);
  const Outcome o = run_protocol(make_instance(lr_sorting_instance(yes)), {3}, rng);
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.rounds, 1);
}

TEST(LrSorting, HigherSoundnessExponentGrowsProofLinearlyInC) {
  Rng rng(9);
  const LrInstance gi = random_lr_yes(1 << 14, 1.0, rng);
  const LrSortingInstance inst = lr_sorting_instance(gi);
  const Outcome o2 = run_protocol(make_instance(inst), {2}, rng);
  const Outcome o5 = run_protocol(make_instance(inst), {5}, rng);
  EXPECT_TRUE(o2.accepted);
  EXPECT_TRUE(o5.accepted);
  EXPECT_GT(o5.proof_size_bits, o2.proof_size_bits);
  EXPECT_LT(o5.proof_size_bits, o2.proof_size_bits * 4);
}

TEST(LrSorting, DensityDoesNotBlowUpProofSize) {
  // The proof size cap is per-node; denser instances only add per-edge labels
  // on accountable endpoints (<= 5 per node on planar instances).
  Rng rng(10);
  const LrInstance sparse = random_lr_yes(1 << 12, 0.2, rng);
  const LrInstance dense = random_lr_yes(1 << 12, 2.0, rng);
  const Outcome os = run_protocol(make_instance(lr_sorting_instance(sparse)), {3}, rng);
  const Outcome od = run_protocol(make_instance(lr_sorting_instance(dense)), {3}, rng);
  EXPECT_TRUE(os.accepted);
  EXPECT_TRUE(od.accepted);
  EXPECT_LT(od.proof_size_bits, os.proof_size_bits * 3);
}

}  // namespace
}  // namespace lrdip
