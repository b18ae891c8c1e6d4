// Experiment E-LR (Lemmas 4.1 / 4.2): LR-sorting.
//
// Regenerates the paper's claim for the core protocol: 5 interaction rounds,
// O(log log n) proof size vs. the Theta(log n) trivial PLS, perfect
// completeness, soundness error 1/polylog n against the adaptive
// flipped-edge prover and the block-shift prover.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/registry.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(20250705);
  print_header("E-LR: LR-sorting (Lemma 4.1/4.2)",
               "claim: 5 rounds, O(log log n) bits vs Theta(log n) baseline; "
               "perfect completeness; 1/polylog n soundness error");

  Table t({"n", "m", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc",
           "flip_rej", "shift_rej"});
  const int trials = soundness_trials();
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const LrInstance yes = random_lr_yes(n, 1.0, rng);
    const LrSortingInstance inst = to_protocol_instance(yes);
    const Outcome o = run_protocol(make_instance(inst), {3}, rng);
    const int pls_bits = protocol_spec(Task::lr_sorting).pls_bits(n);

    int flip_rejects = 0, shift_rejects = 0;
    const int local_trials = std::max(4, trials / (1 + logn / 8));
    for (int s = 0; s < local_trials; ++s) {
      const LrInstance no = random_lr_no(std::min(n, 4096), 1.0, 1, rng);
      flip_rejects += !run_protocol(make_instance(to_protocol_instance(no)), {3}, rng).accepted;
      const LrInstance shifted = random_lr_yes(std::min(n, 4096), 1.0, rng);
      LrCheatSpec cheat;
      cheat.shift_block = true;
      shift_rejects +=
          !run_lr_sorting_cheating(to_protocol_instance(shifted), {3}, rng, cheat).accepted;
    }
    t.add_row({Table::num(std::uint64_t(n)), Table::num(std::uint64_t(inst.graph->m())),
               Table::num(o.rounds), Table::num(o.proof_size_bits), Table::num(pls_bits),
               Table::num(double(pls_bits) / o.proof_size_bits, 2), o.accepted ? "1.00" : "0.00",
               Table::num(double(flip_rejects) / local_trials, 2),
               Table::num(double(shift_rejects) / local_trials, 2)});
  }
  t.print(std::cout);
  std::cout << "\nshape check: dip_bits is ~flat (log log n); pls_bits doubles "
               "with every 2 rows (log n); rejection rates ~1.\n";
  return 0;
}
