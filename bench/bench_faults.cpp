// Experiment E-FAULTS: Byzantine transcript fault injection across all seven
// protocol tasks (the registry supplies the task list, the honest instances,
// and the entry points). A FaultInjector mutates the recorded transcript
// between prover and verifier (dip/faults.hpp); the hardened decision loops
// must degrade gracefully: reject locally with a populated RejectReason, never
// throw, at every fault rate including rate = 1, while rate = 0 keeps perfect
// completeness on honest yes-instances.
//
// Two sweeps:
//   (1) detection rate vs fault rate, all models enabled, per task;
//   (2) detection rate vs fault model at a fixed rate, per task.
// Every run is wrapped in a catch-all: any escaped exception is a harness
// failure and is counted in the `crashes` column (expected 0 everywhere).
#include <array>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dip/faults.hpp"
#include "protocols/registry.hpp"

using namespace lrdip;
using namespace lrdip::bench;

namespace {

int fault_bench_n(int def = 256) {
  return env_int("LRDIP_BENCH_FAULT_N", 16, 65536, def);
}

struct Cell {
  int trials = 0;
  int rejected = 0;
  int crashes = 0;
  std::int64_t faults = 0;
  RejectReason dominant = RejectReason::none;
};

Cell sweep_cell(const ProtocolSpec& spec, const BoundInstance& inst, int c, double rate,
                std::uint32_t models, int trials, std::uint64_t seed_base, Rng& rng) {
  Cell cell;
  cell.trials = trials;
  int hist[5] = {0, 0, 0, 0, 0};
  for (int t = 0; t < trials; ++t) {
    FaultInjector inj({seed_base + static_cast<std::uint64_t>(t), rate, models});
    try {
      const Outcome o = spec.run(inst.view(), {c}, rng, rate > 0 ? &inj : nullptr);
      if (!o.accepted) {
        ++cell.rejected;
        ++hist[static_cast<int>(o.reject_reason)];
      }
    } catch (...) {
      ++cell.crashes;  // never expected: the verifier must reject, not throw
    }
    cell.faults += inj.total_faults();
  }
  int best = 0;
  for (int r = 1; r < 5; ++r) {
    if (hist[r] >= hist[best]) best = r;
  }
  if (hist[best] > 0) cell.dominant = static_cast<RejectReason>(best);
  return cell;
}

}  // namespace

int main() {
  const int n = fault_bench_n();
  const int trials = soundness_trials(40);
  const int c = 3;

  // Fixed honest yes-instances, one per task (seed pinned per task so adding
  // a task never reshuffles the others); the sweep varies only the attack
  // seed, so completeness at rate 0 is exactly measurable.
  const std::span<const ProtocolSpec, kNumTasks> tasks = protocol_registry();
  std::vector<BoundInstance> instances;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    Rng gen_rng(777 + static_cast<std::uint64_t>(ti));
    instances.push_back(tasks[ti].make_yes(n, gen_rng));
  }

  print_header("E-FAULTS: Byzantine transcript corruption (n=" + std::to_string(n) + ", " +
                   std::to_string(trials) + " trials/cell)",
               "a seeded FaultInjector mutates the recorded transcript between prover and "
               "verifier; the hardened decode must reject (not crash) with a populated "
               "reason, and keep perfect completeness at rate 0");

  Rng rng(31337);
  std::cout << "-- detection rate vs fault rate (all models enabled) --\n";
  Table t({"task", "rate", "detected", "crashes", "avg_faults", "dominant_reason"});
  const double rates[] = {0.0, 0.02, 0.1, 0.5, 1.0};
  int total_crashes = 0;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    for (double rate : rates) {
      const Cell cell =
          sweep_cell(tasks[ti], instances[ti], c, rate, kAllFaultModels, trials, 0x5eed0000, rng);
      total_crashes += cell.crashes;
      t.add_row({tasks[ti].name, Table::num(rate, 2),
                 Table::num(cell.rejected) + "/" + Table::num(cell.trials),
                 Table::num(cell.crashes), Table::num(double(cell.faults) / cell.trials, 1),
                 reject_reason_name(cell.dominant)});
    }
  }
  t.print(std::cout);

  std::cout << "\n-- detection rate vs fault model (rate = 0.25) --\n";
  Table t2({"model", "task", "detected", "crashes", "avg_faults", "dominant_reason"});
  for (int m = 0; m < kNumFaultModels; ++m) {
    const FaultModel model = static_cast<FaultModel>(m);
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const Cell cell =
          sweep_cell(tasks[ti], instances[ti], c, 0.25, fault_bit(model), trials, 0xfadefade, rng);
      total_crashes += cell.crashes;
      t2.add_row({fault_model_name(model), tasks[ti].name,
                  Table::num(cell.rejected) + "/" + Table::num(cell.trials),
                  Table::num(cell.crashes), Table::num(double(cell.faults) / cell.trials, 1),
                  reject_reason_name(cell.dominant)});
    }
  }
  t2.print(std::cout);

  std::cout << "\nshape check: rate 0 keeps perfect completeness (0 detected); detection "
               "climbs with rate and hits every run at rate 1 for destructive models "
               "(label_drop -> missing_label); crashes stay 0 everywhere.\n";
  if (total_crashes > 0) {
    std::cout << "FAILED: " << total_crashes << " uncaught exception(s) escaped run_protocol\n";
    return 1;
  }
  return 0;
}
