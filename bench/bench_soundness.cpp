// Experiment E-SOUNDNESS: empirical soundness error vs n, for every task,
// against the paper's eps <= c / polylog n bound.
//
// Sweeps n over powers of two (default 2^8 .. 2^14; override with
// --min-log-n/--max-log-n or LRDIP_BENCH_MAX_LOG_N) on near-yes no-instances
// (one-edge-flip, order-swap-plus-K4, forged rotation, ... — the registry's
// make_near_no per task) and attacks each with the three scripted cheating
// provers from src/adversary: replay (honest labels from the paired
// yes-instance), greedy (per-round local search over label values), and
// seeded-random (structured fills respecting the width contracts). Each
// (task, n, strategy) cell is K independent verifier coin draws through the
// batch Runtime; the table reports the acceptance rate, its one-sided
// Clopper-Pearson upper bound, and the 1/log2(n) reference curve. The
// estimator is seed-pinned and the Rng is ours, so the acceptance COUNTS are
// bit-for-bit reproducible — which is what lets CI hold them to the exact
// per-cell budgets in bench/budgets/soundness.json.
//
//   bench_soundness [--min-log-n K] [--max-log-n K] [--trials T] [--smoke]
//                   [--json out.json] [--write-budgets dir]
//
// --smoke caps the sweep at n = 2^9 for CI (same trials, same seeds: the
// small-n cells coincide exactly with the committed budget); --json writes
// the sweep (consumed by tools/check_budgets.py); --write-budgets refreshes
// bench/budgets/soundness.json. The greedy prover re-runs the protocol once
// per search candidate, so it is capped at n = 2^10 and the cap is logged.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/estimate.hpp"
#include "bench_util.hpp"
#include "protocols/registry.hpp"
#include "support/table.hpp"

using namespace lrdip;
using namespace lrdip::bench;

namespace {

// Local search replays the whole protocol per candidate edit; past this size
// a cell costs minutes, and the attack only weakens as n grows.
constexpr int kGreedyMaxLogN = 10;

struct Point {
  std::string task;
  std::string strategy;
  int log_n = 0;
  int n = 0;
  int trials = 0;
  int accepted = 0;
  int honest_accepted = 0;
  double rate = 0.0;
  double upper = 0.0;
  double bound = 0.0;  // 1 / log2(n): the paper's eps with c = 1, degree 1
};

void write_results_json(const std::string& path, const std::vector<Point>& points,
                        int min_log_n, int max_log_n, int trials, double alpha) {
  std::ofstream os(path);
  LRDIP_CHECK_MSG(os.good(), "cannot open " + path);
  os << "{\n  \"experiment\": \"E-SOUNDNESS\",\n"
     << "  \"metric\": \"acceptance_rate\",\n"
     << "  \"min_log_n\": " << min_log_n << ",\n  \"max_log_n\": " << max_log_n << ",\n"
     << "  \"trials\": " << trials << ",\n  \"alpha\": " << alpha << ",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"task\": \"" << p.task << "\", \"strategy\": \"" << p.strategy
       << "\", \"log_n\": " << p.log_n << ", \"n\": " << p.n << ", \"trials\": " << p.trials
       << ", \"accepted\": " << p.accepted << ", \"honest_accepted\": " << p.honest_accepted
       << ", \"rate\": " << p.rate << ", \"upper\": " << p.upper << ", \"bound\": " << p.bound
       << "}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

void write_budget_json(const std::string& dir, const std::vector<Point>& points) {
  const std::string path = dir + "/soundness.json";
  std::ofstream os(path);
  LRDIP_CHECK_MSG(os.good(), "cannot open " + path);
  // max_accepted is the measured count: the estimator is seed-pinned, so the
  // budget is exact per (task, strategy, log_n, trials) cell. The gate skips
  // cells whose trial count differs (a different LRDIP_BENCH_TRIALS is a
  // different experiment, not a regression).
  os << "{\n  \"experiment\": \"E-SOUNDNESS\",\n  \"metric\": \"accepted\",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"task\": \"" << p.task << "\", \"strategy\": \"" << p.strategy
       << "\", \"log_n\": " << p.log_n << ", \"trials\": " << p.trials
       << ", \"max_accepted\": " << p.accepted << "}"
       << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

constexpr const char* kUsage =
    "usage: bench_soundness [--min-log-n K] [--max-log-n K] [--trials T]"
    " [--smoke] [--json out.json] [--write-budgets dir]\n";

}  // namespace

int main(int argc, char** argv) {
  int min_log_n = 8;
  int max_log_n = std::min(14, lrdip::bench::max_log_n(14));
  int trials = soundness_trials(24);
  bool smoke = false;
  std::string json_path, budgets_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 < argc) return argv[++i];
      std::cerr << kUsage;
      std::exit(2);
    };
    if (a == "--min-log-n") {
      min_log_n = number_or_exit<int>(next(), kUsage);
    } else if (a == "--max-log-n") {
      max_log_n = number_or_exit<int>(next(), kUsage);
    } else if (a == "--trials") {
      trials = number_or_exit<int>(next(), kUsage);
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--write-budgets") {
      budgets_dir = next();
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (smoke) max_log_n = std::min(max_log_n, 9);
  if (min_log_n < 6 || max_log_n > 24 || min_log_n > max_log_n || trials < 1) {
    std::cerr << kUsage;
    return 2;
  }

  print_header("E-SOUNDNESS: cheating-prover acceptance vs n (n = 2^" +
                   std::to_string(min_log_n) + " .. 2^" + std::to_string(max_log_n) + ", " +
                   std::to_string(trials) + " coin draws per cell)",
               "acceptance rate of three scripted cheating provers on near-yes no-instances, "
               "with one-sided Clopper-Pearson upper bounds, against the paper's soundness "
               "error eps <= c / polylog n (reference curve 1/log2 n)");

  const Runtime rt;
  adversary::SoundnessEstimator::Options eopt;
  eopt.trials = trials;
  eopt.seed = 0x50fd5eedULL;  // pinned: budgets are exact, not statistical
  const adversary::SoundnessEstimator est(rt, eopt);

  const std::vector<adversary::Strategy> strategies = {
      adversary::Strategy::replay, adversary::Strategy::greedy,
      adversary::Strategy::seeded_random};

  std::vector<Point> points;
  bool greedy_capped = false;
  bool honest_clean = true;
  Table t({"task", "strategy", "log_n", "n", "accepted", "rate", "upper", "1/log2(n)",
           "honest"});
  for (const ProtocolSpec& spec : protocol_registry()) {
    for (int k = min_log_n; k <= max_log_n; ++k) {
      const int n = 1 << k;
      for (const adversary::Strategy s : strategies) {
        if (s == adversary::Strategy::greedy && k > kGreedyMaxLogN) {
          greedy_capped = true;
          continue;
        }
        const adversary::SoundnessPoint sp = est.estimate(spec.task, n, s);
        Point p;
        p.task = spec.name;
        p.strategy = adversary::strategy_name(s);
        p.log_n = k;
        p.n = n;
        p.trials = sp.acceptance.trials;
        p.accepted = sp.acceptance.accepted;
        p.honest_accepted = sp.honest.accepted;
        p.rate = sp.acceptance.rate();
        p.upper = sp.acceptance.upper(eopt.alpha);
        p.bound = 1.0 / std::log2(static_cast<double>(n));
        honest_clean = honest_clean && p.honest_accepted == 0;
        t.add_row({p.task, p.strategy, Table::num(k), Table::num(n), Table::num(p.accepted),
                   Table::num(p.rate, 3), Table::num(p.upper, 3), Table::num(p.bound, 3),
                   p.honest_accepted == 0 ? "rejects" : "ACCEPTED"});
        points.push_back(std::move(p));
      }
    }
  }
  t.print(std::cout);
  if (greedy_capped) {
    std::cout << "\n(greedy capped at n = 2^" << kGreedyMaxLogN
              << ": the local search re-runs the protocol per candidate edit)\n";
  }

  // Shape summary: per task, the worst acceptance rate across strategies at
  // the largest size must sit under the reference curve — the chart the paper
  // promises, in one line per task. The gate uses the point estimate: the
  // upper bound's floor is 1 - alpha^(1/K) even at zero acceptances, which
  // K = 24 draws cannot push under 1/log2(n) for n >= 2^10.
  std::cout << "\n-- worst-case acceptance vs 1/log2(n) at n = 2^" << max_log_n << " --\n";
  Table c({"task", "max_rate", "max_upper", "1/log2(n)", "within"});
  bool all_within = true;
  for (const ProtocolSpec& spec : protocol_registry()) {
    double max_rate = 0.0, max_upper = 0.0, bound = 0.0;
    for (const Point& p : points) {
      if (p.task != spec.name || p.log_n != max_log_n) continue;
      max_rate = std::max(max_rate, p.rate);
      max_upper = std::max(max_upper, p.upper);
      bound = p.bound;
    }
    const bool ok = max_rate <= bound;
    all_within = all_within && ok;
    c.add_row({spec.name, Table::num(max_rate, 3), Table::num(max_upper, 3),
               Table::num(bound, 3), ok ? "yes" : "NO"});
  }
  c.print(std::cout);
  std::cout << "\nevery honest run of a near-no instance must reject (column 'honest'); the "
               "cheating provers' acceptance rates sit under the paper's soundness error "
               "curve.\n";

  if (!json_path.empty()) {
    write_results_json(json_path, points, min_log_n, max_log_n, trials, eopt.alpha);
    std::cout << "wrote " << json_path << "\n";
  }
  if (!budgets_dir.empty()) {
    write_budget_json(budgets_dir, points);
    std::cout << "wrote " << budgets_dir << "/soundness.json\n";
  }
  if (!honest_clean) {
    std::cout << "FAILED: an honest run accepted a near-no instance\n";
    return 1;
  }
  if (!all_within) {
    std::cout << "FAILED: a cheating prover's acceptance rate exceeds 1/log2(n)\n";
    return 1;
  }
  return 0;
}
