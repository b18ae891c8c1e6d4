// perfbench_driver: runs one workload in this process and prints its
// metrics. run.py builds it and starts one driver process per run.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--trace-out <file>] [--setup-reps <k>]
//                    [--commit <id>] [--daemon <lrdipd>]
//
// Workload "service" is the lrdipd probe (service_probe.hpp), which needs
// --daemon.
// The last line of stdout is the result object {correct, attempted, failed,
// metrics}. Before it come a "meta" line (host, build and run settings, the
// tail percentile and its sample count, failures) and, in traced runs, a
// "layers" line with the workload-specific per-layer metrics. Exit code 1
// when any op failed its correctness check, 2 on bad usage or set-up error.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dip/parallel.hpp"
#include "graph/boyer_myrvold.hpp"
#include "graph/io.hpp"
#include "graph/kuratowski.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "service_probe.hpp"
#include "stats.hpp"
#include "support/cpu.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  int setup_reps = 3;
  std::string commit = "unknown";
  std::string daemon;  // lrdipd executable, service probe only
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>] [--setup-reps <k>] "
               "[--commit <id>] [--daemon <lrdipd>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--setup-reps") {
      a.setup_reps = std::max(1, std::stoi(val));
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--daemon") {
      a.daemon = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!is_workload(a.workload) && a.workload != "service") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.workload == "service" && a.daemon.empty()) usage("service needs --daemon");
  if (a.work_dir.empty()) usage("--work-dir is required");
  return a;
}

struct Measurement {
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> op_ms_by_name;
  OpTally tally;
  double op_wall_s = 0.0;  // time inside ops; correctness checks excluded
  int cycles = 0;
  std::vector<std::string> errors;

  void merge_counts(const Measurement& o) {
    tally.attempted += o.tally.attempted;
    tally.failed += o.tally.failed;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// Repeats whole cycles until `seconds` have passed (at least one cycle).
/// Protocol ops draw a fresh coin seed each; batch items keep theirs.
Measurement measure(const Workload& w, const lrdip::Runtime& rt, double seconds,
                    std::uint64_t seed, Tracer& tracer, std::int64_t* op_counter) {
  Measurement m;
  const std::int64_t t0 = now_ns();
  do {
    for (const OpSpec& op : w.cycle) {
      const std::int64_t id = (*op_counter)++;
      tracer.begin_op(id);
      OpResult r;
      {
        const SpanScope s(tracer, "op." + op.name);
        r = run_op(op, w, rt, mix_seed(seed, static_cast<std::uint64_t>(id)), tracer);
      }
      if (lrdip::obs::metrics_enabled()) lrdip::obs::MetricsRegistry::instance().take_completed();
      m.tally.add(r.ok, op.nodes);
      m.op_ms.push_back(r.wall_s * 1e3);
      m.op_ms_by_name[op.name].push_back(r.wall_s * 1e3);
      m.op_wall_s += r.wall_s;
      if (!r.ok) m.errors.push_back(op.name + ": " + r.error);
    }
    ++m.cycles;
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
  return m;
}

/// Metered protocol data from one sequential pass over a cycle: every
/// protocol execution runs alone from this thread with the registry on, so
/// each RunMetrics record is exact (batch items run one by one here).
struct Attribution {
  std::map<std::string, double> run_s;    // per task
  std::map<std::string, double> stage_s;  // per obs stage timer
  double run_wall_s = 0.0;
  double unattributed_s = 0.0;
  std::int64_t regions = 0;
  double parallel_wall_s = 0.0;
  double util_weighted = 0.0;
  std::int64_t labels = 0;
  std::int64_t label_bits = 0;
  std::int64_t coin_bits = 0;
  int adversary_items = 0;
  int adversary_accepted = 0;

  void absorb(const std::vector<lrdip::obs::RunMetrics>& runs) {
    for (const auto& rm : runs) {
      const double wall = static_cast<double>(rm.wall_ns) * 1e-9;
      run_s[rm.task] += wall;
      run_wall_s += wall;
      std::int64_t top_ns = 0;
      for (const auto& [name, st] : rm.stages) {
        stage_s[name] += static_cast<double>(st.wall_ns) * 1e-9;
        top_ns = std::max(top_ns, st.wall_ns);
      }
      unattributed_s += static_cast<double>(std::max<std::int64_t>(0, rm.wall_ns - top_ns)) * 1e-9;
      regions += rm.parallel.regions;
      const double pw = static_cast<double>(rm.parallel.wall_ns) * 1e-9;
      parallel_wall_s += pw;
      util_weighted += rm.parallel.utilization() * pw;
      for (const auto& rc : rm.rounds) {
        labels += rc.label_count;
        label_bits += rc.total_bits;
        coin_bits += rc.coin_bits;
      }
    }
  }
};

Attribution attribute(const Workload& w, const lrdip::Runtime& rt, std::uint64_t seed) {
  auto& reg = lrdip::obs::MetricsRegistry::instance();
  Attribution a;
  reg.take_completed();
  reg.set_enabled(true);
  auto run_one = [&](lrdip::Task task, const std::string& path, std::uint64_t coin,
                     lrdip::FaultInjector* adv) {
    const lrdip::GraphFile gf = lrdip::read_graph_file(path);
    const lrdip::BoundInstance bi = lrdip::bind_instance(task, gf);
    lrdip::Rng rng(coin);
    const lrdip::Outcome out = rt.run(bi.view(), rng, adv);
    a.absorb(reg.take_completed());
    return out;
  };
  for (const OpSpec& op : w.cycle) {
    if (op.kind == OpKind::kProtocol) {
      run_one(op.task, op.path, mix_seed(seed, 0xa77), nullptr);
    } else if (op.kind == OpKind::kBatch) {
      for (const BatchEntry& e : op.items) {
        const auto adv = make_adversary(e, w);
        const lrdip::Outcome out = run_one(e.task, e.path, e.seed, adv.get());
        if (adv) {
          ++a.adversary_items;
          a.adversary_accepted += out.accepted ? 1 : 0;
        }
      }
    }
  }
  reg.set_enabled(false);
  reg.take_completed();
  return a;
}

/// Boyer–Myrvold (embedding output) on every distinct graph of one cycle,
/// and Kuratowski witness extraction on the non-planar ones.
struct PlanaritySweep {
  double bm_s = 0.0;
  std::int64_t edges = 0;
  double kuratowski_s = 0.0;
  int nonplanar = 0;
};

PlanaritySweep sweep_planarity(const Workload& w) {
  std::vector<std::string> paths;
  for (const OpSpec& op : w.cycle) {
    if (op.kind == OpKind::kBatch) {
      for (const BatchEntry& e : op.items) paths.push_back(e.path);
    } else {
      paths.push_back(op.path);
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  PlanaritySweep s;
  for (const std::string& p : paths) {
    const lrdip::GraphFile gf = lrdip::read_graph_file(p);
    std::int64_t t0 = now_ns();
    const lrdip::PlanarityResult res = lrdip::boyer_myrvold(gf.graph, lrdip::BmOutput::kEmbedding);
    s.bm_s += static_cast<double>(now_ns() - t0) * 1e-9;
    s.edges += gf.graph.m();
    if (!res.planar) {
      t0 = now_ns();
      const auto witness = lrdip::kuratowski_witness(gf.graph);
      s.kuratowski_s += static_cast<double>(now_ns() - t0) * 1e-9;
      ++s.nonplanar;
      if (witness.empty()) throw std::runtime_error("no Kuratowski witness for " + p);
    }
  }
  return s;
}

/// One cycle's op time at `threads` executor threads (untraced).
double cycle_seconds(const Workload& w, const lrdip::Runtime& rt, int threads,
                     std::uint64_t seed, Measurement* counts) {
  lrdip::set_parallel_threads(threads);
  Tracer off(false);
  std::int64_t ids = 1 << 20;
  const Measurement m = measure(w, rt, 0.0, seed, off, &ids);
  counts->merge_counts(m);
  return m.op_wall_s;
}

/// Host, build and run settings stamped on every result's meta line.
std::string run_stamp(const Args& args, int nproc, int threads) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return ", \"seed\": " + std::to_string(args.seed) + ", \"seconds\": " + num(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") + ", \"nproc\": " + std::to_string(nproc) +
         ", \"threads\": " + std::to_string(threads) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"simd\": " + quoted(lrdip::simd_level_name(lrdip::simd_active_level())) +
         ", \"commit\": " + quoted(args.commit);
}

int run(const Args& args) {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(nproc, 4);
  if (args.workload == "service") {
    ServiceProbeArgs sp;
    sp.seed = args.seed;
    sp.seconds = args.seconds;
    sp.work_dir = args.work_dir;
    sp.daemon = args.daemon;
    sp.threads = threads;
    sp.setup_reps = args.setup_reps;
    sp.meta = run_stamp(args, nproc, threads);
    return run_service_probe(sp);
  }
  lrdip::set_parallel_threads(threads);

  // Set-up, repeated; the instances of the last repetition are measured.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  Workload w;
  for (int r = 0; r < args.setup_reps; ++r) {
    const std::int64_t t0 = now_ns();
    w = setup_workload(args.workload, args.seed, args.work_dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    double g = 0.0;
    for (const auto& [family, secs] : w.gen_s) g += secs;
    gen_s.push_back(g);
  }

  const lrdip::Runtime rt;
  std::int64_t op_counter = 0;
  Tracer off(false);
  Measurement main;
  MetricSet metrics;
  MetricSet layers;
  if (!args.trace) {
    main = measure(w, rt, args.seconds, args.seed, off, &op_counter);
    const TailPick tail = pick_tail(main.op_ms);
    metrics.add("verify_p50_ms", median(main.op_ms), "ms");
    metrics.add("verify_tail_ms", tail.value, "ms");
    metrics.add("verify_nodes_per_s", main.tally.nodes_per_s(main.op_wall_s), "nodes/s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
    std::cout << "{\"meta\": {\"tail_percentile\": " << num(tail.percentile)
              << ", \"tail_beyond\": " << tail.beyond << ", \"tail_samples\": " << tail.samples;
  } else {
    // Untraced half for the overhead baseline, then the traced half with the
    // metrics registry on and a span around every public call.
    const Measurement plain = measure(w, rt, args.seconds / 2, args.seed, off, &op_counter);
    Tracer tracer(true);
    lrdip::obs::MetricsRegistry::instance().set_enabled(true);
    main = measure(w, rt, args.seconds / 2, args.seed, tracer, &op_counter);
    lrdip::obs::MetricsRegistry::instance().set_enabled(false);
    main.merge_counts(plain);

    const Attribution a = attribute(w, rt, args.seed);
    const PlanaritySweep ps = sweep_planarity(w);
    const double t1 = cycle_seconds(w, rt, 1, args.seed, &main);
    const double tn = cycle_seconds(w, rt, threads, args.seed, &main);

    const auto& ls = tracer.layer_seconds();
    auto layer = [&](const std::string& name) {
      const auto it = ls.find(name);
      return it == ls.end() ? 0.0 : it->second;
    };
    const double cycles = main.cycles;
    const double read_s = layer("graph.io.read");
    const double bytes = tracer.counts().count("graph.io.bytes")
                             ? tracer.counts().at("graph.io.bytes")
                             : 0.0;
    metrics.add("graph.io.parse_s", read_s / cycles, "s");
    metrics.add("graph.io.parse_mib_per_s", bytes / (1 << 20) / read_s, "MiB/s");
    metrics.add("protocols.bind_s", layer("protocols.bind") / cycles, "s");
    metrics.add("protocols.run_s",
                (layer("protocols.run") + layer("dip.runtime.run_batch")) / cycles, "s");
    metrics.add("protocols.unattributed_s", a.unattributed_s, "s");
    metrics.add("graph.bm_s", ps.bm_s, "s");
    metrics.add("graph.bm_ns_per_edge", ps.bm_s * 1e9 / static_cast<double>(ps.edges), "ns");
    metrics.add("gen.s", median(gen_s), "s");
    metrics.add("dip.parallel.regions", static_cast<double>(a.regions), "count");
    metrics.add("dip.parallel.wall_s", a.parallel_wall_s, "s");
    metrics.add("dip.parallel.utilization",
                a.parallel_wall_s > 0 ? a.util_weighted / a.parallel_wall_s : 0.0, "ratio");
    metrics.add("dip.parallel.serial_fraction", 1.0 - a.parallel_wall_s / a.run_wall_s, "ratio");
    metrics.add("dip.parallel.speedup", t1 / tn, "x");
    metrics.add("dip.store.labels", static_cast<double>(a.labels), "count");
    metrics.add("dip.store.label_bits", static_cast<double>(a.label_bits), "bits");
    metrics.add("dip.store.coin_bits", static_cast<double>(a.coin_bits), "bits");
    metrics.add("obs.overhead_ratio", median(main.op_ms) / median(plain.op_ms), "ratio");

    // Workload-specific layers: present only where the workload has them.
    for (const auto& [task, secs] : a.run_s) {
      layers.add("protocols.run_s." + task, secs, "s");
    }
    for (const auto& [timer, secs] : a.stage_s) {
      layers.add("protocols.stage." + timer + "_s", secs, "s");
    }
    for (const auto& [family, secs] : w.gen_s) {
      layers.add("gen." + family + "_s", secs, "s");
    }
    if (ps.nonplanar > 0) layers.add("graph.kuratowski_s", ps.kuratowski_s, "s");
    if (layer("graph.bm.check") > 0) {
      layers.add("graph.bm.check_s", layer("graph.bm.check") / cycles, "s");
    }
    const double batch_s = layer("dip.runtime.run_batch");
    if (batch_s > 0) {
      int within = 0;
      std::int64_t items = 0;
      for (const OpSpec& op : w.cycle) {
        for (const BatchEntry& e : op.items) {
          ++items;
          within += e.n >= rt.config().small_instance_threshold ? 1 : 0;
        }
      }
      layers.add("dip.runtime.batch_s", batch_s / cycles, "s");
      layers.add("dip.runtime.items_per_s", static_cast<double>(items) * cycles / batch_s, "1/s");
      layers.add("dip.runtime.within_items", within, "count");
    }
    if (a.adversary_items > 0) {
      layers.add("adversary.items", a.adversary_items, "count");
      layers.add("adversary.accepted", a.adversary_accepted, "count");
    }
    layers.add("setup.serialize_s", w.serialize_s, "s");
    layers.add("setup.reference_s", w.reference_s, "s");
    layers.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");

    if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
    std::cout << "{\"layers\": " << layers.json() << "}\n";
    std::cout << "{\"meta\": {\"untraced_ops\": " << plain.op_ms.size()
              << ", \"traced_ops\": " << main.op_ms.size();
  }

  std::int64_t nodes_per_cycle = 0;
  for (const OpSpec& op : w.cycle) nodes_per_cycle += op.nodes;
  std::cout << ", \"workload\": " << quoted(args.workload) << run_stamp(args, nproc, threads)
            << ", \"cycles\": " << main.cycles
            << ", \"ops_per_cycle\": " << w.cycle.size()
            << ", \"nodes_per_cycle\": " << nodes_per_cycle
            << ", \"failed_ratio\": " << num(main.tally.failed_ratio()) << ", \"op_p50_ms\": {";
  const char* sep = "";
  for (const auto& [name, ms] : main.op_ms_by_name) {
    std::cout << sep << quoted(name) << ": " << num(median(ms));
    sep = ", ";
  }
  std::cout << "}, \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) std::cout << (i ? ", " : "") << num(setup_s[i]);
  std::cout << "], \"failures\": [";
  for (std::size_t i = 0; i < std::min<std::size_t>(main.errors.size(), 8); ++i) {
    std::cout << (i ? ", " : "") << quoted(main.errors[i]);
  }
  std::cout << "]}}\n";
  for (const std::string& e : main.errors) std::cerr << "perfbench: op failed: " << e << "\n";

  const bool correct = main.tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << main.tally.attempted << ", \"failed\": " << main.tally.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
