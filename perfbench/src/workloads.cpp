#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "graph/boyer_myrvold.hpp"
#include "graph/io.hpp"
#include "graph/kuratowski.hpp"
#include "graph/rotation.hpp"
#include "service/protocol.hpp"
#include "support/digest.hpp"

namespace perfbench {

using lrdip::BoundInstance;
using lrdip::Task;

namespace {

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Set-up state shared by the three workload set-ups.
struct SetupContext {
  Workload& w;
  std::uint64_t seed;
  std::string dir;
  const lrdip::Runtime& rt;
  Tracer off{false};
  int files = 0;

  BoundInstance generate(Task t, int n, bool yes, std::uint64_t gen_seed) {
    lrdip::Rng rng(gen_seed);
    const std::int64_t t0 = now_ns();
    BoundInstance bi = yes ? lrdip::make_yes_instance(t, n, rng)
                           : lrdip::make_near_no_instance(t, n, rng);
    w.gen_s[std::string(lrdip::task_name(t)) + (yes ? ".yes" : ".near_no")] += seconds_since(t0);
    return bi;
  }

  /// Writes `gf` to a fresh file; returns its path and fills in bytes.
  std::string write(const lrdip::GraphFile& gf, std::int64_t* bytes) {
    const std::int64_t t0 = now_ns();
    const std::string path = dir + "/g" + std::to_string(files++) + ".graph";
    lrdip::write_graph_file(path, gf);
    *bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
    w.serialize_s += seconds_since(t0);
    return path;
  }

  OpSpec file_op(const std::string& name, OpKind kind, Task t, const lrdip::GraphFile& gf,
                 bool yes) {
    OpSpec op;
    op.name = name;
    op.kind = kind;
    op.task = t;
    op.path = write(gf, &op.bytes);
    op.nodes = gf.graph.n();
    op.expect_yes = yes;
    return op;
  }

  OpSpec protocol_op(Task t, int n) {
    const BoundInstance bi = generate(t, n, true, mix_seed(seed, static_cast<std::uint64_t>(t)));
    return file_op(lrdip::task_name(t), OpKind::kProtocol, t, to_graph_file(bi), true);
  }

  /// Runs `op` once from the caller thread and pins its digest. The
  /// reference must already agree with the instance's known class.
  void reference(OpSpec& op) {
    const std::int64_t t0 = now_ns();
    op.ref_digest.reset();
    const OpResult r = run_op(op, w, rt, mix_seed(seed, 0x5eed), off);
    if (!r.ok) throw std::runtime_error("reference " + op.name + ": " + r.error);
    op.ref_digest = r.digest;
    w.reference_s += seconds_since(t0);
  }
};

void setup_lr_file(SetupContext& b) {
  constexpr int kN = 1 << 18;
  for (const Task t : {Task::lr_sorting, Task::log_star_planarity}) {
    b.w.cycle.push_back(b.protocol_op(t, kN));
    b.reference(b.w.cycle.back());
  }
}

void setup_planar_file(SetupContext& b) {
  constexpr int kN = 1 << 16;
  constexpr int kNonPlanarN = 1 << 10;
  for (const Task t : {Task::embedding, Task::planarity, Task::path_outerplanar,
                       Task::outerplanar}) {
    b.w.cycle.push_back(b.protocol_op(t, kN));
  }
  // The centralized check reads the planarity task's own file.
  OpSpec planar = b.w.cycle[1];
  planar.name = "bm-planar";
  planar.kind = OpKind::kPlanarCheck;
  b.w.cycle.push_back(planar);

  const BoundInstance no = b.generate(Task::planarity, kNonPlanarN, false,
                                      mix_seed(b.seed, 0x4e50));
  lrdip::GraphFile gf;
  gf.graph = no.graph();
  b.w.cycle.push_back(b.file_op("bm-nonplanar", OpKind::kPlanarCheck, Task::planarity, gf, false));
  for (OpSpec& op : b.w.cycle) b.reference(op);
}

void setup_small_batch(SetupContext& b) {
  // Per task: five yes-instances below small_instance_threshold (2048),
  // which run across the batch, and one at n = 4096, which runs alone with
  // the whole pool; plus two near-no instances at n = 2^8. Only one item
  // per task is above the threshold because the within-instance path runs
  // thousands of tiny parallel regions, and with three such items per task
  // the batch time swung by a quarter between runs on a shared 4-vCPU host.
  // Near-no items stay small because planarity near-no generation runs the
  // quadratic witness extraction, and a series-parallel near-no file (no
  // ear certificate) sends the honest prover into a superlinear centralized
  // search (1.4 s at n = 785) whose cost swings with the instance; at
  // n = 512 it made the batch time depend on the seed. The first near-no
  // item carries a strategic prover, alternating random rewrites and
  // same-seed replay.
  constexpr int kYesN[] = {256, 512, 768, 1024, 1536, 4096};
  constexpr int kNoN = 256;
  OpSpec op;
  op.name = "batch";
  op.kind = OpKind::kBatch;
  for (int ti = 0; ti < lrdip::kNumTasks; ++ti) {
    const Task t = static_cast<Task>(ti);
    for (int j = 0; j < 8; ++j) {
      const bool yes = j < 6;
      const int n = yes ? kYesN[j] : kNoN;
      const std::uint64_t gen_seed = mix_seed(b.seed, static_cast<std::uint64_t>(ti * 8 + j));
      const BoundInstance bi = b.generate(t, n, yes, gen_seed);
      BatchEntry e;
      e.task = t;
      e.n = bi.graph().n();
      e.expect_yes = yes;
      e.seed = mix_seed(gen_seed, 0xc01);
      if (j == 6) {
        e.adversary = ti % 2 == 0 ? Adversary::kRandom : Adversary::kReplay;
      }
      if (e.adversary == Adversary::kReplay) {
        // The honest transcript of the same-seed yes twin.
        const BoundInstance twin = b.generate(t, n, true, gen_seed);
        const std::int64_t t0 = now_ns();
        lrdip::adversary::TranscriptRecorder rec;
        lrdip::Rng rng(e.seed);
        b.rt.run(twin.view(), rng, &rec);
        b.w.transcripts.push_back(rec.take());
        e.transcript = static_cast<int>(b.w.transcripts.size()) - 1;
        b.w.reference_s += seconds_since(t0);
      }
      std::int64_t bytes = 0;
      e.path = b.write(to_graph_file(bi), &bytes);
      op.bytes += bytes;
      op.nodes += e.n;
      op.items.push_back(e);
    }
  }
  // Item references one by one from the caller thread; run_batch must then
  // reproduce them bit for bit.
  const std::int64_t t0 = now_ns();
  for (BatchEntry& e : op.items) {
    const lrdip::GraphFile gf = lrdip::read_graph_file(e.path);
    const BoundInstance bi = lrdip::bind_instance(e.task, gf);
    const auto adv = make_adversary(e, b.w);
    lrdip::Rng rng(e.seed);
    const lrdip::Outcome out = b.rt.run(bi.view(), rng, adv.get());
    if (out.accepted != e.expect_yes) {
      throw std::runtime_error(std::string("reference batch item ") + lrdip::task_name(e.task) +
                               " n=" + std::to_string(e.n) + ": wrong verdict");
    }
    e.ref_digest = lrdip::service::outcome_digest(out);
  }
  b.w.reference_s += seconds_since(t0);
  b.w.cycle.push_back(std::move(op));
  b.reference(b.w.cycle.back());
}

OpResult fail(OpResult r, std::string why) {
  r.ok = false;
  r.error = std::move(why);
  return r;
}

OpResult run_protocol_op(const OpSpec& op, const lrdip::Runtime& rt, std::uint64_t coin_seed,
                         Tracer& tr) {
  OpResult r;
  lrdip::Outcome out;
  const std::int64_t t0 = now_ns();
  {
    lrdip::GraphReadResult rr;
    {
      const SpanScope s(tr, "graph.io.read");
      rr = lrdip::read_graph_file_checked(op.path);
    }
    tr.count("graph.io.bytes", static_cast<double>(op.bytes));
    if (!rr.ok()) return fail(r, "parse: " + rr.error);
    const BoundInstance bi = [&] {
      const SpanScope s(tr, "protocols.bind");
      return lrdip::bind_instance(op.task, *rr.file);
    }();
    const SpanScope s(tr, "protocols.run");
    lrdip::Rng rng(coin_seed);
    out = rt.run(bi.view(), rng);
  }
  r.wall_s = seconds_since(t0);
  r.digest = lrdip::service::outcome_digest(out);
  if (out.accepted != op.expect_yes) return fail(r, "wrong verdict");
  if (op.ref_digest && r.digest != *op.ref_digest) {
    return fail(r, "outcome digest differs from the reference");
  }
  r.ok = true;
  return r;
}

OpResult run_planar_check(const OpSpec& op, Tracer& tr) {
  OpResult r;
  const std::int64_t t0 = now_ns();
  lrdip::GraphReadResult rr;
  {
    const SpanScope s(tr, "graph.io.read");
    rr = lrdip::read_graph_file_checked(op.path);
  }
  tr.count("graph.io.bytes", static_cast<double>(op.bytes));
  if (!rr.ok()) return fail(r, "parse: " + rr.error);
  lrdip::PlanarityResult res;
  {
    const SpanScope s(tr, "graph.bm.check");
    res = lrdip::boyer_myrvold(rr.file->graph, lrdip::BmOutput::kEmbeddingOrWitness);
  }
  r.wall_s = seconds_since(t0);

  const lrdip::Graph& g = rr.file->graph;
  if (res.planar != op.expect_yes) return fail(r, "wrong verdict");
  int faces = 0;
  if (res.planar) {
    if (!res.embedding || !lrdip::is_planar_embedding(g, *res.embedding)) {
      return fail(r, "embedding is not genus 0");
    }
    faces = lrdip::count_faces(g, *res.embedding);
  } else if (!lrdip::is_kuratowski_witness(g, res.witness)) {
    return fail(r, "invalid Kuratowski witness");
  }
  r.digest = planarity_digest(res.planar, faces, res.witness);
  if (op.ref_digest && r.digest != *op.ref_digest) {
    return fail(r, "outcome digest differs from the reference");
  }
  r.ok = true;
  return r;
}

OpResult run_batch_op(const OpSpec& op, const Workload& w, const lrdip::Runtime& rt,
                      Tracer& tr) {
  OpResult r;
  const std::size_t k = op.items.size();
  std::vector<std::unique_ptr<lrdip::GraphFile>> files(k);
  std::vector<BoundInstance> bound;
  std::vector<std::unique_ptr<lrdip::FaultInjector>> adversaries(k);
  std::vector<lrdip::BatchItem> items;
  bound.reserve(k);
  items.reserve(k);
  std::vector<lrdip::Outcome> outs;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < k; ++i) {
    const BatchEntry& e = op.items[i];
    lrdip::GraphReadResult rr;
    {
      const SpanScope s(tr, "graph.io.read");
      rr = lrdip::read_graph_file_checked(e.path);
    }
    if (!rr.ok()) return fail(r, "parse: " + rr.error);
    files[i] = std::make_unique<lrdip::GraphFile>(std::move(*rr.file));
    {
      const SpanScope s(tr, "protocols.bind");
      bound.push_back(lrdip::bind_instance(e.task, *files[i]));
    }
    adversaries[i] = make_adversary(e, w);
    items.push_back({bound.back().view(), e.seed, adversaries[i].get(), nullptr});
  }
  tr.count("graph.io.bytes", static_cast<double>(op.bytes));
  {
    const SpanScope s(tr, "dip.runtime.run_batch");
    outs = rt.run_batch(items);
  }
  r.wall_s = seconds_since(t0);
  tr.count("dip.runtime.items", static_cast<double>(k));
  if (outs.size() != k) return fail(r, "run_batch returned the wrong number of outcomes");
  r.digest = lrdip::kFnvOffsetBasis;
  for (std::size_t i = 0; i < k; ++i) {
    const BatchEntry& e = op.items[i];
    const std::string where =
        std::string(lrdip::task_name(e.task)) + " n=" + std::to_string(e.n) + ": ";
    if (outs[i].accepted != e.expect_yes) return fail(r, where + "wrong verdict");
    const std::uint64_t d = lrdip::service::outcome_digest(outs[i]);
    if (d != e.ref_digest) return fail(r, where + "outcome digest differs from the reference");
    r.digest = lrdip::fnv1a_word(r.digest, d);
  }
  r.ok = true;
  return r;
}

}  // namespace

lrdip::GraphFile to_graph_file(const BoundInstance& bi) {
  lrdip::GraphFile gf;
  gf.graph = bi.graph();
  std::visit(
      [&](const auto* p) {
        using T = std::remove_cvref_t<decltype(*p)>;
        if constexpr (std::is_same_v<T, lrdip::LrSortingInstance> ||
                      std::is_same_v<T, lrdip::LogStarPlanarityInstance>) {
          gf.order = p->order;
          gf.tails = p->tail;
        } else if constexpr (std::is_same_v<T, lrdip::PathOuterplanarityInstance>) {
          gf.order = p->prover_order;
        } else if constexpr (std::is_same_v<T, lrdip::PlanarEmbeddingInstance>) {
          gf.rotation = *p->rotation;
        } else if constexpr (std::is_same_v<T, lrdip::PlanarityInstance>) {
          if (p->certificate != nullptr) gf.rotation = *p->certificate;
        }
      },
      bi.view().ref);
  return gf;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<lrdip::FaultInjector> make_adversary(const BatchEntry& e, const Workload& w) {
  switch (e.adversary) {
    case Adversary::kRandom:
      return std::make_unique<lrdip::adversary::SeededRandomProver>(e.seed ^ 0xadu);
    case Adversary::kReplay:
      return std::make_unique<lrdip::adversary::ReplayProver>(&w.transcripts[e.transcript],
                                                              e.seed ^ 0xadu);
    case Adversary::kNone:
      break;
  }
  return nullptr;
}

std::uint64_t planarity_digest(bool planar, int faces, const std::vector<lrdip::EdgeId>& witness) {
  std::uint64_t d = lrdip::fnv1a_word(lrdip::kFnvOffsetBasis, planar ? 1 : 0);
  d = lrdip::fnv1a_word(d, static_cast<std::uint64_t>(faces));
  for (const lrdip::EdgeId e : witness) d = lrdip::fnv1a_word(d, static_cast<std::uint64_t>(e));
  return d;
}

bool is_workload(const std::string& name) {
  for (const char* w : kWorkloadNames) {
    if (name == w) return true;
  }
  return false;
}

Workload setup_workload(const std::string& name, std::uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = name;
  std::filesystem::create_directories(dir);
  const lrdip::Runtime rt;
  SetupContext b{w, seed, dir, rt};
  if (name == "lr-file") {
    setup_lr_file(b);
  } else if (name == "planar-file") {
    setup_planar_file(b);
  } else if (name == "small-batch") {
    setup_small_batch(b);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

OpResult run_op(const OpSpec& op, const Workload& w, const lrdip::Runtime& rt,
                std::uint64_t coin_seed, Tracer& tracer) {
  try {
    switch (op.kind) {
      case OpKind::kProtocol:
        return run_protocol_op(op, rt, coin_seed, tracer);
      case OpKind::kPlanarCheck:
        return run_planar_check(op, tracer);
      case OpKind::kBatch:
        return run_batch_op(op, w, rt, tracer);
    }
  } catch (const std::exception& e) {
    return fail(OpResult{}, std::string("exception: ") + e.what());
  }
  return fail(OpResult{}, "unknown op kind");
}

}  // namespace perfbench
