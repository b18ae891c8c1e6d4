#include "protocols/registry.hpp"

#include <array>
#include <type_traits>
#include <utility>

#include "gen/generators.hpp"
#include "obs/metrics.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

// ------------------------------------------------------------------ run fns

/// A row's full execution: RunScope (metrics record keyed by the row's
/// canonical name) around the task's stage composition.
template <typename Inst, StageResult (*stage)(const Inst&, const RunOptions&, Rng&, FaultInjector*)>
Outcome run_row(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const Inst& inst = *std::get<const Inst*>(i.ref);
  const obs::RunScope run(task_name(i.task()), inst.graph->n(), inst.graph->m());
  return finalize(stage(inst, opt, rng, faults));
}

/// The honest lr-sorting stage (no cheat spec) in the shared stage shape.
StageResult lr_honest_stage(const LrSortingInstance& inst, const RunOptions& opt, Rng& rng,
                            FaultInjector* faults) {
  return lr_sorting_stage(inst, opt, rng, nullptr, faults);
}

// -------------------------------------------------------- instance adapters

/// The task tag of a per-task instance type (its InstanceRef alternative).
template <typename Inst>
constexpr Task task_of = static_cast<Task>(InstanceRef(static_cast<const Inst*>(nullptr)).index());

/// Heap-holds a per-task struct that borrows from a caller-owned GraphFile.
template <typename Inst>
BoundInstance own(Inst inst) {
  auto h = std::make_shared<Inst>(std::move(inst));
  const Instance view = make_instance(*h);
  return BoundInstance(std::move(h), view);
}

/// Heap-holds a generator's output next to the per-task struct `make` builds
/// over it (after the move, so every pointer targets the held copy), plus
/// the generator's obstruction witness when it has one.
template <typename Gen, typename Make>
BoundInstance own(Gen gen, Make make, std::vector<EdgeId> witness = {}) {
  using Inst = std::invoke_result_t<Make, const Gen&>;
  struct Held {
    Gen gen;
    Inst inst;
  };
  auto h = std::make_shared<Held>(Held{std::move(gen), Inst{}});
  h->inst = make(h->gen);
  const Instance view = make_instance(h->inst);
  return BoundInstance(std::move(h), view, std::move(witness));
}

// The log-star task runs on the same LR family (same generators, same
// certificate payload), so its budgets and soundness rows are directly
// comparable with lr-sorting's on identical seed-pinned instances — the
// separation experiment's whole point. Both rows share these adapters.

template <typename Inst>
BoundInstance bind_lr(const GraphFile& gf) {
  const char* name = task_name(task_of<Inst>);
  LRDIP_CHECK_MSG(gf.order.has_value(), std::string(name) + " needs an 'order' section");
  LRDIP_CHECK_MSG(gf.tails.has_value(), std::string(name) + " needs a 'tails' section");
  return own(Inst{&gf.graph, *gf.order, *gf.tails, {}});
}

template <typename Inst>
BoundInstance own_lr(LrInstance gen, std::vector<EdgeId> witness = {}) {
  const auto make = [](const LrInstance& g) { return Inst{lr_sorting_instance(g)}; };
  return own(std::move(gen), make, std::move(witness));
}

// Yes-instance generators. Families, parameters, and per-size rng usage match
// the seed-pinned E-PROOFSIZE sweep exactly — the committed communication
// budgets in bench/budgets/ are derived from these.
//
// Near-yes no-instance generators: the minimally perturbed member outside
// each class, with the best-effort certificate a cheating prover would ship.
// random_lr_no replays random_lr_yes's draws before flipping, so
// near_no_lr(n, Rng(s)) is yes_lr(n, Rng(s)) with exactly one reversed arc —
// the same-seed pairing the adversary's ReplayProver relies on. The other
// families perturb structurally (completed K4 over a swapped order, one bad
// block, a forged rotation, a planted subdivision, one chord).

template <typename Inst>
BoundInstance yes_lr(int n, Rng& rng) {
  return own_lr<Inst>(random_lr_yes(n, 1.0, rng));
}

BoundInstance near_no_lr(int n, Rng& rng) {
  return own_lr<LrSortingInstance>(random_lr_no(n, 1.0, /*flips=*/1, rng));
}

BoundInstance near_no_ls(int n, Rng& rng) {
  // The flipped arcs ARE the obstruction — lr_flipped_edges reads them off
  // `forward` with no centralized search, so the greedy prover gets its
  // focus_edges for free on every estimator run.
  LrInstance gen = random_lr_no(n, 1.0, /*flips=*/1, rng);
  std::vector<EdgeId> witness = lr_flipped_edges(gen);
  return own_lr<LogStarPlanarityInstance>(std::move(gen), std::move(witness));
}

BoundInstance bind_po(const GraphFile& gf) {
  return own(PathOuterplanarityInstance{&gf.graph, gf.order});
}

BoundInstance bind_pe(const GraphFile& gf) {
  LRDIP_CHECK_MSG(gf.rotation.has_value(), "embedding needs a 'rotation' section");
  return own(PlanarEmbeddingInstance{&gf.graph, &*gf.rotation});
}

BoundInstance bind_pl(const GraphFile& gf) {
  return own(PlanarityInstance{&gf.graph, gf.rotation ? &*gf.rotation : nullptr});
}

/// Outerplanar, series-parallel and treewidth-2 files carry no certificate.
template <typename Inst>
BoundInstance bind_graph(const GraphFile& gf) {
  return own(Inst{&gf.graph, std::nullopt});
}

// How each row's typed instance borrows from its generator's output.
constexpr auto po_of = [](const PathOuterplanarInstance& g) {
  return PathOuterplanarityInstance{&g.graph, g.order};
};
constexpr auto op_of = [](const OuterplanarCertInstance& g) {
  return OuterplanarityInstance{&g.graph, g.block_cycles};
};
constexpr auto pe_of = [](const PlanarInstance& g) {
  return PlanarEmbeddingInstance{&g.graph, &g.rotation};
};
constexpr auto sp_of = [](const SpInstance& g) { return SeriesParallelInstance{&g.graph, g.ears}; };

BoundInstance yes_po(int n, Rng& rng) {
  return own(random_path_outerplanar(n, 1.0, rng), po_of);
}

BoundInstance near_no_po(int n, Rng& rng) {
  return own(path_outerplanar_order_swap_no(n, 1.0, rng), po_of);
}

BoundInstance yes_op(int n, Rng& rng) {
  return own(random_outerplanar_with_cert(n, std::max(1, n / 64), rng), op_of);
}

BoundInstance near_no_op(int n, Rng& rng) {
  return own(outerplanar_no_instance(n, std::max(1, n / 64), rng), op_of);
}

BoundInstance yes_pe(int n, Rng& rng) {
  return own(random_planar(n, 0.3, rng), pe_of);
}

BoundInstance near_no_pe(int n, Rng& rng) {
  return own(forged_rotation_no(n, 0.3, rng), pe_of);
}

BoundInstance yes_pl(int n, Rng& rng) {
  return own(random_planar(n, 0.3, rng), [](const PlanarInstance& g) {
    return PlanarityInstance{&g.graph, &g.rotation};
  });
}

BoundInstance near_no_pl(int n, Rng& rng) {
  // Planted K5 / K3,3 subdivision in a planar host, with the minimal
  // Kuratowski witness extracted by the Boyer–Myrvold engine attached for the
  // adversary (strategic provers focus their edits on the obstruction). The
  // adjacency-order rotation ships as the doomed certificate: with
  // certificate == nullptr the stage would run the centralized embedder on a
  // NON-planar graph every execution, which the soundness sweeps cannot
  // afford.
  PlantedWitnessInstance planted = planted_kuratowski_no(n, /*subdiv=*/2, rng);
  RotationSystem rot = RotationSystem::from_adjacency(planted.graph);
  return own(
      std::pair{std::move(planted.graph), std::move(rot)},
      [](const std::pair<Graph, RotationSystem>& g) {
        return PlanarityInstance{&g.first, &g.second};
      },
      std::move(planted.witness));
}

BoundInstance yes_sp(int n, Rng& rng) {
  return own(random_series_parallel(n, rng), sp_of);
}

BoundInstance near_no_sp(int n, Rng& rng) {
  // Keep the yes-instance's ear certificate and add only the K4 chord: the
  // prover commits the near-honest (doomed) decomposition — the chord pads
  // out as a dangling ear the verifier rejects — instead of re-running the
  // centralized per-skipped-edge search on every execution, which would
  // dominate the estimator's runtime.
  SpInstance gen = random_series_parallel(n, rng);
  LRDIP_CHECK(gen.k4_chord.has_value());
  const auto [a, c] = *gen.k4_chord;
  if (gen.graph.find_edge(a, c) == -1) gen.graph.add_edge(a, c);
  return own(std::move(gen), sp_of);
}

BoundInstance yes_tw(int n, Rng& rng) {
  return own(random_treewidth2_with_cert(n, std::max(1, n / 64), rng),
             [](const Tw2CertInstance& g) { return Treewidth2Instance{&g.graph, g.block_ears}; });
}

BoundInstance near_no_tw(int n, Rng& rng) {
  return own(treewidth2_no_instance(n, std::max(1, n / 64), rng),
             [](const Graph& g) { return Treewidth2Instance{&g, std::nullopt}; });
}

// ---------------------------------------------------------------- the table

constexpr std::array<ProtocolSpec, kNumTasks> kRegistry{{
    {Task::lr_sorting, "lr-sorting", "Lem 4.2", kCertOrder | kCertTails, kCertOrder | kCertTails,
     run_row<LrSortingInstance, lr_honest_stage>, 1, bind_lr<LrSortingInstance>,
     yes_lr<LrSortingInstance>, near_no_lr},
    {Task::path_outerplanar, "path-outerplanar", "Thm 1.2", 0, kCertOrder,
     run_row<PathOuterplanarityInstance, path_outerplanarity_stage>, 3, bind_po, yes_po,
     near_no_po},
    {Task::outerplanar, "outerplanar", "Thm 1.3", 0, 0,
     run_row<OuterplanarityInstance, outerplanarity_stage>, 4,
     bind_graph<OuterplanarityInstance>, yes_op, near_no_op},
    {Task::embedding, "embedding", "Thm 1.4", kCertRotation, kCertRotation,
     run_row<PlanarEmbeddingInstance, planar_embedding_stage>, 3, bind_pe, yes_pe, near_no_pe},
    {Task::planarity, "planarity", "Thm 1.5", 0, kCertRotation,
     run_row<PlanarityInstance, planarity_stage>, 6, bind_pl, yes_pl, near_no_pl},
    {Task::series_parallel, "series-parallel", "Thm 1.6", 0, 0,
     run_row<SeriesParallelInstance, series_parallel_stage>, 4,
     bind_graph<SeriesParallelInstance>, yes_sp, near_no_sp},
    {Task::treewidth2, "treewidth2", "Thm 1.7", 0, 0,
     run_row<Treewidth2Instance, treewidth2_stage>, 4, bind_graph<Treewidth2Instance>, yes_tw,
     near_no_tw},
    {Task::log_star_planarity, "log-star-planarity", "GP25b Thm 1.1",
     kCertOrder | kCertTails, kCertOrder | kCertTails,
     run_row<LogStarPlanarityInstance, log_star_planarity_stage>, 1,
     bind_lr<LogStarPlanarityInstance>, yes_lr<LogStarPlanarityInstance>, near_no_ls},
}};

}  // namespace

int ProtocolSpec::pls_bits(int n) const {
  return pls_log_factor * ceil_log2(static_cast<std::uint64_t>(n));
}

const Graph& Instance::graph() const {
  return std::visit([](const auto* inst) -> const Graph& { return *inst->graph; }, ref);
}

std::span<const ProtocolSpec, kNumTasks> protocol_registry() { return kRegistry; }

const ProtocolSpec& protocol_spec(Task t) {
  const int i = static_cast<int>(t);
  LRDIP_CHECK(i >= 0 && i < kNumTasks);
  const ProtocolSpec& spec = kRegistry[static_cast<std::size_t>(i)];
  LRDIP_CHECK(spec.task == t);  // enum order and table order must agree
  return spec;
}

const char* task_name(Task t) { return protocol_spec(t).name; }

std::optional<Task> task_from_name(std::string_view name) {
  for (const ProtocolSpec& spec : kRegistry) {
    if (name == spec.name) return spec.task;
  }
  return std::nullopt;
}

std::string task_name_list(std::string_view sep) {
  std::string out;
  for (const ProtocolSpec& spec : kRegistry) {
    if (!out.empty()) out += sep;
    out += spec.name;
  }
  return out;
}

Outcome run_protocol(const Instance& inst, const RunOptions& opt, Rng& rng,
                     FaultInjector* faults) {
  return protocol_spec(inst.task()).run(inst, opt, rng, faults);
}

BoundInstance bind_instance(Task t, const GraphFile& gf) {
  // The provers' degeneracy orientation and planarity engine assume a simple
  // graph; a parallel edge is the input's defect, not a run's.
  LRDIP_CHECK_MSG(gf.graph.is_simple(),
                  std::string(task_name(t)) + " needs a simple graph (found a parallel edge)");
  return protocol_spec(t).bind_file(gf);
}

BoundInstance make_yes_instance(Task t, int n, Rng& rng) {
  return protocol_spec(t).make_yes(n, rng);
}

BoundInstance make_near_no_instance(Task t, int n, Rng& rng) {
  return protocol_spec(t).make_near_no(n, rng);
}

}  // namespace lrdip
