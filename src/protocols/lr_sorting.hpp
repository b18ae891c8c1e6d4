// Section 4: the LR-sorting distributed interactive proof (Lemma 4.1 / 4.2).
//
// Instance: a directed graph whose underlying undirected graph carries a known
// Hamiltonian path P (each node knows its incident path edges and the path
// direction). Yes-instances direct every non-path edge from left to right.
//
// The protocol (5 interaction rounds, O(log log n) proof size, perfect
// completeness, 1/polylog n soundness error):
//
//   R1 (prover):   block construction — the path is cut into blocks of
//                  ceil(log n) consecutive nodes (the last block absorbs the
//                  remainder, < 2 ceil(log n)); each node gets its in-block
//                  index, one bit of pos(b) and one of pos(b)+1, its relation
//                  to the "increment pivot" v_b, the edge classification
//                  (inner/outer) and, for outer edges, the claimed
//                  distinguishing index I(pos(b_u), pos(b_v)); plus the
//                  multiplicity M_v used by the verification scheme.
//   R2 (verifier): the leftmost path node draws r, r' in F_p; the leftmost
//                  node of every block draws r_b in F_p.
//   R3 (prover):   echoes of r, r', r_b; the adjacent-block multiset-equality
//                  aggregates A2 (left-to-right over the x2 bits) and A1
//                  (right-to-left over the x1 bits); the prefix evaluations
//                  P_i = phi^b_i(r'); and per outer edge the claimed value
//                  j = phi^b_{I-1}(r').
//   R4 (verifier): the leftmost path node draws z in F_{p'}.
//   R5 (prover):   echo of z and the four in-block aggregation chains of the
//                  verification scheme (C1 vs D1-with-multiplicities, C0 vs
//                  D0-with-multiplicities) evaluated at z.
//
// For n < 2 ceil(log n) the protocol degenerates to the trivial one-round
// position-labeling proof (O(log n) bits — constant-size inputs).
//
// Edge labels are charged to an accountable endpoint chosen along a
// degeneracy orientation (the Lemma 2.4 simulation; <= 5 edges per node on
// planar instances), plus a constant per-node framing charge for the forest
// codes the simulation ships.
#pragma once

#include <optional>
#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;
struct LrInstance;  // gen/generators.hpp

struct LrSortingInstance {
  const Graph* graph = nullptr;
  /// Ground-truth left-to-right order of the Hamiltonian path. The simulated
  /// nodes only "know" their incident path edges and the path direction; the
  /// full order is the simulation's bookkeeping handle.
  std::vector<NodeId> order;
  /// Orientation: edge e is directed tail[e] -> head.
  std::vector<NodeId> tail;
  /// Optional: accountable endpoint per edge (see accountable_endpoints in
  /// graph/degeneracy.hpp). A pure function of the graph; fill it once per
  /// instance to amortize the degeneracy ordering across protocol executions.
  /// Left empty, the stage computes it on demand.
  std::vector<NodeId> accountable;
};

/// The protocol view of a generated LR instance, borrowing `gen.graph`: its
/// path order, the claimed tails (lr_claimed_tails) and the accountable
/// endpoints, filled once so repeated executions skip the degeneracy ordering.
LrSortingInstance lr_sorting_instance(const LrInstance& gen);

/// What each node of an LR-family instance knows about the Hamiltonian path:
/// its position, its path neighbors, and which edges are path edges. Shared
/// by LR-sorting and the log-star protocol.
struct PathLocal {
  std::vector<int> pos;        // position of node on the path
  std::vector<NodeId> left;    // path neighbor to the left (-1 at the left end)
  std::vector<NodeId> right;   // path neighbor to the right
  std::vector<char> is_path_edge;
};

PathLocal path_locals(const LrSortingInstance& inst);

/// Optional adversarial deviations beyond the instance's own lie. Each knob
/// targets one verification stage, so the soundness experiments can attribute
/// rejections.
struct LrCheatSpec {
  /// Corrupt the position encoding of one block by +1 (exercises the
  /// block-construction stage's soundness instead of the comparison stage's).
  bool shift_block = false;
  /// Reclassify one truthful cross-block edge as inner-block (exercises the
  /// r_b block-identity check; wins only on an r_b collision).
  bool misclassify_edge = false;
  /// Overstate one multiplicity M_v by one (exercises the verification-scheme
  /// multiset equality; wins only on a PIT collision at z).
  bool corrupt_multiplicity = false;
};

/// Rounds the full protocol uses.
inline constexpr int kLrSortingRounds = 5;

/// `faults`, when non-null, corrupts the recorded decision transcript (node
/// block labels, edge commitments, chain labels, public coins) between prover
/// and verifier; the hardened decode rejects locally with a per-node
/// RejectReason and never throws.
StageResult lr_sorting_stage(const LrSortingInstance& inst, const RunOptions& opt, Rng& rng,
                             const LrCheatSpec* cheat = nullptr, FaultInjector* faults = nullptr);

/// One execution against a cheating prover (the soundness experiments' knob;
/// not a task variant). Honest executions go through the registry's
/// run_protocol; this keeps the same RunScope record and stage body.
Outcome run_lr_sorting_cheating(const LrSortingInstance& inst, const RunOptions& opt, Rng& rng,
                                const LrCheatSpec& cheat);

/// The one-round position-labeling stage (Theta(log n) bits), the short-path
/// fallback of both LR-sorting and the log-star protocol: every node labels
/// its path position; the decision checks the decoded +-1 chain and compares
/// decoded positions per non-path edge.
StageResult lr_trivial_position_stage(const LrSortingInstance& inst,
                                      FaultInjector* faults = nullptr);

}  // namespace lrdip
