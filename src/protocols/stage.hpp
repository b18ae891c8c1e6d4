// Composition of protocol stages.
//
// The paper's protocols run several stages "in parallel": in every interaction
// round each stage contributes fields to the same physical label. We model a
// stage as an independent execution that reports, per node, whether that
// node's checks passed and how many label bits the prover charged to it; the
// composite protocol sums bits per node (concatenated labels), ANDs accepts,
// and takes the max round count.
#pragma once

#include <exception>
#include <utility>
#include <vector>

#include "dip/parallel.hpp"
#include "dip/store.hpp"
#include "dip/verdict.hpp"
#include "graph/graph.hpp"

namespace lrdip {

/// Knobs shared by every task's protocol and stage functions.
struct RunOptions {
  /// Soundness exponent: the PIT fields have p > log^c n elements. The
  /// log-star protocol ignores it (one fixed 7-bit field; its soundness is
  /// amplified by repetition, not by growing the field).
  int c = 3;
};

struct StageResult {
  std::vector<char> node_accepts;  // per node of the host graph
  std::vector<int> node_bits;      // label bits charged per node
  std::vector<int> coin_bits;      // public-coin bits drawn per node
  /// Why each node rejected (parallel to node_accepts). May be left empty by
  /// stages that predate the taxonomy; composition and finalize() then treat
  /// every rejecting node as check_failed.
  std::vector<RejectReason> node_reasons;
  int rounds = 0;

  bool all_accept() const {
    for (char a : node_accepts) {
      if (!a) return false;
    }
    return true;
  }

  /// Marks node v as rejecting with the given reason (merged by severity).
  void reject(NodeId v, RejectReason r = RejectReason::check_failed) {
    node_accepts[static_cast<std::size_t>(v)] = 0;
    if (node_reasons.size() != node_accepts.size()) {
      node_reasons.resize(node_accepts.size(), RejectReason::none);
    }
    auto& slot = node_reasons[static_cast<std::size_t>(v)];
    slot = worse_reason(slot, r);
  }

  /// Reason recorded for node v (check_failed when the node rejects but no
  /// reason was recorded; none when it accepts).
  RejectReason reason(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    const RejectReason r = i < node_reasons.size() ? node_reasons[i] : RejectReason::none;
    if (node_accepts[i]) return RejectReason::none;
    return r == RejectReason::none ? RejectReason::check_failed : r;
  }
};

/// An all-accept stage with zero cost (identity for composition).
StageResult empty_stage(int n);

/// Parallel composition: labels concatenate (bits add), a node accepts iff it
/// accepts in every stage, rounds take the max.
StageResult compose_parallel(const StageResult& a, const StageResult& b);

/// Collapses a composed stage into the user-facing Outcome.
Outcome finalize(const StageResult& s);

/// Extracts a StageResult from a LabelStore/CoinStore pair plus per-node
/// accept flags (for stages implemented directly on the stores).
StageResult stage_from_stores(const LabelStore& labels, const CoinStore& coins,
                              std::vector<char> accepts, int rounds);

/// Same, from a per-node reason vector (hardened stages).
StageResult stage_from_stores(const LabelStore& labels, const CoinStore& coins,
                              std::vector<RejectReason> reasons, int rounds);

/// Runs the per-node decision predicate for all n nodes on the parallel
/// executor and collects the accept flags. `decide(v)` must follow the
/// determinism contract of dip/parallel.hpp: it may read anything written
/// before this call but only decide node v — the result is then independent
/// of the thread count.
///
/// Exception firewall: anything thrown by decide(v) is absorbed as a local
/// reject for v (never rethrown), so a Byzantine transcript cannot crash the
/// verifier through the executor's rethrow path. Hardened decision code
/// should not rely on this — it uses checked reads and records precise
/// reasons via decide_nodes_reasons — but the firewall guarantees the
/// never-throw contract even for not-yet-migrated predicates.
template <typename F>
std::vector<char> decide_nodes(int n, F&& decide) {
  std::vector<char> accepts(static_cast<std::size_t>(n), 1);
  auto fn = std::forward<F>(decide);
  parallel_for(n, [&](std::int64_t v) {
    bool ok = false;
    try {
      ok = fn(static_cast<NodeId>(v));
    } catch (...) {
      ok = false;
    }
    if (!ok) accepts[static_cast<std::size_t>(v)] = 0;
  });
  return accepts;
}

/// Degree-aware decide_nodes: `prefix` is a monotone per-node cost prefix
/// (size n + 1, e.g. from degree_cost_prefix or a CSR offset array) and
/// drives cost-balanced chunk boundaries, so hub nodes in a skewed degree
/// distribution no longer serialize the tail of the decision. Results are
/// bit-identical to the unweighted overload — only scheduling changes.
template <typename Prefix, typename F>
std::vector<char> decide_nodes(int n, const Prefix& prefix, F&& decide) {
  std::vector<char> accepts(static_cast<std::size_t>(n), 1);
  auto fn = std::forward<F>(decide);
  parallel_for_weighted(n, prefix, [&](std::int64_t v) {
    bool ok = false;
    try {
      ok = fn(static_cast<NodeId>(v));
    } catch (...) {
      ok = false;
    }
    if (!ok) accepts[static_cast<std::size_t>(v)] = 0;
  });
  return accepts;
}

/// Firewalled decision with reject-reason reporting. `decide(v, verdict)`
/// performs checked reads (recording structural defects in `verdict`) and
/// returns whether its semantic checks passed; a false return records
/// check_failed, a throw records malformed_label. Same determinism contract
/// as decide_nodes.
template <typename F>
std::vector<RejectReason> decide_nodes_reasons(int n, F&& decide) {
  std::vector<RejectReason> reasons(static_cast<std::size_t>(n), RejectReason::none);
  auto fn = std::forward<F>(decide);
  parallel_for(n, [&](std::int64_t i) {
    const NodeId v = static_cast<NodeId>(i);
    LocalVerdict verdict;
    try {
      if (!fn(v, verdict)) verdict.reject(RejectReason::check_failed);
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    reasons[static_cast<std::size_t>(i)] = verdict.reason();
  });
  return reasons;
}

/// Degree-aware decide_nodes_reasons; see the weighted decide_nodes overload.
template <typename Prefix, typename F>
std::vector<RejectReason> decide_nodes_reasons(int n, const Prefix& prefix, F&& decide) {
  std::vector<RejectReason> reasons(static_cast<std::size_t>(n), RejectReason::none);
  auto fn = std::forward<F>(decide);
  parallel_for_weighted(n, prefix, [&](std::int64_t i) {
    const NodeId v = static_cast<NodeId>(i);
    LocalVerdict verdict;
    try {
      if (!fn(v, verdict)) verdict.reject(RejectReason::check_failed);
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    reasons[static_cast<std::size_t>(i)] = verdict.reason();
  });
  return reasons;
}

/// Accept flags implied by a reason vector (none => accept).
std::vector<char> accepts_from_reasons(const std::vector<RejectReason>& reasons);

/// Monotone cost prefix (size n + 1) with per-node cost 1 + degree(v): the
/// canonical input for the weighted decide overloads when the decision body
/// scans the node's neighborhood.
std::vector<std::int64_t> degree_cost_prefix(const Graph& g);

}  // namespace lrdip
