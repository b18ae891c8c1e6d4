#include "protocols/multiset_equality.hpp"

#include <cmath>

#include "field/fp_simd.hpp"
#include "field/primes.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {

Fp multiset_equality_field(std::uint64_t size_bound, int universe_exponent) {
  LRDIP_CHECK(size_bound >= 1);
  LRDIP_CHECK(universe_exponent >= 1);
  // p > k^{c+1}; cap the argument so the modulus stays inside the Fp range
  // (construction rejects p >= 2^32 — see field/fp.hpp).
  long double target = 1;
  for (int i = 0; i < universe_exponent + 1; ++i) target *= static_cast<long double>(size_bound);
  LRDIP_CHECK_MSG(target < std::ldexp(1.0L, 31),
                  "multiset-equality field exceeds the 2^32 modulus bound");
  return Fp(cached_prime_above(static_cast<std::uint64_t>(target)));
}

StageResult verify_multiset_equality(const Graph& g, const RootedForest& tree,
                                     const MultisetEqualityInput& in, Rng& rng,
                                     const MultisetCheat* cheat) {
  const int n = g.n();
  LRDIP_CHECK(static_cast<int>(in.s1.size()) == n && static_cast<int>(in.s2.size()) == n);
  const Fp f = multiset_equality_field(in.size_bound, in.universe_exponent);
  const int fbits = f.element_bits();

  // Identify the root (depth 0 in the given tree).
  NodeId root = -1;
  for (NodeId v = 0; v < n; ++v) {
    if (tree.parent[v] == -1 && tree.depth[v] == 0) {
      root = v;
      break;
    }
  }
  LRDIP_CHECK_MSG(root != -1, "multiset equality requires a rooted spanning tree");

  // --- Round 1 (verifier): root samples z.
  const std::uint64_t z = f.sample(rng);

  // --- Round 2 (prover): subtree aggregates, in children-before-parent order.
  const auto children = children_of(tree);
  std::vector<std::uint64_t> a1(n), a2(n);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const NodeId v = *it;
    std::uint64_t p1 = fp_simd::phi_product(f, in.s1[v], z);
    std::uint64_t p2 = fp_simd::phi_product(f, in.s2[v], z);
    for (NodeId c : children[v]) {
      p1 = f.mul(p1, a1[c]);
      p2 = f.mul(p2, a2[c]);
    }
    if (cheat != nullptr) {
      p1 = f.add(p1, cheat->a1_offset.empty() ? 0 : cheat->a1_offset[v]);
      p2 = f.add(p2, cheat->a2_offset.empty() ? 0 : cheat->a2_offset[v]);
    }
    a1[v] = p1;
    a2[v] = p2;
  }

  // --- Decision: recurrences, z propagation, root comparison.
  StageResult out = empty_stage(n);
  out.node_bits.assign(n, fbits * 3);  // z copy + A1 + A2
  out.coin_bits[root] = fbits;
  out.rounds = 2;
  // Decision cost per node is its multiset sizes plus its child count, so
  // the chunk boundaries follow that prefix rather than the node count.
  std::vector<std::int64_t> decide_cost(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    decide_cost[static_cast<std::size_t>(v) + 1] =
        decide_cost[static_cast<std::size_t>(v)] + 1 +
        static_cast<std::int64_t>(in.s1[v].size() + in.s2[v].size() + children[v].size());
  }
  // Nothing in the body throws (it repeats the prover loop above: field
  // arithmetic and in-range indexing), so every reject here is check_failed.
  out.node_reasons = decide_nodes_reasons(n, decide_cost, [&](NodeId v, LocalVerdict&) {
    // phi_product is value-identical to Fp::multiset_poly at every dispatch
    // level (see field/fp_simd.hpp), so the decision stays deterministic.
    std::uint64_t p1 = fp_simd::phi_product(f, in.s1[v], z);
    std::uint64_t p2 = fp_simd::phi_product(f, in.s2[v], z);
    for (NodeId c : children[v]) {
      p1 = f.mul(p1, a1[c]);
      p2 = f.mul(p2, a2[c]);
    }
    return a1[v] == p1 && a2[v] == p2;
  });
  if (a1[root] != a2[root]) out.reject(root);
  return out;
}

}  // namespace lrdip
