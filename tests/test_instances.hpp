// Shared instance fixtures for the protocol test suite.
//
// Built on the registry's make_yes / make_near_no generators so every test
// binary exercises the exact families the benchmarks and budgets are pinned
// to, instead of each file keeping its own construction plumbing (the copies
// this header replaced lived in test_properties, test_robustness, and
// test_fuzz). Header-only: each helper is a couple of lines over the
// registry, and tests link no extra library for it.
#pragma once

#include <cstdint>

#include "gen/generators.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip::fixtures {

/// The suite's default planar host (density matches the registry family).
inline PlanarInstance planar_host(int n, Rng& rng) { return random_planar(n, 0.4, rng); }

/// Registry yes-instance at a pinned seed.
inline BoundInstance yes_instance(Task t, int n, std::uint64_t seed) {
  Rng rng(seed);
  return make_yes_instance(t, n, rng);
}

/// Registry near-yes no-instance at a pinned seed (see ProtocolSpec::make_near_no).
inline BoundInstance near_no_instance(Task t, int n, std::uint64_t seed) {
  Rng rng(seed);
  return make_near_no_instance(t, n, rng);
}

/// One honest execution at a pinned coin seed.
inline Outcome run_task(const BoundInstance& bi, std::uint64_t coin_seed, int c = 3) {
  Rng rng(coin_seed);
  return run_protocol(bi.view(), {c}, rng);
}

}  // namespace lrdip::fixtures
