// Shared helpers for the experiment harnesses.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "gen/generators.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace lrdip::bench {

/// Integer knob from the environment variable `name`: the whole value must be
/// a number in [lo, hi]; unset, junk ("12x") or out of range yields `def`.
inline int env_int(const char* name, int lo, int hi, int def) {
  const char* env = std::getenv(name);
  const std::optional<int> v = env != nullptr ? parse_number<int>(env) : std::nullopt;
  return v && *v >= lo && *v <= hi ? *v : def;
}

/// Scale knob: benchmarks sweep n in powers of two up to this (default 2^18;
/// override with LRDIP_BENCH_MAX_LOG_N).
inline int max_log_n(int def = 18) {
  return env_int("LRDIP_BENCH_MAX_LOG_N", 6, 24, def);
}

inline int soundness_trials(int def = 40) {
  return env_int("LRDIP_BENCH_TRIALS", 1, 100000, def);
}

/// Value of a numeric flag: the whole string must be a number (see
/// support/parse.hpp); anything else prints `usage` and exits 2.
template <typename T>
T number_or_exit(const std::string& s, const char* usage) {
  if (const std::optional<T> v = parse_number<T>(s)) return *v;
  std::cerr << usage;
  std::exit(2);
}

inline void print_header(const std::string& title, const std::string& claim) {
  std::cout << "\n=== " << title << " ===\n" << claim << "\n\n";
}

}  // namespace lrdip::bench
