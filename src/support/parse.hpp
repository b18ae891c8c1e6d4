// Strict number parsing for flags, positionals and environment knobs.
//
// The whole string must be one number in T's range: no leading whitespace or
// '+', no trailing junk ("12junk", "256x"), no overflow, and no negative
// value for an unsigned T. std::stoi/std::atoi accept a numeric prefix, which
// silently turns a typo into a different run.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace lrdip {

template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace lrdip
