#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "support/bits.hpp"
#include "support/check.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace lrdip {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
    const auto x = rng.uniform_in(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BitsMasksTail) {
  Rng rng(11);
  for (int nbits : {0, 1, 5, 63, 64, 65, 130}) {
    const auto w = rng.bits(nbits);
    ASSERT_EQ(w.size(), static_cast<std::size_t>((nbits + 63) / 64));
    if (nbits % 64 != 0 && !w.empty()) {
      EXPECT_EQ(w.back() >> (nbits % 64), 0u);
    }
  }
}

TEST(Rng, SplitIndependent) {
  Rng rng(5);
  Rng child = rng.split();
  EXPECT_NE(child.next_u64(), rng.next_u64());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Bits, Widths) {
  EXPECT_EQ(bits_for_values(1), 1);
  EXPECT_EQ(bits_for_values(2), 1);
  EXPECT_EQ(bits_for_values(3), 2);
  EXPECT_EQ(bits_for_values(256), 8);
  EXPECT_EQ(bits_for_values(257), 9);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Check, ThrowsInvariantError) {
  EXPECT_THROW(LRDIP_CHECK(false), InvariantError);
  EXPECT_NO_THROW(LRDIP_CHECK(true));
}

TEST(ParseNumber, AcceptsOnlyAWholeNumberInRange) {
  EXPECT_EQ(parse_number<int>("12"), 12);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  for (const char* bad : {"", "12junk", "256x", " 12", "+12", "1 2", "abc", "0x10"}) {
    EXPECT_FALSE(parse_number<int>(bad).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_number<int>("99999999999").has_value());  // overflow
  EXPECT_FALSE(parse_number<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_number<double>("0.25x").has_value());
}

TEST(Table, FormatsRows) {
  Table t({"n", "bits"});
  t.add_row({"1024", "10"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("1024"), std::string::npos);
  EXPECT_NE(s.find("bits"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

}  // namespace
}  // namespace lrdip
