// The sharded instance substrate: communication-free emission (shard bytes
// depend only on (params, index, count)), mmap-reader equivalence with the
// materialized reference graph, digest bit-identity of the streaming sweep
// across shard counts, and the typed-error taxonomy — structural damage
// throws GraphParseError, payload defects come back as rejecting Outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dip/runtime.hpp"
#include "gen/generators.hpp"
#include "gen/shard_gen.hpp"
#include "graph/shard.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "protocols/shard_verify.hpp"
#include "support/permute.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

/// Fresh per-test scratch directory, removed again on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = (std::filesystem::temp_directory_path() /
            ("lrdip_shard_" + std::string(info->name()) + "_" + tag))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

ShardParams path_params(std::uint64_t n, std::uint64_t seed = 9) {
  ShardParams p;
  p.family = ShardFamily::path_outerplanar;
  p.n = n;
  p.seed = seed;
  return p;
}

ShardParams grid_params(std::uint64_t n, std::uint64_t cols) {
  ShardParams p;
  p.family = ShardFamily::grid;
  p.n = n;
  p.cols = cols;
  return p;
}

ShardRunReport run_dir(const std::string& dir, std::uint64_t coin_seed = 42) {
  const Runtime rt;
  ShardRunOptions opt;
  opt.verify.coin_seed = coin_seed;
  return rt.run_sharded(dir + "/manifest.json", opt);
}

// The communication-free contract: the bytes of shard (i, k) are a pure
// function of (params, i, k) — emitting them individually, in reverse order,
// into another directory, reproduces emit_shards' files exactly.
TEST(Shard, EmissionIsOrderAndContextFree) {
  const ShardParams params = path_params(512);
  TempDir a("a"), b("b");
  const ShardManifest m = emit_shards(params, 4, a.path);
  ASSERT_EQ(m.shards.size(), 4u);
  for (int i = 3; i >= 0; --i) {
    emit_shard(params, static_cast<std::uint32_t>(i), 4, b.path);
  }
  for (const ShardInfo& info : m.shards) {
    const std::string bytes_a = read_file(a.path + "/" + info.file);
    const std::string bytes_b = read_file(b.path + "/" + info.file);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b) << info.file;
  }
}

// Concatenating the per-row target and certificate streams must give the
// same sequence no matter how [0, n) was cut into shards — this is the
// invariant the digest bit-identity rests on. n is deliberately not a
// multiple of the shard counts.
TEST(Shard, RowStreamsAreInvariantUnderShardCount) {
  const ShardParams params = path_params(997);
  std::vector<std::vector<std::uint32_t>> streams;
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    TempDir d("k" + std::to_string(k));
    const ShardManifest m = emit_shards(params, k, d.path);
    std::vector<std::uint32_t> stream;
    for (const ShardInfo& info : m.shards) {
      const MappedShard s = open_shard(m.shard_path(info));
      ASSERT_TRUE(validate_shard_against_manifest(s, m, info).empty());
      for (std::uint64_t r = 0; r < s.rows(); ++r) {
        stream.push_back(s.offsets()[r + 1] - s.offsets()[r]);
        for (std::uint32_t t = s.offsets()[r]; t < s.offsets()[r + 1]; ++t) {
          stream.push_back(s.targets()[t]);
        }
        stream.push_back(s.certs()[r]);
      }
    }
    streams.push_back(std::move(stream));
  }
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

// The mmap reader agrees row-for-row with the materialized reference graph,
// for both families: the row at position p holds exactly the positions of
// the neighbors of the node the committed order places at p.
void expect_shards_match_materialized(const ShardParams& params, std::uint32_t k,
                                      const std::string& tag) {
  const GraphFile gf = materialize_shard_family(params);
  const std::uint64_t n = params.n;
  auto id_at = [&](std::uint64_t p) {
    return gf.order.has_value() ? (*gf.order)[p] : static_cast<NodeId>(p);
  };
  std::vector<std::uint32_t> pos_of(n);
  for (std::uint64_t p = 0; p < n; ++p) {
    pos_of[static_cast<std::uint64_t>(id_at(p))] = static_cast<std::uint32_t>(p);
  }

  TempDir d(tag);
  const ShardManifest m = emit_shards(params, k, d.path);
  std::uint64_t pos = 0;
  for (const ShardInfo& info : m.shards) {
    const MappedShard s = open_shard(m.shard_path(info));
    for (std::uint64_t r = 0; r < s.rows(); ++r, ++pos) {
      std::vector<std::uint32_t> expected;
      for (const Half& h : gf.graph.neighbors(id_at(pos))) {
        expected.push_back(pos_of[static_cast<std::uint64_t>(h.to)]);
      }
      std::sort(expected.begin(), expected.end());
      const std::uint32_t deg = s.offsets()[r + 1] - s.offsets()[r];
      ASSERT_EQ(deg, expected.size()) << tag << " pos=" << pos;
      for (std::uint32_t i = 0; i < deg; ++i) {
        ASSERT_EQ(s.targets()[s.offsets()[r] + i], expected[i]) << tag << " pos=" << pos;
      }
      if (s.header().cert_bytes == 4) {
        EXPECT_EQ(s.certs()[r], static_cast<std::uint32_t>(id_at(pos))) << tag << " pos=" << pos;
      }
    }
  }
  EXPECT_EQ(pos, n);
}

TEST(Shard, MappedReaderMatchesMaterializedPathOuterplanar) {
  expect_shards_match_materialized(path_params(600), 3, "path");
}

TEST(Shard, MappedReaderMatchesMaterializedGrid) {
  expect_shards_match_materialized(grid_params(600, 24), 3, "grid");
}

// The headline correctness claim of the sharded runtime path: accepted with
// a bit-identical transcript digest at every shard count.
TEST(Shard, RunShardedDigestIsBitIdenticalAcrossShardCounts) {
  const ShardParams params = path_params(1 << 12, 7);
  std::vector<ShardRunReport> reports;
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    TempDir d("k" + std::to_string(k));
    emit_shards(params, k, d.path);
    reports.push_back(run_dir(d.path));
  }
  for (const ShardRunReport& rep : reports) {
    EXPECT_TRUE(rep.outcome.accepted);
    EXPECT_EQ(rep.digest, reports.front().digest);
    EXPECT_EQ(rep.halves, reports.front().halves);
    EXPECT_EQ(rep.n, params.n);
  }
  EXPECT_EQ(reports[0].shard_count, 1u);
  EXPECT_EQ(reports[2].shard_count, 16u);
  // The carry state is the nesting stack: its peak must stay logarithmic.
  EXPECT_LE(reports.front().max_stack_depth, 2u * 12u);
}

TEST(Shard, RunShardedAcceptsGridFamily) {
  TempDir d("grid");
  emit_shards(grid_params(30 * 40, 30), 4, d.path);
  const ShardRunReport rep = run_dir(d.path);
  EXPECT_TRUE(rep.outcome.accepted);
  EXPECT_EQ(rep.max_stack_depth, 0u);  // no arc nesting in the grid family
}

// The materialized twin of the shard family is a genuine yes-instance of the
// repo's interactive protocol — the sharded substrate generates the same
// mathematical objects the monolithic path proves things about.
TEST(Shard, MaterializedPathFamilyIsAcceptedByTheProtocol) {
  const PathOuterplanarInstance inst = path_outerplanar_from_shard_params(path_params(700));
  Rng rng(11);
  const PathOuterplanarityInstance po{&inst.graph, inst.order};
  const Outcome o = run_protocol(make_instance(po), {3}, rng);
  EXPECT_TRUE(o.accepted);
}

// ---------------------------------------------------------- error taxonomy

TEST(Shard, TruncatedShardFileIsAStructuralError) {
  TempDir d("trunc");
  const ShardManifest m = emit_shards(path_params(2048), 4, d.path);
  const std::string victim = m.shard_path(m.shards[2]);
  std::filesystem::resize_file(victim, std::filesystem::file_size(victim) - 8);
  EXPECT_THROW(run_dir(d.path), GraphParseError);
}

TEST(Shard, BadMagicIsAStructuralError) {
  TempDir d("magic");
  const ShardManifest m = emit_shards(path_params(1024), 2, d.path);
  flip_byte(m.shard_path(m.shards[0]), 0);
  const ShardOpenResult r = open_shard_checked(m.shard_path(m.shards[0]));
  EXPECT_FALSE(r.ok());
  EXPECT_THROW(run_dir(d.path), GraphParseError);
}

TEST(Shard, StaleManifestChecksumIsAStructuralError) {
  TempDir d("stale");
  ShardManifest m = emit_shards(path_params(1024), 2, d.path);
  m.shards[1].checksum_targets ^= 1;
  write_shard_manifest(d.path + "/manifest.json", m);
  EXPECT_THROW(run_dir(d.path), GraphParseError);
}

TEST(Shard, ShardFromAnotherConfigurationIsAStructuralError) {
  TempDir d4("k4"), d2("k2");
  emit_shards(path_params(1024), 4, d4.path);
  const ShardManifest other = emit_shards(path_params(1024), 2, d2.path);
  // Same params, wrong shard count: the header fingerprint matches but the
  // sweep must refuse the foreign cut.
  const ShardManifest mine = read_shard_manifest(d4.path + "/manifest.json");
  ShardSweep sweep(mine, {});
  const MappedShard foreign = open_shard(other.shard_path(other.shards[0]));
  EXPECT_THROW(sweep.consume(foreign), GraphParseError);
}

TEST(Shard, OutOfOrderConsumptionIsAStructuralError) {
  TempDir d("order");
  const ShardManifest m = emit_shards(path_params(1024), 4, d.path);
  ShardSweep sweep(m, {});
  const MappedShard second = open_shard(m.shard_path(m.shards[1]));
  EXPECT_THROW(sweep.consume(second), GraphParseError);
}

// A flipped payload byte is not structural damage: the file still parses, so
// the sweep must come back with a rejecting Outcome (checksum or row-shape
// defect), never an exception and never an accept.
TEST(Shard, PayloadCorruptionRejectsWithATypedOutcome) {
  TempDir d("payload");
  const ShardManifest m = emit_shards(path_params(4096), 4, d.path);
  const MappedShard s = open_shard(m.shard_path(m.shards[1]));
  const std::uint64_t victim_byte = s.targets_begin() + (s.header().halves / 2) * 4;
  flip_byte(m.shard_path(m.shards[1]), victim_byte);
  const ShardRunReport rep = run_dir(d.path);
  EXPECT_FALSE(rep.outcome.accepted);
  EXPECT_EQ(rep.outcome.reject_reason, RejectReason::malformed_label);
}

// ------------------------------------------------------------- permutation

TEST(Shard, IdPermutationIsABijectionWithExactInverse) {
  for (const std::uint64_t n : {1ull, 2ull, 5ull, 997ull, (1ull << 16) + 3}) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      const IdPermutation perm(n, seed);
      std::vector<char> seen(n, 0);
      for (std::uint64_t x = 0; x < n; ++x) {
        const std::uint64_t y = perm.forward(x);
        ASSERT_LT(y, n);
        ASSERT_FALSE(seen[y]) << "collision at n=" << n << " seed=" << seed;
        seen[y] = 1;
        ASSERT_EQ(perm.inverse(y), x);
      }
    }
  }
}

}  // namespace
}  // namespace lrdip
