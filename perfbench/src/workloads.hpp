// Workload set-up and op execution. An op is one graph-bytes-to-verdict unit
// of work: read a text graph file, bind it, and run a protocol (or the
// centralized planarity engine, or one batch). Set-up generates instances
// through the registry, serializes them into a work directory, and records
// a reference outcome digest per op from the single caller thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/prover.hpp"
#include "dip/runtime.hpp"
#include "protocols/registry.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"lr-file", "planar-file", "small-batch"};

enum class OpKind { kProtocol, kPlanarCheck, kBatch };
enum class Adversary { kNone, kRandom, kReplay };

/// One item of a small-batch op. Its coin seed is fixed at set-up, so the
/// reference digest covers near-no and adversary items exactly.
struct BatchEntry {
  lrdip::Task task{};
  std::string path;
  int n = 0;
  bool expect_yes = true;
  std::uint64_t seed = 0;
  Adversary adversary = Adversary::kNone;
  int transcript = -1;  // index into Workload::transcripts (replay items)
  std::uint64_t ref_digest = 0;
};

struct OpSpec {
  std::string name;  // task name, "bm-planar", "bm-nonplanar" or "batch"
  OpKind kind = OpKind::kProtocol;
  lrdip::Task task{};
  std::string path;
  std::int64_t bytes = 0;  // file size, or the sum over batch items
  std::int64_t nodes = 0;  // n, or the sum over batch items
  bool expect_yes = true;
  /// Unset until set-up has run the op once; then every op must match it.
  std::optional<std::uint64_t> ref_digest;
  std::vector<BatchEntry> items;
};

struct Workload {
  std::string name;
  /// One pass over the workload's op kinds; the measurement repeats whole
  /// cycles, so every run sees the same mix.
  std::vector<OpSpec> cycle;
  std::vector<lrdip::adversary::CapturedTranscript> transcripts;
  /// Seconds per registry generator call, keyed "<task>.yes" / "<task>.near_no".
  std::map<std::string, double> gen_s;
  double serialize_s = 0.0;
  double reference_s = 0.0;
};

bool is_workload(const std::string& name);

/// Generates, serializes and references every instance of `name` under
/// `dir`. Throws on any set-up failure, including a reference outcome whose
/// verdict contradicts the instance's known class.
Workload setup_workload(const std::string& name, std::uint64_t seed, const std::string& dir);

struct OpResult {
  bool ok = false;
  double wall_s = 0.0;
  std::uint64_t digest = 0;  // outcome digest (batch: folded over items)
  std::string error;
};

/// Runs one op: read, bind, verify, then checks the verdict and the digest
/// against the reference. Only the read-to-verdict part is timed; the
/// correctness checks run after the clock stops. Never throws.
OpResult run_op(const OpSpec& op, const Workload& w, const lrdip::Runtime& rt,
                std::uint64_t coin_seed, Tracer& tracer);

/// The GraphFile a prover would ship for a generated instance: the graph
/// plus every certificate section the task's binder consumes.
lrdip::GraphFile to_graph_file(const lrdip::BoundInstance& bi);

/// A fresh adversary for a batch item (provers are stateful per run); null
/// for honest items.
std::unique_ptr<lrdip::FaultInjector> make_adversary(const BatchEntry& e, const Workload& w);

/// Digest of a centralized planarity answer: the verdict plus the face
/// count of the embedding or the witness edge ids.
std::uint64_t planarity_digest(bool planar, int faces, const std::vector<lrdip::EdgeId>& witness);

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench
