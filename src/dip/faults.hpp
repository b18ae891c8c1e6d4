// Byzantine transcript fault injection.
//
// The soundness theorems (Gil–Parter, Thms 1.2–1.7) quantify over arbitrary
// cheating provers, not just the scripted per-protocol cheats. FaultInjector
// realizes that adversary mechanically: it mutates the *recorded* transcript
// (LabelStore / CoinStore state) between the prover's writes and the
// verifier's decision step, using a set of composable structural fault
// models. Every mutation is counted per model and the whole attack is
// reproducible from (seed, rate, models) — the same plan applied to the same
// stores yields byte-identical corruption.
//
// The injector only touches non-empty labels (the transcript is what the
// prover actually sent) plus recorded coin slots; it never reshapes a store.
// Under the hardened decode path (dip/verdict.hpp) every such mutation must
// yield a local reject verdict or a semantically identical transcript —
// never an exception out of run_protocol.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "dip/store.hpp"
#include "support/rng.hpp"

namespace lrdip {

enum class FaultModel : std::uint8_t {
  bit_flip = 0,      ///< flip one bit inside a field's value (stays in width)
  width_corrupt,     ///< rewrite a field's declared width
  field_drop,        ///< erase one field, shifting later fields down
  field_append,      ///< append a junk field
  label_drop,        ///< clear the whole label
  label_swap,        ///< swap the label with another node's / edge's
  stale_replay,      ///< replace the label with the previous round's copy
  coin_flip,         ///< flip one bit of a recorded public coin
};

inline constexpr int kNumFaultModels = 8;

inline constexpr std::uint32_t fault_bit(FaultModel m) {
  return std::uint32_t{1} << static_cast<int>(m);
}
inline constexpr std::uint32_t kAllFaultModels = (std::uint32_t{1} << kNumFaultModels) - 1;
/// Every label-mutating model (everything except coin_flip).
inline constexpr std::uint32_t kLabelFaultModels =
    kAllFaultModels & ~fault_bit(FaultModel::coin_flip);

const char* fault_model_name(FaultModel m);
std::optional<FaultModel> fault_model_from_name(std::string_view name);

/// A reproducible attack description.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-element corruption probability in [0, 1]: each non-empty label (and
  /// each recorded coin slot, when coin_flip is enabled) is independently
  /// mutated with this probability. rate = 1 corrupts everything.
  double rate = 0.1;
  /// Bitmask of enabled FaultModels; a corrupted element picks uniformly
  /// among the enabled models applicable to it.
  std::uint32_t models = kAllFaultModels;
};

/// Transcript-interception seam. The base class realizes the *random*
/// Byzantine adversary described above; `corrupt` is virtual so strategic
/// adversaries (the cheating provers in src/adversary/) can plug into the
/// exact same between-prover-and-verifier hook every protocol stage already
/// calls, without the stages knowing which adversary is attached. One
/// injector serves one execution: subclasses carry per-run state, so callers
/// running replicated executions must attach a fresh object per run.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {}
  virtual ~FaultInjector() = default;

  /// Corrupts recorded node and edge labels across all rounds.
  virtual void corrupt(LabelStore& labels);
  /// Corrupts recorded coin slots (only when coin_flip is enabled).
  virtual void corrupt(CoinStore& coins);
  /// Convenience: labels, then coins.
  void corrupt(LabelStore& labels, CoinStore& coins) {
    corrupt(labels);
    corrupt(coins);
  }

  const FaultPlan& plan() const { return plan_; }
  std::int64_t count(FaultModel m) const { return counts_[static_cast<int>(m)]; }
  std::int64_t total_faults() const {
    std::int64_t t = 0;
    for (std::int64_t c : counts_) t += c;
    return t;
  }

 private:
  bool hit();  // Bernoulli(plan_.rate)
  void apply_label_fault(FaultModel m, Label& l, Rng& r);

  FaultPlan plan_;
  Rng rng_;
  std::array<std::int64_t, kNumFaultModels> counts_{};
};

}  // namespace lrdip
