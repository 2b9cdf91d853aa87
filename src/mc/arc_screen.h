// Exact sparse access to a sample's quantized arc constants.
//
// A chip violates only a handful of its thousands of arcs, and the
// per-sample solver reads the constants of well under 1% of the rest.
// ArcScreen finds the violated arcs without drawing every arc's local
// delay: the local draw of arc e in sample k is Box-Muller on the uniform
// u1 = (h >> 11) * 2^-53 of h = hash_u64(seed, k, 0x10000 + e), and with
// w = bit_width(h >> 11) we have u1 >= 2^(w-54), hence
//
//   |z_loc| <= sqrt(-2 ln u1) <= Z[w] = sqrt(2 ln2 (54 - w)).
//
// One hash and a few flops per arc bound its late and early delay over
// z_loc in [-Z[w], Z[w]] (through the same max/clamp as
// Sampler::arc_delays) and hence both unquantized slacks from below.  An
// arc whose two slack bounds are >= delta > 0 floors to constants >= 0, so
// it cannot be violated and is cleared.  delta (1e-6 ps, scaled up for
// inputs so large that double rounding could approach it) is far above
// the rounding gap between the bound and the exact arithmetic.  Every
// other arc gets its exact constants, by the arithmetic of evaluate() +
// quantize_arc_constants(), so the violated set is exact.
//
// ArcConstantMemo serves the solver every other constant it reads, exactly
// on first touch and from an epoch-stamped per-arc memo after that.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mc/arc_constants.h"
#include "mc/sampler.h"

namespace clktune::mc {

class ArcScreen {
 public:
  /// Precomputes the per-arc bound data; O(arcs).
  ArcScreen(const Sampler& sampler, double clock_period_ps, double step_ps);

  /// Replaces `violated` with the arcs of sample k whose setup or hold
  /// constant is negative, in ascending order.  No allocation once
  /// `violated` has the capacity.
  void violated_arcs(std::uint64_t k, std::vector<int>& violated) const;

  /// Exact quantized constants of arc e in sample k, where `z` is
  /// sampler().globals(k): bit-identical to evaluate() followed by
  /// quantize_arc_constants().
  void constants(std::uint64_t k, const std::array<double, ssta::kParams>& z,
                 std::size_t e, std::int32_t& setup,
                 std::int32_t& hold) const;

  const Sampler& sampler() const { return *sampler_; }
  double clock_period_ps() const { return clock_period_ps_; }
  double step_ps() const { return step_ps_; }
  std::size_t num_arcs() const { return bounds_.size(); }

 private:
  /// What the screen needs of one arc and its canonical delays.
  struct ArcBound {
    double setup_base = 0.0;  ///< T - s_j + q_j - q_i
    double hold_base = 0.0;   ///< -h_j + q_i - q_j
    double late_mu = 0.0, early_mu = 0.0;
    std::array<double, ssta::kParams> late_a{}, early_a{};
    double late_loc = 0.0, early_loc = 0.0;  ///< |aloc|
    double delta = 0.0;  ///< slack both bounds must reach to clear the arc
  };

  const Sampler* sampler_;
  double clock_period_ps_;
  double step_ps_;
  std::vector<ArcBound> bounds_;
  /// Z[w] above, with a small safety factor for libm rounding.
  std::array<double, 54> local_bound_{};
};

/// One sample's constants for the per-sample solver: an epoch-stamped
/// per-arc memo, so starting a sample is O(1) and an arc's constants are
/// computed at most once per sample.  No allocation once sized.
class ArcConstantMemo {
 public:
  /// Starts sample k of `screen`; constants are computed on first touch.
  void begin(const ArcScreen& screen, std::uint64_t k);
  /// Starts a sample whose constants are all given up front.
  void begin(const ArcConstants& dense);

  std::int32_t setup(std::size_t e) {
    touch(e);
    return setup_[e];
  }
  std::int32_t hold(std::size_t e) {
    touch(e);
    return hold_[e];
  }

 private:
  void touch(std::size_t e) {
    if (stamp_[e] == epoch_) return;
    stamp_[e] = epoch_;
    compute(e);
  }
  void compute(std::size_t e);
  void next_epoch(std::size_t num_arcs);

  const ArcScreen* screen_ = nullptr;
  std::uint64_t k_ = 0;
  bool have_globals_ = false;
  std::array<double, ssta::kParams> z_{};
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::int32_t> setup_, hold_;
};

}  // namespace clktune::mc
