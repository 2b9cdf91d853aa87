// Exact sparse access to a sample's arc slacks: the screen every
// Monte-Carlo judgement runs on.
//
// A chip violates only a handful of its thousands of arcs, and a judgement
// reads the slacks of well under 1% of the rest.  ArcScreen finds those
// arcs without drawing every arc's local delay: the local draw of arc e in
// sample k is Box-Muller on the uniform u1 = (h >> 11) * 2^-53 of
// h = hash_u64(seed, k, 0x10000 + e), and with w = bit_width(h >> 11) we
// have u1 >= 2^(w-54), hence
//
//   |z_loc| <= sqrt(-2 ln u1) <= Z[w] = sqrt(2 ln2 (54 - w)).
//
// One hash and a few flops per arc bound its late and early delay over
// z_loc in [-Z[w], Z[w]] (through the same max/clamp as
// Sampler::arc_delays) and hence both unquantized slacks from below.  An
// arc whose bound clears by delta > 0 (1e-6 ps, scaled up for inputs so
// large that double rounding could approach it) cannot be violated; every
// other arc gets its exact delays, by the arithmetic of Sampler::evaluate,
// so every answer below is exact.  Bounding every normal by Z[0] instead
// gives per-arc bounds that hold for every chip: arcs that no chip can
// violate in setup at the screen's period, or in hold at all, never need
// a look.
//
// Width tables.  The two per-chip passes below visit every arc of every
// chip, and nearly all of those arcs clear.  So they first try a check
// without a flop: one byte W[b][e] per arc e and chip bucket b, the
// smallest bit width at which the bound clears e for every chip whose
// global draws have ||z||_2 <= R_b.  Arc e clears when
// bit_width(h >> 11) >= W[b][e]; only an arc that fails this compare reads
// its bound data and goes on to the bound and the exact draw.  W has a
// closed form, because a.z <= ||a||_2 R_b (Cauchy-Schwarz) and the bound
// is monotone in every term:
//
//   * setup clears when setup_base - 2 delta >= 0 (late_hi clamps at 0)
//     and late_mu + ||a||_2 R_b + |aloc| Z[w] <= setup_base - 2 delta;
//   * hold clears when hold_base >= 2 delta, or when the early and the
//     late delay's lower bounds mu - ||a||_2 R_b - |aloc| Z[w] both reach
//     2 delta - hold_base (early_lo is capped by late_lo).
//
// The margin is 2 delta, not delta, so rounding in the closed form cannot
// clear an arc that the bound would not.  Every arc the compare clears,
// the bound clears too, so the arcs drawn exactly, and every answer, are
// the same as without the tables.  The bucket radii are 1, 1.5, 2, 2.5, 3,
// 4, 6 and sqrt(3) Z[0]: ||z||_2 is <= 2 for about three chips in four and
// <= 4 for 99.9% of them, and the last bucket holds every chip, since
// every |z_p| <= Z[0].  A chip's ||z||_2 is rounded up before its bucket is
// picked.  A screen builds only the table of the pass it serves (Pass), so
// screens that answer single-arc queries pay for none.
//
// Three judgements run on it:
//
//   * violated_arcs(): the arcs whose quantized constants are negative, for
//     the insertion engine, which reads every other constant it needs
//     through ArcConstantMemo.  Its table clears setup at the screen's
//     period together with hold.
//   * verdict(): chip k's critical setup period P_k and hold flag H_k,
//     which do not depend on the clock period.  Arcs whose static reach
//     cannot beat the running maximum and which cannot fail hold are passed
//     over without a hash.  An arc whose static reach cannot beat the
//     maximum but whose hold could fail tries the compare on a hold-only
//     table, which does not depend on the period.  The rest are bounded,
//     and only an arc whose bit-width bound could raise the maximum or fail
//     hold is drawn.  The arcs of highest nominal reach are drawn first, so
//     the maximum is close to P_k before the sweep starts.
//   * setup_violated() / hold_violated(): the raw sign of one arc's slack,
//     for the yield evaluator's flagged chips and the criticality ranking.
//
// Raw sign versus quantized constants: violated_arcs() tests
// floor_steps(slack) < 0, which reads a slack in [-1e-9 * step, 0) as
// satisfied; a chip's untuned yield tests the raw sign.  The two differ,
// so violated_arcs() cannot decide Yo, and the raw-sign queries exist.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mc/arc_constants.h"
#include "mc/sampler.h"

namespace clktune::mc {

/// What the screen decides about one chip without a clock period.
struct ChipVerdict {
  /// P_k = max(0, max_e dmax + s_j + q_i - q_j), in the period MC's term
  /// order: the chip passes every setup constraint untuned at T > P_k, up
  /// to rounding.
  double period = 0.0;
  /// H_k: some arc's hold slack is negative, by arc_slack's raw sign.  Hold
  /// slacks do not depend on T, so the chip fails untuned at every period.
  bool hold_fail = false;

  enum class Untuned { passes, fails, unsure };

  /// The chip's untuned verdict at period T.  P_k and arc_slack sum their
  /// terms in different orders, so within `band` of P_k the two can round
  /// apart and only an exact check of the chip at T decides.
  Untuned untuned_at(double clock_period_ps, double band) const {
    if (hold_fail) return Untuned::fails;
    if (period <= clock_period_ps - band) return Untuned::passes;
    if (period > clock_period_ps + band) return Untuned::fails;
    return Untuned::unsure;
  }
};

class ArcScreen {
 public:
  /// The per-chip pass a screen serves, if any; each reads its own width
  /// table, which the constructor builds.
  enum class Pass { none, violated_arcs, verdict };
  /// Chip buckets of the width tables.
  static constexpr std::size_t kBuckets = 8;
  /// Width table entry of an arc that no bit width clears.
  static constexpr int kNoWidth = 64;

  /// Precomputes the per-arc bound data, and the width table of `pass`;
  /// O(arcs).
  ArcScreen(const Sampler& sampler, double clock_period_ps, double step_ps,
            Pass pass = Pass::none);

  /// Replaces `violated` with the arcs of sample k whose setup or hold
  /// constant is negative, in ascending order.  Needs Pass::violated_arcs.
  /// No allocation once `violated` has the capacity.
  void violated_arcs(std::uint64_t k, std::vector<int>& violated) const;

  /// Chip k's critical setup period and hold flag.  Needs Pass::verdict.
  /// Reads neither the screen's period nor its step; no allocation.
  ChipVerdict verdict(std::uint64_t k) const;

  /// Does arc e of sample k have a negative raw setup (hold) slack at the
  /// screen's period?  `z` is sampler().globals(k).  Exact: the sign of
  /// arc_slack over the delays Sampler::evaluate would draw.
  bool setup_violated(std::uint64_t k,
                      const std::array<double, ssta::kParams>& z,
                      std::size_t e) const;
  bool hold_violated(std::uint64_t k,
                     const std::array<double, ssta::kParams>& z,
                     std::size_t e) const;

  /// Ascending arcs that some chip could violate in setup at the screen's
  /// period, and in hold.  An arc outside a list passes that check on
  /// every chip.
  const std::vector<int>& setup_risk_arcs() const { return setup_risk_; }
  const std::vector<int>& hold_risk_arcs() const { return hold_risk_; }

  /// Distance from the screen's period within which a chip's P_k cannot
  /// decide its untuned setup verdict (see ChipVerdict::untuned_at).
  double rounding_band() const { return rounding_band_; }

  /// Exact quantized constants of arc e in sample k, where `z` is
  /// sampler().globals(k): bit-identical to Sampler::evaluate followed by
  /// quantize_arc_constants().
  void constants(std::uint64_t k, const std::array<double, ssta::kParams>& z,
                 std::size_t e, std::int32_t& setup,
                 std::int32_t& hold) const;

  const Sampler& sampler() const { return *sampler_; }
  double clock_period_ps() const { return clock_period_ps_; }
  double step_ps() const { return step_ps_; }
  std::size_t num_arcs() const { return bounds_.size(); }

  // Read-only access to the width tables and the bound behind them.

  /// R_b.  The last bucket's radius, sqrt(kParams) Z[0], holds every chip.
  double bucket_radius(std::size_t b) const { return bucket_radius_[b]; }
  /// The bucket of a chip with global draws `z`: the first whose radius
  /// reaches ||z||_2, rounded up.
  std::size_t bucket_of(const std::array<double, ssta::kParams>& z) const;
  /// W[b][e] of the table the screen's pass reads; kNoWidth when no width
  /// clears arc e.
  int width_threshold(std::size_t b, std::size_t e) const {
    return widths_[b * bounds_.size() + e];
  }
  /// Z[w]: the bound on |z_loc| of an arc whose hash has bit width w.
  double local_bound(int w) const {
    return local_bound_[static_cast<std::size_t>(w)];
  }
  /// The bound's two slacks on arc e for global draws `z` and
  /// |z_loc| <= z_loc: setup_base - late_hi and hold_base + early_lo.  A
  /// half clears when its slack reaches clear_margin(e).
  void bound_slacks(std::size_t e, const std::array<double, ssta::kParams>& z,
                    double z_loc, double& setup, double& hold) const;
  double clear_margin(std::size_t e) const { return bounds_[e].delta; }

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
  /// What verdict() needs on top, kept apart so violated_arcs() streams
  /// no more bytes per arc than it reads.
  struct ArcReach {
    /// Above any chip's dmax + s_j + q_i - q_j, rounding included.
    double reach = 0.0;
    double period_base = 0.0;  ///< s_j + q_i - q_j
    bool hold_risk = false;    ///< some chip could fail this arc's hold
  };

  /// Box bounds of arc e's late delay from above and early delay from
  /// below, for global draws `z` and |z_loc| <= z_loc.
  static void delay_bounds(const ArcBound& b,
                           const std::array<double, ssta::kParams>& z,
                           double z_loc, double& late_hi, double& early_lo);
  /// Bit width of the hash behind arc e's local draw in sample k of a
  /// sampler seeded `seed`: Z[width] bounds |z_loc|.
  static int local_width(std::uint64_t seed, std::uint64_t k, std::size_t e);
  /// Fills widths_ with the table of pass_ from bounds_.
  void build_widths();
  /// The smallest w with Z[w] <= z_loc, or kNoWidth.
  std::uint8_t width_for(double z_loc) const;
  /// Row of widths_ for global draws `z`.
  const std::uint8_t* width_row(
      const std::array<double, ssta::kParams>& z) const {
    return widths_.data() + bucket_of(z) * bounds_.size();
  }
  /// Draws arc e of sample k exactly into `v`.
  void draw_into(std::uint64_t k, const std::array<double, ssta::kParams>& z,
                 std::size_t e, ChipVerdict& v) const;

  const Sampler* sampler_;
  double clock_period_ps_;
  double step_ps_;
  Pass pass_;
  std::vector<ArcBound> bounds_;
  std::vector<ArcReach> reach_;
  std::vector<int> setup_risk_, hold_risk_;
  /// Arcs of highest nominal reach, descending: verdict() draws them first.
  std::vector<int> verdict_seeds_;
  double rounding_band_ = 0.0;
  /// Z[w] above, with a small safety factor for libm rounding.
  std::array<double, 54> local_bound_{};
  std::array<double, kBuckets> bucket_radius_{};
  /// W[b][e] of pass_'s table, bucket-major; empty for Pass::none.
  std::vector<std::uint8_t> widths_;
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
