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
// arc whose bound clears by delta > 0 cannot be violated; every other arc
// gets its exact delays, by the arithmetic of Sampler::evaluate, so every
// answer below is exact.  Bounding every normal by Z[0] instead gives
// per-arc bounds that hold for every chip: arcs that no chip can violate
// in setup at the screen's period, or in hold at all, never need a look.
//
// The margin.  Arc e clears when its bound reaches
//
//   delta_e(T) = max(1e-6 ps, 1e-12 (|T| + m_e)),
//
// where m_e sums the magnitudes of every other term the slacks add (the
// flip-flop times, the skews, the delay means and Z[0] times the
// sensitivities), so delta scales up for inputs so large that double
// rounding could approach 1e-6 ps.
//
// Two parts.  A screen is a shared, immutable core that does not read the
// period, bound to one period.  The core holds the per-arc bound data with
// T factored out (the setup base without T, m_e without |T|), the hold-risk
// flags, the verdict seeds and the verdict pass's hold-only width table;
// the binding holds T, the step, the setup-risk list, the rounding band and,
// when asked for, the violated_arcs() table.  The verdict pass reads the
// core alone, with the margins delta_e(0): a hold slack does not add T, so
// its rounding does not grow with it.  at(T, step) binds the same
// core to another period in one read-only pass over the arcs, and a
// screen's constructor builds a core and binds it the same way, so a
// derived screen is the screen a fresh one at (T, step) would be: each
// arc's margin delta_e(T) is the same expression over the same m_e, the
// setup-risk list the same comparison, and the rounding band,
// max_e delta_e(T), is max(1e-6 ps, 1e-12 (|T| + max_e m_e)) exactly,
// because rounding is monotone.  Copying a screen copies only its binding.
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
//   * setup clears when T + setup_base - 2 delta >= 0 (late_hi clamps at
//     0) and late_mu + ||a||_2 R_b + |aloc| Z[w] <= T + setup_base - 2 delta;
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
// screens that answer single-arc queries pay for none.  A table is built
// on the compute pool in chunks of at least 1024 arcs, so a small graph's
// table is built inline.
//
// Four judgements run on it:
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
//   * hold_violated_arcs(): the arcs of chip k whose raw hold slack is
//     negative, by a second sweep over the same hold-only table; the verdict
//     set runs it on its H_k chips only.
//   * setup_violated(): the raw sign of one arc's setup slack, for the yield
//     evaluator's flagged chips and the criticality ranking.
//
// Raw sign versus quantized constants: violated_arcs() tests
// floor_steps(slack) < 0, which reads a slack in [-1e-9 * step, 0) as
// satisfied; a chip's untuned yield tests the raw sign.  The two differ,
// so violated_arcs() cannot decide Yo, and the raw-sign queries exist.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
  /// table, which is built with the screen.
  enum class Pass { none, violated_arcs, verdict };
  /// Chip buckets of the width tables.
  static constexpr std::size_t kBuckets = 8;
  /// Width table entry of an arc that no bit width clears.
  static constexpr int kNoWidth = 64;

  /// Builds the core, with the verdict table for Pass::verdict, and binds
  /// it to (clock_period_ps, step_ps), with the violated_arcs() table for
  /// Pass::violated_arcs; O(arcs).  A table is built in up to `threads`
  /// chunks (0: hardware concurrency).
  ArcScreen(const Sampler& sampler, double clock_period_ps, double step_ps,
            Pass pass = Pass::none, int threads = 1);

  /// The screen at (clock_period_ps, step_ps) on this screen's core: equal
  /// to a fresh ArcScreen(sampler(), clock_period_ps, step_ps, pass) in
  /// every answer, margin, list and table, at the cost of one read-only
  /// pass over the arcs and the violated_arcs() table when `pass` asks for
  /// it.  Pass::verdict needs a core built for it.
  ArcScreen at(double clock_period_ps, double step_ps, Pass pass = Pass::none,
               int threads = 1) const;

  /// Replaces `violated` with the arcs of sample k whose setup or hold
  /// constant is negative, in ascending order.  Needs Pass::violated_arcs.
  /// No allocation once `violated` has the capacity.
  void violated_arcs(std::uint64_t k, std::vector<int>& violated) const;

  /// Chip k's critical setup period and hold flag.  Needs Pass::verdict.
  /// Reads neither the screen's period nor its step; no allocation.
  ChipVerdict verdict(std::uint64_t k) const;

  /// Appends to `out` the arcs of chip k whose raw hold slack is negative,
  /// in ascending order: exactly the arcs behind H_k.  Needs Pass::verdict;
  /// reads neither the screen's period nor its step.  No allocation once
  /// `out` has the capacity.
  void hold_violated_arcs(std::uint64_t k, std::vector<int>& out) const;

  /// Does arc e of sample k have a negative raw setup slack at the
  /// screen's period?  `z` is sampler().globals(k).  Exact: the sign of
  /// arc_slack over the delays Sampler::evaluate would draw.
  bool setup_violated(std::uint64_t k,
                      const std::array<double, ssta::kParams>& z,
                      std::size_t e) const;

  /// Ascending arcs that some chip could violate in setup at the screen's
  /// period.  An arc outside the list passes that check on every chip.
  const std::vector<int>& setup_risk_arcs() const { return setup_risk_; }

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
  std::size_t num_arcs() const { return core_->bounds.size(); }

  // Read-only access to the width tables and the bound behind them.

  /// R_b.  The last bucket's radius, sqrt(kParams) Z[0], holds every chip.
  double bucket_radius(std::size_t b) const { return core_->bucket_radius[b]; }
  /// The bucket of a chip with global draws `z`: the first whose radius
  /// reaches ||z||_2, rounded up.
  std::size_t bucket_of(const std::array<double, ssta::kParams>& z) const;
  /// W[b][e] of the table the screen's pass reads; kNoWidth when no width
  /// clears arc e.
  int width_threshold(std::size_t b, std::size_t e) const {
    const std::vector<std::uint8_t>& table =
        pass_ == Pass::verdict ? core_->hold_widths : widths_;
    return table[b * num_arcs() + e];
  }
  /// Z[w]: the bound on |z_loc| of an arc whose hash has bit width w.
  double local_bound(int w) const {
    return core_->local_bound[static_cast<std::size_t>(w)];
  }
  /// The bound's two slacks on arc e for global draws `z` and
  /// |z_loc| <= z_loc: T + setup_base - late_hi and hold_base + early_lo.
  /// A half clears when its slack reaches clear_margin(e).
  void bound_slacks(std::size_t e, const std::array<double, ssta::kParams>& z,
                    double z_loc, double& setup, double& hold) const;
  /// delta_e at the screen's period.
  double clear_margin(std::size_t e) const;

 private:
  /// What the screen needs of one arc and its canonical delays.
  struct ArcBound {
    double setup_base = 0.0;  ///< -s_j + q_j - q_i; the slack adds T
    double hold_base = 0.0;   ///< -h_j + q_i - q_j
    double late_mu = 0.0, early_mu = 0.0;
    std::array<double, ssta::kParams> late_a{}, early_a{};
    double late_loc = 0.0, early_loc = 0.0;  ///< |aloc|
    double magnitude = 0.0;  ///< m_e: what delta_e reads besides |T|
  };
  /// What verdict() needs on top, kept apart so violated_arcs() streams
  /// no more bytes per arc than it reads.
  struct ArcReach {
    /// Above any chip's dmax + s_j + q_i - q_j, rounding at T = 0 included.
    double reach = 0.0;
    double period_base = 0.0;  ///< s_j + q_i - q_j
    bool hold_risk = false;    ///< some chip could fail this arc's hold
  };
  /// What at() reads to list the setup-risk arcs at a period.
  struct ArcRisk {
    double reach_base = 0.0;  ///< the largest dmax of any chip + period_base
    double magnitude = 0.0;   ///< m_e
  };
  /// The part of a screen that does not depend on the period.
  struct Core {
    const Sampler* sampler = nullptr;
    std::vector<ArcBound> bounds;
    std::vector<ArcReach> reach;
    std::vector<ArcRisk> risk;
    double max_magnitude = 0.0;  ///< max_e m_e
    /// Arcs of highest nominal reach, descending: verdict() draws them
    /// first.
    std::vector<int> verdict_seeds;
    /// Z[w] above, with a small safety factor for libm rounding.
    std::array<double, 54> local_bound{};
    std::array<double, kBuckets> bucket_radius{};
    /// W[b][e] of the verdict pass's hold-only table, bucket-major; empty
    /// unless the core was built for Pass::verdict.
    std::vector<std::uint8_t> hold_widths;
  };

  ArcScreen(std::shared_ptr<const Core> core, double clock_period_ps,
            double step_ps, Pass pass, int threads);
  static std::shared_ptr<const Core> make_core(const Sampler& sampler,
                                               bool verdict_table,
                                               int threads);

  /// delta_e for |T| = period_magnitude and m_e = magnitude.
  static double margin(double period_magnitude, double magnitude);
  /// Box bounds of arc e's late delay from above and early delay from
  /// below, for global draws `z` and |z_loc| <= z_loc.
  static void delay_bounds(const ArcBound& b,
                           const std::array<double, ssta::kParams>& z,
                           double z_loc, double& late_hi, double& early_lo);
  /// Bit width of the hash behind arc e's local draw in sample k of a
  /// sampler seeded `seed`: Z[width] bounds |z_loc|.
  static int local_width(std::uint64_t seed, std::uint64_t k, std::size_t e);
  /// The width table of `core` at period T with a setup half (`with_setup`)
  /// or hold only, built in up to `threads` chunks.
  static std::vector<std::uint8_t> build_widths(const Core& core, double T,
                                                bool with_setup, int threads);
  /// The smallest w with Z[w] <= z_loc, or kNoWidth.
  static std::uint8_t width_for(const Core& core, double z_loc);
  /// Row of `table` for global draws `z`.
  const std::uint8_t* width_row(
      const std::vector<std::uint8_t>& table,
      const std::array<double, ssta::kParams>& z) const {
    return table.data() + bucket_of(z) * num_arcs();
  }
  /// Draws arc e of sample k exactly into `v`.
  void draw_into(std::uint64_t k, const std::array<double, ssta::kParams>& z,
                 std::size_t e, ChipVerdict& v) const;

  std::shared_ptr<const Core> core_;
  const Sampler* sampler_;  ///< core_->sampler, one load nearer
  double clock_period_ps_;
  double step_ps_;
  double period_magnitude_;  ///< |T|
  Pass pass_;
  std::vector<int> setup_risk_;
  double rounding_band_ = 0.0;
  /// W[b][e] of the violated_arcs() table, bucket-major; empty for the
  /// other passes.
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
