// Per-chip zero-tuning verdicts and the distribution of the minimum clock
// period.
//
// Section IV of the paper derives its three evaluation clock periods from
// the zero-tuning period distribution: T in {muT, muT + sigmaT,
// muT + 2 sigmaT}, at which the original (no-buffer) yields are ~50 %,
// ~84.13 % and ~97.72 %.
//
// One screened pass per chip (ArcScreen::verdict) yields its critical
// period P_k and hold flag H_k, and neither depends on T.  ChipVerdicts
// holds them for the first n chips of one sampler, built once in parallel;
// the period MC is a fold over them, and the untuned yield at any T a
// count (feas::YieldEvaluator).  Every figure is bit-identical to drawing
// every arc of every chip.
//
// A verdict set keeps what every later judgement of its chips would
// otherwise rebuild:
//
//   * the screen its pass ran on, whose period-free core (per-arc bound
//     data, hold-risk flags, the hold-only width table) every evaluation
//     binds to its own period and step with ArcScreen::at;
//   * each H_k chip's arcs with a negative raw hold slack, ascending, taken
//     by a second sweep of the hold-only table over the H_k chips alone, so
//     that no other chip's sweep changes; a judgement of an H_k chip seeds
//     its hold arcs from them (hold slacks do not read T).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mc/arc_screen.h"
#include "mc/sampler.h"
#include "util/stats.h"

namespace clktune::mc {

struct PeriodStats {
  util::OnlineStats period;     ///< distribution of per-sample min period
  /// Chips with H_k: a hold violation at zero tuning.
  std::uint64_t hold_failures = 0;
  std::uint64_t samples = 0;

  double mu() const { return period.mean(); }
  double sigma() const { return period.stddev(); }
};

/// (P_k, H_k) of chips [0, samples) of one sampler, with the screen they
/// were judged on and each H_k chip's hold-violated arcs.  Independent of
/// the clock period and of the thread count; the sampler must outlive it.
class ChipVerdicts {
 public:
  /// `threads` spreads both sweeps and the screen's width table; a chunk
  /// of chips takes its H_k chips' second sweep after its verdicts.
  ChipVerdicts(const Sampler& sampler, std::uint64_t samples,
               int threads = 0);

  const Sampler& sampler() const { return screen_.sampler(); }
  std::uint64_t samples() const { return verdicts_.size(); }
  const ChipVerdict& operator[](std::uint64_t k) const {
    return verdicts_[static_cast<std::size_t>(k)];
  }

  /// The verdict pass's screen (T = 0, step 1): derive a screen at any
  /// period and step from it with at().
  const ArcScreen& screen() const { return screen_; }

  /// Chip k's arcs with a negative raw hold slack, ascending; empty unless
  /// (*this)[k].hold_fail.
  std::span<const int> hold_arcs(std::uint64_t k) const {
    const auto ks = static_cast<std::size_t>(k);
    return std::span<const int>(hold_arcs_)
        .subspan(hold_begin_[ks], hold_begin_[ks + 1] - hold_begin_[ks]);
  }

  /// The minimum-period distribution and hold-failure count, folded in
  /// chip order, so its bits do not depend on the thread count.
  PeriodStats period_stats() const;

 private:
  ArcScreen screen_;
  std::vector<ChipVerdict> verdicts_;
  /// Chip k's hold arcs are hold_arcs_[hold_begin_[k] .. hold_begin_[k + 1]).
  std::vector<std::size_t> hold_begin_;
  std::vector<int> hold_arcs_;
};

/// Samples the minimum feasible period (setup-limited, x = 0) and counts
/// zero-tuning hold violations.  Deterministic in (sampler seed, samples);
/// `threads` only spreads the verdict pass.
PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads = 0);

}  // namespace clktune::mc
