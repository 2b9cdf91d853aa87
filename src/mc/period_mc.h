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
#pragma once

#include <cstdint>
#include <vector>

#include "mc/arc_screen.h"
#include "mc/sampler.h"
#include "util/stats.h"

namespace clktune::mc {

struct PeriodStats {
  util::OnlineStats period;     ///< distribution of per-sample min period
  std::uint64_t hold_failures = 0;  ///< samples with a zero-tuning hold violation
  std::uint64_t samples = 0;

  double mu() const { return period.mean(); }
  double sigma() const { return period.stddev(); }
};

/// (P_k, H_k) of chips [0, samples) of one sampler.  Independent of the
/// clock period and of the thread count; the sampler must outlive it.
class ChipVerdicts {
 public:
  ChipVerdicts(const Sampler& sampler, std::uint64_t samples,
               int threads = 0);

  const Sampler& sampler() const { return *sampler_; }
  std::uint64_t samples() const { return verdicts_.size(); }
  const ChipVerdict& operator[](std::uint64_t k) const {
    return verdicts_[static_cast<std::size_t>(k)];
  }

  /// The minimum-period distribution and hold-failure count.  The moments
  /// are accumulated over the same per-worker chunks, merged in the same
  /// order, as a chunked parallel loop over `threads` workers would, so
  /// their bits match sample_min_period's at that thread count.
  PeriodStats period_stats(int threads = 0) const;

 private:
  const Sampler* sampler_;
  std::vector<ChipVerdict> verdicts_;
};

/// Samples the minimum feasible period (setup-limited, x = 0) and counts
/// zero-tuning hold violations.  Deterministic in (sampler seed, samples,
/// threads).
PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads = 0);

}  // namespace clktune::mc
