#include "mc/period_mc.h"

#include "util/thread_pool.h"

namespace clktune::mc {

ChipVerdicts::ChipVerdicts(const Sampler& sampler, std::uint64_t samples,
                           int threads)
    : sampler_(&sampler), verdicts_(static_cast<std::size_t>(samples)) {
  // The pass reads no clock period or step, so a screen at T = 0 serves,
  // and its rounding allowances carry no period term.
  const ArcScreen screen(sampler, 0.0, 1.0, ArcScreen::Pass::verdict);
  util::parallel_chunks(
      verdicts_.size(),
      util::resolve_thread_count(
          threads <= 0 ? 0 : static_cast<std::size_t>(threads)),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          verdicts_[k] = screen.verdict(k);
      });
}

PeriodStats ChipVerdicts::period_stats() const {
  PeriodStats total;
  for (const ChipVerdict& v : verdicts_) {
    total.period.add(v.period);
    total.hold_failures += v.hold_fail ? 1 : 0;
  }
  total.samples = verdicts_.size();
  return total;
}

PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads) {
  return ChipVerdicts(sampler, samples, threads).period_stats();
}

}  // namespace clktune::mc
