#include "mc/period_mc.h"

#include "util/thread_pool.h"

namespace clktune::mc {

namespace {

std::size_t workers_for(int threads) {
  return util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
}

}  // namespace

ChipVerdicts::ChipVerdicts(const Sampler& sampler, std::uint64_t samples,
                           int threads)
    : sampler_(&sampler), verdicts_(static_cast<std::size_t>(samples)) {
  // The pass reads no clock period or step, so a screen at T = 0 serves,
  // and its rounding allowances carry no period term.
  const ArcScreen screen(sampler, 0.0, 1.0, ArcScreen::Pass::verdict);
  util::parallel_chunks(
      verdicts_.size(), workers_for(threads),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          verdicts_[k] = screen.verdict(k);
      });
}

PeriodStats ChipVerdicts::period_stats(int threads) const {
  PeriodStats total;
  util::serial_chunks(
      verdicts_.size(), workers_for(threads),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        PeriodStats part;
        for (std::size_t k = begin; k < end; ++k) {
          part.period.add(verdicts_[k].period);
          part.hold_failures += verdicts_[k].period_hold_fail ? 1 : 0;
          ++part.samples;
        }
        total.period.merge(part.period);
        total.hold_failures += part.hold_failures;
        total.samples += part.samples;
      });
  return total;
}

PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads) {
  return ChipVerdicts(sampler, samples, threads).period_stats(threads);
}

}  // namespace clktune::mc
