#include "mc/period_mc.h"

#include "util/thread_pool.h"

namespace clktune::mc {

ChipVerdicts::ChipVerdicts(const Sampler& sampler, std::uint64_t samples,
                           int threads)
    // The pass reads no clock period or step, so a screen at T = 0 serves.
    : screen_(sampler, 0.0, 1.0, ArcScreen::Pass::verdict, threads),
      verdicts_(static_cast<std::size_t>(samples)),
      hold_begin_(verdicts_.size() + 1, 0) {
  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<std::vector<int>> parts(workers);
  util::parallel_chunks(
      verdicts_.size(), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          verdicts_[k] = screen_.verdict(k);
        // The second sweep, over the chunk's H_k chips only.
        for (std::size_t k = begin; k < end; ++k) {
          if (!verdicts_[k].hold_fail) continue;
          const std::size_t before = parts[w].size();
          screen_.hold_violated_arcs(k, parts[w]);
          hold_begin_[k + 1] = parts[w].size() - before;
        }
      });
  // A chunk is a run of consecutive chips, and the chunks' arcs are joined
  // in chunk order, so the lists land in chip order.
  for (const std::vector<int>& part : parts)
    hold_arcs_.insert(hold_arcs_.end(), part.begin(), part.end());
  for (std::size_t k = 0; k < verdicts_.size(); ++k)
    hold_begin_[k + 1] += hold_begin_[k];
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
