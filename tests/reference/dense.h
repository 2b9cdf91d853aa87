// Dense references for the screened judgements.
//
// Each function here draws every arc of every chip with Sampler::evaluate
// and tests arc_slack's raw signs directly — the paths the library ran
// before its judgements moved onto the arc screen.  They are kept, test
// only, so the differential suites can hold every screened path to them
// exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/binning.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace clktune::reference {

/// Arcs with a negative quantized constant in `dense`, ascending: what
/// ArcScreen::violated_arcs returns.
inline std::vector<int> dense_violated(const mc::ArcConstants& dense) {
  std::vector<int> out;
  for (std::size_t e = 0; e < dense.setup_steps.size(); ++e)
    if (dense.setup_steps[e] < 0 || dense.hold_steps[e] < 0)
      out.push_back(static_cast<int>(e));
  return out;
}

/// A chip's minimum period, max(0, max_e dmax + s_j + q_i - q_j), summed in
/// the period MC's term order.
inline double dense_period(const ssta::SeqGraph& graph,
                           const mc::ArcSample& sample) {
  double period = 0.0;
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const double t = sample.dmax[e] +
                     graph.setup_ps[static_cast<std::size_t>(arc.dst_ff)] +
                     graph.skew_ps[static_cast<std::size_t>(arc.src_ff)] -
                     graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)];
    period = std::max(period, t);
  }
  return period;
}

/// The arcs whose raw hold slack, by arc_slack, is negative, ascending:
/// what a verdict set records for an H_k chip.
inline std::vector<int> dense_hold_arcs(const ssta::SeqGraph& graph,
                                        const mc::ArcSample& sample) {
  std::vector<int> out;
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, e, sample.dmax[e], sample.dmin[e], 0.0, setup_c,
                  hold_c);
    if (hold_c < 0.0) out.push_back(static_cast<int>(e));
  }
  return out;
}

/// Does some hold slack of the chip fail arc_slack's raw sign?
inline bool dense_hold_fail(const ssta::SeqGraph& graph,
                            const mc::ArcSample& sample) {
  return !dense_hold_arcs(graph, sample).empty();
}

/// The period MC drawing every arc: the chips' minimum periods and hold
/// failures, folded in chip order.
inline mc::PeriodStats dense_min_period(const mc::Sampler& sampler,
                                        std::uint64_t samples) {
  const ssta::SeqGraph& graph = sampler.graph();
  mc::PeriodStats total;
  mc::ArcSample sample;
  for (std::uint64_t k = 0; k < samples; ++k) {
    sampler.evaluate(k, sample);
    total.period.add(dense_period(graph, sample));
    total.hold_failures += dense_hold_fail(graph, sample) ? 1 : 0;
    ++total.samples;
  }
  return total;
}

/// Chips among [0, samples) that `eval` passes, judged one at a time by
/// the dense per-chip check, on `threads` workers.
inline std::uint64_t dense_passing(const feas::YieldEvaluator& eval,
                                   const mc::Sampler& sampler,
                                   std::uint64_t samples, int threads = 4) {
  std::vector<std::uint64_t> passing(static_cast<std::size_t>(threads), 0);
  util::parallel_chunks(
      static_cast<std::size_t>(samples), static_cast<std::size_t>(threads),
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          passing[w] += eval.sample_feasible(sampler, k) ? 1 : 0;
      });
  std::uint64_t total = 0;
  for (const std::uint64_t p : passing) total += p;
  return total;
}

/// The plan with no buffers, whose yield is Yo.
inline feas::TuningPlan no_buffers() {
  feas::TuningPlan plan;
  plan.step_ps = 1.0;
  plan.reset_groups();
  return plan;
}

/// A yield result of `passing` chips among `samples`, as evaluate() fills
/// it.
inline feas::YieldResult dense_result(std::uint64_t passing,
                                      std::uint64_t samples) {
  feas::YieldResult r;
  r.passing = passing;
  r.samples = samples;
  r.yield = samples == 0 ? 0.0
                         : static_cast<double>(passing) /
                               static_cast<double>(samples);
  r.ci95 = util::yield_ci95(r.yield, samples);
  return r;
}

/// The binning ladder judged chip by chip: each chip is drawn once, every
/// rung decides it with find_configuration for no buffers and for `plan`,
/// and it sells at its first feasible tuned rung.  Per-worker counts,
/// summed in worker order.
inline analysis::BinningReport dense_binning(
    const ssta::SeqGraph& graph, const feas::TuningPlan& plan,
    const std::vector<double>& periods_ps, std::uint64_t eval_seed,
    std::uint64_t samples, int threads = 4) {
  const std::size_t rungs = periods_ps.size();
  std::vector<feas::YieldEvaluator> original, tuned;
  for (const double period : periods_ps) {
    original.emplace_back(graph, no_buffers(), period);
    tuned.emplace_back(graph, plan, period);
  }
  const mc::Sampler sampler(graph, eval_seed);
  struct Counts {
    std::vector<std::uint64_t> original, tuned, sell;
    std::uint64_t unsellable = 0;
  };
  const Counts zero{std::vector<std::uint64_t>(rungs, 0),
                    std::vector<std::uint64_t>(rungs, 0),
                    std::vector<std::uint64_t>(rungs, 0), 0};
  std::vector<Counts> partial(static_cast<std::size_t>(threads), zero);
  util::parallel_chunks(
      static_cast<std::size_t>(samples), static_cast<std::size_t>(threads),
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        Counts& p = partial[w];
        mc::ArcSample sample;
        for (std::size_t k = begin; k < end; ++k) {
          sampler.evaluate(k, sample);
          const mc::ArcDelaysView view{sample.dmax.data(),
                                       sample.dmin.data(), sample.dmax.size()};
          bool sold = false;
          for (std::size_t r = 0; r < rungs; ++r) {
            p.original[r] +=
                original[r].find_configuration(view).has_value() ? 1 : 0;
            const bool ok = tuned[r].find_configuration(view).has_value();
            p.tuned[r] += ok ? 1 : 0;
            if (ok && !sold) {
              ++p.sell[r];
              sold = true;
            }
          }
          if (!sold) ++p.unsellable;
        }
      });
  Counts total = zero;
  for (const Counts& p : partial) {
    for (std::size_t r = 0; r < rungs; ++r) {
      total.original[r] += p.original[r];
      total.tuned[r] += p.tuned[r];
      total.sell[r] += p.sell[r];
    }
    total.unsellable += p.unsellable;
  }

  analysis::BinningReport report;
  report.samples = samples;
  report.eval_seed = eval_seed;
  report.unsellable = total.unsellable;
  const double denom = samples == 0 ? 1.0 : static_cast<double>(samples);
  report.unsellable_fraction = static_cast<double>(total.unsellable) / denom;
  std::uint64_t sellable = 0;
  double sell_period_sum = 0.0;
  for (std::size_t r = 0; r < rungs; ++r) {
    analysis::BinYield bin;
    bin.period_ps = periods_ps[r];
    bin.original = dense_result(total.original[r], samples);
    bin.tuned = dense_result(total.tuned[r], samples);
    bin.sell = total.sell[r];
    bin.sell_fraction = static_cast<double>(bin.sell) / denom;
    sellable += bin.sell;
    sell_period_sum += static_cast<double>(bin.sell) * bin.period_ps;
    report.bins.push_back(bin);
  }
  report.expected_sell_period_ps =
      sellable == 0 ? 0.0 : sell_period_sum / static_cast<double>(sellable);
  return report;
}

/// Per-flip-flop count of raw setup violations at x = 0, every arc of
/// every chip drawn.
inline std::vector<std::uint64_t> dense_incidence(const ssta::SeqGraph& graph,
                                                  const mc::Sampler& sampler,
                                                  double clock_period_ps,
                                                  std::uint64_t samples) {
  std::vector<std::uint64_t> incidence(
      static_cast<std::size_t>(graph.num_ffs), 0);
  mc::ArcSample sample;
  for (std::uint64_t k = 0; k < samples; ++k) {
    sampler.evaluate(k, sample);
    for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
      double setup_c = 0.0, hold_c = 0.0;
      mc::arc_slack(graph, e, sample.dmax[e], sample.dmin[e],
                    clock_period_ps, setup_c, hold_c);
      if (setup_c >= 0.0) continue;
      const auto i = static_cast<std::size_t>(graph.arcs[e].src_ff);
      const auto j = static_cast<std::size_t>(graph.arcs[e].dst_ff);
      ++incidence[i];
      if (i != j) ++incidence[j];
    }
  }
  return incidence;
}

}  // namespace clktune::reference
