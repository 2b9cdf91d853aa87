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

#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"
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

/// Does some hold margin dmin - h_j - q_j + q_i of the chip fall below 0?
inline bool dense_period_hold_fail(const ssta::SeqGraph& graph,
                                   const mc::ArcSample& sample) {
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const double margin =
        sample.dmin[e] -
        graph.hold_ps[static_cast<std::size_t>(arc.dst_ff)] -
        graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)] +
        graph.skew_ps[static_cast<std::size_t>(arc.src_ff)];
    if (margin < 0.0) return true;
  }
  return false;
}

/// Does some hold slack of the chip fail arc_slack's raw sign?
inline bool dense_hold_fail(const ssta::SeqGraph& graph,
                            const mc::ArcSample& sample) {
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, e, sample.dmax[e], sample.dmin[e], 0.0, setup_c,
                  hold_c);
    if (hold_c < 0.0) return true;
  }
  return false;
}

/// The period MC drawing every arc: per worker chunk, the chips' minimum
/// periods and hold failures, merged in worker order.
inline mc::PeriodStats dense_min_period(const mc::Sampler& sampler,
                                        std::uint64_t samples, int threads) {
  const ssta::SeqGraph& graph = sampler.graph();
  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<mc::PeriodStats> partial(workers);
  util::parallel_chunks(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        mc::ArcSample sample;
        mc::PeriodStats& acc = partial[w];
        for (std::size_t k = begin; k < end; ++k) {
          sampler.evaluate(k, sample);
          acc.period.add(dense_period(graph, sample));
          acc.hold_failures += dense_period_hold_fail(graph, sample) ? 1 : 0;
          ++acc.samples;
        }
      });
  mc::PeriodStats total;
  for (const mc::PeriodStats& p : partial) {
    total.period.merge(p.period);
    total.hold_failures += p.hold_failures;
    total.samples += p.samples;
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
