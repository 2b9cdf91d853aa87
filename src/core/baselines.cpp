#include "core/baselines.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "mc/arc_screen.h"
#include "util/assert.h"
#include "util/thread_pool.h"

namespace clktune::core {

std::vector<std::uint64_t> criticality_incidence(const ssta::SeqGraph& graph,
                                                 const mc::Sampler& sampler,
                                                 double clock_period_ps,
                                                 std::uint64_t samples,
                                                 int threads) {
  // A setup-only screen: the step is never read, and only the arcs some
  // chip could violate in setup at this period need a look.
  const mc::ArcScreen screen(sampler, clock_period_ps, 1.0);
  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<std::vector<std::uint64_t>> partial(
      workers,
      std::vector<std::uint64_t>(static_cast<std::size_t>(graph.num_ffs), 0));

  util::parallel_chunks(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const std::array<double, ssta::kParams> z = sampler.globals(s);
          for (const int e : screen.setup_risk_arcs()) {
            if (!screen.setup_violated(s, z, static_cast<std::size_t>(e)))
              continue;
            const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(e)];
            const auto i = static_cast<std::size_t>(arc.src_ff);
            const auto j = static_cast<std::size_t>(arc.dst_ff);
            ++partial[w][i];
            if (i != j) ++partial[w][j];
          }
        }
      });

  std::vector<std::uint64_t> incidence(static_cast<std::size_t>(graph.num_ffs),
                                       0);
  for (const auto& p : partial)
    for (std::size_t f = 0; f < incidence.size(); ++f) incidence[f] += p[f];
  return incidence;
}

std::vector<std::uint64_t> criticality_incidence(const ssta::SeqGraph& graph,
                                                 mc::SampleDelayCache& delays,
                                                 double clock_period_ps,
                                                 std::uint64_t samples,
                                                 int threads, bool /*fill*/) {
  CLKTUNE_EXPECTS(samples == delays.samples());
  return criticality_incidence(graph, delays.sampler(), clock_period_ps,
                               samples, threads);
}

feas::TuningPlan plan_from_incidence(
    const ssta::SeqGraph& graph, const std::vector<std::uint64_t>& incidence,
    int k, int steps, double step_ps) {
  std::vector<int> order(static_cast<std::size_t>(graph.num_ffs));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return incidence[static_cast<std::size_t>(a)] >
           incidence[static_cast<std::size_t>(b)];
  });

  feas::TuningPlan plan;
  plan.step_ps = step_ps;
  const int half = steps / 2;
  for (int i = 0; i < k && i < graph.num_ffs; ++i) {
    const int ff = order[static_cast<std::size_t>(i)];
    if (incidence[static_cast<std::size_t>(ff)] == 0) break;
    plan.buffers.push_back(feas::BufferWindow{ff, -half, half});
  }
  plan.reset_groups();
  return plan;
}

feas::TuningPlan top_k_criticality_plan(const ssta::SeqGraph& graph,
                                        const mc::Sampler& sampler,
                                        double clock_period_ps,
                                        std::uint64_t samples, int k,
                                        int steps, double step_ps,
                                        int threads) {
  return plan_from_incidence(
      graph,
      criticality_incidence(graph, sampler, clock_period_ps, samples,
                            threads),
      k, steps, step_ps);
}

feas::TuningPlan top_k_criticality_plan(const ssta::SeqGraph& graph,
                                        mc::SampleDelayCache& delays,
                                        double clock_period_ps,
                                        std::uint64_t samples, int k,
                                        int steps, double step_ps,
                                        int threads, bool fill) {
  return plan_from_incidence(
      graph,
      criticality_incidence(graph, delays, clock_period_ps, samples, threads,
                            fill),
      k, steps, step_ps);
}

feas::TuningPlan oracle_plan(const ssta::SeqGraph& graph, int steps,
                             double step_ps) {
  feas::TuningPlan plan;
  plan.step_ps = step_ps;
  const int half = steps / 2;
  for (int f = 0; f < graph.num_ffs; ++f)
    plan.buffers.push_back(feas::BufferWindow{f, -half, half});
  plan.reset_groups();
  return plan;
}

}  // namespace clktune::core
