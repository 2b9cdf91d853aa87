// Reproduces the data behind Fig. 6: pairwise tuning correlation between
// inserted buffers, Manhattan distances, the resulting groups under
// r(i,j) >= 0.8 and d(i,j) <= 10 x pitch, and the yield cost of sharing one
// physical buffer per group.
#include <cstdio>

#include "bench_common.h"
#include "feas/yield_eval.h"

namespace {

using namespace clktune;

int run() {
  bench::BenchConfig cfg = bench::BenchConfig::from_env();
  bench::BenchReport report("fig6_grouping");
  auto spec = *netlist::paper_circuit_spec(
      util::env_string("CLKTUNE_FIG6_CIRCUIT", "ac97_ctrl"));
  const bench::PreparedCircuit pc = bench::prepare(spec, cfg);
  const double t = pc.setting_period(0);

  core::BufferInsertionEngine engine(pc.design, pc.graph, t, cfg.insertion());
  const core::InsertionResult res = engine.run();
  report.count_insertion(res, cfg.samples);
  const std::size_t nb = res.buffers.size();
  std::printf("Fig. 6 reproduction: circuit=%s T=%.1f ps, %zu buffers\n\n",
              spec.name.c_str(), t, nb);
  if (nb < 2) {
    std::printf("fewer than two buffers; grouping is trivial\n");
    return report.write();
  }

  std::printf("tuning correlation matrix (upper triangle, x100):\n      ");
  for (std::size_t j = 0; j < nb; ++j)
    std::printf("ff%-5d", res.buffers[j].ff);
  std::printf("\n");
  for (std::size_t i = 0; i < nb; ++i) {
    std::printf("ff%-4d", res.buffers[i].ff);
    for (std::size_t j = 0; j < nb; ++j) {
      if (j < i)
        std::printf("%7s", "");
      else
        std::printf("%7.0f", 100.0 * res.correlation[i][j]);
    }
    std::printf("\n");
  }

  const double dt = 10.0 * pc.design.ff_pitch;
  std::printf("\neligible pairs (r >= 0.80 and manhattan <= %.0f):\n", dt);
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t j = i + 1; j < nb; ++j) {
      const double r = res.correlation[i][j];
      const double d = netlist::manhattan(
          pc.design.ff_position[static_cast<std::size_t>(res.buffers[i].ff)],
          pc.design.ff_position[static_cast<std::size_t>(res.buffers[j].ff)]);
      if (r >= 0.8 || d <= dt)
        std::printf("  ff%d-ff%d: r=%.2f d=%.0f %s\n", res.buffers[i].ff,
                    res.buffers[j].ff, r, d,
                    r >= 0.8 && d <= dt ? "<- grouped" : "");
    }
  }

  std::printf("\ngroups (physical buffers):\n");
  const std::vector<feas::BufferWindow> windows = res.plan.group_windows();
  for (int g = 0; g < res.plan.num_groups; ++g) {
    std::printf("  group %d:", g);
    for (std::size_t i = 0; i < nb; ++i)
      if (res.plan.group_of[i] == g) std::printf(" ff%d", res.buffers[i].ff);
    const feas::BufferWindow& w = windows[static_cast<std::size_t>(g)];
    std::printf("  window [%d, %d]\n", w.k_lo, w.k_hi);
  }
  std::printf("%zu buffers -> %d physical buffers after grouping\n", nb,
              res.plan.physical_buffers());

  // Yield with vs without sharing.
  const mc::Sampler eval(pc.graph, bench::kEvalSeed);
  feas::TuningPlan ungrouped = res.plan;
  ungrouped.reset_groups();
  const double y_grouped = feas::YieldEvaluator(pc.graph, res.plan, t)
                               .evaluate(eval, cfg.eval_samples, cfg.threads)
                               .yield;
  const double y_ungrouped =
      feas::YieldEvaluator(pc.graph, ungrouped, t)
          .evaluate(eval, cfg.eval_samples, cfg.threads)
          .yield;
  std::printf(
      "\nyield with individual buffers: %.2f%%, with shared (grouped) "
      "buffers: %.2f%% (cost %.2f%%)\n",
      100.0 * y_ungrouped, 100.0 * y_grouped,
      100.0 * (y_ungrouped - y_grouped));
  report.count_samples(2 * cfg.eval_samples);
  return report.write();
}

}  // namespace

int main() { return run(); }
