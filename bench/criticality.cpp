// Benchmarks the analysis subsystem: per-arc criticality (before/after
// tuning) and the clock-binning ladder, per benchmark circuit at muT.
// The plan under analysis is the top-K symmetric criticality baseline —
// cheap to build, so the run time is dominated by the engines this bench
// exists to gate: compute_criticality's single-pass binding scan and
// compute_binning's ladder of screened yields over one verdict pass.
#include <cstdio>
#include <vector>

#include "analysis/binning.h"
#include "analysis/criticality.h"
#include "bench_common.h"
#include "core/baselines.h"

namespace {

using namespace clktune;

int run() {
  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  bench::BenchReport report("criticality");
  std::printf(
      "analysis bench: criticality + binning at muT, top-K plan (k=5)\n"
      "samples=%llu eval=%llu\n\n",
      static_cast<unsigned long long>(cfg.samples),
      static_cast<unsigned long long>(cfg.eval_samples));
  std::printf("%-13s %5s %6s | %9s %9s %7s | %9s %7s | %8s %8s\n", "circuit",
              "ns", "ng", "top(bef)", "top(aft)", "untun%", "E[sell]",
              "unsel%", "crit(s)", "bins(s)");
  std::printf("%s\n", std::string(100, '-').c_str());

  for (const netlist::SyntheticSpec& spec : netlist::paper_circuit_specs()) {
    if (!cfg.wants(spec.name)) continue;
    const bench::PreparedCircuit pc = bench::prepare(spec, cfg);
    const double t = pc.setting_period(0);
    const mc::Sampler insert_sampler(pc.graph, 20160314);

    const feas::TuningPlan plan = core::top_k_criticality_plan(
        pc.graph, insert_sampler, t, cfg.samples, /*k=*/5, /*steps=*/16,
        /*step_ps=*/0.01 * t, cfg.threads);
    report.count_samples(cfg.samples);

    util::Stopwatch crit_sw;
    analysis::CriticalityOptions options;
    const analysis::CriticalityReport crit = analysis::compute_criticality(
        pc.graph, plan, t, bench::kEvalSeed, cfg.eval_samples, options,
        cfg.threads);
    const double crit_s = crit_sw.seconds();
    // One sampling pass covers the binding scan and the incidence
    // statistic; the feasibility re-solve per chip is the second problem.
    report.count_samples(3 * cfg.eval_samples);

    const std::vector<double> ladder = {pc.setting_period(0),
                                        pc.setting_period(1),
                                        pc.setting_period(2)};
    util::Stopwatch bins_sw;
    const analysis::BinningReport bins = analysis::compute_binning(
        pc.graph, plan, ladder, bench::kEvalSeed, cfg.eval_samples,
        cfg.threads);
    const double bins_s = bins_sw.seconds();
    // One verdict pass, 2 * rungs screened decisions per chip; counted as
    // before, so the figure stays comparable with the checked-in baseline.
    report.count_samples(cfg.eval_samples * (1 + 2 * ladder.size()));

    const double top_before = crit.arcs.empty() ? 0.0 : crit.arcs[0].before;
    const double top_after = crit.arcs.empty() ? 0.0 : crit.arcs[0].after;
    std::printf(
        "%-13s %5d %6d | %9.4f %9.4f %7.2f | %9.1f %7.2f | %8.2f %8.2f\n",
        spec.name.c_str(), spec.num_flipflops, spec.num_gates, top_before,
        top_after,
        100.0 * static_cast<double>(crit.untunable) / crit.samples,
        bins.expected_sell_period_ps, 100.0 * bins.unsellable_fraction,
        crit_s, bins_s);
    std::fflush(stdout);
  }

  return report.write();
}

}  // namespace

int main() { return run(); }
