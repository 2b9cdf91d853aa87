// Reproduces Table I: for each of the eight benchmark circuits and each
// clock setting T in {muT, muT+sigmaT, muT+2sigmaT}, runs the full
// sampling-based insertion flow and reports buffer count Nb, average range
// Ab (steps), yield Y(%), improvement Yi(%) and runtime T(s), plus the two
// baselines (top-K symmetric criticality insertion and buffer-everywhere).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/report.h"
#include "util/timer.h"

namespace {

using namespace clktune;

int run() {
  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  bench::BenchReport report("table1");
  std::printf(
      "Table I reproduction: samples=%llu eval=%llu (paper: 10000)\n"
      "yields from an out-of-sample Monte-Carlo run; Yo = no buffers;\n"
      "topK = symmetric-window criticality baseline at the same buffer "
      "count;\nallbuf = symmetric window on every flip-flop\n\n",
      static_cast<unsigned long long>(cfg.samples),
      static_cast<unsigned long long>(cfg.eval_samples));
  std::printf(
      "%-13s %5s %6s | %7s %9s | %3s %6s %7s %7s %8s | %7s %7s\n",
      "circuit", "ns", "ng", "setting", "T(ps)", "Nb", "Ab", "Y(%)", "Yi(%)",
      "T(s)", "topK(%)", "allbuf%");
  std::printf("%s\n", std::string(110, '-').c_str());

  std::vector<core::TableRow> rows;
  for (const netlist::SyntheticSpec& spec : netlist::paper_circuit_specs()) {
    if (!cfg.wants(spec.name)) continue;
    const bench::PreparedCircuit pc = bench::prepare(spec, cfg);
    const mc::Sampler eval_sampler(pc.graph, bench::kEvalSeed);
    const mc::Sampler insert_sampler(pc.graph, 20160314);
    // A chip's verdict does not depend on the clock period or the plan:
    // one set serves all twelve evaluations of this circuit (4 plans x 3
    // clock settings).
    const mc::ChipVerdicts eval_verdicts(eval_sampler, cfg.eval_samples,
                                         cfg.threads);

    for (int sigmas = 0; sigmas <= 2; ++sigmas) {
      const double t = pc.setting_period(sigmas);
      util::Stopwatch sw;
      core::BufferInsertionEngine engine(pc.design, pc.graph, t,
                                         cfg.insertion());
      const core::InsertionResult res = engine.run();
      const double runtime = sw.seconds();
      report.count_insertion(res, cfg.samples);
      report.count_samples(cfg.samples);          // criticality baseline
      report.count_samples(4 * cfg.eval_samples);  // yo / ours / topk / allbuf

      const feas::YieldResult yo =
          feas::original_yield(pc.graph, t, eval_verdicts, cfg.threads);
      const feas::YieldResult y = feas::YieldEvaluator(pc.graph, res.plan, t)
                                      .evaluate(eval_verdicts, cfg.threads);

      const feas::TuningPlan topk = core::top_k_criticality_plan(
          pc.graph, insert_sampler, t, cfg.samples,
          res.plan.physical_buffers(), cfg.insertion().steps, res.step_ps,
          cfg.threads);
      const double y_topk = feas::YieldEvaluator(pc.graph, topk, t)
                                .evaluate(eval_verdicts, cfg.threads)
                                .yield;
      const feas::TuningPlan allbuf =
          core::oracle_plan(pc.graph, cfg.insertion().steps, res.step_ps);
      const double y_all = feas::YieldEvaluator(pc.graph, allbuf, t)
                               .evaluate(eval_verdicts, cfg.threads)
                               .yield;

      core::TableRow row;
      row.circuit = spec.name;
      row.ns = spec.num_flipflops;
      row.ng = spec.num_gates;
      row.setting = bench::setting_name(sigmas);
      row.clock_ps = t;
      row.nb = res.plan.physical_buffers();
      row.ab = res.plan.average_range();
      row.yield = 100.0 * y.yield;
      row.yield_original = 100.0 * yo.yield;
      row.runtime_s = runtime;
      rows.push_back(row);

      std::printf(
          "%-13s %5d %6d | %7s %9.1f | %3d %6.2f %7.2f %7.2f %8.2f | %7.2f "
          "%7.2f\n",
          spec.name.c_str(), spec.num_flipflops, spec.num_gates,
          bench::setting_name(sigmas), t, row.nb, row.ab, row.yield,
          row.improvement(), runtime, 100.0 * y_topk, 100.0 * y_all);
      std::fflush(stdout);
    }
  }

  std::printf("\npaper reference (Table I):\n");
  std::printf(
      "  s9234    muT: Nb=2  Ab=12.50 Y=77.11 Yi=27.11 | +1s: Nb=2  Yi=11.81 "
      "| +2s: Nb=2 Yi=1.46\n"
      "  s13207   muT: Nb=5  Ab=9.80  Y=72.37 Yi=22.37 | +1s: Nb=5  Yi=12.29 "
      "| +2s: Nb=6 Yi=1.81\n"
      "  s15850   muT: Nb=5  Ab=19.80 Y=69.34 Yi=19.34 | +1s: Nb=5  Yi=10.20 "
      "| +2s: Nb=5 Yi=1.40\n"
      "  s38584   muT: Nb=11 Ab=9.74  Y=85.97 Yi=35.97 | +1s: Nb=7  Yi=14.35 "
      "| +2s: Nb=7 Yi=1.22\n"
      "  mem_ctrl muT: Nb=10 Ab=11.90 Y=67.11 Yi=17.11 | +1s: Nb=10 Yi=10.45 "
      "| +2s: Nb=10 Yi=1.19\n"
      "  usb_funct muT: Nb=17 Ab=17.18 Y=71.77 Yi=21.77 | +1s: Nb=17 "
      "Yi=12.44 | +2s: Nb=9 Yi=1.01\n"
      "  ac97_ctrl muT: Nb=21 Ab=15.10 Y=75.05 Yi=25.05 | +1s: Nb=21 "
      "Yi=10.79 | +2s: Nb=8 Yi=0.01\n"
      "  pci_bridge32 muT: Nb=32 Ab=13.84 Y=73.66 Yi=23.66 | +1s: Nb=32 "
      "Yi=12.63 | +2s: Nb=8 Yi=0.95\n");
  return report.write();
}

}  // namespace

int main() { return run(); }
