// Microbenchmarks of the timing substrate: sequential-graph extraction,
// per-sample arc evaluation (dense draws and the insertion flow's arc
// screen), the per-chip verdict pass behind the period MC and every yield,
// and the dense per-chip yield check.
#include <benchmark/benchmark.h>

#include <vector>

#include "feas/yield_eval.h"
#include "gbench_json.h"
#include "mc/arc_screen.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "ssta/seq_graph.h"

namespace {

using namespace clktune;

netlist::Design make_design(int ns, int ng) {
  netlist::SyntheticSpec spec;
  spec.num_flipflops = ns;
  spec.num_gates = ng;
  spec.seed = 21;
  return netlist::generate(spec);
}

void BM_SeqGraphExtraction(benchmark::State& state) {
  const netlist::Design design = make_design(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) * 8);
  for (auto _ : state) {
    const ssta::SeqGraph g = ssta::extract_seq_graph(design);
    benchmark::DoNotOptimize(g.arcs.size());
  }
}
BENCHMARK(BM_SeqGraphExtraction)->Arg(200)->Arg(1000);

void BM_ArcSampleEvaluation(benchmark::State& state) {
  static const netlist::Design design = make_design(500, 4000);
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 3);
  mc::ArcSample arcs;
  std::uint64_t k = 0;
  for (auto _ : state) {
    sampler.evaluate(k++, arcs);
    benchmark::DoNotOptimize(arcs.dmax.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.arcs.size()));
}
BENCHMARK(BM_ArcSampleEvaluation);

// The screen the insertion flow runs on: one hash and a bound per arc,
// exact constants only for the arcs it cannot clear.  Items are arcs, as in
// BM_ArcSampleEvaluation.
void BM_ArcScreenSample(benchmark::State& state) {
  static const netlist::Design design = make_design(500, 4000);
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 3);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 200);
  const mc::ArcScreen screen(sampler, ps.mu(), ps.mu() / 160.0);
  std::vector<int> violated;
  std::uint64_t k = 0;
  for (auto _ : state) {
    screen.violated_arcs(k++, violated);
    benchmark::DoNotOptimize(violated.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.arcs.size()));
}
BENCHMARK(BM_ArcScreenSample);

struct YieldFixture {
  const netlist::Design design = make_design(500, 4000);
  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  mc::Sampler sampler{graph, 3};
  mc::PeriodStats ps = mc::sample_min_period(sampler, 500);

  feas::TuningPlan plan() const {
    feas::TuningPlan p;
    p.step_ps = ps.mu() / 160.0;
    for (int f = 0; f < 8; ++f)
      p.buffers.push_back(feas::BufferWindow{f * 10, -10, 10});
    p.reset_groups();
    return p;
  }
};

void BM_YieldCheckPerSample(benchmark::State& state) {
  static const YieldFixture fx;
  const feas::YieldEvaluator eval(fx.graph, fx.plan(), fx.ps.mu());
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.sample_feasible(fx.sampler, k++));
  }
}
BENCHMARK(BM_YieldCheckPerSample);

// One chip's verdict (P_k, H_k): the pass the period MC folds over and
// every yield evaluation counts from.  Items are arcs, as in
// BM_ArcSampleEvaluation.
void BM_ChipVerdict(benchmark::State& state) {
  static const YieldFixture fx;
  const mc::ArcScreen screen(fx.sampler, 0.0, 1.0);
  std::uint64_t k = 0;
  for (auto _ : state) {
    const mc::ChipVerdict v = screen.verdict(k++);
    benchmark::DoNotOptimize(v.period);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.graph.arcs.size()));
}
BENCHMARK(BM_ChipVerdict);

}  // namespace

int main(int argc, char** argv) {
  return clktune::bench::run_micro_benchmarks(argc, argv, "micro_timing",
                                              "BM_YieldCheckPerSample");
}
