// Microbenchmarks of the optimisation substrate: bounded-variable simplex,
// branch & bound, difference-constraint feasibility (one-shot on feasible
// and infeasible systems, and workspace-reuse), and the per-sample solver
// end to end — both the engine hot path (screened violated arcs + memoized
// constants + reusable workspace) and the dense path (sampler draw +
// quantize + solve).
#include <benchmark/benchmark.h>

#include <array>

#include "core/sample_solver.h"
#include "feas/diff_constraints.h"
#include "gbench_json.h"
#include "lp/simplex.h"
#include "mc/arc_screen.h"
#include "mc/sampler.h"
#include "milp/branch_and_bound.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "ssta/seq_graph.h"
#include "util/rng.h"

namespace {

using namespace clktune;

lp::Model random_lp(int vars, int rows, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  lp::Model m;
  for (int j = 0; j < vars; ++j)
    m.add_variable(-5.0, 5.0, rng.next_double(-1.0, 1.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<lp::Coefficient> coeffs;
    for (int j = 0; j < vars; ++j)
      coeffs.push_back({j, std::round(rng.next_double(-2.0, 2.0))});
    m.add_row(lp::Sense::less_equal, coeffs, rng.next_double(0.0, 6.0));
  }
  return m;
}

void BM_SimplexSolve(benchmark::State& state) {
  const lp::Model model =
      random_lp(static_cast<int>(state.range(0)),
                static_cast<int>(state.range(0)) * 2, 42);
  for (auto _ : state) {
    const lp::Solution s = lp::solve(model);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(8)->Arg(16)->Arg(32);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::SplitMix64 rng(7);
  lp::Model m;
  std::vector<int> bins;
  std::vector<lp::Coefficient> row;
  for (int i = 0; i < n; ++i) {
    bins.push_back(m.add_variable(0.0, 1.0, -rng.next_double(1.0, 10.0)));
    row.push_back({bins.back(), rng.next_double(1.0, 5.0)});
  }
  m.add_row(lp::Sense::less_equal, row, 1.5 * n);
  for (auto _ : state) {
    const milp::Result r = milp::solve(m, bins);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(10)->Arg(16);

void BM_DiffConstraintFeasibility(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::SplitMix64 rng(5);
  feas::DiffConstraints sys(n);
  for (int e = 0; e < 4 * n; ++e) {
    const int u = static_cast<int>(rng.next_below(n));
    const int v = static_cast<int>(rng.next_below(n));
    if (u != v)
      sys.add(u, v, static_cast<std::int64_t>(rng.next_below(20)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.feasible());
  }
}
BENCHMARK(BM_DiffConstraintFeasibility)->Arg(32)->Arg(256);

// The infeasible path, which every chip no plan can rescue takes in the
// yield check: one ring through all n nodes whose only nonzero edge weighs
// -1, plus 3n chords of weight 1..20.
void BM_DiffConstraintNegativeCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::SplitMix64 rng(5);
  feas::DiffConstraints sys(n);
  for (int v = 0; v < n; ++v) sys.add((v + 1) % n, v, v == 0 ? -1 : 0);
  for (int e = 0; e < 3 * n; ++e) {
    const int u = static_cast<int>(rng.next_below(n));
    const int v = static_cast<int>(rng.next_below(n));
    if (u != v)
      sys.add(u, v, 1 + static_cast<std::int64_t>(rng.next_below(20)));
  }
  if (sys.feasible()) state.SkipWithError("system must be infeasible");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.feasible());
  }
}
BENCHMARK(BM_DiffConstraintNegativeCycle)->Arg(256)->Arg(4096);

// Full build-solve cycle on a reused workspace: reset + adds + solve, the
// shape of the greedy oracle and yield-check inner loops.
void BM_DiffConstraintRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::SplitMix64 rng(5);
  std::vector<std::array<int, 2>> pairs;
  for (int e = 0; e < 4 * n; ++e) {
    const int u = static_cast<int>(rng.next_below(n));
    const int v = static_cast<int>(rng.next_below(n));
    if (u != v) pairs.push_back({u, v});
  }
  feas::DiffConstraints sys;
  std::uint64_t w = 0;
  for (auto _ : state) {
    sys.reset(n);
    for (const auto& [u, v] : pairs)
      sys.add(u, v, static_cast<std::int64_t>(w++ % 20));
    benchmark::DoNotOptimize(sys.solve_inplace());
  }
}
BENCHMARK(BM_DiffConstraintRebuild)->Arg(32)->Arg(256);

struct SolverFixture {
  netlist::Design design;
  ssta::SeqGraph graph;
  double t0 = 0.0;

  SolverFixture() {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = 211;
    spec.num_gates = 5597;
    spec.seed = 0x5923401;
    design = netlist::generate(spec);
    graph = ssta::extract_seq_graph(design);
    t0 = netlist::nominal_min_period(design);
  }
};

// The engine hot path: violated arcs screened once per sample (as step 1
// does for steps 2a/2b), solver running on a warm workspace and reading
// every other constant through its memo.  One iteration = one sample.
void BM_PerSampleSolve(benchmark::State& state) {
  static const SolverFixture fx;
  const double tau = fx.t0 / 8.0;
  const std::uint64_t window = 512;
  const core::SampleSolver solver(
      fx.graph, tau / 20.0, fx.t0,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));
  const mc::Sampler sampler(fx.graph, 99);
  const mc::ArcScreen screen(sampler, fx.t0, tau / 20.0);
  std::vector<std::vector<int>> violated(window);
  for (std::uint64_t k = 0; k < window; ++k)
    screen.violated_arcs(k, violated[k]);
  core::SolveWorkspace ws;
  std::uint64_t k = 0;
  for (auto _ : state) {
    const std::uint64_t sample = k++ % window;
    const core::SampleSolution sol =
        solver.solve(screen, sample, violated[sample],
                     core::ConcentrateMode::toward_zero, nullptr, ws);
    benchmark::DoNotOptimize(sol.nk);
  }
}
BENCHMARK(BM_PerSampleSolve);

// The dense shape: every sample pays a full sampler draw and a quantize
// pass before the solve.
void BM_PerSampleSolveFromScratch(benchmark::State& state) {
  static const SolverFixture fx;
  const double tau = fx.t0 / 8.0;
  const core::SampleSolver solver(
      fx.graph, tau / 20.0, fx.t0,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));
  const mc::Sampler sampler(fx.graph, 99);
  mc::ArcSample arcs;
  std::uint64_t k = 0;
  for (auto _ : state) {
    sampler.evaluate(k++ % 512, arcs);
    const core::SampleSolution sol =
        solver.solve(arcs, core::ConcentrateMode::toward_zero);
    benchmark::DoNotOptimize(sol.nk);
  }
}
BENCHMARK(BM_PerSampleSolveFromScratch);

}  // namespace

int main(int argc, char** argv) {
  return clktune::bench::run_micro_benchmarks(argc, argv, "micro_solver",
                                              "BM_PerSampleSolve");
}
