// Cross-module integration and property tests.
//
// The strongest invariant in the system: the per-sample ILP solver
// (core::SampleSolver) and the yield evaluator (feas::YieldEvaluator) are
// independent implementations of the same feasibility question — MILP with
// big-M indicators on one side, Bellman-Ford difference constraints on the
// other.  For identical windows they must agree chip by chip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/sample_solver.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "ssta/seq_graph.h"

namespace clktune {
namespace {

struct World {
  netlist::Design design;
  ssta::SeqGraph graph;
  double t = 0.0;
  double step = 0.0;

  explicit World(std::uint64_t seed, int ns = 90, int ng = 800) {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = ns;
    spec.num_gates = ng;
    spec.seed = seed;
    design = netlist::generate(spec);
    graph = ssta::extract_seq_graph(design);
    const mc::Sampler sampler(graph, 77);
    t = mc::sample_min_period(sampler, 1500).mu();
    step = netlist::nominal_min_period(design) / 8.0 / 20.0;
  }
};

class SolverEvaluatorAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverEvaluatorAgreement, FixableIffFeasible) {
  const World w(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  // Windows: every FF carries a buffer with a fixed asymmetric window.
  core::CandidateWindows windows = core::CandidateWindows::none(w.graph.num_ffs);
  feas::TuningPlan plan;
  plan.step_ps = w.step;
  for (int f = 0; f < w.graph.num_ffs; ++f) {
    const int lo = -(f % 15);       // varied asymmetric windows, all
    const int hi = 3 + (f % 18);    // containing zero
    windows.candidate[static_cast<std::size_t>(f)] = 1;
    windows.k_lo[static_cast<std::size_t>(f)] = lo;
    windows.k_hi[static_cast<std::size_t>(f)] = hi;
    plan.buffers.push_back(feas::BufferWindow{f, lo, hi});
  }
  plan.reset_groups();

  const core::SampleSolver solver(w.graph, w.step, w.t, windows);
  const feas::YieldEvaluator evaluator(w.graph, plan, w.t);
  const mc::Sampler sampler(w.graph, 1234);

  mc::ArcSample arcs;
  int disagreements = 0;
  int fixable = 0, infeasible = 0;
  for (std::uint64_t k = 0; k < 400; ++k) {
    sampler.evaluate(k, arcs);
    const core::SampleSolution sol =
        solver.solve(arcs, core::ConcentrateMode::none);
    const bool evaluator_ok = evaluator.sample_feasible(sampler, k);
    disagreements += sol.fixable != evaluator_ok;
    fixable += sol.fixable;
    infeasible += !evaluator_ok;
  }
  EXPECT_EQ(disagreements, 0);
  EXPECT_GT(fixable, 0);  // the comparison must exercise both outcomes
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverEvaluatorAgreement,
                         ::testing::Range(0, 6));

TEST(SolverSolutionValidity, TuningsSatisfyEveryArcConstraint) {
  const World w(17);
  const core::SampleSolver solver(
      w.graph, w.step, w.t,
      core::CandidateWindows::floating(w.graph.num_ffs, 20));
  const mc::Sampler sampler(w.graph, 42);
  mc::ArcSample arcs;
  std::vector<std::int64_t> setup, hold;
  int checked = 0;
  for (std::uint64_t k = 0; k < 250; ++k) {
    sampler.evaluate(k, arcs);
    const core::SampleSolution sol =
        solver.solve(arcs, core::ConcentrateMode::toward_zero);
    if (!sol.fixable || sol.nk == 0) continue;
    ++checked;
    solver.arc_constants(arcs, setup, hold);
    std::vector<std::int64_t> x(static_cast<std::size_t>(w.graph.num_ffs), 0);
    for (const auto& [ff, kv] : sol.tunings)
      x[static_cast<std::size_t>(ff)] = kv;
    for (std::size_t e = 0; e < w.graph.arcs.size(); ++e) {
      const ssta::SeqArc& arc = w.graph.arcs[e];
      const std::int64_t xi = x[static_cast<std::size_t>(arc.src_ff)];
      const std::int64_t xj = x[static_cast<std::size_t>(arc.dst_ff)];
      EXPECT_LE(xi - xj, setup[e]) << "sample " << k << " arc " << e;
      EXPECT_LE(xj - xi, hold[e]) << "sample " << k << " arc " << e;
    }
    // And the support size matches the reported optimum.
    EXPECT_EQ(static_cast<int>(sol.tunings.size()), sol.nk);
  }
  EXPECT_GT(checked, 20);
}

TEST(SolverOptimality, CountMatchesExhaustiveOnSmallChips) {
  // On a tiny graph, compare the solver's n_k with brute force over all
  // single- and two-buffer supports (values via difference constraints),
  // then both concentration objectives with brute force over every support
  // of size n_k.
  const int window = 20;
  const World w(23, 16, 140);
  const core::SampleSolver solver(
      w.graph, w.step, w.t,
      core::CandidateWindows::floating(w.graph.num_ffs, window));
  const mc::Sampler sampler(w.graph, 9);
  mc::ArcSample arcs;
  std::vector<std::int64_t> setup, hold;
  const auto ffs = static_cast<std::size_t>(w.graph.num_ffs);
  std::vector<double> targets(ffs);
  for (std::size_t f = 0; f < ffs; ++f)
    targets[f] = static_cast<double>(f * 7 % 9) - 4.0 + 0.3;

  const auto feasible_with_support = [&](const std::vector<int>& support) {
    feas::TuningPlan p;
    p.step_ps = w.step;
    for (int ff : support)
      p.buffers.push_back(feas::BufferWindow{ff, -window, window});
    p.reset_groups();
    // Evaluate via the independent Bellman-Ford path.
    const feas::YieldEvaluator ev(w.graph, p, w.t);
    return ev;
  };

  // Concentration objectives over a full assignment x (steps per FF).
  const auto toward_zero = [](const std::vector<std::int64_t>& x) {
    std::int64_t sum = 0;
    for (const std::int64_t v : x) sum += std::llabs(v);
    return sum;
  };
  const auto toward_target = [&](const std::vector<std::int64_t>& x) {
    std::int64_t sum = 0;
    for (std::size_t f = 0; f < ffs; ++f)
      sum += std::llabs(x[f] - std::llround(targets[f]));
    return sum;
  };
  const auto assignment = [&](const core::SampleSolution& sol) {
    std::vector<std::int64_t> x(ffs, 0);
    for (const auto& [ff, kv] : sol.tunings)
      x[static_cast<std::size_t>(ff)] = kv;
    return x;
  };
  const auto satisfies_arcs_of = [&](const std::vector<std::int64_t>& x,
                                     int ff) {
    for (const int e : w.graph.arcs_of_ff[static_cast<std::size_t>(ff)]) {
      const auto es = static_cast<std::size_t>(e);
      const ssta::SeqArc& arc = w.graph.arcs[es];
      const std::int64_t xi = x[static_cast<std::size_t>(arc.src_ff)];
      const std::int64_t xj = x[static_cast<std::size_t>(arc.dst_ff)];
      if (xi - xj > setup[es] || xj - xi > hold[es]) return false;
    }
    return true;
  };
  // Minimum of `objective` over every support of size nk (1 or 2) with
  // nonzero values in the window.  Arcs away from the support see x = 0,
  // so the support must touch every arc that fails at zero.
  const auto brute_force_min = [&](int nk, const auto& objective) {
    std::vector<int> failing;
    for (std::size_t e = 0; e < w.graph.arcs.size(); ++e)
      if (setup[e] < 0 || hold[e] < 0) failing.push_back(static_cast<int>(e));
    const auto touches_all = [&](int a, int b) {
      for (const int e : failing) {
        const ssta::SeqArc& arc = w.graph.arcs[static_cast<std::size_t>(e)];
        if (arc.src_ff != a && arc.dst_ff != a && arc.src_ff != b &&
            arc.dst_ff != b)
          return false;
      }
      return true;
    };
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> x(ffs, 0);
    for (int a = 0; a < w.graph.num_ffs; ++a) {
      for (int b = a; b < w.graph.num_ffs; ++b) {  // b == a: one buffer
        if ((nk == 1) != (a == b) || !touches_all(a, b)) continue;
        for (int va = -window; va <= window; ++va) {
          for (int vb = -window; vb <= window; ++vb) {
            if (va == 0 || vb == 0 || (a == b && va != vb)) continue;
            x[static_cast<std::size_t>(a)] = va;
            x[static_cast<std::size_t>(b)] = vb;
            if (satisfies_arcs_of(x, a) && satisfies_arcs_of(x, b))
              best = std::min(best, objective(x));
          }
        }
        x[static_cast<std::size_t>(a)] = 0;
        x[static_cast<std::size_t>(b)] = 0;
      }
    }
    return best;
  };

  int compared = 0;
  int compared_two = 0;
  for (std::uint64_t k = 0; k < 600; ++k) {
    sampler.evaluate(k, arcs);
    const core::SampleSolution sol =
        solver.solve(arcs, core::ConcentrateMode::none);
    if (!sol.fixable || sol.nk == 0 || sol.nk > 2) continue;
    ++compared;
    // No empty-support solution can exist (there are violations).
    feas::TuningPlan empty;
    empty.step_ps = w.step;
    empty.reset_groups();
    EXPECT_FALSE(feas::YieldEvaluator(w.graph, empty, w.t)
                     .sample_feasible(sampler, k));
    if (sol.nk == 2) {
      // No single buffer may suffice.
      for (int f = 0; f < w.graph.num_ffs; ++f) {
        EXPECT_FALSE(
            feasible_with_support({f}).sample_feasible(sampler, k))
            << "solver claimed nk=2 but ff" << f << " alone fixes sample "
            << k;
      }
    }

    solver.arc_constants(arcs, setup, hold);
    const core::SampleSolution zero =
        solver.solve(arcs, core::ConcentrateMode::toward_zero);
    const core::SampleSolution target =
        solver.solve(arcs, core::ConcentrateMode::toward_target, &targets);
    EXPECT_EQ(zero.nk, sol.nk) << "sample " << k;
    EXPECT_EQ(target.nk, sol.nk) << "sample " << k;
    EXPECT_EQ(toward_zero(assignment(zero)),
              brute_force_min(sol.nk, toward_zero))
        << "toward_zero, sample " << k;
    EXPECT_EQ(toward_target(assignment(target)),
              brute_force_min(sol.nk, toward_target))
        << "toward_target, sample " << k;
    compared_two += sol.nk == 2 ? 1 : 0;
  }
  // 260 samples on this graph, 65 of them with n_k = 2.
  EXPECT_GT(compared, 200);
  EXPECT_GT(compared_two, 50);
}

TEST(EndToEnd, BenchFileThroughWholeFlow) {
  // s27 from assets, through skew injection, insertion and configuration.
  // Falls back to an embedded copy when the test runs outside the repo
  // root (ctest working directories vary).
  netlist::Design design;
  bool loaded = false;
  for (const char* path : {"assets/s27.bench", "../assets/s27.bench",
                           "../../assets/s27.bench",
                           "../../../assets/s27.bench"}) {
    try {
      design = netlist::read_bench_file(path);
      loaded = true;
      break;
    } catch (const std::exception&) {
    }
  }
  if (!loaded) {
    std::istringstream s27(
        "INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G17)\n"
        "G5 = DFF(G10)\nG6 = DFF(G11)\nG7 = DFF(G13)\nG14 = NOT(G0)\n"
        "G8 = AND(G14, G6)\nG15 = OR(G12, G8)\nG16 = OR(G3, G8)\n"
        "G9 = NAND(G16, G15)\nG10 = NOR(G14, G11)\nG11 = NOR(G5, G9)\n"
        "G12 = NOR(G1, G7)\nG13 = NOR(G2, G12)\nG17 = NOT(G11)\n");
    design = netlist::read_bench(s27, "s27");
  }
  const double t0 = netlist::nominal_min_period(design);
  netlist::apply_synthetic_skew(design, 0.05 * t0, 3);
  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 20160314);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 2000);
  core::InsertionConfig config;
  config.num_samples = 1500;
  core::BufferInsertionEngine engine(design, graph, ps.mu(), config);
  const core::InsertionResult res = engine.run();
  const mc::Sampler eval(graph, 555);
  const double before =
      feas::original_yield(graph, ps.mu(), eval, 2000).yield;
  const feas::YieldEvaluator evaluator(graph, res.plan, ps.mu());
  const double after = evaluator.evaluate(eval, 2000).yield;
  EXPECT_GE(after, before);
  // Rescued chips must get valid register settings.
  int configs = 0;
  for (std::uint64_t chip = 0; chip < 50; ++chip)
    configs += evaluator.find_configuration(eval, chip).has_value();
  EXPECT_GT(configs, 0);
}

TEST(EndToEnd, MaxRangeOverrideRespected) {
  const World w(29);
  core::InsertionConfig config;
  config.num_samples = 400;
  config.max_range_ps = 33.0;
  core::BufferInsertionEngine engine(w.design, w.graph, w.t, config);
  EXPECT_NEAR(engine.tau_ps(), 33.0, 1e-12);
  EXPECT_NEAR(engine.step_ps(), 33.0 / 20.0, 1e-12);
  const core::InsertionResult res = engine.run();
  for (const feas::BufferWindow& b : res.plan.buffers)
    EXPECT_LE(b.range(), 20);
}

TEST(EndToEnd, BaselinePlansAreWellFormed) {
  const World w(31);
  const mc::Sampler sampler(w.graph, 4);
  const feas::TuningPlan topk = core::top_k_criticality_plan(
      w.graph, sampler, w.t, 500, 5, 20, w.step);
  EXPECT_LE(topk.buffers.size(), 5u);
  for (const feas::BufferWindow& b : topk.buffers) {
    EXPECT_EQ(b.k_lo, -10);
    EXPECT_EQ(b.k_hi, 10);
  }
  const feas::TuningPlan all = core::oracle_plan(w.graph, 20, w.step);
  EXPECT_EQ(all.buffers.size(), static_cast<std::size_t>(w.graph.num_ffs));
  EXPECT_EQ(all.physical_buffers(), w.graph.num_ffs);
}

TEST(EndToEnd, UnfixableSamplesAreEvaluatorInfeasibleToo) {
  // Samples the engine marks unfixable under floating windows must also be
  // infeasible for the evaluator given every-FF full windows.
  const World w(37);
  const core::SampleSolver solver(
      w.graph, w.step, w.t,
      core::CandidateWindows::floating(w.graph.num_ffs, 20));
  feas::TuningPlan full;
  full.step_ps = w.step;
  for (int f = 0; f < w.graph.num_ffs; ++f)
    full.buffers.push_back(feas::BufferWindow{f, -20, 20});
  full.reset_groups();
  const feas::YieldEvaluator evaluator(w.graph, full, w.t);
  const mc::Sampler sampler(w.graph, 11);
  mc::ArcSample arcs;
  int unfixable = 0;
  for (std::uint64_t k = 0; k < 300; ++k) {
    sampler.evaluate(k, arcs);
    const core::SampleSolution sol =
        solver.solve(arcs, core::ConcentrateMode::none);
    if (!sol.fixable) {
      ++unfixable;
      EXPECT_FALSE(evaluator.sample_feasible(sampler, k)) << "sample " << k;
    }
  }
  // (The converse is covered by SolverEvaluatorAgreement.)
  SUCCEED() << unfixable << " unfixable samples cross-checked";
}

}  // namespace
}  // namespace clktune
