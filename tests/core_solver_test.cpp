#include <gtest/gtest.h>

#include <cmath>

#include "core/sample_solver.h"
#include "mc/arc_constants.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"

namespace clktune::core {
namespace {

// Deterministic graph helpers: canonical forms with zero spread so arc
// delays equal their means exactly (sample index is irrelevant).
ssta::Canon fixed_delay(double mu) {
  ssta::Canon c;
  c.mu = mu;
  return c;
}

ssta::SeqGraph make_graph(int num_ffs,
                          std::vector<std::tuple<int, int, double, double>>
                              arcs /* src, dst, dmax, dmin */,
                          double setup = 2.0, double hold = 0.5) {
  ssta::SeqGraph g;
  g.num_ffs = num_ffs;
  g.setup_ps.assign(static_cast<std::size_t>(num_ffs), setup);
  g.hold_ps.assign(static_cast<std::size_t>(num_ffs), hold);
  g.skew_ps.assign(static_cast<std::size_t>(num_ffs), 0.0);
  for (const auto& [s, d, dmax, dmin] : arcs) {
    ssta::SeqArc arc;
    arc.src_ff = s;
    arc.dst_ff = d;
    arc.dmax = fixed_delay(dmax);
    arc.dmin = fixed_delay(dmin);
    g.arcs.push_back(arc);
  }
  g.arcs_of_ff.assign(static_cast<std::size_t>(num_ffs), {});
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    g.arcs_of_ff[static_cast<std::size_t>(g.arcs[e].src_ff)].push_back(
        static_cast<int>(e));
    if (g.arcs[e].dst_ff != g.arcs[e].src_ff)
      g.arcs_of_ff[static_cast<std::size_t>(g.arcs[e].dst_ff)].push_back(
          static_cast<int>(e));
  }
  return g;
}

mc::ArcSample sample_of(const ssta::SeqGraph& g) {
  mc::ArcSample s;
  const mc::Sampler sampler(g, 1);
  sampler.evaluate(0, s);
  return s;
}

TEST(CandidateWindowsTest, FactoryFunctions) {
  const CandidateWindows f = CandidateWindows::floating(5, 20);
  EXPECT_EQ(f.count(), 5);
  EXPECT_EQ(f.k_lo[2], -20);
  EXPECT_EQ(f.k_hi[2], 20);
  const CandidateWindows n = CandidateWindows::none(5);
  EXPECT_EQ(n.count(), 0);
}

TEST(SampleSolverTest, PassingChipNeedsNoBuffers) {
  // Two-FF ring with lots of slack at T = 100.
  auto g = make_graph(2, {{0, 1, 50.0, 30.0}, {1, 0, 40.0, 25.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(2, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::none);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 0);
  EXPECT_TRUE(sol.tunings.empty());
}

TEST(SampleSolverTest, SingleViolationFixedWithOneBuffer) {
  // Arc 0->1 needs 105 > T=100; arc 1->0 has slack; shifting FF1 later by
  // >= 7 steps fixes it (setup=2).
  auto g = make_graph(2, {{0, 1, 103.0, 60.0}, {1, 0, 40.0, 25.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(2, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 1);
  ASSERT_EQ(sol.tunings.size(), 1u);
  // Minimal |x|: either x1 = +5 or x0 = -5 (T - s - d = -5).
  EXPECT_EQ(std::abs(sol.tunings[0].second), 5);
}

TEST(SampleSolverTest, ConcentrationMinimisesMagnitudeNotJustCount) {
  auto g = make_graph(2, {{0, 1, 103.0, 60.0}, {1, 0, 40.0, 25.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(2, 20));
  const SampleSolution with_conc =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  const SampleSolution without =
      solver.solve(sample_of(g), ConcentrateMode::none);
  EXPECT_EQ(with_conc.nk, without.nk);
  int conc_mag = 0;
  for (const auto& [ff, k] : with_conc.tunings) conc_mag += std::abs(k);
  EXPECT_EQ(conc_mag, 5);  // exactly the violation amount
}

TEST(SampleSolverTest, SelfLoopViolationIsUnfixable) {
  auto g = make_graph(1, {{0, 0, 103.0, 60.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(1, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::none);
  EXPECT_FALSE(sol.fixable);
}

TEST(SampleSolverTest, NonCandidateArcViolationIsUnfixable) {
  auto g = make_graph(2, {{0, 1, 103.0, 60.0}});
  CandidateWindows w = CandidateWindows::none(2);
  const SampleSolver solver(g, 1.0, 100.0, w);
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::none);
  EXPECT_FALSE(sol.fixable);
}

TEST(SampleSolverTest, ChainRequiresTwoBuffers) {
  // Three stages in a line, two independent violations that share no FF:
  // 0->1 and 2->3 both fail; no single buffer fixes both.
  auto g = make_graph(4, {{0, 1, 104.0, 60.0},
                          {1, 2, 50.0, 30.0},
                          {2, 3, 104.0, 60.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(4, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 2);
}

TEST(SampleSolverTest, CascadedViolationUsesLazyConstraints) {
  // 0->1 fails; delaying FF1 pushes 1->2 to the brink, so the solver must
  // discover 1->2 lazily and either split the shift or use FF2 as well.
  // Arc 1->2 has slack 3 at x=0; fixing 0->1 alone needs x1 >= 6.
  auto g = make_graph(3, {{0, 1, 104.0, 60.0},   // slack -6
                          {1, 2, 95.0, 55.0}});  // slack  3
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(3, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  // One buffer can still do it: x0 = -6 touches nothing else.  The solver
  // must find nk = 1 (not 2) and a *globally* valid assignment.
  EXPECT_EQ(sol.nk, 1);
  // Verify global feasibility of the returned assignment.
  std::vector<int> x(3, 0);
  for (const auto& [ff, k] : sol.tunings) x[static_cast<std::size_t>(ff)] = k;
  EXPECT_LE(x[0] + 104.0 + 2.0, 100.0 + x[1] + 1e-9);
  EXPECT_LE(x[1] + 95.0 + 2.0, 100.0 + x[2] + 1e-9);
  EXPECT_GE(x[0] + 60.0, x[1] + 0.5 - 1e-9);
  EXPECT_GE(x[1] + 55.0, x[2] + 0.5 - 1e-9);
}

TEST(SampleSolverTest, HoldViolationFixedByTuning) {
  // Arc 0->1 min delay too small: dmin 0.3 < hold 0.5.  Pulling FF1's clock
  // earlier (x1 < 0) fixes hold; setup has slack.
  auto g = make_graph(2, {{0, 1, 50.0, 0.3}, {1, 0, 40.0, 25.0}});
  const SampleSolver solver(g, 0.1, 100.0, CandidateWindows::floating(2, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 1);
  std::vector<double> x(2, 0.0);
  for (const auto& [ff, k] : sol.tunings)
    x[static_cast<std::size_t>(ff)] = k * 0.1;
  EXPECT_GE(x[0] + 0.3, x[1] + 0.5 - 1e-9);  // hold met after tuning
}

TEST(SampleSolverTest, InsufficientWindowMakesChipUnfixable) {
  // Violation of 30 steps but windows only reach +-20.
  auto g = make_graph(2, {{0, 1, 130.0, 80.0}});
  CandidateWindows w = CandidateWindows::floating(2, 10);
  const SampleSolver solver(g, 1.0, 100.0, w);
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::none);
  // x0 - x1 must be <= -32; windows allow at most 10 + 10 = 20.
  EXPECT_FALSE(sol.fixable);
}

TEST(SampleSolverTest, CombinedWindowsJustSuffice) {
  auto g = make_graph(2, {{0, 1, 115.0, 80.0}});  // needs x1 - x0 >= 17
  CandidateWindows w = CandidateWindows::floating(2, 10);
  const SampleSolver solver(g, 1.0, 100.0, w);
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 2);  // both buffers needed
}

TEST(SampleSolverTest, FixedAsymmetricWindowsRespected) {
  // FF1 window only positive [0, 10]; FF0 pinned (non-candidate).
  auto g = make_graph(2, {{0, 1, 104.0, 60.0}});
  CandidateWindows w = CandidateWindows::none(2);
  w.candidate[1] = 1;
  w.k_lo[1] = 0;
  w.k_hi[1] = 10;
  const SampleSolver solver(g, 1.0, 100.0, w);
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  ASSERT_EQ(sol.tunings.size(), 1u);
  EXPECT_EQ(sol.tunings[0].first, 1);
  EXPECT_EQ(sol.tunings[0].second, 6);
}

TEST(SampleSolverTest, ConcentrateTowardTargetHitsTarget) {
  // Feasible band for x1 is [6, ~30); target 9 should be matched exactly.
  auto g = make_graph(2, {{0, 1, 104.0, 60.0}});
  CandidateWindows w = CandidateWindows::none(2);
  w.candidate[1] = 1;
  w.k_lo[1] = 0;
  w.k_hi[1] = 20;
  const SampleSolver solver(g, 1.0, 100.0, w);
  std::vector<double> targets = {0.0, 9.0};
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_target, &targets);
  ASSERT_EQ(sol.tunings.size(), 1u);
  EXPECT_EQ(sol.tunings[0].second, 9);
  // And the scattered pre-concentration value is recorded separately.
  ASSERT_EQ(sol.mincount_tunings.size(), 1u);
}

TEST(SampleSolverTest, ArcConstantsUseFlooring) {
  auto g = make_graph(2, {{0, 1, 50.0, 30.0}});
  mc::ArcConstants c;
  mc::quantize_arc_constants(g, sample_of(g), 100.0, 3.0, c);
  ASSERT_EQ(c.setup_steps.size(), 1u);
  // setup_c = 100 - 2 - 50 = 48 -> floor(48/3) = 16.
  EXPECT_EQ(c.setup_steps[0], 16);
  // hold_c = 30 - 0.5 = 29.5 -> floor(29.5/3) = 9.
  EXPECT_EQ(c.hold_steps[0], 9);
}

TEST(SampleSolverTest, TwoIndependentComponentsBothSolved) {
  auto g = make_graph(4, {{0, 1, 104.0, 60.0}, {2, 3, 107.0, 60.0}});
  const SampleSolver solver(g, 1.0, 100.0, CandidateWindows::floating(4, 20));
  const SampleSolution sol =
      solver.solve(sample_of(g), ConcentrateMode::toward_zero);
  EXPECT_TRUE(sol.fixable);
  EXPECT_EQ(sol.nk, 2);
  int mag = 0;
  for (const auto& [ff, k] : sol.tunings) mag += std::abs(k);
  EXPECT_EQ(mag, 6 + 9);
}

}  // namespace
}  // namespace clktune::core
