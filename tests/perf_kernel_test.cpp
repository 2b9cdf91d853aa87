// Tests for the zero-allocation sample kernel and the sparse constant
// access of the insertion flow: DiffConstraints workspace semantics, the
// shared quantizer, the arc screen and memo against the dense kernel
// (evaluate + quantize_arc_constants), the harness's delay-cache shim
// against the dense yield reference, and steady-state allocation counts in
// the Monte-Carlo inner loops, the verdict pass and flagged-chip judging
// included.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/baselines.h"
#include "core/insertion_config.h"
#include "core/sample_solver.h"
#include "feas/diff_constraints.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/arc_screen.h"
#include "mc/delay_cache.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "reference/dense.h"
#include "ssta/seq_graph.h"
#include "util/alloc_counter.h"

namespace clktune {
namespace {

using feas::DiffConstraints;

// ----------------------- DiffConstraints workspace -------------------------

void build_feasible_chain(DiffConstraints& sys) {
  sys.reset(4);
  sys.add(1, 0, 5);    // x1 - x0 <= 5
  sys.add(2, 1, -2);   // x2 - x1 <= -2
  sys.add(3, 2, 7);    // x3 - x2 <= 7
  sys.add(0, 3, 10);   // x0 - x3 <= 10
}

void build_negative_cycle(DiffConstraints& sys) {
  sys.reset(3);
  sys.add(1, 0, 3);
  sys.add(2, 1, -2);
  sys.add(0, 2, -4);  // cycle weight -3
}

TEST(DiffConstraintsWorkspaceTest, DirtyWorkspaceMatchesFreshObject) {
  DiffConstraints fresh;
  build_feasible_chain(fresh);
  const auto expected = fresh.solve();
  ASSERT_TRUE(expected.has_value());

  // Same system rebuilt on a workspace dirtied by a different system.
  DiffConstraints dirty;
  build_negative_cycle(dirty);
  EXPECT_FALSE(dirty.feasible());
  build_feasible_chain(dirty);
  const auto sol = dirty.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(*sol, *expected);
}

TEST(DiffConstraintsWorkspaceTest, SameSystemSolvedTwiceIsIdentical) {
  DiffConstraints sys;
  build_feasible_chain(sys);
  const auto first = sys.solve();
  const auto second = sys.solve();  // scratch is dirty from the first solve
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);

  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());
  EXPECT_FALSE(sys.feasible());  // and infeasibility is stable too
}

TEST(DiffConstraintsWorkspaceTest, EpochResetAfterNegativeCycleBailout) {
  DiffConstraints sys;
  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());

  // Shrinking reset after a bailout: stale adjacency from the 3-node system
  // must not leak into the new 2-node system.
  sys.reset(2);
  const auto unconstrained = sys.solve();
  ASSERT_TRUE(unconstrained.has_value());
  EXPECT_EQ(unconstrained->size(), 2u);
  EXPECT_EQ((*unconstrained)[0], 0);
  EXPECT_EQ((*unconstrained)[1], 0);

  sys.add(1, 0, -3);  // x1 - x0 <= -3
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE((*sol)[1] - (*sol)[0], -3);
}

TEST(DiffConstraintsWorkspaceTest, GrowingResetAfterBailout) {
  DiffConstraints sys;
  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());
  build_feasible_chain(sys);  // grows to 4 nodes
  EXPECT_TRUE(sys.feasible());
}

// --------------------------- shared quantizer ------------------------------

TEST(ArcConstantsTest, FloorStepsMatchesLegacyFormula) {
  const double step = 3.0;
  for (double v : {48.0, 29.5, -0.5, -3.0, -2.9999999999, 0.0, 1e-12}) {
    const auto legacy =
        static_cast<std::int64_t>(std::floor(v / step + 1e-9));
    EXPECT_EQ(mc::floor_steps(v, step), legacy) << v;
  }
}

struct KernelFixture {
  netlist::Design design;
  ssta::SeqGraph graph;
  double t0 = 0.0;

  explicit KernelFixture(int ns = 60, int ng = 400,
                         std::uint64_t seed = 1234) {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = ns;
    spec.num_gates = ng;
    spec.seed = seed;
    design = netlist::generate(spec);
    graph = ssta::extract_seq_graph(design);
    t0 = netlist::nominal_min_period(design);
  }
};

TEST(ArcConstantsTest, SolverArcConstantsUseSharedQuantizer) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 7);
  const double step = fx.t0 / 160.0;
  const core::SampleSolver solver(
      fx.graph, step, fx.t0,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));

  mc::ArcSample sample;
  sampler.evaluate(3, sample);
  std::vector<std::int64_t> setup64, hold64;
  solver.arc_constants(sample, setup64, hold64);
  mc::ArcConstants c;
  mc::quantize_arc_constants(fx.graph, sample, fx.t0, step, c);
  ASSERT_EQ(setup64.size(), c.setup_steps.size());
  for (std::size_t e = 0; e < setup64.size(); ++e) {
    EXPECT_EQ(setup64[e], c.setup_steps[e]);
    EXPECT_EQ(hold64[e], c.hold_steps[e]);
  }
}

// ------------------------ arc screen and memo ------------------------------

/// Appends edge-case arcs to a synthetic graph: a self-loop, an arc without
/// local variation, arcs whose early delay clamps to 0 and to the late
/// delay, and one whose late delay clamps to 0.
void add_edge_case_arcs(ssta::SeqGraph& g) {
  const ssta::SeqArc base = g.arcs.front();
  const auto add = [&](int src, int dst, ssta::Canon dmax, ssta::Canon dmin) {
    g.arcs.push_back(ssta::SeqArc{src, dst, dmax, dmin});
    const int e = static_cast<int>(g.arcs.size()) - 1;
    g.arcs_of_ff[static_cast<std::size_t>(src)].push_back(e);
    if (dst != src) g.arcs_of_ff[static_cast<std::size_t>(dst)].push_back(e);
  };
  add(3, 3, base.dmax, base.dmin);  // self-loop
  ssta::Canon no_loc_max = base.dmax, no_loc_min = base.dmin;
  no_loc_max.aloc = 0.0;
  no_loc_min.aloc = 0.0;
  add(1, 4, no_loc_max, no_loc_min);  // aloc = 0
  ssta::Canon negative_min = base.dmin;
  negative_min.mu = -0.5 * base.dmax.mu;
  add(2, 5, base.dmax, negative_min);  // early clamps to 0
  ssta::Canon huge_min = base.dmin;
  huge_min.mu = 2.0 * base.dmax.mu;
  add(5, 2, base.dmax, huge_min);  // early clamps to late
  ssta::Canon negative_max = base.dmax;
  negative_max.mu = -base.dmax.mu;
  add(6, 7, negative_max, base.dmin);  // late clamps to 0
}

TEST(ArcScreenTest, MatchesDenseKernel) {
  std::uint64_t violated_total = 0, passing_samples = 0, samples = 0;
  for (const auto& [ns, ng, seed] :
       {std::tuple{60, 400, 1234}, std::tuple{24, 160, 77},
        std::tuple{90, 700, 4242}}) {
    KernelFixture fx(ns, ng, static_cast<std::uint64_t>(seed));
    const auto synthetic_arcs = static_cast<int>(fx.graph.arcs.size());
    add_edge_case_arcs(fx.graph);
    const mc::Sampler sampler(fx.graph, static_cast<std::uint64_t>(seed) + 1);
    mc::ArcSample sample;
    mc::ArcConstants dense;
    mc::ArcConstantMemo memo;
    std::vector<int> screened;
    for (const double t_factor : {0.2, 0.6, 0.9, 1.0, 1.1, 1.5, 3.0}) {
      const double t = fx.t0 * t_factor;
      for (const double divisions : {5.0, 50.0, 500.0, 5000.0}) {
        const double step = t / divisions;
        const mc::ArcScreen screen(sampler, t, step,
                                   mc::ArcScreen::Pass::violated_arcs);
        for (std::uint64_t k = 0; k < 48; ++k) {
          sampler.evaluate(k, sample);
          mc::quantize_arc_constants(fx.graph, sample, t, step, dense);
          screen.violated_arcs(k, screened);
          ASSERT_EQ(screened, reference::dense_violated(dense))
              << "T=" << t_factor << "x step=T/" << divisions << " k=" << k;
          violated_total += screened.size();
          // Some edge-case arcs fail every chip; judge the synthetic ones.
          passing_samples +=
              screened.empty() || screened.front() >= synthetic_arcs ? 1 : 0;
          ++samples;

          // The memo, touched back to front and then again, serves the
          // dense constants of every arc.
          memo.begin(screen, k);
          const std::size_t n = fx.graph.arcs.size();
          for (int pass = 0; pass < 2; ++pass)
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t e = n - 1 - i;
              ASSERT_EQ(memo.setup(e), dense.setup_steps[e]) << "arc " << e;
              ASSERT_EQ(memo.hold(e), dense.hold_steps[e]) << "arc " << e;
            }
        }
      }
    }
  }
  // Both regimes occur: chips whose synthetic arcs all pass, and chips
  // that fail.
  EXPECT_GT(violated_total, 0u);
  EXPECT_GT(passing_samples, 0u);
  EXPECT_LT(passing_samples, samples);
}

TEST(ArcScreenTest, ScreenedSolveMatchesDenseSolve) {
  const KernelFixture fx;
  const double t = fx.t0;
  const double step = fx.t0 / 160.0;
  const int ns = fx.graph.num_ffs;
  // Floating windows, and sparse fixed windows that leave some chips
  // unfixable.
  core::CandidateWindows sparse = core::CandidateWindows::none(ns);
  for (int f = 0; f < ns; f += 3) {
    const auto fs = static_cast<std::size_t>(f);
    sparse.candidate[fs] = 1;
    sparse.k_lo[fs] = -(f % 11);
    sparse.k_hi[fs] = 20 - (f % 11);
  }
  std::vector<double> targets(static_cast<std::size_t>(ns));
  for (int f = 0; f < ns; ++f)
    targets[static_cast<std::size_t>(f)] = 0.5 * ((f % 9) - 4);

  const mc::Sampler sampler(fx.graph, 2024);
  const mc::ArcScreen screen(sampler, t, step,
                             mc::ArcScreen::Pass::violated_arcs);
  core::SolveWorkspace ws;
  std::vector<int> violated;
  mc::ArcSample sample;
  int rescued = 0, unfixable = 0, milps = 0;
  for (const core::CandidateWindows& windows :
       {core::CandidateWindows::floating(ns, 20), sparse}) {
    const core::SampleSolver solver(fx.graph, step, t, windows);
    for (const core::ConcentrateMode mode :
         {core::ConcentrateMode::none, core::ConcentrateMode::toward_zero,
          core::ConcentrateMode::toward_target}) {
      for (std::uint64_t k = 0; k < 300; ++k) {
        sampler.evaluate(k, sample);
        const core::SampleSolution dense = solver.solve(sample, mode, &targets);
        screen.violated_arcs(k, violated);
        const core::SampleSolution sparse_sol =
            solver.solve(screen, k, violated, mode, &targets, ws);
        ASSERT_EQ(sparse_sol.fixable, dense.fixable) << "k=" << k;
        ASSERT_EQ(sparse_sol.nk, dense.nk) << "k=" << k;
        ASSERT_EQ(sparse_sol.tunings, dense.tunings) << "k=" << k;
        ASSERT_EQ(sparse_sol.mincount_tunings, dense.mincount_tunings)
            << "k=" << k;
        ASSERT_EQ(sparse_sol.milps_solved, dense.milps_solved) << "k=" << k;
        ASSERT_EQ(sparse_sol.milp_nodes, dense.milp_nodes) << "k=" << k;
        ASSERT_EQ(sparse_sol.lazy_rounds, dense.lazy_rounds) << "k=" << k;
        ASSERT_EQ(sparse_sol.truncated, dense.truncated) << "k=" << k;
        rescued += dense.fixable && dense.nk > 0 ? 1 : 0;
        unfixable += dense.fixable ? 0 : 1;
        milps += dense.milps_solved;
      }
    }
  }
  // Every solver path ran: rescues, MILPs and unfixable chips.
  EXPECT_GT(rescued, 0);
  EXPECT_GT(unfixable, 0);
  EXPECT_GT(milps, 0);
}

// ------------------------ delay cache equivalence --------------------------

/// Buffers with +-10-step windows on every `stride`-th flip-flop.
feas::TuningPlan strided_plan(const ssta::SeqGraph& graph, double step,
                              int stride) {
  feas::TuningPlan plan;
  plan.step_ps = step;
  for (int f = 0; f < graph.num_ffs; f += stride)
    plan.buffers.push_back(feas::BufferWindow{f, -10, 10});
  plan.reset_groups();
  return plan;
}

// The shim stores no delays at any budget: every overload the harness calls
// answers from its verdicts, and must equal the dense per-chip loop.
TEST(DelayCacheTest, CachedEvaluationMatchesDirectEvaluation) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 555);
  const double t = fx.t0;
  const std::uint64_t n = 400;
  const feas::YieldEvaluator eval(fx.graph,
                                  strided_plan(fx.graph, t / 160.0, 1), t);
  const std::uint64_t dense = reference::dense_passing(eval, sampler, n);
  const std::uint64_t yo_dense = reference::dense_passing(
      feas::YieldEvaluator(fx.graph, reference::no_buffers(), t), sampler, n);
  ASSERT_GT(dense, yo_dense);  // the plan rescues chips

  for (const std::uint64_t budget :
       {std::uint64_t{1} << 30, std::uint64_t{0}}) {
    mc::SampleDelayCache cache(sampler, n, budget);
    EXPECT_EQ(cache.caching(), budget > 0);
    EXPECT_EQ(eval.evaluate(cache, n, 1, true).passing, dense);
    EXPECT_EQ(eval.evaluate(cache, n, 1, false).passing, dense);
    EXPECT_EQ(feas::original_yield(fx.graph, t, cache, n, 1, false).passing,
              yo_dense);
  }
  EXPECT_EQ(eval.evaluate(sampler, n, 1).passing, dense);
}

// ----------------------- zero-allocation guarantees ------------------------

TEST(ZeroAllocTest, DiffConstraintsSteadyStateDoesNotAllocate) {
  DiffConstraints sys;
  // Warm-up establishes the high-water capacity.
  build_feasible_chain(sys);
  ASSERT_TRUE(sys.feasible());
  build_negative_cycle(sys);
  ASSERT_FALSE(sys.feasible());

  util::AllocCounterScope scope;
  bool all_consistent = true;
  for (int i = 0; i < 100; ++i) {
    build_feasible_chain(sys);
    all_consistent = all_consistent && sys.solve_inplace() != nullptr;
    build_negative_cycle(sys);
    all_consistent = all_consistent && sys.solve_inplace() == nullptr;
  }
  const std::uint64_t allocs = scope.delta();
  EXPECT_TRUE(all_consistent);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, YieldCheckSteadyStateDoesNotAllocate) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 321);
  const double t = fx.t0;
  const feas::YieldEvaluator eval(fx.graph,
                                  strided_plan(fx.graph, t / 160.0, 10), t);

  std::uint64_t passing = 0;
  for (std::uint64_t k = 0; k < 16; ++k)  // warm the per-thread workspace
    passing += eval.sample_feasible(sampler, k) ? 1 : 0;

  util::AllocCounterScope scope;
  for (std::uint64_t k = 16; k < 216; ++k)
    passing += eval.sample_feasible(sampler, k) ? 1 : 0;
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(passing, 0u);  // keep the loop observable
}

TEST(ZeroAllocTest, ChipVerdictPassDoesNotAllocate) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 321);
  const mc::ArcScreen screen(sampler, 0.0, 1.0, mc::ArcScreen::Pass::verdict);

  double period_sum = 0.0;
  util::AllocCounterScope scope;
  for (std::uint64_t k = 0; k < 200; ++k)
    period_sum += screen.verdict(k).period;
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(period_sum, 0.0);  // keep the loop observable
}

// Local repair sizes its workspace to the evaluator's worst case on first
// use, so no later chip allocates: neither under a buffer on every
// flip-flop, which moves the most groups, nor under a sparse plan, whose
// flagged chips mostly fail on a check-only arc.
TEST(ZeroAllocTest, JudgingFlaggedChipsSteadyStateDoesNotAllocate) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 321);
  const double t = fx.t0;
  const double step = t / 160.0;
  const mc::ChipVerdicts verdicts(sampler, 600, 1);
  for (const bool oracle : {true, false}) {
    const feas::TuningPlan plan =
        oracle ? core::oracle_plan(fx.graph, core::InsertionConfig{}.steps,
                                   step)
               : strided_plan(fx.graph, step, 10);
    const char* const label = oracle ? "oracle" : "strided";
    const feas::YieldEvaluator eval(fx.graph, plan, t);
    const mc::ArcScreen screen(sampler, t, plan.step_ps);
    // The chips evaluate() judges: those its verdict does not pass untuned.
    std::vector<std::uint64_t> flagged;
    for (std::uint64_t k = 0; k < verdicts.samples(); ++k)
      if (verdicts[k].untuned_at(t, screen.rounding_band()) !=
          mc::ChipVerdict::Untuned::passes)
        flagged.push_back(k);
    ASSERT_GE(flagged.size(), 100u) << label;

    std::uint64_t passing = 0;
    for (std::size_t i = 0; i < 16; ++i)  // warm the per-thread workspace
      passing += eval.judge(screen, flagged[i], verdicts[flagged[i]]) ? 1 : 0;

    util::AllocCounterScope scope;
    for (std::size_t i = 16; i < flagged.size(); ++i)
      passing += eval.judge(screen, flagged[i], verdicts[flagged[i]]) ? 1 : 0;
    const std::uint64_t allocs = scope.delta();
    EXPECT_EQ(allocs, 0u) << label;
    EXPECT_LT(passing, flagged.size()) << label;
    // The oracle plan rescues chips too, so both outcomes occur.
    if (oracle) {
      EXPECT_GT(passing, 0u);
    }
  }
}

TEST(ZeroAllocTest, SolverPassingSamplesSteadyStateDoesNotAllocate) {
  const KernelFixture fx;
  // Generous clock: every sample meets timing, exercising the screen and
  // the solver's fast path the insertion flow takes for passing chips.
  const double t = fx.t0 * 2.0;
  const double step = fx.t0 / 160.0;
  const core::SampleSolver solver(
      fx.graph, step, t,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));
  const mc::Sampler sampler(fx.graph, 777);
  const mc::ArcScreen screen(sampler, t, step,
                             mc::ArcScreen::Pass::violated_arcs);

  core::SolveWorkspace ws;
  std::vector<int> violated;
  // Warm-up: first sample sizes the workspace.
  {
    screen.violated_arcs(0, violated);
    const core::SampleSolution sol = solver.solve(
        screen, 0, violated, core::ConcentrateMode::toward_zero, nullptr, ws);
    ASSERT_TRUE(sol.fixable);
    ASSERT_EQ(sol.nk, 0) << "fixture must pass at 2x nominal period";
  }

  int nk_sum = 0;
  util::AllocCounterScope scope;
  for (std::uint64_t k = 1; k < 128; ++k) {
    screen.violated_arcs(k, violated);
    const core::SampleSolution sol = solver.solve(
        screen, k, violated, core::ConcentrateMode::toward_zero, nullptr, ws);
    nk_sum += sol.nk;
  }
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(nk_sum, 0);
}

}  // namespace
}  // namespace clktune
