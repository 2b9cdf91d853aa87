#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "feas/diff_constraints.h"
#include "feas/tuning_plan.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "reference/bellman_ford.h"
#include "reference/dense.h"
#include "ssta/seq_graph.h"
#include "util/rng.h"

namespace clktune {
namespace {

using feas::BufferWindow;
using feas::DiffConstraints;
using feas::TuningPlan;
using feas::YieldEvaluator;

// A small generated design shared by the MC tests.
const netlist::Design& test_design() {
  static const netlist::Design design = [] {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = 120;
    spec.num_gates = 1000;
    spec.seed = 4242;
    return netlist::generate(spec);
  }();
  return design;
}

const ssta::SeqGraph& test_graph() {
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(test_design());
  return graph;
}

TEST(SamplerTest, DeterministicAcrossCalls) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample a, b;
  sampler.evaluate(17, a);
  sampler.evaluate(17, b);
  EXPECT_EQ(a.dmax, b.dmax);
  EXPECT_EQ(a.dmin, b.dmin);
}

TEST(SamplerTest, SamplesDiffer) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample a, b;
  sampler.evaluate(1, a);
  sampler.evaluate(2, b);
  EXPECT_NE(a.dmax, b.dmax);
}

TEST(SamplerTest, EarlyNeverExceedsLate) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample s;
  for (std::uint64_t k = 0; k < 50; ++k) {
    sampler.evaluate(k, s);
    for (std::size_t e = 0; e < s.dmax.size(); ++e) {
      EXPECT_LE(s.dmin[e], s.dmax[e] + 1e-12);
      EXPECT_GE(s.dmin[e], 0.0);
    }
  }
}

TEST(SamplerTest, MeanDelayTracksCanonicalMu) {
  const ssta::SeqGraph& g = test_graph();
  const mc::Sampler sampler(g, 21);
  mc::ArcSample s;
  const std::size_t arc = 0;
  util::OnlineStats stats;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    sampler.evaluate(k, s);
    stats.add(s.dmax[arc]);
  }
  EXPECT_NEAR(stats.mean(), g.arcs[arc].dmax.mu,
              0.05 * g.arcs[arc].dmax.mu + 3.0 * g.arcs[arc].dmax.sigma() /
                                              std::sqrt(20000.0));
  EXPECT_NEAR(stats.stddev(), g.arcs[arc].dmax.sigma(),
              0.1 * g.arcs[arc].dmax.sigma() + 0.2);
}

TEST(PeriodMcTest, MomentsStableAndHoldSafe) {
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats stats = mc::sample_min_period(sampler, 4000);
  EXPECT_EQ(stats.samples, 4000u);
  EXPECT_GT(stats.mu(), 0.0);
  EXPECT_GT(stats.sigma(), 0.0);
  EXPECT_LT(stats.sigma(), stats.mu());
  // A small rate of zero-tuning hold escapes is expected (the regional
  // variation term also widens early-path spread); they count against the
  // original yield and are repairable by tuning, but they must stay a
  // minor effect so setup failures dominate the period distribution.
  EXPECT_LT(static_cast<double>(stats.hold_failures) / 4000.0, 0.03);
}

// The moments set the clock period of every run, so the thread count must
// not move a bit of them, nor change the hold arcs a verdict set records.
TEST(PeriodMcTest, ThreadCountDoesNotChangeResult) {
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats seq = mc::sample_min_period(sampler, 1000, 1);
  const mc::ChipVerdicts one(sampler, 1000, 1);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const int threads : {4, 16}) {
    const mc::PeriodStats par = mc::sample_min_period(sampler, 1000, threads);
    EXPECT_EQ(bits(seq.mu()), bits(par.mu())) << threads;
    EXPECT_EQ(bits(seq.sigma()), bits(par.sigma())) << threads;
    EXPECT_EQ(bits(seq.period.min()), bits(par.period.min())) << threads;
    EXPECT_EQ(bits(seq.period.max()), bits(par.period.max())) << threads;
    EXPECT_EQ(seq.hold_failures, par.hold_failures) << threads;
    const mc::ChipVerdicts many(sampler, 1000, threads);
    for (std::uint64_t k = 0; k < 1000; ++k)
      EXPECT_TRUE(std::ranges::equal(one.hold_arcs(k), many.hold_arcs(k)))
          << "chip " << k << " threads " << threads;
  }
  // Some chips fail hold, so the lists are not all empty.
  EXPECT_GT(seq.hold_failures, 0u);
}

TEST(PeriodMcTest, OriginalYieldAtDerivedPeriods) {
  // By construction of muT/sigmaT, the no-buffer yields at muT, +1s, +2s
  // are ~50 %, ~84 %, ~97.7 % (paper, Section IV).
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats stats = mc::sample_min_period(sampler, 6000);
  const struct {
    double period;
    double expect;
    double tol;
  } cases[] = {
      {stats.mu(), 0.50, 0.06},
      {stats.mu() + stats.sigma(), 0.8413, 0.05},
      {stats.mu() + 2.0 * stats.sigma(), 0.9772, 0.03},
  };
  for (const auto& c : cases) {
    const feas::YieldResult y =
        feas::original_yield(test_graph(), c.period, sampler, 6000);
    EXPECT_NEAR(y.yield, c.expect, c.tol) << "T=" << c.period;
  }
}

// ------------------------- difference constraints --------------------------

TEST(DiffConstraintsTest, FeasibleChainAndSolution) {
  DiffConstraints sys(3);
  sys.add(1, 0, 5);   // x1 - x0 <= 5
  sys.add(2, 1, -2);  // x2 - x1 <= -2
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE((*sol)[1] - (*sol)[0], 5);
  EXPECT_LE((*sol)[2] - (*sol)[1], -2);
}

TEST(DiffConstraintsTest, NegativeCycleInfeasible) {
  DiffConstraints sys(2);
  sys.add(1, 0, 3);
  sys.add(0, 1, -4);  // x0 - x1 <= -4 and x1 - x0 <= 3 -> cycle weight -1
  EXPECT_FALSE(sys.feasible());

  DiffConstraints self_loop(2);
  self_loop.add(1, 0, 3);
  self_loop.add(1, 1, -1);  // x1 - x1 <= -1
  EXPECT_FALSE(self_loop.feasible());
}

TEST(DiffConstraintsTest, ZeroCycleFeasible) {
  DiffConstraints sys(2);
  sys.add(1, 0, 3);
  sys.add(0, 1, -3);
  sys.add(1, 1, 0);  // x1 - x1 <= 0
  EXPECT_TRUE(sys.feasible());
}

TEST(DiffConstraintsTest, AllZeroWhenUnconstrained) {
  DiffConstraints sys(4);
  sys.add(1, 0, 2);
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  for (std::int64_t v : *sol) EXPECT_LE(v, 0);  // potentials start at 0
}

TEST(DiffConstraintsTest, ParallelConstraintsKeepTheTightest) {
  // Scanned loosest first, so x1 improves once per constraint.
  DiffConstraints sys(2);
  sys.add(1, 0, -3);
  sys.add(1, 0, -2);
  sys.add(1, 0, -1);
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ((*sol)[1] - (*sol)[0], -3);
}

// Half the systems start with all their nodes; the other half start with a
// few and grow by add_node() between constraints, as local repair grows its
// graph.  Either way the workspace is dirty from the previous system, which
// often had more nodes.
TEST(DiffConstraintsTest, RandomSystemsMatchBellmanFordOracle) {
  util::SplitMix64 rng(31337);
  DiffConstraints sys;  // one workspace: every solve starts from a dirty one
  int feasible = 0;
  int infeasible = 0;
  int grown = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(40));
    const bool grow = rng.next_below(2) == 0;
    int nodes = grow ? 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(n)))
                     : n;
    sys.reset(nodes);
    const auto add_node = [&] {
      EXPECT_EQ(sys.add_node(), nodes) << "trial " << trial;
      ++nodes;
    };
    std::vector<reference::Constraint> cs;
    const auto add = [&](int u, int v, std::int64_t w) {
      sys.add(u, v, w);
      cs.push_back({u, v, w});
    };
    const int m = static_cast<int>(rng.next_below(3 * n + 2));
    for (int e = 0; e < m; ++e) {
      while (nodes < n && rng.next_below(3) == 0) add_node();
      const auto live = static_cast<std::uint64_t>(nodes);
      const int u = static_cast<int>(rng.next_below(live));  // u == v allowed
      const int v = static_cast<int>(rng.next_below(live));
      const auto w = static_cast<std::int64_t>(rng.next_below(21)) - 6;
      add(u, v, w);
      switch (rng.next_below(8)) {
        case 0:  // parallel constraints, loosening in insertion order
          for (std::int64_t k = 1; k <= 3; ++k) add(u, v, w + k);
          break;
        case 1:  // a zero-weight cycle
          add(v, u, -w);
          break;
        default:
          break;
      }
    }
    while (nodes < n) add_node();
    grown += grow ? 1 : 0;
    ASSERT_EQ(sys.num_nodes(), n) << "trial " << trial;
    const auto expected = reference::bellman_ford(n, cs);
    const auto got = sys.solve();
    ASSERT_EQ(got.has_value(), expected.has_value()) << "trial " << trial;
    if (expected.has_value()) {
      EXPECT_EQ(*got, *expected) << "trial " << trial;
      ++feasible;
    } else {
      ++infeasible;
    }
  }
  EXPECT_GT(feasible, 500);
  EXPECT_GT(infeasible, 500);
  EXPECT_GT(grown, 4000);
}

// ---------------------------- yield evaluation -----------------------------

// Hand-built two-FF imbalanced pipeline where tuning provably helps:
// stage ff0->ff1 is long, stage ff1->ff0 is short; shifting ff1's clock later
// rebalances.
ssta::SeqGraph imbalanced_graph() {
  ssta::SeqGraph g;
  g.num_ffs = 2;
  g.setup_ps = {2.0, 2.0};
  g.hold_ps = {0.5, 0.5};
  g.skew_ps = {0.0, 0.0};
  ssta::SeqArc long_arc;
  long_arc.src_ff = 0;
  long_arc.dst_ff = 1;
  long_arc.dmax.mu = 100.0;
  long_arc.dmax.aloc = 8.0;
  long_arc.dmin.mu = 60.0;
  long_arc.dmin.aloc = 4.0;
  ssta::SeqArc short_arc;
  short_arc.src_ff = 1;
  short_arc.dst_ff = 0;
  short_arc.dmax.mu = 60.0;
  short_arc.dmax.aloc = 5.0;
  short_arc.dmin.mu = 40.0;
  short_arc.dmin.aloc = 3.0;
  g.arcs = {long_arc, short_arc};
  g.arcs_of_ff = {{0, 1}, {0, 1}};
  return g;
}

TEST(YieldEvaluatorTest, BuffersImproveImbalancedPipeline) {
  const ssta::SeqGraph g = imbalanced_graph();
  const mc::Sampler sampler(g, 555);
  const double t = 104.0;  // slightly above the long stage mean + setup
  const feas::YieldResult before = feas::original_yield(g, t, sampler, 4000);

  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{1, 0, 20});  // delay ff1 clock
  plan.reset_groups();
  const YieldEvaluator eval(g, plan, t);
  const feas::YieldResult after = eval.evaluate(sampler, 4000);

  EXPECT_GT(after.yield, before.yield + 0.15);
}

TEST(YieldEvaluatorTest, SelfLoopArcCannotBeHelped) {
  ssta::SeqGraph g;
  g.num_ffs = 1;
  g.setup_ps = {2.0};
  g.hold_ps = {0.5};
  g.skew_ps = {0.0};
  ssta::SeqArc self;
  self.src_ff = 0;
  self.dst_ff = 0;
  self.dmax.mu = 100.0;
  self.dmax.aloc = 10.0;
  self.dmin.mu = 50.0;
  self.dmin.aloc = 2.0;
  g.arcs = {self};
  g.arcs_of_ff = {{0}};
  const mc::Sampler sampler(g, 1);
  const double t = 102.0;
  const feas::YieldResult before = feas::original_yield(g, t, sampler, 3000);
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, -10, 10});
  plan.reset_groups();
  const YieldEvaluator eval(g, plan, t);
  const feas::YieldResult after = eval.evaluate(sampler, 3000);
  EXPECT_NEAR(after.yield, before.yield, 1e-9);
}

TEST(YieldEvaluatorTest, ConfigurationSatisfiesConstraints) {
  const ssta::SeqGraph g = imbalanced_graph();
  const mc::Sampler sampler(g, 555);
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, -10, 10});
  plan.buffers.push_back(BufferWindow{1, 0, 20});
  plan.reset_groups();
  const double t = 104.0;
  const YieldEvaluator eval(g, plan, t);
  int checked = 0;
  mc::ArcSample arcs;
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto config = eval.find_configuration(sampler, k);
    if (!config.has_value()) continue;
    ++checked;
    sampler.evaluate(k, arcs);
    const double x0 = (*config)[0];
    const double x1 = (*config)[1];
    EXPECT_GE(x0, plan.buffers[0].k_lo);
    EXPECT_LE(x0, plan.buffers[0].k_hi);
    EXPECT_GE(x1, plan.buffers[1].k_lo);
    EXPECT_LE(x1, plan.buffers[1].k_hi);
    // Setup on both arcs.
    EXPECT_LE(x0 + arcs.dmax[0] + g.setup_ps[1], t + x1 + 1e-9);
    EXPECT_LE(x1 + arcs.dmax[1] + g.setup_ps[0], t + x0 + 1e-9);
    // Hold on both arcs.
    EXPECT_GE(x0 + arcs.dmin[0], x1 + g.hold_ps[1] - 1e-9);
    EXPECT_GE(x1 + arcs.dmin[1], x0 + g.hold_ps[0] - 1e-9);
  }
  EXPECT_GT(checked, 200);
}

TEST(YieldEvaluatorTest, GroupedBuffersShareOneVariable) {
  const ssta::SeqGraph g = imbalanced_graph();
  const mc::Sampler sampler(g, 555);
  const double t = 104.0;
  // Two buffers forced into one group: their tunings cancel on the
  // 0 -> 1 arc, so the plan behaves like no tuning at all.
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, 0, 20});
  plan.buffers.push_back(BufferWindow{1, 0, 20});
  plan.group_of = {0, 0};
  plan.num_groups = 1;
  const YieldEvaluator eval(g, plan, t);
  const feas::YieldResult grouped = eval.evaluate(sampler, 3000);
  const feas::YieldResult original = feas::original_yield(g, t, sampler, 3000);
  EXPECT_NEAR(grouped.yield, original.yield, 1e-9);
}

TEST(TuningPlanTest, GroupWindowsAndAverageRange) {
  TuningPlan plan;
  plan.step_ps = 2.0;
  plan.buffers = {BufferWindow{0, -2, 6}, BufferWindow{1, 0, 4},
                  BufferWindow{2, -5, 1}};
  plan.group_of = {0, 0, 1};
  plan.num_groups = 2;
  const std::vector<BufferWindow> windows = plan.group_windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].ff, 0);
  EXPECT_EQ(windows[0].k_lo, -2);
  EXPECT_EQ(windows[0].k_hi, 6);
  EXPECT_EQ(windows[1].range(), 6);
  EXPECT_DOUBLE_EQ(plan.average_range(), (8.0 + 6.0) / 2.0);
  EXPECT_EQ(plan.physical_buffers(), 2);

  // A random grouping of a few thousand buffers against a scan of every
  // group's members.
  util::SplitMix64 rng(2718);
  TuningPlan big;
  big.num_groups = 700;
  for (int i = 0; i < 3000; ++i) {
    const int lo = -static_cast<int>(rng.next_below(12));
    big.buffers.push_back(
        BufferWindow{i, lo, lo + static_cast<int>(rng.next_below(25))});
    // The first 700 buffers give every group a member.
    big.group_of.push_back(
        i < big.num_groups ? i : static_cast<int>(rng.next_below(700)));
  }
  const std::vector<BufferWindow> big_windows = big.group_windows();
  ASSERT_EQ(big_windows.size(), 700u);
  double range_sum = 0.0;
  for (int g = 0; g < big.num_groups; ++g) {
    BufferWindow scan{-1, 1000, -1000};
    for (std::size_t i = 0; i < big.buffers.size(); ++i) {
      if (big.group_of[i] != g) continue;
      if (scan.ff < 0) scan.ff = big.buffers[i].ff;
      scan.k_lo = std::min(scan.k_lo, big.buffers[i].k_lo);
      scan.k_hi = std::max(scan.k_hi, big.buffers[i].k_hi);
    }
    const BufferWindow& w = big_windows[static_cast<std::size_t>(g)];
    EXPECT_EQ(w.ff, scan.ff) << g;
    EXPECT_EQ(w.k_lo, scan.k_lo) << g;
    EXPECT_EQ(w.k_hi, scan.k_hi) << g;
    range_sum += scan.range();
  }
  EXPECT_DOUBLE_EQ(big.average_range(), range_sum / big.num_groups);
}

TEST(YieldEvaluatorTest, EvaluationIsThreadCountInvariant) {
  const ssta::SeqGraph& g = test_graph();
  const mc::Sampler sampler(g, 99);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 1500);
  TuningPlan plan;
  plan.step_ps = ps.mu() / 160.0;
  plan.buffers.push_back(BufferWindow{3, -10, 10});
  plan.buffers.push_back(BufferWindow{10, -10, 10});
  plan.reset_groups();
  const YieldEvaluator eval(g, plan, ps.mu());
  const feas::YieldResult a = eval.evaluate(sampler, 1500, 1);
  const feas::YieldResult b = eval.evaluate(sampler, 1500, 8);
  EXPECT_EQ(a.passing, b.passing);
}

// ---------------------- local repair vs the dense check ---------------------

/// A random graph on `n` flip-flops with `m` arcs between random endpoints,
/// self-loops included.  Delays vary through three global parameters and a
/// local draw; a quarter of the arcs are short enough to fail hold on some
/// chips.
ssta::SeqGraph random_graph(util::SplitMix64& rng, int n, int m) {
  ssta::SeqGraph g;
  g.num_ffs = n;
  for (int f = 0; f < n; ++f) {
    g.setup_ps.push_back(rng.next_double(1.0, 3.0));
    g.hold_ps.push_back(rng.next_double(0.5, 2.0));
    g.skew_ps.push_back(rng.next_double(-3.0, 3.0));
  }
  g.arcs_of_ff.assign(static_cast<std::size_t>(n), {});
  const auto ffs = static_cast<std::uint64_t>(n);
  for (int e = 0; e < m; ++e) {
    ssta::SeqArc arc;
    arc.src_ff = static_cast<int>(rng.next_below(ffs));
    arc.dst_ff = static_cast<int>(rng.next_below(ffs));
    arc.dmax.mu = rng.next_double(60.0, 100.0);
    arc.dmin.mu = rng.next_below(4) == 0 ? rng.next_double(0.0, 6.0)
                                         : arc.dmax.mu * 0.6;
    for (std::size_t p = 0; p < 3; ++p) {
      arc.dmax.a[p] = rng.next_double(-1.0, 4.0);
      arc.dmin.a[p] = rng.next_double(-1.0, 1.0);
    }
    arc.dmax.aloc = rng.next_double(1.0, 6.0);
    arc.dmin.aloc = rng.next_double(0.5, 2.0);
    g.arcs.push_back(arc);
    g.arcs_of_ff[static_cast<std::size_t>(arc.src_ff)].push_back(e);
    if (arc.dst_ff != arc.src_ff)
      g.arcs_of_ff[static_cast<std::size_t>(arc.dst_ff)].push_back(e);
  }
  return g;
}

/// A buffer on every flip-flop, each its own group, window [-half, half].
TuningPlan every_ff_plan(int n, double step, int half) {
  TuningPlan plan;
  plan.step_ps = step;
  for (int f = 0; f < n; ++f) plan.buffers.push_back({f, -half, half});
  plan.reset_groups();
  return plan;
}

/// Buffers on a random subset of the flip-flops, in random groups of one or
/// more members; a member's window is one-sided ([0, r] or [-r, 0]) as
/// often as two-sided.
TuningPlan random_grouped_plan(util::SplitMix64& rng, int n, double step) {
  TuningPlan plan;
  plan.step_ps = step;
  for (int f = 0; f < n; ++f) {
    if (rng.next_below(3) == 0) continue;  // unbuffered
    const int lo = -static_cast<int>(rng.next_below(7));
    const int hi = static_cast<int>(rng.next_below(7));
    switch (rng.next_below(4)) {
      case 0:
        plan.buffers.push_back({f, 0, hi});
        break;
      case 1:
        plan.buffers.push_back({f, lo, 0});
        break;
      default:
        plan.buffers.push_back({f, lo, hi});
        break;
    }
  }
  const auto buffers = static_cast<int>(plan.buffers.size());
  plan.num_groups =
      buffers == 0 ? 0
                   : 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(buffers)));
  // The first num_groups buffers give every group a member.
  for (int i = 0; i < buffers; ++i)
    plan.group_of.push_back(
        i < plan.num_groups
            ? i
            : static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(plan.num_groups))));
  return plan;
}

// evaluate() judges each chip that fails untuned by local repair; on random
// small graphs its counts must equal the dense per-chip check for a buffer
// on every flip-flop, which moves the most groups, and for sparse grouped
// plans with one-sided windows, unbuffered endpoints and self-loops.
TEST(YieldEvaluatorTest, LocalRepairMatchesDenseOnRandomGraphs) {
  util::SplitMix64 rng(20160);
  constexpr std::uint64_t kChips = 300;
  std::uint64_t judged_pass = 0, judged_fail = 0, hold_chips = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(10));
    const int m = n + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(3 * n)));
    const ssta::SeqGraph g = random_graph(rng, n, m);
    const mc::Sampler sampler(g, 1000 + static_cast<std::uint64_t>(trial));
    const mc::ChipVerdicts verdicts(sampler, kChips, 1);
    const mc::PeriodStats ps = mc::sample_min_period(sampler, kChips, 1);
    const double t = ps.mu() + rng.next_double(-0.5, 1.0) * ps.sigma();
    const double step = rng.next_double(0.5, 3.0);
    for (std::uint64_t k = 0; k < kChips; ++k)
      hold_chips += verdicts[k].hold_fail ? 1 : 0;
    const TuningPlan plans[] = {
        every_ff_plan(n, step, 1 + static_cast<int>(rng.next_below(8))),
        random_grouped_plan(rng, n, step)};
    const std::uint64_t yo =
        feas::original_yield(g, t, verdicts, 1).passing;
    for (const TuningPlan& plan : plans) {
      const YieldEvaluator eval(g, plan, t);
      const std::uint64_t dense =
          reference::dense_passing(eval, sampler, kChips, 1);
      ASSERT_EQ(eval.evaluate(verdicts, 1).passing, dense)
          << "trial " << trial << " buffers " << plan.buffers.size();
      judged_pass += dense - yo;
      judged_fail += kChips - dense;
    }
  }
  // The plans rescue chips, fail others, and hold failures occur.
  EXPECT_GT(judged_pass, 1000u);
  EXPECT_GT(judged_fail, 1000u);
  EXPECT_GT(hold_chips, 100u);
}

// Binning takes a chip's sell bin from differences of passing counts, which
// is exact only if a chip that passes at T1 passes at every T2 > T1: the
// setup constants rise with T and the hold constants do not read it.
// Checked chip by chip with the dense check, untuned and under a grouped
// plan, on random small graphs and periods a few steps apart.
TEST(YieldEvaluatorTest, FeasibilityIsMonotoneInThePeriod) {
  util::SplitMix64 rng(1705);
  constexpr std::uint64_t kChips = 200;
  std::uint64_t gained = 0, kept = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(10));
    const int m = n + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(3 * n)));
    const ssta::SeqGraph g = random_graph(rng, n, m);
    const mc::Sampler sampler(g, 2000 + static_cast<std::uint64_t>(trial));
    const mc::PeriodStats ps = mc::sample_min_period(sampler, kChips, 1);
    const double step = rng.next_double(0.5, 3.0);
    const double t1 = ps.mu() + rng.next_double(-1.0, 1.0) * ps.sigma();
    const double t2 = t1 + rng.next_double(0.0, 3.0) * step;
    for (const TuningPlan& plan :
         {reference::no_buffers(), random_grouped_plan(rng, n, step)}) {
      const YieldEvaluator slow(g, plan, t2), fast(g, plan, t1);
      for (std::uint64_t k = 0; k < kChips; ++k) {
        const bool at_t2 = slow.sample_feasible(sampler, k);
        if (!fast.sample_feasible(sampler, k)) {
          gained += at_t2 ? 1 : 0;
          continue;
        }
        ++kept;
        ASSERT_TRUE(at_t2) << "trial " << trial << " chip " << k << " T1="
                           << t1 << " T2=" << t2;
      }
    }
  }
  // Both cases occur: chips pass at both periods, and others only at T2.
  EXPECT_GT(kept, 1000u);
  EXPECT_GT(gained, 100u);
}

/// Counts of a metamorphic check: chips that pass under both plans, and
/// chips that pass under the changed plan only.
struct Relation {
  std::uint64_t kept = 0, gained = 0;
};

/// A plan that only adds configurations to `before` must keep every chip
/// that passes under it.  Checked chip by chip, through judge on the screen
/// evaluate() derives from `verdicts` and through the dense check.
void expect_keeps_passing_chips(const ssta::SeqGraph& g,
                                const mc::ChipVerdicts& verdicts, double t,
                                const TuningPlan& before,
                                const TuningPlan& after, const char* label,
                                int trial, Relation& counts) {
  const YieldEvaluator old_plan(g, before, t), new_plan(g, after, t);
  const mc::ArcScreen screen = verdicts.screen().at(t, before.step_ps);
  for (std::uint64_t k = 0; k < verdicts.samples(); ++k) {
    const bool judged_before = old_plan.judge(screen, verdicts, k);
    const bool judged_after = new_plan.judge(screen, verdicts, k);
    const bool dense_before = old_plan.sample_feasible(verdicts.sampler(), k);
    const bool dense_after = new_plan.sample_feasible(verdicts.sampler(), k);
    EXPECT_TRUE(!judged_before || judged_after)
        << label << " trial " << trial << " chip " << k << " (judge)";
    EXPECT_TRUE(!dense_before || dense_after)
        << label << " trial " << trial << " chip " << k << " (dense)";
    counts.kept += judged_before && judged_after ? 1 : 0;
    counts.gained += !judged_before && judged_after ? 1 : 0;
  }
}

/// One random small graph with a verdict set over its chips, a period near
/// its mean and a random grouped plan on it.
struct MetamorphicWorld {
  ssta::SeqGraph graph;
  std::unique_ptr<mc::Sampler> sampler;
  std::unique_ptr<mc::ChipVerdicts> verdicts;
  double period = 0.0;
  TuningPlan plan;

  MetamorphicWorld(util::SplitMix64& rng, int trial) {
    const int n = 3 + static_cast<int>(rng.next_below(10));
    const int m = n + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(3 * n)));
    graph = random_graph(rng, n, m);
    sampler = std::make_unique<mc::Sampler>(
        graph, 4000 + static_cast<std::uint64_t>(trial));
    verdicts = std::make_unique<mc::ChipVerdicts>(*sampler, 200, 1);
    const mc::PeriodStats ps = verdicts->period_stats();
    const double step = rng.next_double(0.5, 3.0);
    period = ps.mu() + rng.next_double(-1.0, 1.0) * ps.sigma();
    plan = random_grouped_plan(rng, n, step);
  }
  // The sampler points into `graph`.
  MetamorphicWorld(const MetamorphicWorld&) = delete;
  MetamorphicWorld& operator=(const MetamorphicWorld&) = delete;
};

// Widening a member's window widens its group's (the union of its members'),
// which only adds configurations.
TEST(YieldEvaluatorTest, WideningAWindowKeepsEveryPassingChip) {
  util::SplitMix64 rng(2610);
  Relation counts;
  for (int trial = 0; trial < 30; ++trial) {
    const MetamorphicWorld w(rng, trial);
    if (w.plan.buffers.empty()) continue;
    TuningPlan wider = w.plan;
    BufferWindow& b = wider.buffers[static_cast<std::size_t>(
        rng.next_below(wider.buffers.size()))];
    const int lower = static_cast<int>(rng.next_below(4));
    b.k_lo -= lower;
    b.k_hi += lower == 0 ? 1 + static_cast<int>(rng.next_below(3))
                         : static_cast<int>(rng.next_below(4));
    expect_keeps_passing_chips(w.graph, *w.verdicts, w.period, w.plan, wider,
                               "wider", trial, counts);
  }
  // Chips pass under both plans, and the wider window rescues others.
  EXPECT_GT(counts.kept, 1000u);
  EXPECT_GT(counts.gained, 0u);
}

// A buffer on an unbuffered flip-flop, in a group of its own, whose window
// contains 0, extends every configuration by a 0 for it.
TEST(YieldEvaluatorTest, AddingABufferKeepsEveryPassingChip) {
  util::SplitMix64 rng(2611);
  Relation counts;
  for (int trial = 0; trial < 30; ++trial) {
    const MetamorphicWorld w(rng, trial);
    std::vector<int> unbuffered;
    for (int f = 0; f < w.graph.num_ffs; ++f)
      if (std::none_of(w.plan.buffers.begin(), w.plan.buffers.end(),
                       [f](const BufferWindow& b) { return b.ff == f; }))
        unbuffered.push_back(f);
    if (unbuffered.empty()) continue;
    TuningPlan more = w.plan;
    more.buffers.push_back(
        {unbuffered[static_cast<std::size_t>(
             rng.next_below(unbuffered.size()))],
         -static_cast<int>(rng.next_below(7)),
         static_cast<int>(rng.next_below(7))});
    more.group_of.push_back(more.num_groups++);
    expect_keeps_passing_chips(w.graph, *w.verdicts, w.period, w.plan, more,
                               "added", trial, counts);
  }
  // Chips pass under both plans, and the added buffer rescues others.
  EXPECT_GT(counts.kept, 1000u);
  EXPECT_GT(counts.gained, 0u);
}

}  // namespace
}  // namespace clktune
