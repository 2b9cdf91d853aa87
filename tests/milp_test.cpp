#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lp/model.h"
#include "milp/branch_and_bound.h"
#include "util/rng.h"

namespace clktune::milp {
namespace {

using lp::Coefficient;
using lp::kInf;
using lp::Model;
using lp::Sense;

TEST(BranchAndBoundTest, PureLpPassesThrough) {
  Model m;
  m.add_variable(0.0, 4.0, -1.0);
  const Result r = milp::solve(m, {});
  ASSERT_EQ(r.status, Status::optimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
}

TEST(BranchAndBoundTest, RoundsUpToIntegerFeasibility) {
  // min x s.t. x >= 2.5, x integer -> 3.
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, 2.5);
  const Result r = milp::solve(m, {x});
  ASSERT_EQ(r.status, Status::optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

TEST(BranchAndBoundTest, DetectsIntegerInfeasibility) {
  // 2x = 1 has LP solution x = 0.5 but no integer solution.
  Model m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(Sense::equal, {{x, 2.0}}, 1.0);
  const Result r = milp::solve(m, {x});
  EXPECT_EQ(r.status, Status::infeasible);
}

TEST(BranchAndBoundTest, KnapsackAgainstBruteForce) {
  // max sum v_i b_i s.t. sum w_i b_i <= W, b binary.
  const std::vector<double> value = {10, 13, 7, 8, 2, 11};
  const std::vector<double> weight = {3, 4, 2, 3, 1, 4};
  const double capacity = 9.0;
  Model m;
  std::vector<int> bins;
  std::vector<Coefficient> row;
  for (std::size_t i = 0; i < value.size(); ++i) {
    bins.push_back(m.add_variable(0.0, 1.0, -value[i]));
    row.push_back({bins.back(), weight[i]});
  }
  m.add_row(Sense::less_equal, row, capacity);
  const Result r = milp::solve(m, bins);
  ASSERT_EQ(r.status, Status::optimal);

  double best = 0.0;
  for (unsigned mask = 0; mask < (1u << value.size()); ++mask) {
    double v = 0.0, w = 0.0;
    for (std::size_t i = 0; i < value.size(); ++i)
      if ((mask >> i) & 1u) {
        v += value[i];
        w += weight[i];
      }
    if (w <= capacity) best = std::max(best, v);
  }
  EXPECT_NEAR(-r.objective, best, 1e-9);
}

TEST(BranchAndBoundTest, BigMIndicatorModelMatchesPaperPattern) {
  // Paper constraints (5)-(7): x free in [-G, G], c binary,
  // x <= c*G and -x <= c*G; minimise sum(c) s.t. x1 - x2 <= -3.
  const double gamma = 10.0;
  Model m;
  const int x1 = m.add_variable(-gamma, gamma, 0.0);
  const int x2 = m.add_variable(-gamma, gamma, 0.0);
  const int c1 = m.add_variable(0.0, 1.0, 1.0);
  const int c2 = m.add_variable(0.0, 1.0, 1.0);
  for (auto [x, c] : {std::pair{x1, c1}, std::pair{x2, c2}}) {
    m.add_row(Sense::less_equal, {{x, 1.0}, {c, -gamma}}, 0.0);
    m.add_row(Sense::less_equal, {{x, -1.0}, {c, -gamma}}, 0.0);
  }
  m.add_row(Sense::less_equal, {{x1, 1.0}, {x2, -1.0}}, -3.0);
  const Result r = milp::solve(m, {x1, x2, c1, c2});
  ASSERT_EQ(r.status, Status::optimal);
  // One buffer suffices: x1 = -3 (or x2 = +3).
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(BranchAndBoundTest, WarmStartIsKeptWhenOptimal) {
  // Incumbent equal to the optimum: solver must not return anything worse.
  Model m;
  const int x = m.add_variable(0.0, 5.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, 1.2);
  Incumbent warm;
  warm.objective = 2.0;
  warm.x = {2.0};
  const Result r = milp::solve(m, {x}, Options{}, warm);
  ASSERT_EQ(r.status, Status::optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(BranchAndBoundTest, WarmStartImprovedUpon) {
  Model m;
  const int x = m.add_variable(0.0, 5.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, 1.2);
  Incumbent warm;
  warm.objective = 5.0;
  warm.x = {5.0};
  const Result r = milp::solve(m, {x}, Options{}, warm);
  ASSERT_EQ(r.status, Status::optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(BranchAndBoundTest, IntegralObjectivePruningPreservesOptimum) {
  // Same model solved with and without the integral-objective hint.
  for (bool integral : {false, true}) {
    Model m;
    std::vector<int> ints;
    for (int j = 0; j < 4; ++j) ints.push_back(m.add_variable(0.0, 3.0, 1.0));
    m.add_row(Sense::greater_equal,
              {{ints[0], 1.0}, {ints[1], 1.0}, {ints[2], 1.0}, {ints[3], 1.0}},
              5.5);
    Options opt;
    opt.objective_is_integral = integral;
    const Result r = milp::solve(m, ints, opt);
    ASSERT_EQ(r.status, Status::optimal);
    EXPECT_NEAR(r.objective, 6.0, 1e-9) << "integral=" << integral;
  }
}

TEST(BranchAndBoundTest, NodeLimitReportsTruncation) {
  // A model engineered to need several nodes, with max_nodes = 1.
  Model m;
  std::vector<int> ints;
  std::vector<Coefficient> row;
  for (int j = 0; j < 6; ++j) {
    ints.push_back(m.add_variable(0.0, 1.0, -1.0));
    row.push_back({ints.back(), 2.0});
  }
  m.add_row(Sense::less_equal, row, 5.0);
  Options opt;
  opt.max_nodes = 1;
  const Result r = milp::solve(m, ints, opt);
  EXPECT_TRUE(r.status == Status::node_limit || r.status == Status::feasible);
}

TEST(BranchAndBoundTest, NegativeIntegerDomain) {
  // min |x| modeled as xp + xn, x in [-8, 8] integer, x <= -2.5.
  Model m;
  const int x = m.add_variable(-8.0, 8.0, 0.0);
  const int xp = m.add_variable(0.0, 8.0, 1.0);
  const int xn = m.add_variable(0.0, 8.0, 1.0);
  m.add_row(Sense::equal, {{x, 1.0}, {xp, -1.0}, {xn, 1.0}}, 0.0);
  m.add_row(Sense::less_equal, {{x, 1.0}}, -2.5);
  const Result r = milp::solve(m, {x});
  ASSERT_EQ(r.status, Status::optimal);
  EXPECT_NEAR(r.x[0], -3.0, 1e-9);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Randomized cross-check against exhaustive enumeration of the integer grid.
// Models mimic the paper's structure: difference constraints over integer
// tuning steps plus binary usage indicators with big-M linking.
// ---------------------------------------------------------------------------

class RandomMilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilpTest, MatchesExhaustiveEnumeration) {
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int nv = 2 + static_cast<int>(rng.next_below(2));  // 2..3 int vars
  const int span = 3;                                      // domain [-3, 3]
  Model m;
  std::vector<int> ints;
  for (int j = 0; j < nv; ++j)
    ints.push_back(m.add_variable(-span, span, rng.next_double(-1.5, 1.5)));
  const int rows = 1 + static_cast<int>(rng.next_below(3));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    for (int j = 0; j < nv; ++j)
      coeffs.push_back({ints[static_cast<std::size_t>(j)],
                        std::round(rng.next_double(-2.0, 2.0))});
    m.add_row(rng.next_below(2) == 0 ? Sense::less_equal : Sense::greater_equal,
              coeffs, std::round(rng.next_double(-4.0, 4.0)) + 0.5);
  }

  const Result r = milp::solve(m, ints);

  // Exhaustive enumeration.
  double best = std::numeric_limits<double>::infinity();
  const int base = 2 * span + 1;
  long total = 1;
  for (int j = 0; j < nv; ++j) total *= base;
  std::vector<double> pt(static_cast<std::size_t>(nv));
  for (long code = 0; code < total; ++code) {
    long c = code;
    for (int j = 0; j < nv; ++j) {
      pt[static_cast<std::size_t>(j)] = static_cast<double>(c % base - span);
      c /= base;
    }
    if (m.infeasibility(pt) <= 1e-9)
      best = std::min(best, m.objective_value(pt));
  }

  if (std::isfinite(best)) {
    ASSERT_EQ(r.status, Status::optimal);
    EXPECT_NEAR(r.objective, best, 1e-6);
    EXPECT_LE(m.infeasibility(r.x), 1e-6);
    for (int v : ints) {
      const double xv = r.x[static_cast<std::size_t>(v)];
      EXPECT_NEAR(xv, std::round(xv), 1e-6);
    }
  } else {
    EXPECT_EQ(r.status, Status::infeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMilpTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace clktune::milp
