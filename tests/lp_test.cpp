#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace clktune::lp {
namespace {

TEST(SimplexTest, SingleVariableBoundsOnly) {
  Model m;
  m.add_variable(-3.0, 8.0, 1.0, "x");
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-9);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);
}

TEST(SimplexTest, MaximizationViaNegatedCost) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> (4, 0), obj 12.
  Model m;
  const int x = m.add_variable(0.0, kInf, -3.0, "x");
  const int y = m.add_variable(0.0, kInf, -2.0, "y");
  m.add_row(Sense::less_equal, {{x, 1.0}, {y, 1.0}}, 4.0);
  m.add_row(Sense::less_equal, {{x, 1.0}, {y, 3.0}}, 6.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, -12.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 2, 0 <= x,y <= 5.
  Model m;
  const int x = m.add_variable(0.0, 5.0, 1.0);
  const int y = m.add_variable(0.0, 5.0, 1.0);
  m.add_row(Sense::equal, {{x, 1.0}, {y, 1.0}}, 2.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 2.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraint) {
  // min 2x + y s.t. x + y >= 3, x,y in [0, 10] -> (0, 3), obj 3.
  Model m;
  const int x = m.add_variable(0.0, 10.0, 2.0);
  const int y = m.add_variable(0.0, 10.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}, {y, 1.0}}, 3.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

TEST(SimplexTest, NegativeVariableRange) {
  // min |shift| style: min xp + xn with x = xp - xn, x - y <= -3, y in [0,1].
  Model m;
  const int xp = m.add_variable(0.0, 10.0, 1.0);
  const int xn = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(0.0, 1.0, 0.0);
  m.add_row(Sense::less_equal, {{xp, 1.0}, {xn, -1.0}, {y, -1.0}}, -3.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  // Best: y = 1, x = -2 -> xn = 2.
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, InfeasibleSystem) {
  Model m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, 2.0);
  const Solution s = solve(m);
  EXPECT_EQ(s.status, Status::infeasible);
}

TEST(SimplexTest, InfeasibleContradictoryRows) {
  Model m;
  const int x = m.add_variable(-kInf, kInf, 0.0);
  const int y = m.add_variable(-kInf, kInf, 0.0);
  m.add_row(Sense::less_equal, {{x, 1.0}, {y, -1.0}}, -1.0);   // x - y <= -1
  m.add_row(Sense::less_equal, {{y, 1.0}, {x, -1.0}}, -1.0);   // y - x <= -1
  const Solution s = solve(m);
  EXPECT_EQ(s.status, Status::infeasible);
}

TEST(SimplexTest, UnboundedProblem) {
  Model m;
  const int x = m.add_variable(-kInf, kInf, 1.0);
  m.add_row(Sense::less_equal, {{x, 1.0}}, 5.0);
  const Solution s = solve(m);
  EXPECT_EQ(s.status, Status::unbounded);
}

TEST(SimplexTest, FixedVariables) {
  Model m;
  const int x = m.add_variable(2.0, 2.0, 5.0);
  const int y = m.add_variable(0.0, 10.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}, {y, 1.0}}, 6.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 4.0, 1e-9);
}

TEST(SimplexTest, FreeVariableReachesNegativeOptimum) {
  // min x s.t. x >= -7 expressed as a row (variable itself unbounded).
  Model m;
  const int x = m.add_variable(-kInf, kInf, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, -7.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.x[0], -7.0, 1e-9);
}

TEST(SimplexTest, DuplicateCoefficientsAreSummed) {
  // Row written as x + x <= 4 should behave as 2x <= 4.
  Model m;
  const int x = m.add_variable(0.0, kInf, -1.0);
  m.add_row(Sense::less_equal, {{x, 1.0}, {x, 1.0}}, 4.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Multiple redundant constraints through the same vertex.
  Model m;
  const int x = m.add_variable(0.0, kInf, -1.0);
  const int y = m.add_variable(0.0, kInf, -1.0);
  m.add_row(Sense::less_equal, {{x, 1.0}, {y, 1.0}}, 2.0);
  m.add_row(Sense::less_equal, {{x, 1.0}, {y, 1.0}}, 2.0);
  m.add_row(Sense::less_equal, {{x, 2.0}, {y, 2.0}}, 4.0);
  m.add_row(Sense::less_equal, {{x, 1.0}}, 2.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityRows) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(0.0, 10.0, 2.0);
  m.add_row(Sense::equal, {{x, 1.0}, {y, 1.0}}, 4.0);
  m.add_row(Sense::equal, {{x, 2.0}, {y, 2.0}}, 8.0);  // same plane
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);  // x=4, y=0
}

TEST(SimplexTest, DifferenceConstraintChain) {
  // Shortest-path-like chain: x0 = 0 (fixed), x_{i+1} <= x_i + w.
  Model m;
  const int k = 6;
  std::vector<int> xs;
  xs.push_back(m.add_variable(0.0, 0.0, 0.0));
  for (int i = 1; i < k; ++i)
    xs.push_back(m.add_variable(-kInf, kInf, i == k - 1 ? -1.0 : 0.0));
  for (int i = 0; i + 1 < k; ++i)
    m.add_row(Sense::less_equal, {{xs[i + 1], 1.0}, {xs[i], -1.0}}, 2.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(xs[k - 1])], 2.0 * (k - 1), 1e-9);
}

TEST(SimplexTest, FixedColumnsAreNeverPriced) {
  // min -x s.t. x <= 4, plus `extra` fixed columns of cost -1.  A fixed
  // column cannot move, so pricing it would only spend zero-length bound
  // flips (and count them toward the Bland switch): the iteration count
  // must not grow with the number of fixed columns.
  const auto iterations_with = [](int extra) {
    Model m;
    const int x = m.add_variable(0.0, kInf, -1.0);
    m.add_row(Sense::less_equal, {{x, 1.0}}, 4.0);
    for (int j = 0; j < extra; ++j) m.add_variable(1.0, 1.0, -1.0);
    const Solution s = solve(m);
    EXPECT_EQ(s.status, Status::optimal);
    EXPECT_NEAR(s.objective, -4.0 - extra, 1e-9);
    return s.iterations;
  };
  const long base = iterations_with(0);
  EXPECT_EQ(iterations_with(10), base);
  EXPECT_EQ(iterations_with(50), base);
}

TEST(SimplexTest, ReoptimizeAfterInfeasibleColdSolve) {
  // A cold solve that ends in phase 1 leaves no basis to warm-start from;
  // re-optimizing after the bounds relax must still find the optimum.
  Model m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(Sense::greater_equal, {{x, 1.0}}, 2.0);
  Simplex simplex(m);
  EXPECT_EQ(simplex.solve().status, Status::infeasible);
  simplex.set_bounds(x, 0.0, 5.0);
  const Solution s = simplex.reoptimize();
  ASSERT_EQ(s.status, Status::optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// In-place re-optimization against cold solves.  Random boxed LPs go through
// a random depth-first sequence of bound tightenings and relaxations, as
// branch & bound drives them; after every step the warm tableau must agree
// with a cold solve at the same bounds.  The per-call iteration limit is set
// below what the whole sequence pivots, so accumulated pivots must never
// truncate a call.
// ---------------------------------------------------------------------------

class ReoptimizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ReoptimizeTest, MatchesColdSolveAlongDepthFirstSearch) {
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  Model m;
  const int nv = 3 + static_cast<int>(rng.next_below(6));  // 3..8 vars
  std::vector<double> point(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    const double lo = -static_cast<double>(rng.next_below(6));
    const double hi = 1.0 + static_cast<double>(rng.next_below(5));
    m.add_variable(lo, hi, std::round(rng.next_double(-3.0, 3.0)));
    point[static_cast<std::size_t>(j)] = rng.next_double(lo, hi);
  }
  // Rows pass through or around a random interior point, so the root is
  // feasible and branching decides feasibility below it.
  const int rows = 2 + static_cast<int>(rng.next_below(7));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    double activity = 0.0;
    for (int j = 0; j < nv; ++j) {
      const double a = std::round(rng.next_double(-3.0, 3.0));
      if (a == 0.0) continue;
      coeffs.push_back({j, a});
      activity += a * point[static_cast<std::size_t>(j)];
    }
    const std::uint64_t kind = rng.next_below(5);
    if (kind == 0)
      m.add_row(Sense::equal, coeffs, activity);
    else if (kind % 2 == 1)
      m.add_row(Sense::less_equal, coeffs, activity + rng.next_double(0, 2));
    else
      m.add_row(Sense::greater_equal, coeffs, activity - rng.next_double(0, 2));
  }

  SimplexOptions options;
  options.iteration_limit = 40;
  Model cold = m;
  Simplex warm(m, options);
  long pivots = 0;
  const auto check = [&](const Solution& w, int step) {
    const Solution c = solve(cold);
    ASSERT_EQ(w.status, c.status) << "step " << step;
    pivots += w.iterations;
    if (c.status != Status::optimal) return;
    EXPECT_NEAR(w.objective, c.objective, 1e-7) << "step " << step;
    EXPECT_LE(cold.infeasibility(w.x), 1e-6) << "step " << step;
  };
  check(warm.solve(), 0);

  struct Change {
    int var;
    double lo, hi;  // bounds before the change
  };
  std::vector<Change> path;
  for (int step = 1; step <= 80; ++step) {
    const bool relax =
        !path.empty() && (path.size() >= 6 || rng.next_below(3) == 0);
    if (relax) {
      const Change undo = path.back();
      path.pop_back();
      warm.set_bounds(undo.var, undo.lo, undo.hi);
      cold.set_bounds(undo.var, undo.lo, undo.hi);
    } else {
      const int var = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(nv)));
      const double lo = warm.lower(var);
      const double hi = warm.upper(var);
      if (lo == hi) continue;
      const double split = lo + static_cast<double>(rng.next_below(
                                         static_cast<std::uint64_t>(hi - lo)));
      path.push_back({var, lo, hi});
      const bool down = rng.next_below(2) == 0;
      const double new_lo = down ? lo : split + 1.0;
      const double new_hi = down ? split : hi;
      warm.set_bounds(var, new_lo, new_hi);
      cold.set_bounds(var, new_lo, new_hi);
    }
    check(warm.reoptimize(), step);
  }
  EXPECT_GT(pivots, options.iteration_limit);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReoptimizeTest, ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Randomized cross-check: small LPs validated against a dense grid search.
// The simplex objective must (a) be feasible and (b) not be worse than the
// best grid point by more than a grid-resolution tolerance.
// ---------------------------------------------------------------------------

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, BeatsGridSearch) {
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Model m;
  const int nv = 2 + static_cast<int>(rng.next_below(2));  // 2..3 vars
  std::vector<double> lo(static_cast<std::size_t>(nv)),
      hi(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    const auto js = static_cast<std::size_t>(j);
    lo[js] = std::floor(rng.next_double(-4.0, 0.0));
    hi[js] = std::ceil(rng.next_double(0.5, 4.0));
    m.add_variable(lo[js], hi[js], rng.next_double(-2.0, 2.0));
  }
  const int rows = 1 + static_cast<int>(rng.next_below(4));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    for (int j = 0; j < nv; ++j)
      coeffs.push_back({j, std::round(rng.next_double(-2.0, 2.0))});
    const Sense sense = rng.next_below(2) == 0 ? Sense::less_equal
                                               : Sense::greater_equal;
    m.add_row(sense, coeffs, rng.next_double(-3.0, 5.0));
  }

  const Solution s = solve(m);
  // Grid search at resolution `steps` per axis.
  const int steps = 60;
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> pt(static_cast<std::size_t>(nv));
  std::vector<int> idx(static_cast<std::size_t>(nv), 0);
  bool done = false;
  while (!done) {
    for (int j = 0; j < nv; ++j) {
      const auto js = static_cast<std::size_t>(j);
      pt[js] = lo[js] + (hi[js] - lo[js]) * idx[js] / steps;
    }
    if (m.infeasibility(pt) <= 1e-9) best = std::min(best, m.objective_value(pt));
    int j = 0;
    while (j < nv && ++idx[static_cast<std::size_t>(j)] > steps) {
      idx[static_cast<std::size_t>(j)] = 0;
      ++j;
    }
    done = j == nv;
  }

  if (!std::isfinite(best)) {
    // Grid found nothing; solver may legitimately find a feasible sliver,
    // but it must never claim infeasibility when the grid finds a point.
    return;
  }
  ASSERT_EQ(s.status, Status::optimal)
      << "grid found a feasible point but solver says otherwise";
  EXPECT_LE(m.infeasibility(s.x), 1e-6);
  EXPECT_LE(s.objective, best + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace clktune::lp
