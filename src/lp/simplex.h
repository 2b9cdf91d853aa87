// Bounded-variable simplex on a dense tableau that outlives one solve.
//
// Replaces the commercial ILP solver used in the paper (Gurobi [6]) as the LP
// engine underneath branch & bound.  The per-sample models produced by the
// insertion flow are small (tens of variables after component reduction), so
// a dense full tableau is both simple and fast enough; correctness is what
// matters and is covered by randomized comparison tests against brute force
// and against cold solves.
//
// A `Simplex` keeps one tableau for one model:
//  - `solve()` is the cold two-phase method.  It starts from a slack crash
//    basis: a row whose slack absorbs its residual at the initial nonbasic
//    point starts with that slack basic and gets no artificial; phase 1
//    minimises the sum of the artificials of the remaining rows, which are
//    then dropped from the tableau.
//  - `set_bounds` + `reoptimize()` re-solve in place after bound changes.
//    Every nonbasic boxed variable is parked at the bound its reduced cost
//    favours, which keeps the basis dual feasible; a bounded dual simplex
//    restores primal feasibility and a primal pass cleans up.  Branch &
//    bound re-optimizes one tableau at every node of its search.
// Pricing never considers fixed columns (lo == hi): they cannot move.  Both
// methods switch to Bland's rule after `stall_threshold` degenerate steps.
#pragma once

#include <vector>

#include "lp/model.h"

namespace clktune::lp {

enum class Status {
  optimal,
  infeasible,
  unbounded,
  iteration_limit,
};

struct Solution {
  Status status = Status::iteration_limit;
  double objective = 0.0;
  std::vector<double> x;  // structural variables only
  long iterations = 0;
};

struct SimplexOptions {
  double pivot_tolerance = 1e-9;
  double feasibility_tolerance = 1e-7;
  double cost_tolerance = 1e-9;
  /// Applies to each solve() / reoptimize() call on its own.
  long iteration_limit = 50000;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int stall_threshold = 40;
};

class Simplex {
 public:
  /// Copies the model's bounds and reads its rows; `model` must outlive the
  /// solver.
  explicit Simplex(const Model& model, const SimplexOptions& options = {});

  /// Cold two-phase solve at the current bounds.
  Solution solve();
  /// Re-solves at the current bounds from the basis the last call left;
  /// a cold solve while there is none (before the first call, or when phase
  /// 1 did not finish).
  Solution reoptimize();

  /// Bounds of structural variable `var` for the next (re)solve.
  void set_bounds(int var, double lo, double hi);
  double lower(int var) const { return lower_[static_cast<std::size_t>(var)]; }
  double upper(int var) const { return upper_[static_cast<std::size_t>(var)]; }

 private:
  enum class VarStatus : unsigned char { basic, at_lower, at_upper, free_zero };

  double& tab(int row, std::size_t col) {
    return tableau_[static_cast<std::size_t>(row) * cols_ + col];
  }
  double tab(int row, std::size_t col) const {
    return tableau_[static_cast<std::size_t>(row) * cols_ + col];
  }
  double cost(std::size_t j, bool phase1) const;
  void build();
  void init_nonbasic(std::size_t j);
  void compute_reduced_costs(bool phase1);
  bool eligible_entering(std::size_t j) const;
  void shift(std::size_t j, double delta);
  void park_nonbasics();
  Status primal();
  Status dual();
  void pivot(int row, std::size_t col);
  void pivot_out_artificials();
  void drop_artificials();
  Solution finish(Status status) const;

  const Model& model_;
  SimplexOptions opt_;
  int n_ = 0, m_ = 0;
  // Column layout: structurals [0, n), slacks [n, n+m), then during phase 1
  // one artificial per row the crash basis left uncovered.  The tableau
  // holds B^-1 A for the first `cols_` columns; an artificial that stays
  // basic on a redundant row keeps its bounds, value and status only.
  std::size_t cols_ = 0;
  std::vector<double> tableau_;
  std::vector<double> lower_, upper_, value_;
  std::vector<double> reduced_;  // maintained by pivot()
  std::vector<VarStatus> status_;
  std::vector<int> basis_;
  std::vector<std::size_t> pivot_nonzeros_;
  long iterations_ = 0;
  bool warm_ = false;  // a phase-2 basis exists
};

/// Cold solve: `Simplex(model, options).solve()`.
Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace clktune::lp
