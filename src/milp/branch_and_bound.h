// Mixed-integer linear programming by LP-based branch & bound.
//
// This is the "ILP solver" role that Gurobi plays in the paper.  The flow's
// per-sample models (minimise buffer count; concentrate tuning values) are
// solved exactly: depth-first plunge with best-first node ordering on ties,
// most-fractional branching, and ceil-rounding bound pruning when the
// objective is known to be integral (both paper objectives are, in step
// units).  A warm-start incumbent (from the greedy feasibility heuristic)
// makes pruning effective from the first node.
//
// One search keeps one `lp::Simplex` tableau.  The root is a cold solve from
// a slack crash basis; every other node writes its branching bounds into that
// tableau and re-optimizes it in place (bounded dual simplex, then a primal
// clean-up), starting from whatever basis the previous node left.  Nothing is
// copied per node or per depth level, so memory stays one tableau per search.
#pragma once

#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace clktune::milp {

enum class Status {
  optimal,     // proven optimal integer solution
  feasible,    // integer solution found, search truncated by limits
  infeasible,  // no integer-feasible point exists
  unbounded,
  node_limit,  // search truncated with no solution found
};

struct Options {
  double integrality_tolerance = 1e-6;
  long max_nodes = 200000;
  /// When true, objective values are integers for every integer-feasible
  /// point, enabling ceil() pruning of fractional LP bounds.
  bool objective_is_integral = false;
  double absolute_gap = 1e-9;
  lp::SimplexOptions lp_options;
};

struct Incumbent {
  double objective = 0.0;
  std::vector<double> x;
};

struct Result {
  Status status = Status::node_limit;
  double objective = 0.0;
  std::vector<double> x;
  long nodes_explored = 0;
};

/// Solves `model` with the given variables restricted to integers.  Branching
/// bounds live in the search's tableau; the model is only read.
/// `warm_start`, when given, must be integer feasible; it seeds the
/// incumbent.
Result solve(const lp::Model& model, const std::vector<int>& integer_vars,
             const Options& options = {},
             const std::optional<Incumbent>& warm_start = std::nullopt);

}  // namespace clktune::milp
