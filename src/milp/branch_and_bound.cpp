#include "milp/branch_and_bound.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace clktune::milp {
namespace {

class Solver {
 public:
  Solver(const lp::Model& model, const std::vector<int>& integer_vars,
         const Options& options)
      : model_(model),
        int_vars_(integer_vars),
        opt_(options),
        lp_(model, options.lp_options) {}

  Result run(const std::optional<Incumbent>& warm_start) {
    if (warm_start.has_value()) {
      CLKTUNE_EXPECTS(warm_start->x.size() ==
                      static_cast<std::size_t>(model_.num_variables()));
      best_ = *warm_start;
      have_best_ = true;
    }
    root_infeasible_ = false;
    root_unbounded_ = false;
    explore();
    Result result;
    result.nodes_explored = nodes_;
    if (root_unbounded_) {
      result.status = Status::unbounded;
      return result;
    }
    if (have_best_) {
      result.objective = best_.objective;
      result.x = best_.x;
      result.status = search_complete_ ? Status::optimal : Status::feasible;
    } else if (search_complete_) {
      result.status = Status::infeasible;
    } else {
      result.status = Status::node_limit;
    }
    return result;
  }

 private:
  // LP bound below which a node can still beat the incumbent.
  bool bound_can_improve(double lp_objective) const {
    if (!have_best_) return true;
    double bound = lp_objective;
    if (opt_.objective_is_integral)
      bound = std::ceil(lp_objective - 1e-6);
    return bound < best_.objective - opt_.absolute_gap;
  }

  void explore() {
    search_complete_ = true;
    recurse(0);
  }

  void recurse(int depth) {
    if (nodes_ >= opt_.max_nodes) {
      search_complete_ = false;
      return;
    }
    ++nodes_;
    // The first call (the root) solves cold; every later node re-optimizes
    // the tableau the previous node left, after its own bound changes.
    const lp::Solution relax = lp_.reoptimize();
    if (relax.status == lp::Status::infeasible) {
      if (depth == 0) root_infeasible_ = true;
      return;
    }
    if (relax.status == lp::Status::unbounded) {
      if (depth == 0) root_unbounded_ = true;
      // An unbounded relaxation deeper in the tree cannot prove integer
      // unboundedness here; treat as not explored.
      search_complete_ = depth == 0 ? search_complete_ : false;
      return;
    }
    if (relax.status == lp::Status::iteration_limit) {
      search_complete_ = false;
      return;
    }
    if (!bound_can_improve(relax.objective)) return;

    // Branch on the most fractional integer variable (distance to the
    // nearest integer closest to 1/2).
    int branch_var = -1;
    double branch_val = 0.0;
    double best_dist = opt_.integrality_tolerance;
    for (int v : int_vars_) {
      const double xv = relax.x[static_cast<std::size_t>(v)];
      const double frac = xv - std::floor(xv);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_dist) {
        best_dist = dist;
        branch_var = v;
        branch_val = xv;
      }
    }
    if (branch_var < 0) {
      // Integer feasible: round integer vars exactly and accept.
      Incumbent cand;
      cand.x = relax.x;
      for (int v : int_vars_) {
        const auto vs = static_cast<std::size_t>(v);
        cand.x[vs] = std::round(cand.x[vs]);
      }
      cand.objective = model_.objective_value(cand.x);
      if (!have_best_ || cand.objective < best_.objective - opt_.absolute_gap) {
        best_ = std::move(cand);
        have_best_ = true;
      }
      return;
    }

    const double old_lo = lp_.lower(branch_var);
    const double old_hi = lp_.upper(branch_var);
    const double floor_val = std::floor(branch_val);
    const double ceil_val = floor_val + 1.0;

    // Plunge toward the nearer integer first.
    const bool down_first = branch_val - floor_val <= 0.5;
    for (int pass = 0; pass < 2; ++pass) {
      const bool down = down_first == (pass == 0);
      if (down) {
        if (floor_val < old_lo - 1e-9) continue;
        lp_.set_bounds(branch_var, old_lo, std::min(old_hi, floor_val));
      } else {
        if (ceil_val > old_hi + 1e-9) continue;
        lp_.set_bounds(branch_var, std::max(old_lo, ceil_val), old_hi);
      }
      recurse(depth + 1);
      lp_.set_bounds(branch_var, old_lo, old_hi);
    }
  }

  const lp::Model& model_;
  const std::vector<int>& int_vars_;
  Options opt_;
  lp::Simplex lp_;  // the one tableau of this search
  Incumbent best_;
  bool have_best_ = false;
  bool search_complete_ = true;
  bool root_infeasible_ = false;
  bool root_unbounded_ = false;
  long nodes_ = 0;
};

}  // namespace

Result solve(const lp::Model& model, const std::vector<int>& integer_vars,
             const Options& options,
             const std::optional<Incumbent>& warm_start) {
  Solver solver(model, integer_vars, options);
  return solver.run(warm_start);
}

}  // namespace clktune::milp
