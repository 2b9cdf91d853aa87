#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace clktune::lp {

Simplex::Simplex(const Model& model, const SimplexOptions& options)
    : model_(model),
      opt_(options),
      n_(model.num_variables()),
      m_(model.num_rows()) {
  const auto nm = static_cast<std::size_t>(n_ + m_);
  lower_.resize(nm);
  upper_.resize(nm);
  for (int j = 0; j < n_; ++j) {
    lower_[static_cast<std::size_t>(j)] = model.lower(j);
    upper_[static_cast<std::size_t>(j)] = model.upper(j);
  }
  // Slack variable bounds encode the row sense:  a'x + s = b.
  for (int i = 0; i < m_; ++i) {
    const auto sj = static_cast<std::size_t>(n_ + i);
    switch (model.rows()[static_cast<std::size_t>(i)].sense) {
      case Sense::less_equal:
        lower_[sj] = 0.0;
        upper_[sj] = kInf;
        break;
      case Sense::greater_equal:
        lower_[sj] = -kInf;
        upper_[sj] = 0.0;
        break;
      case Sense::equal:
        lower_[sj] = 0.0;
        upper_[sj] = 0.0;
        break;
    }
  }
}

void Simplex::set_bounds(int var, double lo, double hi) {
  CLKTUNE_EXPECTS(var >= 0 && var < n_ && lo <= hi);
  lower_[static_cast<std::size_t>(var)] = lo;
  upper_[static_cast<std::size_t>(var)] = hi;
}

Solution Simplex::solve() {
  iterations_ = 0;
  warm_ = false;
  build();
  const auto nm = static_cast<std::size_t>(n_ + m_);
  if (cols_ > nm) {
    // Phase 1: minimise the sum of the artificial variables.
    compute_reduced_costs(/*phase1=*/true);
    const Status s = primal();
    if (s == Status::iteration_limit) return finish(s);
    double infeasibility = 0.0;
    for (std::size_t j = nm; j < cols_; ++j) infeasibility += value_[j];
    if (infeasibility > opt_.feasibility_tolerance)
      return finish(Status::infeasible);
    pivot_out_artificials();
    drop_artificials();
  }
  warm_ = true;
  // Phase 2: original objective.
  compute_reduced_costs(/*phase1=*/false);
  return finish(primal());
}

Solution Simplex::reoptimize() {
  if (!warm_) return solve();
  iterations_ = 0;
  park_nonbasics();
  Status s = dual();
  if (s == Status::optimal) s = primal();
  return finish(s);
}

Solution Simplex::finish(Status status) const {
  Solution sol;
  sol.status = status;
  sol.iterations = iterations_;
  if (status == Status::optimal) {
    sol.x.assign(value_.begin(), value_.begin() + n_);
    sol.objective = model_.objective_value(sol.x);
  }
  return sol;
}

double Simplex::cost(std::size_t j, bool phase1) const {
  if (phase1) return j >= static_cast<std::size_t>(n_ + m_) ? 1.0 : 0.0;
  return j < static_cast<std::size_t>(n_) ? model_.cost(static_cast<int>(j))
                                          : 0.0;
}

void Simplex::init_nonbasic(std::size_t j) {
  if (std::isfinite(lower_[j])) {
    status_[j] = VarStatus::at_lower;
    value_[j] = lower_[j];
  } else if (std::isfinite(upper_[j])) {
    status_[j] = VarStatus::at_upper;
    value_[j] = upper_[j];
  } else {
    status_[j] = VarStatus::free_zero;
    value_[j] = 0.0;
  }
}

void Simplex::build() {
  const auto nm = static_cast<std::size_t>(n_ + m_);
  // Forget the artificials of an earlier cold solve.
  lower_.resize(nm);
  upper_.resize(nm);
  value_.assign(nm, 0.0);
  status_.assign(nm, VarStatus::at_lower);
  for (std::size_t j = 0; j < nm; ++j) init_nonbasic(j);

  // Crash basis: the slack takes the residual of its row at the initial
  // nonbasic point when its bounds allow; other rows get an artificial.
  std::vector<double> residual(static_cast<std::size_t>(m_));
  std::size_t artificials = 0;
  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const Row& row = model_.rows()[is];
    double activity = 0.0;
    for (const Coefficient& cf : row.coefficients)
      activity += cf.value * value_[static_cast<std::size_t>(cf.var)];
    residual[is] = row.rhs - activity;
    const auto sj = static_cast<std::size_t>(n_ + i);
    if (residual[is] < lower_[sj] || residual[is] > upper_[sj]) ++artificials;
  }

  cols_ = nm + artificials;
  tableau_.assign(static_cast<std::size_t>(m_) * cols_, 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  lower_.resize(cols_, 0.0);
  upper_.resize(cols_, kInf);
  value_.resize(cols_, 0.0);
  status_.resize(cols_, VarStatus::basic);
  std::size_t aj = nm;
  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const Row& row = model_.rows()[is];
    const auto sj = static_cast<std::size_t>(n_ + i);
    if (residual[is] >= lower_[sj] && residual[is] <= upper_[sj]) {
      for (const Coefficient& cf : row.coefficients)
        tab(i, static_cast<std::size_t>(cf.var)) += cf.value;
      tab(i, sj) = 1.0;
      status_[sj] = VarStatus::basic;
      value_[sj] = residual[is];
      basis_[is] = static_cast<int>(sj);
      continue;
    }
    // Tableau row = sign * original row, so the artificial column is +1
    // and the artificial starts at |excess| >= 0.
    const double excess = residual[is] - value_[sj];
    const double sign = excess >= 0.0 ? 1.0 : -1.0;
    for (const Coefficient& cf : row.coefficients)
      tab(i, static_cast<std::size_t>(cf.var)) += sign * cf.value;
    tab(i, sj) = sign;
    tab(i, aj) = 1.0;
    value_[aj] = std::abs(excess);
    basis_[is] = static_cast<int>(aj);
    ++aj;
  }
}

// Reduced costs d_j = c_j - c_B' * (B^-1 A_j) from scratch; pivot() keeps
// them current afterwards.
void Simplex::compute_reduced_costs(bool phase1) {
  reduced_.resize(cols_);
  for (std::size_t j = 0; j < cols_; ++j) reduced_[j] = cost(j, phase1);
  for (int i = 0; i < m_; ++i) {
    const double cb =
        cost(static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]),
             phase1);
    if (cb == 0.0) continue;
    const double* row = &tableau_[static_cast<std::size_t>(i) * cols_];
    for (std::size_t j = 0; j < cols_; ++j) reduced_[j] -= cb * row[j];
  }
  for (std::size_t j = 0; j < cols_; ++j)
    if (status_[j] == VarStatus::basic) reduced_[j] = 0.0;
}

bool Simplex::eligible_entering(std::size_t j) const {
  if (lower_[j] == upper_[j]) return false;  // a fixed column cannot move
  const double d = reduced_[j];
  switch (status_[j]) {
    case VarStatus::at_lower:
      return d < -opt_.cost_tolerance;
    case VarStatus::at_upper:
      return d > opt_.cost_tolerance;
    case VarStatus::free_zero:
      return std::abs(d) > opt_.cost_tolerance;
    case VarStatus::basic:
      return false;
  }
  return false;
}

Status Simplex::primal() {
  int stall = 0;
  while (true) {
    if (++iterations_ > opt_.iteration_limit) return Status::iteration_limit;

    const bool bland = stall >= opt_.stall_threshold;
    std::size_t ej = cols_;
    double best_score = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (!eligible_entering(j)) continue;
      if (bland) {
        ej = j;
        break;
      }
      const double score = std::abs(reduced_[j]);
      if (score > best_score) {
        best_score = score;
        ej = j;
      }
    }
    if (ej == cols_) return Status::optimal;

    // Direction of change for the entering variable.
    double dir = 0.0;
    if (status_[ej] == VarStatus::at_lower)
      dir = 1.0;
    else if (status_[ej] == VarStatus::at_upper)
      dir = -1.0;
    else
      dir = reduced_[ej] < 0.0 ? 1.0 : -1.0;  // free variable moves downhill

    // Ratio test.
    double limit = kInf;
    int leave_row = -1;
    bool leave_at_upper = false;
    // Bound flip limit for the entering variable itself.
    if (std::isfinite(lower_[ej]) && std::isfinite(upper_[ej]))
      limit = upper_[ej] - lower_[ej];
    for (int i = 0; i < m_; ++i) {
      const double alpha = tab(i, ej);
      const double rate = -alpha * dir;  // d(basic_i)/dt
      if (std::abs(rate) <= opt_.pivot_tolerance) continue;
      const int bv = basis_[static_cast<std::size_t>(i)];
      const auto bs = static_cast<std::size_t>(bv);
      double t = kInf;
      bool hits_upper = false;
      if (rate > 0.0) {
        if (std::isfinite(upper_[bs])) {
          t = (upper_[bs] - value_[bs]) / rate;
          hits_upper = true;
        }
      } else {
        if (std::isfinite(lower_[bs])) t = (value_[bs] - lower_[bs]) / -rate;
      }
      t = std::max(t, 0.0);
      const bool tie = std::abs(t - limit) <= 1e-12;
      const bool better =
          t < limit - 1e-12 ||
          (tie && leave_row >= 0 &&
           (bland ? bv < basis_[static_cast<std::size_t>(leave_row)]
                  : std::abs(alpha) > std::abs(tab(leave_row, ej))));
      if (better || (t < limit && leave_row < 0)) {
        limit = t;
        leave_row = i;
        leave_at_upper = hits_upper;
      }
    }

    if (!std::isfinite(limit)) return Status::unbounded;
    stall = limit <= opt_.feasibility_tolerance ? stall + 1 : 0;

    shift(ej, dir * limit);

    if (leave_row < 0) {
      // Bound flip: the entering variable traverses to its other bound.
      status_[ej] = status_[ej] == VarStatus::at_lower ? VarStatus::at_upper
                                                       : VarStatus::at_lower;
      // Snap exactly to the bound to avoid drift.
      value_[ej] = status_[ej] == VarStatus::at_lower ? lower_[ej] : upper_[ej];
      continue;
    }

    // Pivot: entering becomes basic in leave_row.
    const auto ls =
        static_cast<std::size_t>(basis_[static_cast<std::size_t>(leave_row)]);
    status_[ls] = leave_at_upper ? VarStatus::at_upper : VarStatus::at_lower;
    value_[ls] = leave_at_upper ? upper_[ls] : lower_[ls];
    pivot(leave_row, ej);
  }
}

// Bounded dual simplex: the basis is dual feasible (up to tolerance) and
// stays so; each step moves one primal-infeasible basic variable to the
// bound it violates.  A row whose nonbasics all sit at the bounds that push
// its basic variable hardest toward feasibility proves the LP infeasible.
Status Simplex::dual() {
  int stall = 0;
  while (true) {
    const bool bland = stall >= opt_.stall_threshold;
    int row = -1;
    double worst = opt_.feasibility_tolerance;
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const auto bs = static_cast<std::size_t>(b);
      const double violation =
          std::max(lower_[bs] - value_[bs], value_[bs] - upper_[bs]);
      if (violation <= opt_.feasibility_tolerance) continue;
      if (bland) {
        if (row < 0 || b < basis_[static_cast<std::size_t>(row)]) row = i;
      } else if (violation > worst) {
        worst = violation;
        row = i;
      }
    }
    if (row < 0) return Status::optimal;  // primal feasible
    if (++iterations_ > opt_.iteration_limit) return Status::iteration_limit;

    const auto bs =
        static_cast<std::size_t>(basis_[static_cast<std::size_t>(row)]);
    const bool below = value_[bs] < lower_[bs];
    const double target = below ? lower_[bs] : upper_[bs];
    // x_b = beta - sum_j alpha_j x_j: a candidate moves x_b toward target
    // within its own bounds; the ratio |d_j / alpha_j| says how far the
    // duals can move before d_j changes sign.
    const double toward = below ? 1.0 : -1.0;
    std::size_t ej = cols_;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (status_[j] == VarStatus::basic || lower_[j] == upper_[j]) continue;
      const double alpha = tab(row, j);
      if (std::abs(alpha) <= opt_.pivot_tolerance) continue;
      double room = 0.0;  // how far d_j is from the wrong sign
      if (status_[j] == VarStatus::at_lower) {
        if (toward * alpha >= 0.0) continue;
        room = std::max(reduced_[j], 0.0);
      } else if (status_[j] == VarStatus::at_upper) {
        if (toward * alpha <= 0.0) continue;
        room = std::max(-reduced_[j], 0.0);
      } else {
        room = std::abs(reduced_[j]);
      }
      const double ratio = room / std::abs(alpha);
      const bool better =
          ratio < best_ratio - 1e-12 ||
          (!bland && std::abs(ratio - best_ratio) <= 1e-12 &&
           std::abs(alpha) > best_alpha);
      if (ej == cols_ || better) {
        ej = j;
        best_ratio = ratio;
        best_alpha = std::abs(alpha);
      }
    }
    if (ej == cols_) return Status::infeasible;
    stall = best_ratio <= opt_.cost_tolerance ? stall + 1 : 0;

    shift(ej, (value_[bs] - target) / tab(row, ej));
    status_[bs] = below ? VarStatus::at_lower : VarStatus::at_upper;
    value_[bs] = target;
    pivot(row, ej);
  }
}

// Moves x_j by delta and the basic variables with it: x_B -= B^-1 A_j delta.
void Simplex::shift(std::size_t j, double delta) {
  if (delta == 0.0) return;
  for (int i = 0; i < m_; ++i) {
    const int bv = basis_[static_cast<std::size_t>(i)];
    value_[static_cast<std::size_t>(bv)] -= tab(i, j) * delta;
  }
  value_[j] += delta;
}

// Puts every nonbasic variable on a bound of its current box.  A boxed one
// goes to the bound its reduced cost favours (ties keep their side), which
// is what keeps the basis dual feasible when branching flips a bound.
void Simplex::park_nonbasics() {
  for (std::size_t j = 0; j < cols_; ++j) {
    if (status_[j] == VarStatus::basic) continue;
    const double lo = lower_[j];
    const double hi = upper_[j];
    VarStatus side = VarStatus::free_zero;
    if (std::isfinite(lo) && std::isfinite(hi)) {
      if (lo == hi || reduced_[j] > opt_.cost_tolerance)
        side = VarStatus::at_lower;
      else if (reduced_[j] < -opt_.cost_tolerance)
        side = VarStatus::at_upper;
      else
        side = status_[j] == VarStatus::at_upper ? VarStatus::at_upper
                                                 : VarStatus::at_lower;
    } else if (std::isfinite(lo)) {
      side = VarStatus::at_lower;
    } else if (std::isfinite(hi)) {
      side = VarStatus::at_upper;
    }
    const double to = side == VarStatus::at_lower   ? lo
                      : side == VarStatus::at_upper ? hi
                                                    : 0.0;
    status_[j] = side;
    shift(j, to - value_[j]);
    value_[j] = to;  // exactly on the bound
  }
}

// Gauss-Jordan step on the tableau and the reduced costs.  Only the pivot
// row's nonzeros can change another row, and on these models it is sparse.
void Simplex::pivot(int row, std::size_t col) {
  basis_[static_cast<std::size_t>(row)] = static_cast<int>(col);
  status_[col] = VarStatus::basic;
  double* const prow = &tableau_[static_cast<std::size_t>(row) * cols_];
  const double piv = prow[col];
  CLKTUNE_ASSERT(std::abs(piv) > opt_.pivot_tolerance);
  const double inv = 1.0 / piv;
  pivot_nonzeros_.clear();
  for (std::size_t j = 0; j < cols_; ++j) {
    if (prow[j] == 0.0) continue;
    prow[j] *= inv;
    pivot_nonzeros_.push_back(j);
  }
  prow[col] = 1.0;
  const auto eliminate = [&](double* target) {
    const double factor = target[col];
    if (std::abs(factor) <= 1e-14) {
      target[col] = 0.0;
      return;
    }
    for (const std::size_t j : pivot_nonzeros_) target[j] -= factor * prow[j];
    target[col] = 0.0;
  };
  for (int i = 0; i < m_; ++i)
    if (i != row) eliminate(&tableau_[static_cast<std::size_t>(i) * cols_]);
  eliminate(reduced_.data());
}

// Drive artificials that linger in the basis (at value ~0 after a feasible
// phase 1) out via degenerate pivots where possible.
void Simplex::pivot_out_artificials() {
  const auto nm = static_cast<std::size_t>(n_ + m_);
  for (int i = 0; i < m_; ++i) {
    const auto bs =
        static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
    if (bs < nm) continue;  // not artificial
    std::size_t enter = nm;
    for (std::size_t j = 0; j < nm; ++j) {
      if (status_[j] == VarStatus::basic) continue;
      if (std::abs(tab(i, j)) > 1e-7) {
        enter = j;
        break;
      }
    }
    if (enter == nm) continue;  // redundant row; artificial stays pinned at 0
    // Degenerate pivot: values do not change (artificial is at 0).
    status_[bs] = VarStatus::at_lower;
    value_[bs] = 0.0;
    pivot(i, enter);
  }
}

// Fixes every artificial at 0 and drops their columns: none can re-enter,
// and one still basic on a redundant row keeps only its row.
void Simplex::drop_artificials() {
  const auto nm = static_cast<std::size_t>(n_ + m_);
  for (std::size_t j = nm; j < cols_; ++j) {
    lower_[j] = 0.0;
    upper_[j] = 0.0;
    if (status_[j] != VarStatus::basic) {
      status_[j] = VarStatus::at_lower;
      value_[j] = 0.0;
    }
  }
  for (int i = 1; i < m_; ++i)
    std::copy_n(&tableau_[static_cast<std::size_t>(i) * cols_], nm,
                &tableau_[static_cast<std::size_t>(i) * nm]);
  tableau_.resize(static_cast<std::size_t>(m_) * nm);
  cols_ = nm;
}

double Model::infeasibility(std::span<const double> x) const {
  CLKTUNE_EXPECTS(x.size() == static_cast<std::size_t>(num_variables()));
  double worst = 0.0;
  for (int j = 0; j < num_variables(); ++j) {
    const auto js = static_cast<std::size_t>(j);
    worst = std::max(worst, lower_[js] - x[js]);
    worst = std::max(worst, x[js] - upper_[js]);
  }
  for (const Row& row : rows_) {
    double activity = 0.0;
    for (const Coefficient& cf : row.coefficients)
      activity += cf.value * x[static_cast<std::size_t>(cf.var)];
    switch (row.sense) {
      case Sense::less_equal:
        worst = std::max(worst, activity - row.rhs);
        break;
      case Sense::greater_equal:
        worst = std::max(worst, row.rhs - activity);
        break;
      case Sense::equal:
        worst = std::max(worst, std::abs(activity - row.rhs));
        break;
    }
  }
  return worst;
}

Solution solve(const Model& model, const SimplexOptions& options) {
  return Simplex(model, options).solve();
}

}  // namespace clktune::lp
