// Linear-program container shared by the simplex solver and the MILP layer.
//
// A model is   minimise  c'x   subject to   rows (<=, >=, =) rhs,
//                                           lo <= x <= hi.
// Rows are stored sparsely.  Variable bounds may be +-infinity.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace clktune::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { less_equal, greater_equal, equal };

struct Coefficient {
  int var = 0;
  double value = 0.0;
};

struct Row {
  Sense sense = Sense::less_equal;
  double rhs = 0.0;
  std::vector<Coefficient> coefficients;
};

class Model {
 public:
  /// Adds a variable and returns its index.
  int add_variable(double lo, double hi, double cost,
                   std::string name = std::string()) {
    CLKTUNE_EXPECTS(lo <= hi);
    lower_.push_back(lo);
    upper_.push_back(hi);
    cost_.push_back(cost);
    names_.push_back(std::move(name));
    return static_cast<int>(lower_.size()) - 1;
  }

  /// Adds a constraint row; duplicate variable entries are allowed and are
  /// summed by the solver.
  int add_row(Sense sense, std::vector<Coefficient> coefficients, double rhs) {
    rows_.push_back(Row{sense, rhs, std::move(coefficients)});
    return static_cast<int>(rows_.size()) - 1;
  }

  void set_bounds(int var, double lo, double hi) {
    CLKTUNE_EXPECTS(lo <= hi);
    lower_.at(static_cast<size_t>(var)) = lo;
    upper_.at(static_cast<size_t>(var)) = hi;
  }

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double lower(int var) const { return lower_[static_cast<size_t>(var)]; }
  double upper(int var) const { return upper_[static_cast<size_t>(var)]; }
  double cost(int var) const { return cost_[static_cast<size_t>(var)]; }
  const std::string& name(int var) const {
    return names_[static_cast<size_t>(var)];
  }
  const std::vector<Row>& rows() const { return rows_; }

  /// Objective value of an assignment (no feasibility check).
  double objective_value(std::span<const double> x) const {
    CLKTUNE_EXPECTS(x.size() == lower_.size());
    double obj = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) obj += cost_[j] * x[j];
    return obj;
  }

  /// Max constraint/bound violation of an assignment (for tests/diagnostics).
  double infeasibility(std::span<const double> x) const;

 private:
  std::vector<double> lower_, upper_, cost_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace clktune::lp
