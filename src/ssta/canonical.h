// First-order canonical delay form (Visweswariah et al. [3], which the paper
// cites as the mechanism that folds process variation into the pairwise
// delays d_ij):
//
//   d = mu + sum_p a_p * z_p + a_loc * z_loc
//
// with z_p chip-global standard normals (shared across all delays) and z_loc
// an independent local term.  Serial composition adds means and global
// sensitivities and RSS-combines local terms; max/min use Clark's moment
// matching with the residual variance folded into a_loc.
#pragma once

#include <array>
#include <cmath>

#include "netlist/cell_library.h"

namespace clktune::ssta {

inline constexpr int kParams = netlist::kNumGlobalParams;

struct Canon {
  double mu = 0.0;
  std::array<double, kParams> a{};
  double aloc = 0.0;

  double variance() const {
    double v = aloc * aloc;
    for (double ai : a) v += ai * ai;
    return v;
  }
  double sigma() const { return std::sqrt(variance()); }

  /// Covariance with another canonical form (locals independent).
  double covariance(const Canon& other) const {
    double c = 0.0;
    for (int p = 0; p < kParams; ++p)
      c += a[static_cast<std::size_t>(p)] *
           other.a[static_cast<std::size_t>(p)];
    return c;
  }

  /// Serial composition (path concatenation).
  Canon& operator+=(const Canon& other) {
    mu += other.mu;
    for (int p = 0; p < kParams; ++p)
      a[static_cast<std::size_t>(p)] += other.a[static_cast<std::size_t>(p)];
    aloc = std::sqrt(aloc * aloc + other.aloc * other.aloc);
    return *this;
  }
  friend Canon operator+(Canon lhs, const Canon& rhs) { return lhs += rhs; }

  /// Sample realisation given global draws and this delay's local draw.
  double eval(const std::array<double, kParams>& z_global,
              double z_local) const {
    double d = mu + aloc * z_local;
    for (int p = 0; p < kParams; ++p)
      d += a[static_cast<std::size_t>(p)] * z_global[static_cast<std::size_t>(p)];
    return d;
  }
};

/// Canonical max via Clark's two-moment matching; the variance not explained
/// by the blended global sensitivities is assigned to the local term.
Canon clark_max(const Canon& x, const Canon& y);

/// Canonical min: -max(-x, -y).
Canon clark_min(const Canon& x, const Canon& y);

/// Standard normal CDF / PDF helpers (exposed for tests).
double normal_cdf(double x);
double normal_pdf(double x);

}  // namespace clktune::ssta
