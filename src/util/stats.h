// Online statistics: Welford mean/variance, min/max tracking, a streaming
// Pearson correlation, and binomial confidence intervals for yields.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

namespace clktune::util {

/// Numerically stable running mean / variance / extremes (Welford).
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Pearson correlation over a streamed sequence of (x, y) pairs.
class OnlineCorrelation {
 public:
  void add(double x, double y) {
    ++n_;
    const double inv = 1.0 / static_cast<double>(n_);
    const double dx = x - mean_x_;
    const double dy = y - mean_y_;
    mean_x_ += dx * inv;
    mean_y_ += dy * inv;
    m2x_ += dx * (x - mean_x_);
    m2y_ += dy * (y - mean_y_);
    cxy_ += dx * (y - mean_y_);
  }

  std::size_t count() const { return n_; }

  /// Returns 0 when either variable is (numerically) constant.
  double correlation() const {
    const double denom = std::sqrt(m2x_ * m2y_);
    if (denom <= 1e-300) return 0.0;
    return cxy_ / denom;
  }

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0, mean_y_ = 0.0;
  double m2x_ = 0.0, m2y_ = 0.0, cxy_ = 0.0;
};

/// Normal-approximation half-width of a 95 % confidence interval for a
/// binomial proportion estimated from n trials.
inline double yield_ci95(double p, std::size_t n) {
  if (n == 0) return 1.0;
  return 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

}  // namespace clktune::util
