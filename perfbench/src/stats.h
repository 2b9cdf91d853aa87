// Order statistics over exact per-request and per-round timings.
//
// Percentiles are taken by nearest rank from the raw samples, never from a
// bucketed histogram, and only where enough samples lie beyond them for
// the figure to be stable: a p99 over 200 samples is two data points, so
// it is refused instead of reported.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Thrown when a percentile lacks kMinBeyond samples beyond it.
class TooFewSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
/// ceil(q * n), computed without floating-point rounding surprises for
/// the q values used here (q given in percent).
std::size_t nearest_rank(std::size_t n, unsigned percent);

/// Samples that lie beyond the nearest-rank percentile: n - rank.
std::size_t samples_beyond(std::size_t n, unsigned percent);

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples ranked above the reported one
};

/// The `percent`-th percentile of `samples` by nearest rank.  Throws
/// TooFewSamples when fewer than kMinBeyond samples lie beyond it; `what`
/// names the series in the message.
Percentile rank_percentile(std::vector<double> samples, unsigned percent,
                           const std::string& what);

/// Median (mean of the two middle values for even n); 0 when empty.
double median(std::vector<double> values);

}  // namespace perfbench
