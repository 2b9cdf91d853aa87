#include "stats.h"

#include <algorithm>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, unsigned percent) {
  if (percent == 0 || percent > 100)
    throw std::invalid_argument("percentile must be in 1..100");
  const std::size_t scaled = n * percent;
  return scaled / 100 + (scaled % 100 != 0 ? 1 : 0);
}

std::size_t samples_beyond(std::size_t n, unsigned percent) {
  return n - nearest_rank(n, percent);
}

Percentile rank_percentile(std::vector<double> samples, unsigned percent,
                           const std::string& what) {
  const std::size_t n = samples.size();
  const std::size_t beyond = n == 0 ? 0 : samples_beyond(n, percent);
  if (n == 0 || beyond < kMinBeyond)
    throw TooFewSamples(what + ": p" + std::to_string(percent) + " over " +
                        std::to_string(n) + " samples has " +
                        std::to_string(beyond) + " beyond it (need " +
                        std::to_string(kMinBeyond) + ")");
  const std::size_t rank = nearest_rank(n, percent);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return {samples[rank - 1], n, beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
