#include "feas/tuning_plan.h"

#include <algorithm>
#include <limits>

namespace clktune::feas {

std::vector<BufferWindow> TuningPlan::group_windows() const {
  CLKTUNE_EXPECTS(group_of.size() == buffers.size());
  std::vector<BufferWindow> windows(
      static_cast<std::size_t>(num_groups),
      BufferWindow{-1, std::numeric_limits<int>::max(),
                   std::numeric_limits<int>::min()});
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const int g = group_of[i];
    CLKTUNE_EXPECTS(g >= 0 && g < num_groups);
    BufferWindow& w = windows[static_cast<std::size_t>(g)];
    if (w.ff < 0) w.ff = buffers[i].ff;
    w.k_lo = std::min(w.k_lo, buffers[i].k_lo);
    w.k_hi = std::max(w.k_hi, buffers[i].k_hi);
  }
  for (const BufferWindow& w : windows) CLKTUNE_ENSURES(w.ff >= 0);
  return windows;
}

double TuningPlan::average_range() const {
  if (num_groups == 0) return 0.0;
  double sum = 0.0;
  for (const BufferWindow& w : group_windows()) sum += w.range();
  return sum / num_groups;
}

}  // namespace clktune::feas
