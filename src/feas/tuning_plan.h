// The output artifact of buffer insertion: which flip-flops carry a tuning
// buffer, each buffer's discrete window, and how buffers are grouped into
// shared physical buffers.
#pragma once

#include <vector>

#include "util/assert.h"

namespace clktune::feas {

/// One tuning buffer on flip-flop `ff` with discrete window
/// [k_lo, k_hi] in step units (delay = k * step_ps).
struct BufferWindow {
  int ff = 0;
  int k_lo = 0;
  int k_hi = 0;

  int range() const { return k_hi - k_lo; }
};

struct TuningPlan {
  double step_ps = 1.0;
  std::vector<BufferWindow> buffers;
  /// Group id per buffer (same id = one shared physical buffer whose delay
  /// all members see).  Identity when ungrouped.
  std::vector<int> group_of;
  int num_groups = 0;

  bool empty() const { return buffers.empty(); }

  /// Number of physical buffers (groups).
  int physical_buffers() const { return num_groups; }

  /// Average range of physical buffers, in steps (the paper's Ab column).
  /// For a group, the window is the union of member windows.
  double average_range() const;

  /// Sets identity grouping (every buffer its own group).
  void reset_groups() {
    group_of.resize(buffers.size());
    for (std::size_t i = 0; i < buffers.size(); ++i)
      group_of[i] = static_cast<int>(i);
    num_groups = static_cast<int>(buffers.size());
  }

  /// Window of every physical group, by group id: the union of its member
  /// windows.  One pass over the buffers; every group must have one.
  std::vector<BufferWindow> group_windows() const;
};

}  // namespace clktune::feas
