// Harness-only shim for the benchmark harness's call sites.
//
// Realised delays are no longer stored anywhere: one ChipVerdicts set per
// sampler serves every untuned yield and every plan's flagged chips, at
// 16 B per chip.  This class keeps the construction surface the harness
// compiles against — the constructor, caching() and required_bytes() — and
// the overloads of feas::original_yield, feas::YieldEvaluator::evaluate and
// core::top_k_criticality_plan that take it.  It stores no delays and
// builds its sampler's verdicts on first use.  It goes together with those
// call sites.
#pragma once

#include <cstdint>
#include <optional>

#include "mc/period_mc.h"

namespace clktune::mc {

class SampleDelayCache {
 public:
  /// max_bytes is the budget the delays would have taken (see caching()).
  SampleDelayCache(const Sampler& sampler, std::uint64_t samples,
                   std::uint64_t max_bytes);

  /// Whether the delays would have fit `max_bytes`; nothing is stored
  /// either way.
  bool caching() const { return caching_; }
  std::uint64_t samples() const { return samples_; }
  const Sampler& sampler() const { return *sampler_; }
  /// Footprint the retired cache needed for a run of this shape.
  static std::uint64_t required_bytes(std::uint64_t samples,
                                      std::size_t num_arcs) {
    return 2ull * sizeof(double) * samples * num_arcs;
  }

  /// The sampler's verdicts over samples() chips, built by the first call
  /// on `threads` workers.  Not thread-safe: call from one thread.
  const ChipVerdicts& verdicts(int threads);

 private:
  const Sampler* sampler_;
  std::uint64_t samples_;
  bool caching_;
  std::optional<ChipVerdicts> verdicts_;
};

}  // namespace clktune::mc
