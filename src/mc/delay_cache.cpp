#include "mc/delay_cache.h"

namespace clktune::mc {

SampleDelayCache::SampleDelayCache(const Sampler& sampler,
                                   std::uint64_t samples,
                                   std::uint64_t max_bytes)
    : sampler_(&sampler),
      samples_(samples),
      caching_(max_bytes > 0 &&
               required_bytes(samples, sampler.graph().arcs.size()) <=
                   max_bytes) {}

const ChipVerdicts& SampleDelayCache::verdicts(int threads) {
  if (!verdicts_) verdicts_.emplace(*sampler_, samples_, threads);
  return *verdicts_;
}

}  // namespace clktune::mc
