#include "mc/delay_cache.h"

#include "mc/sampler.h"
#include "util/assert.h"

namespace clktune::mc {

SampleDelayCache::SampleDelayCache(const Sampler& sampler,
                                   std::uint64_t samples,
                                   std::uint64_t max_bytes)
    : sampler_(&sampler),
      samples_(samples),
      num_arcs_(sampler.graph().arcs.size()),
      caching_(max_bytes > 0 &&
               required_bytes(samples, num_arcs_) <= max_bytes) {
  if (caching_) {
    dmax_.resize(samples_ * num_arcs_);
    dmin_.resize(samples_ * num_arcs_);
    filled_.assign(samples_, 0);
  }
}

ArcDelaysView SampleDelayCache::fill(std::uint64_t k, ArcSample& scratch) {
  if (!caching_) return stream(k, scratch);
  CLKTUNE_EXPECTS(k < samples_);
  double* dmax = dmax_.data() + k * num_arcs_;
  double* dmin = dmin_.data() + k * num_arcs_;
  sampler_->evaluate_into(k, dmax, dmin);
  filled_[static_cast<std::size_t>(k)] = 1;
  return {dmax, dmin, num_arcs_};
}

ArcDelaysView SampleDelayCache::get(std::uint64_t k,
                                    ArcSample& scratch) const {
  if (!caching_) return stream(k, scratch);
  CLKTUNE_EXPECTS(k < samples_);
  CLKTUNE_EXPECTS(filled_[static_cast<std::size_t>(k)] != 0);
  return {dmax_.data() + k * num_arcs_, dmin_.data() + k * num_arcs_,
          num_arcs_};
}

ArcDelaysView SampleDelayCache::stream(std::uint64_t k,
                                       ArcSample& scratch) const {
  sampler_->evaluate(k, scratch);
  return {scratch.dmax.data(), scratch.dmin.data(), num_arcs_};
}

}  // namespace clktune::mc
