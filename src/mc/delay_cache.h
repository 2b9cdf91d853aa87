// Cross-evaluation sample-delay cache.
//
// Realised arc delays are a pure function of (seed, sample, arc) — they do
// not depend on the clock period, the step grid or the tuning plan under
// evaluation.  A measurement that evaluates several plans over the same
// sampler (original vs tuned vs baseline yield, or one plan at several
// clock settings) therefore re-derives identical delays once per
// evaluation.  This cache stores them once — SoA double arrays, one slice
// per sample — under a byte budget, with a streaming fallback for runs
// that would not fit and per-slot fill tracking, so a read of a
// never-filled slot fails loudly instead of silently returning zeros.
#pragma once

#include <cstdint>
#include <vector>

namespace clktune::mc {

class Sampler;
struct ArcSample;

/// Borrowed view of one sample's realised delays.
struct ArcDelaysView {
  const double* dmax = nullptr;
  const double* dmin = nullptr;
  std::size_t num_arcs = 0;
};

class SampleDelayCache {
 public:
  /// max_bytes == 0 disables caching outright (always stream).
  SampleDelayCache(const Sampler& sampler, std::uint64_t samples,
                   std::uint64_t max_bytes);

  bool caching() const { return caching_; }
  std::uint64_t samples() const { return samples_; }
  /// Resident footprint of the slice arrays (0 in streaming mode).
  std::uint64_t bytes() const {
    return caching_ ? required_bytes(samples_, num_arcs_) : 0;
  }
  /// Footprint a run of this shape would need to cache fully.
  static std::uint64_t required_bytes(std::uint64_t samples,
                                      std::size_t num_arcs) {
    return 2ull * sizeof(double) * samples * num_arcs;
  }

  /// Fill accessor: compute (and store, when caching) sample k.  May be
  /// called concurrently for distinct k — each writes a disjoint slice.
  ArcDelaysView fill(std::uint64_t k, ArcSample& scratch);
  /// Read accessor: cached delays, or recompute into scratch.  Asserts
  /// slot k was filled (the fill pass's thread join orders the flag write
  /// before this read) — an unfilled slot holds zero delays, which would
  /// read as a chip with no path delay at all (a bogus ~100 % pass rate).
  ArcDelaysView get(std::uint64_t k, ArcSample& scratch) const;

 private:
  ArcDelaysView stream(std::uint64_t k, ArcSample& scratch) const;

  const Sampler* sampler_;
  std::uint64_t samples_;
  std::size_t num_arcs_;
  bool caching_;
  std::vector<double> dmax_, dmin_;  ///< samples_ x num_arcs_, when caching
  std::vector<char> filled_;         ///< per-sample fill flags, when caching
};

}  // namespace clktune::mc
