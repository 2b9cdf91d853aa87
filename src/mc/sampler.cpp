#include "mc/sampler.h"

namespace clktune::mc {

void Sampler::evaluate(std::uint64_t k, ArcSample& out) const {
  out.dmax.resize(graph_->arcs.size());
  out.dmin.resize(graph_->arcs.size());
  evaluate_into(k, out.dmax.data(), out.dmin.data());
}

void Sampler::evaluate_into(std::uint64_t k, double* dmax,
                            double* dmin) const {
  const auto& arcs = graph_->arcs;
  const std::array<double, ssta::kParams> z = globals(k);
  for (std::size_t e = 0; e < arcs.size(); ++e) {
    // One local draw per arc, shared by the late and early delay so their
    // order is preserved almost surely.
    arc_delays(k, e, z, dmax[e], dmin[e]);
  }
}

}  // namespace clktune::mc
