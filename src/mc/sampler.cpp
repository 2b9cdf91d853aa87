#include "mc/sampler.h"

namespace clktune::mc {

void Sampler::evaluate(std::uint64_t k, ArcSample& out) const {
  const auto& arcs = graph_->arcs;
  out.dmax.resize(arcs.size());
  out.dmin.resize(arcs.size());
  const std::array<double, ssta::kParams> z = globals(k);
  for (std::size_t e = 0; e < arcs.size(); ++e) {
    // One local draw per arc, shared by the late and early delay so their
    // order is preserved almost surely.
    arc_delays(k, e, z, out.dmax[e], out.dmin[e]);
  }
}

}  // namespace clktune::mc
