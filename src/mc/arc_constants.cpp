#include "mc/arc_constants.h"

#include "mc/sampler.h"
#include "util/assert.h"

namespace clktune::mc {

void quantize_arc_constants(const ssta::SeqGraph& graph,
                            const ArcSample& sample, double clock_period_ps,
                            double step_ps, ArcConstants& out) {
  const std::size_t n = graph.arcs.size();
  CLKTUNE_EXPECTS(sample.dmax.size() == n && sample.dmin.size() == n);
  out.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(graph, e, sample.dmax[e], sample.dmin[e], clock_period_ps,
              setup_c, hold_c);
    out.setup_steps[e] = floor_steps(setup_c, step_ps);
    out.hold_steps[e] = floor_steps(hold_c, step_ps);
  }
}

}  // namespace clktune::mc
