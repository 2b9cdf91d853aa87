// Monte-Carlo sampling of manufactured chips.
//
// Sample k draws three chip-global parameter deviations (L, tox, Vth) and
// one local deviation per sequential arc, all through counter-based hashing:
// the delay of arc e in sample k is a pure function of (seed, k, e), so
// results are bit-identical across thread counts and evaluation order —
// a requirement for the deterministic parallel flow.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ssta/seq_graph.h"
#include "util/rng.h"

namespace clktune::mc {

/// Per-sample realised arc delays: the dense draw the screened judgements
/// are checked against, and what the dense per-chip check and the
/// criticality analysis, which read every arc, work on.
struct ArcSample {
  std::vector<double> dmax;
  std::vector<double> dmin;
};

/// Borrowed view of one sample's realised delays.
struct ArcDelaysView {
  const double* dmax = nullptr;
  const double* dmin = nullptr;
  std::size_t num_arcs = 0;
};

class Sampler {
 public:
  Sampler(const ssta::SeqGraph& graph, std::uint64_t seed)
      : graph_(&graph), rng_(seed) {}

  /// Global parameter draws for sample k.
  std::array<double, ssta::kParams> globals(std::uint64_t k) const {
    std::array<double, ssta::kParams> z{};
    for (int p = 0; p < ssta::kParams; ++p)
      z[static_cast<std::size_t>(p)] =
          rng_.normal(k, 0x6000 + static_cast<std::uint64_t>(p));
    return z;
  }

  /// Fills `out` with every arc's realised late/early delay for sample k.
  /// Early delays are clamped to [0, dmax].
  void evaluate(std::uint64_t k, ArcSample& out) const;

  /// Realised late/early delay of a single arc of sample k, given the
  /// sample's global draws (from globals(k)).  A pure function of
  /// (seed, k, e): evaluating arcs one at a time, in any order or subset,
  /// yields exactly the values evaluate() would store — this is what lets
  /// mc::ArcScreen compute only the arcs it cannot clear, without
  /// materialising an ArcSample.
  void arc_delays(std::uint64_t k, std::size_t e,
                  const std::array<double, ssta::kParams>& z, double& late,
                  double& early) const {
    const double zloc = rng_.normal(k, 0x10000 + e);
    late = graph_->arcs[e].dmax.eval(z, zloc);
    early = graph_->arcs[e].dmin.eval(z, zloc);
    late = std::max(late, 0.0);
    early = std::clamp(early, 0.0, late);
  }

  const ssta::SeqGraph& graph() const { return *graph_; }
  std::uint64_t seed() const { return rng_.seed(); }

 private:
  const ssta::SeqGraph* graph_;
  util::CounterRng rng_;
};

}  // namespace clktune::mc
