// Per-arc and per-register criticality of a post-silicon-tunable circuit.
//
// The criticality of a sequential arc is the probability — estimated over
// Monte-Carlo chips — that the arc is *binding*: that it attains the
// minimum setup/hold slack of the whole circuit, i.e. lies on a binding
// critical path.  Following "Statistical Timing Analysis and Criticality
// Computation for Circuits with Post-Silicon Clock Tuning Elements"
// (PAPERS.md), criticality is computed twice per chip:
//
//   * before tuning — raw slacks at x = 0;
//   * after tuning — slacks under one feasible buffer configuration of the
//     chip: YieldEvaluator::find_configuration's shortest-path potentials
//     from the all-zero start, normalised so the reference sits at 0.  That
//     is a feasible configuration, not a best one.  Chips with no feasible
//     configuration keep their untuned binding arc and are counted in
//     `untunable`.
//
// All statistics are integer sample counts summed across worker partials,
// so reports are bit-identical regardless of thread count — the same
// determinism contract as the yield path.  Register criticality is the
// probability that a flip-flop is an endpoint of a binding arc; each ranked
// register also carries the failing-arc incidence statistic shared with
// core::top_k_criticality_plan (one computation, asserted equal in tests).
#pragma once

#include <cstdint>
#include <vector>

#include "feas/tuning_plan.h"
#include "ssta/seq_graph.h"
#include "util/json.h"

namespace clktune::analysis {

struct CriticalityOptions {
  /// Number of ranked arcs / registers emitted in the report.
  int top_k = 20;
};

/// One ranked sequential arc.
struct ArcCriticality {
  std::size_t arc = 0;  ///< index into graph.arcs
  int src_ff = 0;
  int dst_ff = 0;
  std::uint64_t binding_before = 0;  ///< samples binding at x = 0
  std::uint64_t binding_after = 0;   ///< samples binding under tuning
  double before = 0.0;  ///< binding_before / samples
  double after = 0.0;   ///< binding_after / samples
};

/// One ranked register (flip-flop).
struct RegisterCriticality {
  int ff = 0;
  std::uint64_t binding_before = 0;  ///< samples with a binding arc endpoint
  std::uint64_t binding_after = 0;
  /// Failing-arc incidence at x = 0 — the core::criticality_incidence
  /// statistic the top-k baseline ranks by, reported for cross-reference.
  std::uint64_t failing_incidence = 0;
  double before = 0.0;
  double after = 0.0;
};

struct CriticalityReport {
  std::uint64_t samples = 0;
  std::uint64_t eval_seed = 0;
  double clock_period_ps = 0.0;
  int top_k = 0;
  /// Chips with no feasible buffer configuration (after-tuning criticality
  /// falls back to the untuned binding arc for these).
  std::uint64_t untunable = 0;
  std::vector<ArcCriticality> arcs;            ///< rank order
  std::vector<RegisterCriticality> registers;  ///< rank order

  /// Deterministic artifact; round-trip safe:
  /// from_json(r.to_json()).to_json() reproduces the bytes.
  util::Json to_json() const;
  static CriticalityReport from_json(const util::Json& j);
};

/// Computes the report over `samples` fresh Monte-Carlo chips drawn with
/// `eval_seed`.  Rank order is (binding_before desc, binding_after desc,
/// index asc); arcs/registers that never bind are not reported.
CriticalityReport compute_criticality(const ssta::SeqGraph& graph,
                                      const feas::TuningPlan& plan,
                                      double clock_period_ps,
                                      std::uint64_t eval_seed,
                                      std::uint64_t samples,
                                      const CriticalityOptions& options,
                                      int threads = 0);

}  // namespace clktune::analysis
