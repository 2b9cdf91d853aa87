// Clock binning: tuned yield across a ladder of clock periods.
//
// Speed binning sells each manufactured chip at the fastest clock it can
// sustain.  Following "Design-Phase Buffer Allocation for Post-Silicon
// Clock Binning by Iterative Learning" (PAPERS.md), a binning scenario
// evaluates one tuning plan against every rung of a period ladder and
// reports, per bin, the original and tuned yield plus the fraction of chips
// whose *fastest* feasible bin it is (the sell histogram), and overall the
// unsellable fraction and the expected sell period.
//
// The ladder is nearly free: each Monte-Carlo chip is drawn exactly once
// (Sampler::evaluate — realised delays do not depend on the clock period)
// and every rung re-evaluates the same delays against its own precomputed
// constraint graph.  A metrics counter pair
// (sampling passes vs rung evaluations) makes the no-per-rung-resampling
// property observable and testable.  All tallies are integer counts summed
// across worker partials, so reports are bit-identical for any thread
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "feas/tuning_plan.h"
#include "feas/yield_eval.h"
#include "ssta/seq_graph.h"
#include "util/json.h"

namespace clktune::analysis {

/// One rung of the ladder.
struct BinYield {
  double period_ps = 0.0;
  feas::YieldResult original;  ///< no buffers
  feas::YieldResult tuned;     ///< with the plan's buffers
  /// Chips whose fastest feasible (tuned) bin is this one.
  std::uint64_t sell = 0;
  double sell_fraction = 0.0;  ///< sell / samples
};

struct BinningReport {
  std::uint64_t samples = 0;
  std::uint64_t eval_seed = 0;
  std::vector<BinYield> bins;  ///< ascending period
  /// Chips infeasible at every rung even with tuning.
  std::uint64_t unsellable = 0;
  double unsellable_fraction = 0.0;
  /// Mean fastest-feasible period over sellable chips (0 when none sell).
  double expected_sell_period_ps = 0.0;

  /// Deterministic artifact; round-trip safe:
  /// from_json(r.to_json()).to_json() reproduces the bytes.
  util::Json to_json() const;
  static BinningReport from_json(const util::Json& j);
};

/// Evaluates `plan` at every period of `periods_ps` (must be strictly
/// ascending and positive; throws util::JsonError otherwise) over `samples`
/// fresh Monte-Carlo chips drawn with `eval_seed`.  One sampling pass total.
BinningReport compute_binning(const ssta::SeqGraph& graph,
                              const feas::TuningPlan& plan,
                              const std::vector<double>& periods_ps,
                              std::uint64_t eval_seed, std::uint64_t samples,
                              int threads = 0);

}  // namespace clktune::analysis
