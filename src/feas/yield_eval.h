// Yield evaluation of a tuning plan: a chip (Monte-Carlo sample) passes when
// a feasible assignment of discrete buffer delays exists that meets all
// setup and hold constraints at clock period T.
//
// With a fixed plan this is a pure feasibility question over difference
// constraints (buffered flip-flops are variables, everything else is pinned
// to zero, windows become bounds against a reference node), solved per
// sample on grid-floored constants.  The arc partition is computed once at
// construction:
//
//   * check-only arcs — both endpoints on one variable, so tuning cancels:
//     per sample they reduce to a sign test on the raw constants;
//   * edge arcs — incident to a tuned group: their constraint-graph
//     topology is static, so the SPFA graph is built once and only the two
//     weights per arc are rewritten per sample.
//
// evaluate() judges each chip once on the arc screen (mc/arc_screen.h).
// Every window contains 0 — the constructor asserts it — so a chip that
// passes untuned passes under any plan, and its verdict (P_k, H_k) says so
// without a look at its arcs: it passes at T unless it fails hold or
// P_k > T - band.  Only the other chips are judged: a check-only arc that
// the screen finds violated fails the chip at once (setup arcs only from
// the screen's short list of arcs some chip could violate at T, hold arcs
// only when H_k), and otherwise SPFA runs over the edge arcs' exact
// constants.  Within the rounding band of P_k the judgement is the exact
// check, so every count equals the dense per-chip loop's.  The untuned
// yield Yo is the same evaluation with an empty plan: a count over the
// verdicts.  The steady-state judgement performs zero heap allocations
// (per-thread workspace).  Evaluation uses its own seed so reported yields
// are out-of-sample relative to the insertion run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "feas/spfa.h"
#include "feas/tuning_plan.h"
#include "mc/arc_screen.h"
#include "mc/delay_cache.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"
#include "util/stats.h"

namespace clktune::feas {

struct YieldResult {
  double yield = 0.0;
  double ci95 = 0.0;  ///< 95 % confidence half-width
  std::uint64_t passing = 0;
  std::uint64_t samples = 0;
};

class YieldEvaluator {
 public:
  /// Every group window must contain 0.
  YieldEvaluator(const ssta::SeqGraph& graph, TuningPlan plan,
                 double clock_period_ps);

  /// Does sample k (drawn via `sampler`) admit a feasible configuration?
  /// Draws arcs on demand, check-only arcs first with early exit.  Zero
  /// heap allocations in steady state (per-thread workspace).
  bool sample_feasible(const mc::Sampler& sampler, std::uint64_t k) const;

  /// Same question over already drawn delays.
  bool sample_feasible(const mc::ArcDelaysView& delays) const;

  /// Same question on the arc screen, for chip k with verdict `verdict`;
  /// `screen` must be at this evaluator's period and the plan's step.
  /// Equals sample_feasible(screen.sampler(), k).  Zero heap allocations in
  /// steady state.
  bool judge(const mc::ArcScreen& screen, std::uint64_t k,
             const mc::ChipVerdict& verdict) const;

  /// Buffer configuration (delay steps per physical group) for sample k, or
  /// nullopt when the chip cannot be rescued.  This is the post-silicon
  /// "testing and configuration" step the paper lists as future work.
  std::optional<std::vector<int>> find_configuration(
      const mc::Sampler& sampler, std::uint64_t k) const;

  /// Same question over already drawn delays, so a caller that
  /// materialised a sample's delays — the criticality engine visits every
  /// arc anyway — does not pay a second sampling pass.
  std::optional<std::vector<int>> find_configuration(
      const mc::ArcDelaysView& delays) const;

  /// Group variable of flip-flop `ff` under the plan's grouping; -1 when
  /// the flip-flop carries no tuning buffer.  Configurations returned by
  /// find_configuration are indexed by this variable.
  int group_of_ff(int ff) const {
    return var_of_ff_[static_cast<std::size_t>(ff)];
  }

  /// Yield over `samples` Monte-Carlo chips: their verdicts, then
  /// evaluate(verdicts).
  YieldResult evaluate(const mc::Sampler& sampler, std::uint64_t samples,
                       int threads = 0) const;

  /// Yield over the chips of a verdict set: every chip that passes untuned
  /// passes, the rest are judged.  Equal to counting sample_feasible over
  /// the same chips, at every thread count.
  YieldResult evaluate(const mc::ChipVerdicts& verdicts,
                       int threads = 0) const;

  /// evaluate() over the shim's verdicts (mc/delay_cache.h); `samples`
  /// must equal delays.samples(), and `fill` is ignored.
  YieldResult evaluate(mc::SampleDelayCache& delays, std::uint64_t samples,
                       int threads, bool fill) const;

  const TuningPlan& plan() const { return plan_; }
  double clock_period_ps() const { return clock_period_; }
  /// Arc-partition sizes (check-only vs buffer-adjacent), for diagnostics.
  std::size_t check_arc_count() const { return check_arcs_.size(); }
  std::size_t edge_arc_count() const { return edge_arcs_.size(); }

 private:
  /// Per-thread scratch; contents carry only capacity between calls.
  struct Workspace {
    std::vector<std::int64_t> weights;
    SpfaScratch spfa;
  };

  /// A buffer-adjacent arc: its constraint edges live at fixed slots of the
  /// static SPFA graph; only the weights change per sample.
  struct EdgeArc {
    int arc = 0;         ///< index into graph.arcs
    int setup_slot = 0;  ///< weight slot of  x_ui - x_uj <= setup
    int hold_slot = 0;   ///< weight slot of  x_uj - x_ui <= hold
  };

  /// Feasibility of sample k; on success ws.dist holds the potentials.
  bool solve_sample(const mc::Sampler& sampler, std::uint64_t k,
                    Workspace& ws) const;
  /// SPFA over the static topology with ws.weights filled in.
  bool spfa_feasible(Workspace& ws) const;
  /// Per-group delay steps from a feasible workspace (reference at zero).
  std::vector<int> config_from_workspace(const Workspace& ws) const;
  template <class Delays>
  bool solve_sample_impl(const Delays& delays, Workspace& ws) const;

  void add_static_edge(int u, int v, std::int64_t w);

  const ssta::SeqGraph* graph_;
  TuningPlan plan_;
  double clock_period_;
  /// Group variable per FF; -1 when the FF has no buffer.
  std::vector<int> var_of_ff_;
  /// Per-group window (union of members).
  std::vector<BufferWindow> group_windows_;

  // Arc partition (III-style split, computed once).
  std::vector<int> check_arcs_;
  std::vector<EdgeArc> edge_arcs_;

  // Static constraint-graph topology over num_groups + 1 nodes (the last is
  // the pinned reference): CSR-ish adjacency with a parallel weight
  // template.  Window-bound weights are final; edge-arc slots are
  // placeholders rewritten into the workspace copy per sample.
  std::vector<int> head_;
  std::vector<int> edge_to_;
  std::vector<int> edge_next_;
  std::vector<std::int64_t> weights_template_;
};

/// Yield with no buffers at all (the paper's Yo).
YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           const mc::Sampler& sampler, std::uint64_t samples,
                           int threads = 0);

/// Yo over a verdict set: a count, with an exact check only for chips
/// whose P_k lies within rounding distance of the period.
YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           const mc::ChipVerdicts& verdicts, int threads = 0);

/// original_yield over the shim's verdicts (mc/delay_cache.h).
YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           mc::SampleDelayCache& delays,
                           std::uint64_t samples, int threads, bool fill);

/// Before/after yield measurement of a tuning plan at one clock period,
/// evaluated out-of-sample (its own seed): the paper's Yo, Y and Yi columns
/// as one machine-readable artifact.
struct YieldReport {
  double clock_period_ps = 0.0;
  std::uint64_t eval_seed = 0;
  YieldResult original;  ///< Yo: no buffers
  YieldResult tuned;     ///< Y: with the plan's buffers

  /// Yi = Y - Yo, in probability (not percent).
  double improvement() const { return tuned.yield - original.yield; }
};

/// Evaluates original and tuned yield over `samples` fresh Monte-Carlo chips
/// drawn with `eval_seed`, from one verdict set.
YieldReport evaluate_yield_report(const ssta::SeqGraph& graph,
                                  const TuningPlan& plan,
                                  double clock_period_ps,
                                  std::uint64_t eval_seed,
                                  std::uint64_t samples, int threads = 0);

}  // namespace clktune::feas
