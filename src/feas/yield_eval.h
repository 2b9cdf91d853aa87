// Yield evaluation of a tuning plan: a chip (Monte-Carlo sample) passes when
// a feasible assignment of discrete buffer delays exists that meets all
// setup and hold constraints at clock period T.
//
// With a fixed plan this is a pure feasibility question over difference
// constraints (buffered flip-flops are variables, everything else is pinned
// to zero, windows become bounds against a reference node), solved per
// sample on grid-floored constants.  The dense per-chip check
// (sample_feasible, find_configuration) is one feas::DiffConstraints system
// per drawn chip, filled in per-thread scratch: the window edges, a raw
// sign test for an arc inside one variable (tuning cancels on it), and two
// floored edges for every other arc.  evaluate() and judge() never build
// it, so an evaluator costs O(flip-flops + buffers) to build, plus one pass
// over the arcs that counts the arcs between two variables.
//
// evaluate() judges each chip once on the arc screen (mc/arc_screen.h),
// which it derives from its verdict set's screen with ArcScreen::at: one
// read-only pass over the arcs for the setup-risk list at T, while the
// per-arc bound data is built once per verdict set, so the plans and
// periods judged on one verdict set share it.
// Every window contains 0 — the constructor asserts it — so a chip that
// passes untuned passes under any plan, and its verdict (P_k, H_k) says so
// without a look at its arcs: it passes at T unless it fails hold or
// P_k > T - band.  Only the other chips are judged, by local repair, the
// insertion engine's lazy loop with SPFA in place of the MILP:
//
//   * seed: the set S of arcs violated at x = 0, by raw sign — setup arcs
//     from the screen's short list of arcs some chip could violate at T,
//     and, for an H_k chip, the hold-violated arcs its verdict set took
//     when it was built (hold slacks do not read T).  A violated check-only
//     arc fails the chip at once; an empty S means x = 0 is a
//     configuration;
//   * solve: one feas::DiffConstraints system over the reference node, the
//     groups S touches (added by add_node() as S first touches them), their
//     windows and S's exact constants.  A negative cycle fails the chip
//     (an infeasible subset makes the whole system infeasible); otherwise
//     every untouched group sits at 0;
//   * grow: the arcs incident to each group that moved, drawn exactly
//     unless both ends sit at one value; the violated ones join S, and the
//     loop repeats until none does.  The chip then passes: the potentials
//     satisfy S, every window and every arc that was drawn, and every other
//     arc has x_i = x_j and, being outside S, a constant floor_steps(c) >= 0
//     since c >= 0.
//
// Within the rounding band of P_k the judgement is the exact check, so
// every count equals the dense per-chip loop's.  The untuned yield Yo is
// the same evaluation with an empty plan: a count over the verdicts.  The
// steady-state judgement performs zero heap allocations (per-thread
// workspace).  Evaluation uses its own seed so reported yields are
// out-of-sample relative to the insertion run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

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
  /// Draws every arc of the chip, then runs the dense check.  Zero heap
  /// allocations in steady state (per-thread scratch).
  bool sample_feasible(const mc::Sampler& sampler, std::uint64_t k) const;

  /// Same question on the arc screen, for chip k of `verdicts`, by local
  /// repair, seeded with the chip's hold-violated arcs from `verdicts`;
  /// `screen` must be on the verdicts' sampler, at this evaluator's period
  /// and the plan's step (verdicts.screen().at(T, step)).  Equals
  /// sample_feasible(verdicts.sampler(), k).  Zero heap allocations in
  /// steady state.
  bool judge(const mc::ArcScreen& screen, const mc::ChipVerdicts& verdicts,
             std::uint64_t k) const;

  /// Buffer configuration (delay steps per physical group) for sample k, or
  /// nullopt when the chip cannot be rescued: the dense check's
  /// shortest-path potentials from the all-zero start, normalised so the
  /// reference sits at 0 — one feasible configuration, not a best one.
  /// This is the post-silicon "testing and configuration" step the paper
  /// lists as future work.
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
  /// passes, the rest are judged on verdicts.screen().at(T, step).  Equal
  /// to counting sample_feasible over the same chips, at every thread
  /// count.
  YieldResult evaluate(const mc::ChipVerdicts& verdicts,
                       int threads = 0) const;

  /// evaluate() over the shim's verdicts (mc/delay_cache.h); `samples`
  /// must equal delays.samples(), and `fill` is ignored.
  YieldResult evaluate(mc::SampleDelayCache& delays, std::uint64_t samples,
                       int threads, bool fill) const;

  const TuningPlan& plan() const { return plan_; }
  double clock_period_ps() const { return clock_period_; }

 private:
  /// The dense check over one chip's delays: its shortest-path potentials
  /// (the reference node, num_groups, last), or nullptr when no
  /// configuration exists.  The pointee is per-thread scratch, valid until
  /// the thread's next call.
  const std::vector<std::int64_t>* solve_dense(
      const mc::ArcDelaysView& delays) const;

  const ssta::SeqGraph* graph_;
  TuningPlan plan_;
  double clock_period_;
  /// Group variable per FF; -1 when the FF has no buffer.
  std::vector<int> var_of_ff_;
  /// Per-group window (union of members).
  std::vector<BufferWindow> group_windows_;
  /// Flip-flops of group g: group_ffs_[group_ff_begin_[g] ..
  /// group_ff_begin_[g + 1]).
  std::vector<int> group_ff_begin_;
  std::vector<int> group_ffs_;

  /// Arcs between two different variables: with none, tuning changes no
  /// constraint.
  std::size_t edge_arc_count_ = 0;
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
