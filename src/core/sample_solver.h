// Per-sample ILP machinery: given one Monte-Carlo chip, find the minimum
// number of adjusted buffers (problem (8)-(13) / (III-B1)) and then
// concentrate tuning values (problems (14)-(17) and (18)-(21)).
//
// Two implementation devices keep 10 000-sample runs tractable without
// changing the optima:
//
//  * Lazy constraint generation.  The ILP starts from the violated arcs
//    only; the solved assignment is verified against every arc incident to
//    its support and newly violated arcs are added until the solution is
//    globally feasible.  Because the working model is always a relaxation
//    of the full model, the final solution is optimal for the full model.
//
//  * Greedy warm starts.  A difference-constraint feasibility oracle
//    (Bellman-Ford) grows a buffer set greedily; the resulting incumbent
//    lets branch & bound prune aggressively from the first node.
//
// The hot entry point takes one sample as (mc::ArcScreen, k, violated
// arcs), the violated list from ArcScreen::violated_arcs, plus a
// caller-owned SolveWorkspace.  The working model is seeded from the list;
// every other constant the solve reads (incident arcs, verification,
// MILP rows) comes from the workspace's mc::ArcConstantMemo, computed
// exactly on first touch, so a sample costs only the arcs it reads.  The
// workspace holds every per-sample scratch structure — working-model flags
// reset in O(active) via epoch stamping, pooled component/greedy vectors,
// a reusable difference-constraint system — so solving a sample that meets
// timing (or is rescued without a MILP) performs zero heap allocations in
// steady state, beyond the vectors owned by the returned solution.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "feas/diff_constraints.h"
#include "mc/arc_constants.h"
#include "mc/arc_screen.h"
#include "mc/sampler.h"
#include "milp/branch_and_bound.h"
#include "ssta/seq_graph.h"

namespace clktune::core {

/// Candidate buffers and their discrete windows, indexed by flip-flop.
struct CandidateWindows {
  /// k_lo/k_hi in step units; entries only meaningful where candidate.
  std::vector<int> k_lo, k_hi;
  std::vector<char> candidate;

  static CandidateWindows floating(int num_ffs, int steps);
  static CandidateWindows none(int num_ffs);

  int count() const {
    int n = 0;
    for (char c : candidate) n += c != 0;
    return n;
  }
};

enum class ConcentrateMode {
  none,          ///< stop after minimising the buffer count
  toward_zero,   ///< III-A3: minimise sum |x_i|
  toward_target  ///< III-B2: minimise sum |x_i - x_avg,i|
};

struct SampleSolution {
  /// False when the chip cannot meet timing even with every candidate
  /// buffer at full freedom (or a non-candidate arc fails outright).
  bool fixable = true;
  /// Minimum number of adjusted buffers n_k (0 when the chip passes as-is).
  int nk = 0;
  /// Non-zero tunings (ff, k in steps) of the final assignment.
  std::vector<std::pair<int, int>> tunings;
  /// Non-zero tunings right after the count-minimisation phase, before any
  /// concentration (the scattered values of Fig. 5a).
  std::vector<std::pair<int, int>> mincount_tunings;
  // Diagnostics.
  long milp_nodes = 0;
  int lazy_rounds = 0;
  int milps_solved = 0;
  bool truncated = false;  ///< a branch & bound hit its node limit
};

/// Reusable per-thread scratch for SampleSolver::solve.  All members are
/// internal state: default-construct one per worker thread and pass it to
/// every solve call.  Contents carry no information between calls (epoch
/// stamping invalidates them wholesale), only capacity.
struct SolveWorkspace {
  struct Component {
    std::vector<int> arcs;  ///< active arc ids
    std::vector<int> vars;  ///< working-model var ids
  };

  std::uint64_t epoch = 0;
  // Working model: per-arc membership/violation flags and per-FF variable
  // slots, all valid only where the stamp equals `epoch`.
  std::vector<std::uint64_t> in_model_epoch;  // per arc
  std::vector<std::uint64_t> violated_epoch;  // per arc
  std::vector<std::uint64_t> var_epoch;       // per FF
  std::vector<int> var_of_ff;                 // per FF, guarded by var_epoch
  std::vector<int> active;                    // arc ids in the working model
  std::vector<int> ff_of_var;
  std::vector<std::int64_t> k_of_var;  // current assignment (steps)

  // Connected-component scratch (pooled: inner vectors keep capacity).
  std::vector<Component> comps;
  std::size_t comps_used = 0;
  std::vector<int> parent;
  std::vector<int> comp_of_root;
  std::vector<int> sorted_active;

  // Per-component scratch.
  std::vector<char> covered;
  std::vector<int> local_of_var;
  std::vector<std::int64_t> count_solution;
  std::vector<std::int64_t> final_solution;

  // Greedy-oracle scratch.
  feas::DiffConstraints oracle;
  std::vector<char> greedy_chosen;
  std::vector<int> greedy_dense;
  std::vector<int> greedy_local_of_var;
  std::vector<int> greedy_score;
  std::vector<std::int64_t> greedy_x;

  // Verification / accumulation scratch.
  std::vector<int> fresh;
  std::vector<std::pair<int, int>> mincount_acc;

  /// The sample's constants, exact on first touch.
  mc::ArcConstantMemo memo;

  // Dense scratch for the ArcSample convenience overload.
  mc::ArcConstants constants;
  std::vector<int> violated;
};

class SampleSolver {
 public:
  SampleSolver(const ssta::SeqGraph& graph, double step_ps,
               double clock_period_ps, CandidateWindows windows,
               long milp_max_nodes = 50000);

  /// Solves sample k of `screen` (built for this solver's graph, period
  /// and step), given its violated arcs in ascending order — the hot path.
  /// `targets` (step units, indexed by ff) is required for
  /// ConcentrateMode::toward_target.
  SampleSolution solve(const mc::ArcScreen& screen, std::uint64_t k,
                       std::span<const int> violated, ConcentrateMode mode,
                       const std::vector<double>* targets,
                       SolveWorkspace& ws) const;

  /// Convenience overload: quantizes every arc of `arc_sample` first
  /// (thread-local workspace) — the dense reference.  Prefer the screened
  /// overload in loops.
  SampleSolution solve(const mc::ArcSample& arc_sample, ConcentrateMode mode,
                       const std::vector<double>* targets = nullptr) const;

  /// Integer constraint constants for sample arcs (exposed for tests):
  /// setup:  x_i - x_j <= setup_steps[e];  hold:  x_j - x_i <= hold_steps[e].
  /// Delegates to the shared mc::floor_steps quantizer.
  void arc_constants(const mc::ArcSample& arc_sample,
                     std::vector<std::int64_t>& setup_steps,
                     std::vector<std::int64_t>& hold_steps) const;

  const CandidateWindows& windows() const { return windows_; }
  double step_ps() const { return step_ps_; }
  double clock_period_ps() const { return clock_period_; }

 private:
  struct WorkingModel;

  /// Solves the sample whose constants `ws.memo` serves.
  SampleSolution solve_sample(std::span<const int> violated,
                              ConcentrateMode mode,
                              const std::vector<double>* targets,
                              SolveWorkspace& ws) const;

  const ssta::SeqGraph* graph_;
  double step_ps_;
  double clock_period_;
  CandidateWindows windows_;
  long milp_max_nodes_;
};

}  // namespace clktune::core
