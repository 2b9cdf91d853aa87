// Difference-constraint feasibility via SPFA (queue-based Bellman-Ford)
// with exact negative-cycle detection by Tarjan's subtree disassembly (see
// feas/spfa.h).
//
// A system of constraints  x_u - x_v <= w  is feasible iff its constraint
// graph (edge v -> u with weight w) has no negative cycle; shortest-path
// potentials then give a concrete solution.  With integer weights the
// constraint matrix is totally unimodular, so integer-feasible solutions
// exist whenever real ones do — which is why flooring the timing constants
// to the buffer-step grid preserves exactness for the discrete tunings.
//
// The verdict is exact for any edge multiset, including parallel
// constraints, zero-weight cycles and self-constraints x_u - x_u <= w
// (infeasible iff w < 0: a negative self-loop).  The detector keeps the
// shortest-path tree's edges tight, skips nodes detached from it, and
// reports a cycle only when a relaxation would close one, so an infeasible
// system costs about as much as a feasible one.  A feasible system yields
// the exact shortest-path potentials from the all-zero start.
//
// The object is a reusable workspace: reset() rewinds it in O(1) amortised
// time via epoch stamping (per-node adjacency heads are lazily invalidated,
// the edge pool keeps its capacity), and solve_inplace() reuses internal
// SPFA scratch (distances, a ring-buffer queue, the tree's preorder thread),
// so the steady-state Monte-Carlo inner loops that build one small system
// per sample perform zero heap allocations.  Results are independent of
// workspace history: a system solved from a dirty workspace yields exactly
// the potentials a fresh object would (shortest-path distances are unique),
// including after a negative-cycle bailout.
//
// Used for (a) yield evaluation of an inserted-buffer plan (does chip k have
// a feasible configuration?), (b) greedy warm starts for the per-sample
// ILPs, and (c) post-silicon configuration extraction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "feas/spfa.h"

namespace clktune::feas {

class DiffConstraints {
 public:
  DiffConstraints() = default;
  explicit DiffConstraints(int num_nodes) { reset(num_nodes); }

  /// Rewinds to an empty system over `num_nodes` nodes.  Keeps all buffer
  /// capacity; previously added edges become unreachable via epoch
  /// stamping, so the cost is O(1) plus any one-time growth.
  void reset(int num_nodes);

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Adds constraint x_u - x_v <= w.
  void add(int u, int v, std::int64_t w);

  /// True iff the system admits a solution.
  bool feasible() { return solve_inplace() != nullptr; }

  /// Shortest-path potentials (a concrete solution) held in internal
  /// scratch, or nullptr when infeasible.  All-zero start vector, so an
  /// all-zero solution is returned when every constraint already holds
  /// at 0.  The pointee is valid until the next solve/reset/add.  Zero
  /// allocations in steady state.
  const std::vector<std::int64_t>* solve_inplace();

  /// Copying convenience wrapper around solve_inplace().
  std::optional<std::vector<std::int64_t>> solve() {
    const std::vector<std::int64_t>* dist = solve_inplace();
    if (dist == nullptr) return std::nullopt;
    return *dist;
  }

 private:
  struct Edge {
    int to = 0;
    std::int64_t weight = 0;
    int next = -1;
  };

  int head(int v) const {
    return head_epoch_[static_cast<std::size_t>(v)] == epoch_
               ? head_[static_cast<std::size_t>(v)]
               : -1;
  }

  int num_nodes_ = 0;
  std::uint64_t epoch_ = 0;
  // Adjacency: edge (v -> u, w) per constraint x_u - x_v <= w.  head_[v] is
  // meaningful only when head_epoch_[v] == epoch_.
  std::vector<int> head_;
  std::vector<std::uint64_t> head_epoch_;
  std::vector<Edge> edges_;  ///< pooled; cleared (capacity kept) on reset
  SpfaScratch scratch_;      ///< reinitialised per solve
};

}  // namespace clktune::feas
