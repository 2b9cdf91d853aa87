// Difference-constraint feasibility via SPFA (queue-based Bellman-Ford)
// with exact negative-cycle detection: the program's one constraint graph.
//
// A system of constraints  x_u - x_v <= w  is feasible iff its constraint
// graph (edge v -> u with weight w) has no negative cycle; shortest-path
// potentials then give a concrete solution.  With integer weights the
// constraint matrix is totally unimodular, so integer-feasible solutions
// exist whenever real ones do — which is why flooring the timing constants
// to the buffer-step grid preserves exactness for the discrete tunings.
//
// Negative cycles are found by Tarjan's subtree disassembly (Cherkassky &
// Goldberg, "Negative-cycle detection algorithms", Math. Prog. 1999).  The
// solver keeps the shortest-path tree under an implicit super-source as a
// preorder thread with depths, and holds these invariants:
//   * tree edges are tight: a child's distance is its parent's plus the
//     edge weight, so a node's distance is the length of its tree path;
//   * improving u detaches u's strict descendants, whose distances are now
//     known to improve through u; detached nodes are skipped when dequeued
//     and rejoin the tree only by improving;
//   * improving u through v while v lies in u's subtree closes a cycle of
//     length d(v) - d(u) + w < 0, which is reported at once.  A negative
//     self-loop is the case v == u;
//   * on a feasible system the run ends with every node in the tree and
//     every edge satisfied, i.e. with the exact shortest-path potentials
//     from the all-zero start.
// The verdict is exact for any edge multiset, including parallel
// constraints, zero-weight cycles and self-constraints x_u - x_u <= w, and
// an infeasible system is rejected as soon as a relaxation closes a cycle,
// so it costs about as much as a feasible one.
//
// The object is a reusable workspace: reset() and add_node() keep the
// capacity of the adjacency, the edge pool and the SPFA scratch (distances,
// a ring-buffer queue, the tree's preorder thread), and every solve
// reinitialises that scratch for all nodes, so the steady-state
// Monte-Carlo inner loops that build one small system per sample perform
// zero heap allocations.  Results are independent of workspace history: a
// system solved from a dirty workspace yields exactly the potentials a
// fresh object would (shortest-path distances are unique), including after
// a negative-cycle bailout.
//
// Used for (a) the dense per-chip check of a tuning plan
// (YieldEvaluator::sample_feasible: does chip k have a feasible
// configuration?), (b) post-silicon configuration extraction
// (YieldEvaluator::find_configuration, whose potentials the criticality
// analysis reads), (c) the local repair of a chip that fails untuned
// (YieldEvaluator::judge, which grows its system node by node) and (d)
// greedy warm starts for the per-sample ILPs (core::SampleSolver).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace clktune::feas {

class DiffConstraints {
 public:
  DiffConstraints() = default;
  explicit DiffConstraints(int num_nodes) { reset(num_nodes); }

  /// Rewinds to an empty system over `num_nodes` nodes, keeping all buffer
  /// capacity.
  void reset(int num_nodes);

  /// Adds a node with no constraint and returns its index.
  int add_node();

  /// Capacity for systems of up to `nodes` nodes and `edges` constraints,
  /// so building and solving them allocates nothing.
  void reserve(std::size_t nodes, std::size_t edges);

  int num_nodes() const { return static_cast<int>(head_.size()); }
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
  /// Edge v -> to of weight w for a constraint x_to - x_v <= w; `next` is
  /// v's next edge, or -1.
  struct Edge {
    std::int64_t weight = 0;
    int to = 0;
    int next = -1;
  };

  std::vector<int> head_;    ///< first edge per node, or -1
  std::vector<Edge> edges_;  ///< pooled; cleared (capacity kept) on reset
  // SPFA scratch, reinitialised per solve.  The tree is a circular preorder
  // thread over n + 1 slots, slot n the super-source; depth is -1 for a
  // detached node.
  std::vector<std::int64_t> dist_;
  std::vector<char> queued_;
  std::vector<int> queue_;  ///< ring buffer of capacity n
  std::vector<int> thread_next_, thread_prev_, depth_;
};

}  // namespace clktune::feas
