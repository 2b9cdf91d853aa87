// Shared SPFA (queue-based Bellman-Ford) kernel over a caller-shaped
// adjacency, with reusable scratch.  Both difference-constraint solvers —
// the general pooled-edge DiffConstraints, and the local-repair graph of
// YieldEvaluator::judge — run on this one implementation, so the subtle
// parts (ring-buffer queue invariants, negative-cycle detection) are
// maintained in exactly one place.
//
// Negative cycles are found by Tarjan's subtree disassembly (Cherkassky &
// Goldberg, "Negative-cycle detection algorithms", Math. Prog. 1999).  The
// kernel keeps the shortest-path tree under the implicit super-source as a
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
//     every edge satisfied, i.e. with the exact shortest-path potentials.
// An infeasible system is rejected as soon as a relaxation closes a cycle,
// so it costs about as much as a feasible one.
#pragma once

#include <cstdint>
#include <vector>

namespace clktune::feas {

/// Reusable SPFA scratch.  resize() keeps capacity when shrinking and
/// reuses it when growing back, so steady state is allocation-free; every
/// run reinitialises it wholesale, which also makes a run after a
/// negative-cycle bailout start from a clean slate.
struct SpfaScratch {
  std::vector<std::int64_t> dist;
  std::vector<char> queued;
  std::vector<int> queue;  ///< ring buffer of capacity n
  // Shortest-path tree as a circular preorder thread over n + 1 slots; slot
  // n is the super-source.  depth is -1 for a detached node.
  std::vector<int> thread_next;
  std::vector<int> thread_prev;
  std::vector<int> depth;

  /// Capacity for runs over up to n nodes, so none of them allocates.
  void reserve(std::size_t n) {
    dist.reserve(n);
    queued.reserve(n);
    queue.reserve(n);
    thread_next.reserve(n + 1);
    thread_prev.reserve(n + 1);
    depth.reserve(n + 1);
  }
};

/// Shortest-path potentials from an implicit super-source: all distances
/// start at 0, all nodes queued.  `head(v)` yields node v's first edge id
/// or -1; `next(e)`, `to(e)`, `weight(e)` walk the adjacency.  Returns
/// false on a negative cycle; true with exact shortest paths in ws.dist
/// otherwise — unique, hence independent of edge order and scratch
/// history.  The ring buffer never overflows: a node is enqueued only
/// while not already queued, so occupancy is at most n.
template <class HeadFn, class NextFn, class ToFn, class WeightFn>
bool spfa_potentials(int n, SpfaScratch& ws, const HeadFn& head,
                     const NextFn& next, const ToFn& to,
                     const WeightFn& weight) {
  const auto ns = static_cast<std::size_t>(n);
  ws.dist.resize(ns);
  ws.queued.resize(ns);
  ws.queue.resize(ns);
  ws.thread_next.resize(ns + 1);
  ws.thread_prev.resize(ns + 1);
  ws.depth.resize(ns + 1);
  std::int64_t* const dist = ws.dist.data();
  char* const queued = ws.queued.data();
  int* const queue = ws.queue.data();
  int* const thread_next = ws.thread_next.data();
  int* const thread_prev = ws.thread_prev.data();
  int* const depth = ws.depth.data();
  // The tree starts as a star under the super-source: the thread is the
  // cycle n -> 0 -> 1 -> ... -> n-1 -> n, every node at depth 1.
  for (int v = 0; v < n; ++v) {
    dist[v] = 0;
    queued[v] = 1;
    queue[v] = v;
    thread_next[v] = v + 1;
    thread_prev[v] = v - 1;
    depth[v] = 1;
  }
  thread_next[n] = 0;
  thread_prev[n] = n - 1;
  thread_prev[0] = n;  // for n == 0, the super-source alone
  depth[n] = 0;
  std::size_t qhead = 0;
  std::size_t qcount = ns;
  while (qcount > 0) {
    const int v = queue[qhead];
    qhead = qhead + 1 == ns ? 0 : qhead + 1;
    --qcount;
    queued[v] = 0;
    if (depth[v] < 0) continue;  // detached: it will improve and requeue
    // Constant during the scan: improving v itself closes a cycle.
    const std::int64_t dv = dist[v];
    for (int e = head(v); e != -1; e = next(e)) {
      const std::int64_t cand = dv + weight(e);
      const int u = to(e);
      if (cand >= dist[u]) continue;
      dist[u] = cand;
      const int du = depth[u];
      if (du >= 0) {
        // Cut u's subtree out of the thread, detaching its descendants.
        int x = u;
        do {
          if (x == v) return false;  // v under u: negative cycle
          depth[x] = -1;
          x = thread_next[x];
        } while (depth[x] > du);
        const int before = thread_prev[u];
        thread_next[before] = x;
        thread_prev[x] = before;
      }
      // Re-attach u as v's first child.
      const int after = thread_next[v];
      thread_next[v] = u;
      thread_prev[u] = v;
      thread_next[u] = after;
      thread_prev[after] = u;
      depth[u] = depth[v] + 1;
      if (!queued[u]) {
        queued[u] = 1;
        std::size_t tail = qhead + qcount;
        if (tail >= ns) tail -= ns;
        queue[tail] = u;
        ++qcount;
      }
    }
  }
  return true;
}

}  // namespace clktune::feas
