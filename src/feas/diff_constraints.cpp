#include "feas/diff_constraints.h"

#include "util/assert.h"

namespace clktune::feas {

void DiffConstraints::reset(int num_nodes) {
  CLKTUNE_EXPECTS(num_nodes >= 0);
  head_.assign(static_cast<std::size_t>(num_nodes), -1);
  edges_.clear();
}

int DiffConstraints::add_node() {
  head_.push_back(-1);
  return num_nodes() - 1;
}

void DiffConstraints::reserve(std::size_t nodes, std::size_t edges) {
  head_.reserve(nodes);
  edges_.reserve(edges);
  dist_.reserve(nodes);
  queued_.reserve(nodes);
  queue_.reserve(nodes);
  thread_next_.reserve(nodes + 1);
  thread_prev_.reserve(nodes + 1);
  depth_.reserve(nodes + 1);
}

void DiffConstraints::add(int u, int v, std::int64_t w) {
  CLKTUNE_EXPECTS(u >= 0 && u < num_nodes());
  CLKTUNE_EXPECTS(v >= 0 && v < num_nodes());
  int& head = head_[static_cast<std::size_t>(v)];
  edges_.push_back(Edge{w, u, head});
  head = num_edges() - 1;
}

// SPFA from the implicit super-source: all distances start at 0, all nodes
// queued.  The ring buffer never overflows: a node is enqueued only while
// not already queued, so occupancy is at most n.
const std::vector<std::int64_t>* DiffConstraints::solve_inplace() {
  const int n = num_nodes();
  const auto ns = static_cast<std::size_t>(n);
  dist_.resize(ns);
  queued_.resize(ns);
  queue_.resize(ns);
  thread_next_.resize(ns + 1);
  thread_prev_.resize(ns + 1);
  depth_.resize(ns + 1);
  const int* const head = head_.data();
  const Edge* const edges = edges_.data();
  std::int64_t* const dist = dist_.data();
  char* const queued = queued_.data();
  int* const queue = queue_.data();
  int* const thread_next = thread_next_.data();
  int* const thread_prev = thread_prev_.data();
  int* const depth = depth_.data();
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
    for (int e = head[v]; e != -1; e = edges[e].next) {
      const std::int64_t cand = dv + edges[e].weight;
      const int u = edges[e].to;
      if (cand >= dist[u]) continue;
      dist[u] = cand;
      const int du = depth[u];
      if (du >= 0) {
        // Cut u's subtree out of the thread, detaching its descendants.
        int x = u;
        do {
          if (x == v) return nullptr;  // v under u: negative cycle
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
  return &dist_;
}

}  // namespace clktune::feas
