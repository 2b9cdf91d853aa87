// Textbook Bellman-Ford over a difference-constraint system: the reference
// feas::DiffConstraints is held to.
//
// It starts from all-zero potentials and makes n full passes over every
// constraint; an improvement still possible after them means a negative
// cycle.  Stateless and O(n m), so it shares nothing with the SPFA it
// checks: no queue, no tree, no reused workspace.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace clktune::reference {

/// Constraint x_u - x_v <= w.
struct Constraint {
  int u, v;
  std::int64_t w;
};

/// The shortest-path potentials of the system `cs` over nodes [0, n) from
/// the all-zero start, or nullopt when it has a negative cycle.
inline std::optional<std::vector<std::int64_t>> bellman_ford(
    int n, const std::vector<Constraint>& cs) {
  std::vector<std::int64_t> x(static_cast<std::size_t>(n), 0);
  const auto relax = [&] {
    bool changed = false;
    for (const Constraint& c : cs) {
      const std::int64_t bound = x[static_cast<std::size_t>(c.v)] + c.w;
      if (bound < x[static_cast<std::size_t>(c.u)]) {
        x[static_cast<std::size_t>(c.u)] = bound;
        changed = true;
      }
    }
    return changed;
  };
  for (int pass = 0; pass < n; ++pass) relax();
  if (relax()) return std::nullopt;
  return x;
}

}  // namespace clktune::reference
