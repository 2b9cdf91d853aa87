#include "core/sample_solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "lp/model.h"
#include "util/assert.h"

namespace clktune::core {

CandidateWindows CandidateWindows::floating(int num_ffs, int steps) {
  CandidateWindows w;
  w.k_lo.assign(static_cast<std::size_t>(num_ffs), -steps);
  w.k_hi.assign(static_cast<std::size_t>(num_ffs), steps);
  w.candidate.assign(static_cast<std::size_t>(num_ffs), 1);
  return w;
}

CandidateWindows CandidateWindows::none(int num_ffs) {
  CandidateWindows w;
  w.k_lo.assign(static_cast<std::size_t>(num_ffs), 0);
  w.k_hi.assign(static_cast<std::size_t>(num_ffs), 0);
  w.candidate.assign(static_cast<std::size_t>(num_ffs), 0);
  return w;
}

SampleSolver::SampleSolver(const ssta::SeqGraph& graph, double step_ps,
                           double clock_period_ps, CandidateWindows windows,
                           long milp_max_nodes)
    : graph_(&graph),
      step_ps_(step_ps),
      clock_period_(clock_period_ps),
      windows_(std::move(windows)),
      milp_max_nodes_(milp_max_nodes) {
  CLKTUNE_EXPECTS(step_ps_ > 0.0);
  CLKTUNE_EXPECTS(clock_period_ > 0.0);
  CLKTUNE_EXPECTS(windows_.candidate.size() ==
                  static_cast<std::size_t>(graph.num_ffs));
  for (std::size_t f = 0; f < windows_.candidate.size(); ++f) {
    if (!windows_.candidate[f]) continue;
    // "Unadjusted" (c_i = 0) means x_i = 0, so candidate windows must
    // contain zero; the engine clamps assigned windows accordingly.
    CLKTUNE_EXPECTS(windows_.k_lo[f] <= 0 && windows_.k_hi[f] >= 0);
    // Zero-width windows are equivalent to non-candidacy.
    if (windows_.k_lo[f] == 0 && windows_.k_hi[f] == 0)
      windows_.candidate[f] = 0;
  }
}

void SampleSolver::arc_constants(const mc::ArcSample& arc_sample,
                                 std::vector<std::int64_t>& setup_steps,
                                 std::vector<std::int64_t>& hold_steps) const {
  const ssta::SeqGraph& g = *graph_;
  setup_steps.resize(g.arcs.size());
  hold_steps.resize(g.arcs.size());
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(g, e, arc_sample.dmax[e], arc_sample.dmin[e], clock_period_,
                  setup_c, hold_c);
    setup_steps[e] = mc::floor_steps(setup_c, step_ps_);
    hold_steps[e] = mc::floor_steps(hold_c, step_ps_);
  }
}

namespace {

/// Model variables of one component subproblem.
struct BuiltModel {
  lp::Model model;
  std::vector<int> k_var;  // per component var
  std::vector<int> c_var;
  std::vector<int> u_var;  // empty unless concentrating
  /// Branching variables: the binary c's.  With arc constants floored to
  /// the step grid the k-subsystem is totally unimodular, so the k's come
  /// out integral at LP vertices once the c's are fixed; when they do not
  /// (possible in concentrate models), the caller re-solves with the k's
  /// marked integral as well.
  std::vector<int> int_vars;
  std::vector<int> k_int_vars;
};

using Component = SolveWorkspace::Component;

/// A buffer that can rescue a component alone, with its feasible range.
struct BufferInterval {
  int var = -1;
  std::int64_t lo = 0, hi = 0;
};

}  // namespace

// Working state of one sample's lazy-constraint solve: a view over the
// caller's SolveWorkspace.  Constructing one bumps the workspace epoch,
// which invalidates every per-arc / per-FF stamp in O(1); only structures
// actually touched this sample are (re)written.
struct SampleSolver::WorkingModel {
  const SampleSolver& solver;
  SolveWorkspace& ws;

  WorkingModel(const SampleSolver& s, SolveWorkspace& w) : solver(s), ws(w) {
    ++ws.epoch;
    const std::size_t num_arcs = s.graph_->arcs.size();
    const auto num_ffs = static_cast<std::size_t>(s.graph_->num_ffs);
    if (ws.in_model_epoch.size() < num_arcs) {
      ws.in_model_epoch.resize(num_arcs, 0);
      ws.violated_epoch.resize(num_arcs, 0);
    }
    if (ws.var_epoch.size() < num_ffs) {
      ws.var_epoch.resize(num_ffs, 0);
      ws.var_of_ff.resize(num_ffs, -1);
    }
    ws.active.clear();
    ws.ff_of_var.clear();
    ws.k_of_var.clear();
    ws.comps_used = 0;
  }

  std::int64_t setup(int e) const {
    return ws.memo.setup(static_cast<std::size_t>(e));
  }
  std::int64_t hold(int e) const {
    return ws.memo.hold(static_cast<std::size_t>(e));
  }

  bool in_model(int e) const {
    return ws.in_model_epoch[static_cast<std::size_t>(e)] == ws.epoch;
  }
  bool violated(int e) const {
    return ws.violated_epoch[static_cast<std::size_t>(e)] == ws.epoch;
  }
  void mark_violated(int e) {
    ws.violated_epoch[static_cast<std::size_t>(e)] = ws.epoch;
  }

  void ensure_var(int ff) {
    if (!solver.windows_.candidate[static_cast<std::size_t>(ff)]) return;
    const auto fs = static_cast<std::size_t>(ff);
    if (ws.var_epoch[fs] == ws.epoch) return;
    ws.var_epoch[fs] = ws.epoch;
    ws.var_of_ff[fs] = static_cast<int>(ws.ff_of_var.size());
    ws.ff_of_var.push_back(ff);
    ws.k_of_var.push_back(0);
  }

  void add_arc(int e) {
    const auto es = static_cast<std::size_t>(e);
    if (ws.in_model_epoch[es] == ws.epoch) return;
    ws.in_model_epoch[es] = ws.epoch;
    ws.active.push_back(e);
    const ssta::SeqArc& arc = solver.graph_->arcs[es];
    ensure_var(arc.src_ff);
    ensure_var(arc.dst_ff);
  }

  int var_of(int ff) const {
    const auto fs = static_cast<std::size_t>(ff);
    return ws.var_epoch[fs] == ws.epoch ? ws.var_of_ff[fs] : -1;
  }

  std::int64_t window_lo(int ff) const {
    return solver.windows_.k_lo[static_cast<std::size_t>(ff)];
  }
  std::int64_t window_hi(int ff) const {
    return solver.windows_.k_hi[static_cast<std::size_t>(ff)];
  }

  /// Connected components of the active arcs over working variables, built
  /// into the workspace pool; returns the component count.  Deterministic:
  /// components ordered by their smallest active-arc index.
  std::size_t components() {
    const std::size_t nv = ws.ff_of_var.size();
    ws.parent.resize(nv);
    for (std::size_t v = 0; v < nv; ++v) ws.parent[v] = static_cast<int>(v);
    const auto find = [&](int v) {
      while (ws.parent[static_cast<std::size_t>(v)] != v) {
        ws.parent[static_cast<std::size_t>(v)] =
            ws.parent[static_cast<std::size_t>(
                ws.parent[static_cast<std::size_t>(v)])];
        v = ws.parent[static_cast<std::size_t>(v)];
      }
      return v;
    };
    for (int e : ws.active) {
      const ssta::SeqArc& arc =
          solver.graph_->arcs[static_cast<std::size_t>(e)];
      const int vi = var_of(arc.src_ff);
      const int vj = var_of(arc.dst_ff);
      if (vi >= 0 && vj >= 0 && vi != vj)
        ws.parent[static_cast<std::size_t>(find(vi))] = find(vj);
    }
    ws.comp_of_root.assign(nv, -1);
    ws.comps_used = 0;
    // Assign arcs in insertion order so component order is deterministic.
    ws.sorted_active.assign(ws.active.begin(), ws.active.end());
    std::sort(ws.sorted_active.begin(), ws.sorted_active.end());
    for (int e : ws.sorted_active) {
      const ssta::SeqArc& arc =
          solver.graph_->arcs[static_cast<std::size_t>(e)];
      const int vi = var_of(arc.src_ff);
      const int vj = var_of(arc.dst_ff);
      const int root = find(vi >= 0 ? vi : vj);
      int& c = ws.comp_of_root[static_cast<std::size_t>(root)];
      if (c < 0) {
        c = static_cast<int>(ws.comps_used);
        if (ws.comps_used == ws.comps.size()) ws.comps.emplace_back();
        Component& fresh = ws.comps[ws.comps_used++];
        fresh.arcs.clear();
        fresh.vars.clear();
      }
      ws.comps[static_cast<std::size_t>(c)].arcs.push_back(e);
    }
    for (std::size_t v = 0; v < nv; ++v) {
      const int c = ws.comp_of_root[static_cast<std::size_t>(
          find(static_cast<int>(v)))];
      if (c >= 0)
        ws.comps[static_cast<std::size_t>(c)].vars.push_back(
            static_cast<int>(v));
    }
    return ws.comps_used;
  }

  /// Vertex-cover lower bound on the adjusted-buffer count of a component,
  /// from its violated arcs.
  int cover_lower_bound(const Component& comp) {
    ws.covered.assign(ws.ff_of_var.size(), 0);
    int lb = 0;
    for (int e : comp.arcs) {
      if (!violated(e)) continue;
      const ssta::SeqArc& arc =
          solver.graph_->arcs[static_cast<std::size_t>(e)];
      const int vi = var_of(arc.src_ff);
      const int vj = var_of(arc.dst_ff);
      if (vi >= 0 && vj >= 0) continue;
      const int forced = vi >= 0 ? vi : vj;
      if (!ws.covered[static_cast<std::size_t>(forced)]) {
        ws.covered[static_cast<std::size_t>(forced)] = 1;
        ++lb;
      }
    }
    for (int e : comp.arcs) {
      if (!violated(e)) continue;
      const ssta::SeqArc& arc =
          solver.graph_->arcs[static_cast<std::size_t>(e)];
      const int vi = var_of(arc.src_ff);
      const int vj = var_of(arc.dst_ff);
      if (vi < 0 || vj < 0) continue;
      if (ws.covered[static_cast<std::size_t>(vi)] ||
          ws.covered[static_cast<std::size_t>(vj)])
        continue;
      ws.covered[static_cast<std::size_t>(vi)] = 1;
      ws.covered[static_cast<std::size_t>(vj)] = 1;
      ++lb;
    }
    return lb;
  }

  /// Single-buffer closed form for a component: a one-buffer rescue must be
  /// incident to every violated arc of the component and satisfy all arcs
  /// incident to it in the whole graph (other flip-flops stay at 0).
  /// Fills `out` with the rescues among the endpoints of the first violated
  /// arc, source first, and returns how many there are (0, 1 or 2).
  int single_buffer_intervals(const Component& comp,
                              std::array<BufferInterval, 2>& out) const {
    int first_violated = -1;
    for (int e : comp.arcs)
      if (violated(e)) {
        first_violated = e;
        break;
      }
    if (first_violated < 0) return 0;
    int found = 0;
    const ssta::SeqArc& first =
        solver.graph_->arcs[static_cast<std::size_t>(first_violated)];
    for (const int b : {first.src_ff, first.dst_ff}) {
      if (var_of(b) < 0) continue;
      bool all_incident = true;
      for (int e : comp.arcs) {
        if (!violated(e)) continue;
        const ssta::SeqArc& arc =
            solver.graph_->arcs[static_cast<std::size_t>(e)];
        all_incident = all_incident && (arc.src_ff == b || arc.dst_ff == b);
      }
      if (!all_incident) continue;
      std::int64_t lo = window_lo(b);
      std::int64_t hi = window_hi(b);
      for (int e :
           solver.graph_->arcs_of_ff[static_cast<std::size_t>(b)]) {
        const ssta::SeqArc& arc =
            solver.graph_->arcs[static_cast<std::size_t>(e)];
        if (arc.src_ff == arc.dst_ff) continue;  // tuning cancels
        // Arcs whose far endpoint is a variable of another component are
        // handled by the global verification pass; the closed form treats
        // the far endpoint as 0 (components are disjoint in the active set,
        // and any conflict surfaces as a fresh violated arc).
        if (arc.src_ff == b) {
          hi = std::min(hi, setup(e));  //  x_b <= setup
          lo = std::max(lo, -hold(e));  // -x_b <= hold
        } else {
          lo = std::max(lo, -setup(e));  // -x_b <= setup
          hi = std::min(hi, hold(e));    //  x_b <= hold
        }
      }
      if (lo > hi) continue;
      out[static_cast<std::size_t>(found++)] =
          BufferInterval{var_of(b), lo, hi};
    }
    return found;
  }

  /// Builds the MILP for one component.  mode none => objective min sum(c);
  /// otherwise min sum(u) subject to sum(c) <= nk_limit.
  BuiltModel build(const Component& comp, ConcentrateMode mode,
                   const std::vector<double>* targets, int nk_limit,
                   std::vector<int>& local_of_var) const {
    BuiltModel bm;
    const std::size_t nv = comp.vars.size();
    bm.k_var.resize(nv);
    bm.c_var.resize(nv);
    const bool concentrate = mode != ConcentrateMode::none;
    if (concentrate) bm.u_var.resize(nv);

    for (std::size_t l = 0; l < nv; ++l) {
      const int v = comp.vars[l];
      local_of_var[static_cast<std::size_t>(v)] = static_cast<int>(l);
      const int ff = ws.ff_of_var[static_cast<std::size_t>(v)];
      const double lo = static_cast<double>(window_lo(ff));
      const double hi = static_cast<double>(window_hi(ff));
      bm.k_var[l] = bm.model.add_variable(lo, hi, 0.0);
      bm.c_var[l] = bm.model.add_variable(0.0, 1.0, concentrate ? 0.0 : 1.0);
      bm.int_vars.push_back(bm.c_var[l]);
      bm.k_int_vars.push_back(bm.k_var[l]);
      // Big-M linking (5)-(6) with the tightest valid constant.
      const double gamma = std::max(-lo, hi);
      bm.model.add_row(lp::Sense::less_equal,
                       {{bm.k_var[l], 1.0}, {bm.c_var[l], -gamma}}, 0.0);
      bm.model.add_row(lp::Sense::less_equal,
                       {{bm.k_var[l], -1.0}, {bm.c_var[l], -gamma}}, 0.0);
      if (concentrate) {
        // Targets are rounded to the step grid: with integral data the LP
        // then has integral-k vertices (fallback below covers exceptions).
        const double t = mode == ConcentrateMode::toward_zero
                             ? 0.0
                             : std::round((*targets)[
                                   static_cast<std::size_t>(ff)]);
        bm.u_var[l] = bm.model.add_variable(0.0, lp::kInf, 1.0);
        bm.model.add_row(lp::Sense::less_equal,
                         {{bm.k_var[l], 1.0}, {bm.u_var[l], -1.0}}, t);
        bm.model.add_row(lp::Sense::less_equal,
                         {{bm.k_var[l], -1.0}, {bm.u_var[l], -1.0}}, -t);
      }
    }
    if (concentrate) {
      std::vector<lp::Coefficient> row;
      for (std::size_t l = 0; l < nv; ++l) row.push_back({bm.c_var[l], 1.0});
      bm.model.add_row(lp::Sense::less_equal, row, nk_limit);
    }

    for (int e : comp.arcs) {
      const ssta::SeqArc& arc =
          solver.graph_->arcs[static_cast<std::size_t>(e)];
      const int vi = var_of(arc.src_ff);
      const int vj = var_of(arc.dst_ff);
      const int li = vi >= 0 ? local_of_var[static_cast<std::size_t>(vi)] : -1;
      const int lj = vj >= 0 ? local_of_var[static_cast<std::size_t>(vj)] : -1;
      CLKTUNE_ASSERT(li >= 0 || lj >= 0);
      CLKTUNE_ASSERT(li != lj);
      std::vector<lp::Coefficient> setup_row, hold_row;
      if (li >= 0) {
        setup_row.push_back({bm.k_var[static_cast<std::size_t>(li)], 1.0});
        hold_row.push_back({bm.k_var[static_cast<std::size_t>(li)], -1.0});
      }
      if (lj >= 0) {
        setup_row.push_back({bm.k_var[static_cast<std::size_t>(lj)], -1.0});
        hold_row.push_back({bm.k_var[static_cast<std::size_t>(lj)], 1.0});
      }
      bm.model.add_row(lp::Sense::less_equal, setup_row,
                       static_cast<double>(setup(e)));
      bm.model.add_row(lp::Sense::less_equal, hold_row,
                       static_cast<double>(hold(e)));
    }
    return bm;
  }

  /// Greedy buffer-set growth with a Bellman-Ford feasibility oracle over
  /// one component.  Fills ws.greedy_x (tunings per component var) and
  /// returns true, or returns false when the component is infeasible even
  /// with all its candidates.  Zero allocations in steady state: the
  /// difference-constraint oracle is a pooled workspace member.
  bool greedy_tunings(const Component& comp) {
    const std::size_t nv = comp.vars.size();
    ws.greedy_chosen.assign(nv, 0);
    ws.greedy_dense.assign(nv, -1);
    ws.greedy_local_of_var.assign(ws.ff_of_var.size(), -1);
    for (std::size_t l = 0; l < nv; ++l)
      ws.greedy_local_of_var[static_cast<std::size_t>(comp.vars[l])] =
          static_cast<int>(l);

    for (std::size_t round = 0; round <= nv; ++round) {
      int n_chosen = 0;
      for (std::size_t l = 0; l < nv; ++l)
        ws.greedy_dense[l] = ws.greedy_chosen[l] ? n_chosen++ : -1;
      const int ref = n_chosen;
      feas::DiffConstraints& sys = ws.oracle;
      sys.reset(n_chosen + 1);
      for (std::size_t l = 0; l < nv; ++l) {
        if (!ws.greedy_chosen[l]) continue;
        const int ff = ws.ff_of_var[static_cast<std::size_t>(comp.vars[l])];
        sys.add(ws.greedy_dense[l], ref, window_hi(ff));
        sys.add(ref, ws.greedy_dense[l], -window_lo(ff));
      }
      for (int e : comp.arcs) {
        const ssta::SeqArc& arc =
            solver.graph_->arcs[static_cast<std::size_t>(e)];
        const int vi = var_of(arc.src_ff);
        const int vj = var_of(arc.dst_ff);
        const int li =
            vi >= 0 ? ws.greedy_local_of_var[static_cast<std::size_t>(vi)]
                    : -1;
        const int lj =
            vj >= 0 ? ws.greedy_local_of_var[static_cast<std::size_t>(vj)]
                    : -1;
        const int ui = li >= 0 && ws.greedy_chosen[static_cast<std::size_t>(li)]
                           ? ws.greedy_dense[static_cast<std::size_t>(li)]
                           : ref;
        const int uj = lj >= 0 && ws.greedy_chosen[static_cast<std::size_t>(lj)]
                           ? ws.greedy_dense[static_cast<std::size_t>(lj)]
                           : ref;
        sys.add(ui, uj, setup(e));
        sys.add(uj, ui, hold(e));
      }
      if (const std::vector<std::int64_t>* sol = sys.solve_inplace()) {
        ws.greedy_x.assign(nv, 0);
        const std::int64_t base = (*sol)[static_cast<std::size_t>(ref)];
        for (std::size_t l = 0; l < nv; ++l)
          if (ws.greedy_chosen[l])
            ws.greedy_x[l] =
                (*sol)[static_cast<std::size_t>(ws.greedy_dense[l])] - base;
        return true;
      }
      if (round == nv) break;
      // Add the unchosen var with the highest incidence on component arcs.
      int best = -1;
      int best_score = -1;
      ws.greedy_score.assign(nv, 0);
      for (int e : comp.arcs) {
        const ssta::SeqArc& arc =
            solver.graph_->arcs[static_cast<std::size_t>(e)];
        for (const int ff : {arc.src_ff, arc.dst_ff}) {
          const int v = var_of(ff);
          if (v < 0) continue;
          const int l = ws.greedy_local_of_var[static_cast<std::size_t>(v)];
          if (l >= 0 && !ws.greedy_chosen[static_cast<std::size_t>(l)])
            ++ws.greedy_score[static_cast<std::size_t>(l)];
        }
      }
      for (std::size_t l = 0; l < nv; ++l) {
        if (ws.greedy_chosen[l]) continue;
        if (ws.greedy_score[l] > best_score) {
          best_score = ws.greedy_score[l];
          best = static_cast<int>(l);
        }
      }
      if (best < 0) break;
      ws.greedy_chosen[static_cast<std::size_t>(best)] = 1;
    }
    return false;
  }

  /// Checks the current global assignment against all arcs incident to
  /// adjusted flip-flops; fills ws.fresh with newly violated arcs not yet
  /// in the model.
  const std::vector<int>& fresh_violations() {
    ws.fresh.clear();
    const auto value_of_ff = [&](int ff) -> std::int64_t {
      const int v = var_of(ff);
      return v < 0 ? 0 : ws.k_of_var[static_cast<std::size_t>(v)];
    };
    for (std::size_t v = 0; v < ws.ff_of_var.size(); ++v) {
      if (ws.k_of_var[v] == 0) continue;
      const int ff = ws.ff_of_var[v];
      for (int e : solver.graph_->arcs_of_ff[static_cast<std::size_t>(ff)]) {
        if (in_model(e)) continue;
        const ssta::SeqArc& arc =
            solver.graph_->arcs[static_cast<std::size_t>(e)];
        if (arc.src_ff == arc.dst_ff) continue;
        const std::int64_t xi = value_of_ff(arc.src_ff);
        const std::int64_t xj = value_of_ff(arc.dst_ff);
        if (xi - xj > setup(e) || xj - xi > hold(e)) ws.fresh.push_back(e);
      }
    }
    std::sort(ws.fresh.begin(), ws.fresh.end());
    ws.fresh.erase(std::unique(ws.fresh.begin(), ws.fresh.end()),
                   ws.fresh.end());
    return ws.fresh;
  }
};

SampleSolution SampleSolver::solve(const mc::ArcSample& arc_sample,
                                   ConcentrateMode mode,
                                   const std::vector<double>* targets) const {
  thread_local SolveWorkspace tls_ws;
  mc::quantize_arc_constants(*graph_, arc_sample, clock_period_, step_ps_,
                             tls_ws.constants);
  const mc::ArcConstants& c = tls_ws.constants;
  tls_ws.violated.clear();
  for (std::size_t e = 0; e < c.setup_steps.size(); ++e)
    if (c.setup_steps[e] < 0 || c.hold_steps[e] < 0)
      tls_ws.violated.push_back(static_cast<int>(e));
  tls_ws.memo.begin(c);
  return solve_sample(tls_ws.violated, mode, targets, tls_ws);
}

SampleSolution SampleSolver::solve(const mc::ArcScreen& screen,
                                   std::uint64_t k,
                                   std::span<const int> violated,
                                   ConcentrateMode mode,
                                   const std::vector<double>* targets,
                                   SolveWorkspace& ws) const {
  CLKTUNE_EXPECTS(&screen.sampler().graph() == graph_ &&
                  screen.clock_period_ps() == clock_period_ &&
                  screen.step_ps() == step_ps_);
  ws.memo.begin(screen, k);
  return solve_sample(violated, mode, targets, ws);
}

SampleSolution SampleSolver::solve_sample(std::span<const int> violated,
                                          ConcentrateMode mode,
                                          const std::vector<double>* targets,
                                          SolveWorkspace& ws) const {
  CLKTUNE_EXPECTS(mode != ConcentrateMode::toward_target ||
                  targets != nullptr);
  const ssta::SeqGraph& g = *graph_;
  SampleSolution out;

  WorkingModel wm(*this, ws);

  // Seed the working model with the violated arcs, in ascending order.
  for (const int e : violated) {
    const ssta::SeqArc& arc = g.arcs[static_cast<std::size_t>(e)];
    const bool tunable =
        arc.src_ff != arc.dst_ff &&
        (windows_.candidate[static_cast<std::size_t>(arc.src_ff)] ||
         windows_.candidate[static_cast<std::size_t>(arc.dst_ff)]);
    if (!tunable) {
      out.fixable = false;  // failing arc that no buffer can influence
      return out;
    }
    wm.add_arc(e);
    wm.mark_violated(e);
  }
  if (violated.empty()) return out;  // chip meets timing untouched: n_k = 0

  milp::Options milp_opt;
  milp_opt.max_nodes = milp_max_nodes_;

  // Solves a built model; re-solves with integral k's only if the LP-vertex
  // integrality argument fails numerically.
  const auto solve_built = [&](BuiltModel& bm,
                               const std::optional<milp::Incumbent>& warm)
      -> milp::Result {
    milp::Options opt = milp_opt;
    opt.objective_is_integral = true;
    milp::Result res = milp::solve(bm.model, bm.int_vars, opt, warm);
    ++out.milps_solved;
    out.milp_nodes += res.nodes_explored;
    if (res.status == milp::Status::optimal ||
        res.status == milp::Status::feasible) {
      bool k_integral = true;
      for (int kv : bm.k_int_vars) {
        const double x = res.x[static_cast<std::size_t>(kv)];
        k_integral = k_integral && std::abs(x - std::round(x)) <= 1e-6;
      }
      if (!k_integral) {
        std::vector<int> all_ints = bm.int_vars;
        all_ints.insert(all_ints.end(), bm.k_int_vars.begin(),
                        bm.k_int_vars.end());
        res = milp::solve(bm.model, all_ints, opt, warm);
        ++out.milps_solved;
        out.milp_nodes += res.nodes_explored;
      }
    }
    return res;
  };

  // Lazy loop: solve each connected component independently (min-count then
  // concentration), then verify the assembled assignment globally; newly
  // violated arcs join the model and the loop repeats.  Component
  // independence makes the sum of component optima the global optimum.
  for (int round = 0;; ++round) {
    CLKTUNE_ASSERT(round <= static_cast<int>(g.arcs.size()));
    out.lazy_rounds = round + 1;
    ws.mincount_acc.clear();
    std::fill(ws.k_of_var.begin(), ws.k_of_var.end(), 0);
    int nk_total = 0;

    const std::size_t ncomps = wm.components();
    ws.local_of_var.assign(ws.ff_of_var.size(), -1);
    for (std::size_t ci = 0; ci < ncomps; ++ci) {
      const Component& comp = ws.comps[ci];
      bool has_violated = false;
      for (int e : comp.arcs) has_violated |= wm.violated(e);
      if (!has_violated) continue;  // pure side constraints: x = 0 works

      // -- single-buffer closed form ------------------------------------
      std::array<BufferInterval, 2> rescues;
      if (const int n_rescues = wm.single_buffer_intervals(comp, rescues)) {
        const BufferInterval& first = rescues[0];
        CLKTUNE_ASSERT(first.lo > 0 || first.hi < 0);
        // A count-only ILP returns an arbitrary feasible value; emulate the
        // scatter with the first rescue's endpoint farthest from zero.
        const std::int64_t scatter =
            std::llabs(first.lo) >= std::llabs(first.hi) ? first.lo : first.hi;
        ws.mincount_acc.emplace_back(
            ws.ff_of_var[static_cast<std::size_t>(first.var)],
            static_cast<int>(scatter));
        // Concentration takes the rescue and value that lower the objective
        // most against the all-zero component, |k - t| - |t| with t = 0
        // toward zero, as the concentration ILP would over both endpoints.
        int var = first.var;
        std::int64_t k = scatter;
        if (mode != ConcentrateMode::none) {
          std::int64_t best = std::numeric_limits<std::int64_t>::max();
          for (int r = 0; r < n_rescues; ++r) {
            const BufferInterval& rescue = rescues[static_cast<std::size_t>(r)];
            const int ff = ws.ff_of_var[static_cast<std::size_t>(rescue.var)];
            const std::int64_t t =
                mode == ConcentrateMode::toward_zero
                    ? 0
                    : std::llround((*targets)[static_cast<std::size_t>(ff)]);
            const std::int64_t value = std::clamp(t, rescue.lo, rescue.hi);
            const std::int64_t change = std::llabs(value - t) - std::llabs(t);
            if (change < best) {
              best = change;
              var = rescue.var;
              k = value;
            }
          }
        }
        ws.k_of_var[static_cast<std::size_t>(var)] = k;
        nk_total += 1;
        continue;
      }

      // -- greedy + vertex-cover bound ----------------------------------
      // The single-buffer form failed, so this component needs >= 2.
      const int lb = std::max(2, wm.cover_lower_bound(comp));
      const bool has_greedy = wm.greedy_tunings(comp);
      int greedy_support = 0;
      if (has_greedy)
        for (std::int64_t x : ws.greedy_x) greedy_support += x != 0 ? 1 : 0;

      int nk_comp = 0;
      if (has_greedy && greedy_support <= lb) {
        ws.count_solution.assign(ws.greedy_x.begin(), ws.greedy_x.end());
        nk_comp = greedy_support;
      } else {
        BuiltModel bm = wm.build(comp, ConcentrateMode::none, nullptr, -1,
                                 ws.local_of_var);
        std::optional<milp::Incumbent> warm;
        if (has_greedy) {
          milp::Incumbent inc;
          inc.x.assign(static_cast<std::size_t>(bm.model.num_variables()),
                       0.0);
          for (std::size_t l = 0; l < comp.vars.size(); ++l) {
            inc.x[static_cast<std::size_t>(bm.k_var[l])] =
                static_cast<double>(ws.greedy_x[l]);
            inc.x[static_cast<std::size_t>(bm.c_var[l])] =
                ws.greedy_x[l] != 0 ? 1.0 : 0.0;
          }
          inc.objective = bm.model.objective_value(inc.x);
          warm = std::move(inc);
        }
        const milp::Result res = solve_built(bm, warm);
        if (res.status == milp::Status::infeasible) {
          out.fixable = false;
          return out;
        }
        if (res.status != milp::Status::optimal &&
            res.status != milp::Status::feasible) {
          out.fixable = false;
          out.truncated = true;
          return out;
        }
        out.truncated |= res.status == milp::Status::feasible;
        ws.count_solution.resize(comp.vars.size());
        for (std::size_t l = 0; l < comp.vars.size(); ++l)
          ws.count_solution[l] = std::llround(
              res.x[static_cast<std::size_t>(bm.k_var[l])]);
        nk_comp = static_cast<int>(std::llround(res.objective));
      }
      nk_total += nk_comp;
      for (std::size_t l = 0; l < comp.vars.size(); ++l) {
        const int ff = ws.ff_of_var[static_cast<std::size_t>(comp.vars[l])];
        if (ws.count_solution[l] != 0)
          ws.mincount_acc.emplace_back(ff,
                                       static_cast<int>(ws.count_solution[l]));
      }

      // -- concentration (III-A3 / III-B2) ------------------------------
      ws.final_solution.assign(ws.count_solution.begin(),
                               ws.count_solution.end());
      if (mode != ConcentrateMode::none) {
        BuiltModel bm =
            wm.build(comp, mode, targets, nk_comp, ws.local_of_var);
        milp::Incumbent inc;
        inc.x.assign(static_cast<std::size_t>(bm.model.num_variables()), 0.0);
        for (std::size_t l = 0; l < comp.vars.size(); ++l) {
          const int ff =
              ws.ff_of_var[static_cast<std::size_t>(comp.vars[l])];
          const double t =
              mode == ConcentrateMode::toward_zero
                  ? 0.0
                  : std::round((*targets)[static_cast<std::size_t>(ff)]);
          const auto kv = static_cast<double>(ws.count_solution[l]);
          inc.x[static_cast<std::size_t>(bm.k_var[l])] = kv;
          inc.x[static_cast<std::size_t>(bm.c_var[l])] = kv != 0.0 ? 1.0 : 0.0;
          inc.x[static_cast<std::size_t>(bm.u_var[l])] = std::abs(kv - t);
        }
        inc.objective = bm.model.objective_value(inc.x);
        const milp::Result res = solve_built(bm, inc);
        out.truncated |= res.status != milp::Status::optimal;
        CLKTUNE_ASSERT(res.status == milp::Status::optimal ||
                       res.status == milp::Status::feasible);
        for (std::size_t l = 0; l < comp.vars.size(); ++l)
          ws.final_solution[l] = std::llround(
              res.x[static_cast<std::size_t>(bm.k_var[l])]);
      }
      for (std::size_t l = 0; l < comp.vars.size(); ++l)
        ws.k_of_var[static_cast<std::size_t>(comp.vars[l])] =
            ws.final_solution[l];
    }

    out.nk = nk_total;
    const std::vector<int>& fresh = wm.fresh_violations();
    if (fresh.empty()) break;
    for (int e : fresh) wm.add_arc(e);
  }

  out.mincount_tunings.assign(ws.mincount_acc.begin(), ws.mincount_acc.end());
  out.tunings.clear();
  for (std::size_t v = 0; v < ws.ff_of_var.size(); ++v)
    if (ws.k_of_var[v] != 0)
      out.tunings.emplace_back(ws.ff_of_var[v],
                               static_cast<int>(ws.k_of_var[v]));
  return out;
}

}  // namespace clktune::core
