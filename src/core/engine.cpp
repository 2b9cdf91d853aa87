#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/sample_solver.h"
#include "mc/arc_screen.h"
#include "mc/sampler.h"
#include "netlist/nominal_sta.h"
#include "util/assert.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace clktune::core {
namespace {

using SparseSolution = std::vector<std::pair<int, int>>;

struct PassOutput {
  std::vector<SparseSolution> solutions;
  std::vector<SparseSolution> mincount;
  std::vector<int> nk;
  std::vector<char> fixable;
  PhaseDiagnostics diag;
};

/// One solve per sample.  The first pass screens every sample into
/// `violated` (its violated arcs, ascending); later passes reuse the lists,
/// which hold for every pass because all three share the screen's sampler,
/// period and step grid.
PassOutput run_pass(const mc::ArcScreen& screen,
                    std::vector<std::vector<int>>& violated, bool first_pass,
                    std::uint64_t samples, const CandidateWindows& windows,
                    ConcentrateMode mode, const std::vector<double>* targets,
                    const InsertionConfig& config, bool keep_mincount) {
  PassOutput out;
  out.solutions.resize(samples);
  if (keep_mincount) out.mincount.resize(samples);
  out.nk.assign(samples, 0);
  out.fixable.assign(samples, 1);

  const SampleSolver solver(screen.sampler().graph(), screen.step_ps(),
                            screen.clock_period_ps(), windows,
                            config.milp_max_nodes);
  const std::size_t workers = util::resolve_thread_count(
      config.threads <= 0 ? 0 : static_cast<std::size_t>(config.threads));
  std::vector<PhaseDiagnostics> diags(workers);

  // Strided scheduling: failing samples (the expensive ones) cluster, and
  // interleaving spreads them across workers.  All per-sample outputs are
  // written to sample-indexed slots, so the result is schedule-independent.
  util::parallel_strided(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t k) {
        thread_local SolveWorkspace ws;
        if (first_pass) screen.violated_arcs(k, violated[k]);
        SampleSolution sol =
            solver.solve(screen, k, violated[k], mode, targets, ws);
        PhaseDiagnostics& d = diags[w];
        d.milps_solved += static_cast<std::uint64_t>(sol.milps_solved);
        d.milp_nodes += static_cast<std::uint64_t>(sol.milp_nodes);
        d.lazy_rounds += static_cast<std::uint64_t>(sol.lazy_rounds);
        d.truncated_milps += sol.truncated ? 1 : 0;
        if (!sol.fixable) {
          out.fixable[k] = 0;
          ++d.unfixable_samples;
          ++d.samples_with_violations;
          return;
        }
        if (sol.nk > 0) ++d.samples_with_violations;
        out.nk[k] = sol.nk;
        out.solutions[k] = std::move(sol.tunings);
        if (keep_mincount) out.mincount[k] = std::move(sol.mincount_tunings);
      });
  for (const PhaseDiagnostics& d : diags) out.diag.merge(d);
  return out;
}

}  // namespace

BufferInsertionEngine::BufferInsertionEngine(const netlist::Design& design,
                                             const ssta::SeqGraph& graph,
                                             double clock_period_ps,
                                             InsertionConfig config)
    : design_(&design),
      graph_(&graph),
      clock_period_(clock_period_ps),
      config_(config) {
  CLKTUNE_EXPECTS(clock_period_ps > 0.0);
  CLKTUNE_EXPECTS(config_.steps >= 2);
  tau_ps_ = config_.max_range_ps > 0.0
                ? config_.max_range_ps
                : netlist::nominal_min_period(design) / 8.0;
  CLKTUNE_EXPECTS(tau_ps_ > 0.0);
  step_ps_ = tau_ps_ / config_.steps;
}

InsertionResult BufferInsertionEngine::run() {
  util::Stopwatch total;
  const int ns = graph_->num_ffs;
  const std::uint64_t samples = config_.num_samples;
  InsertionResult res;
  res.step_ps = step_ps_;
  res.tau_ps = tau_ps_;
  res.clock_period_ps = clock_period_;
  res.plan.step_ps = step_ps_;
  res.plan.reset_groups();

  const mc::Sampler sampler(*graph_, config_.sample_seed);
  const mc::ArcScreen screen(sampler, clock_period_, step_ps_,
                            mc::ArcScreen::Pass::violated_arcs,
                            config_.threads);
  std::vector<std::vector<int>> violated(samples);

  // ------------------- step 1: floating lower bounds ----------------------
  util::Stopwatch sw1;
  const CandidateWindows floating =
      CandidateWindows::floating(ns, config_.steps);
  const ConcentrateMode mode1 = config_.enable_concentration
                                    ? ConcentrateMode::toward_zero
                                    : ConcentrateMode::none;
  PassOutput p1 = run_pass(screen, violated, true, samples, floating, mode1,
                           nullptr, config_, true);
  res.step1 = p1.diag;
  res.step1.seconds = sw1.seconds();

  res.step1_usage.assign(static_cast<std::size_t>(ns), 0);
  res.hist_step1_min.assign(static_cast<std::size_t>(ns), {});
  res.hist_step1_conc.assign(static_cast<std::size_t>(ns), {});
  for (std::uint64_t k = 0; k < samples; ++k) {
    for (const auto& [ff, kv] : p1.mincount[k])
      res.hist_step1_min[static_cast<std::size_t>(ff)].add(kv);
    for (const auto& [ff, kv] : p1.solutions[k]) {
      res.hist_step1_conc[static_cast<std::size_t>(ff)].add(kv);
      ++res.step1_usage[static_cast<std::size_t>(ff)];
    }
  }

  // ------------------- pruning (III-A2) -----------------------------------
  res.kept_after_prune.assign(static_cast<std::size_t>(ns), 1);
  res.pruned_count = 0;
  if (config_.enable_pruning) {
    const std::uint64_t prune_max = config_.prune_usage_max();
    const std::uint64_t critical = config_.critical_usage();
    for (int f = 0; f < ns; ++f) {
      const auto fs = static_cast<std::size_t>(f);
      if (res.step1_usage[fs] > prune_max) continue;
      bool critical_neighbor = false;
      for (int e : graph_->arcs_of_ff[fs]) {
        const ssta::SeqArc& arc = graph_->arcs[static_cast<std::size_t>(e)];
        const int other = arc.src_ff == f ? arc.dst_ff : arc.src_ff;
        if (other != f &&
            res.step1_usage[static_cast<std::size_t>(other)] >= critical) {
          critical_neighbor = true;
          break;
        }
      }
      if (!critical_neighbor) {
        res.kept_after_prune[fs] = 0;
        ++res.pruned_count;
      }
    }
  }

  // ------------------- window assignment (III-A4) -------------------------
  CandidateWindows fixed = CandidateWindows::none(ns);
  std::vector<int> kept;
  for (int f = 0; f < ns; ++f) {
    const auto fs = static_cast<std::size_t>(f);
    if (!res.kept_after_prune[fs]) continue;
    int lo = res.hist_step1_conc[fs].best_window_lower_bound(config_.steps);
    // The window is the buffer's physical range: it must contain the
    // resting value 0 so unadjusted chips are realisable.
    lo = std::clamp(lo, -config_.steps, 0);
    fixed.candidate[fs] = 1;
    fixed.k_lo[fs] = lo;
    fixed.k_hi[fs] = lo + config_.steps;
    kept.push_back(f);
  }

  // ------------------- skip rule (III-B1) ---------------------------------
  std::uint64_t missing = 0;
  for (std::uint64_t k = 0; k < samples; ++k) {
    bool out_of_window = false;
    for (const auto& [ff, kv] : p1.solutions[k]) {
      const auto fs = static_cast<std::size_t>(ff);
      if (!fixed.candidate[fs] || kv < fixed.k_lo[fs] || kv > fixed.k_hi[fs]) {
        out_of_window = true;
        break;
      }
    }
    missing += out_of_window ? 1 : 0;
  }
  res.out_of_window_fraction =
      samples == 0 ? 0.0
                   : static_cast<double>(missing) / static_cast<double>(samples);
  res.step2a_skipped =
      res.out_of_window_fraction < config_.window_skip_fraction;

  // ------------------- step 2a: re-simulate with fixed bounds -------------
  PassOutput p2a;
  if (!res.step2a_skipped) {
    util::Stopwatch sw;
    p2a = run_pass(screen, violated, false, samples, fixed,
                   ConcentrateMode::none, nullptr, config_, false);
    res.step2a = p2a.diag;
    res.step2a.seconds = sw.seconds();
  } else {
    // Reuse step-1 tunings, clamped into the assigned windows, as the
    // basis for the averages (the <0.1 % of samples that fall outside are
    // the approximation the paper accepts here).
    p2a.solutions.resize(samples);
    p2a.nk = p1.nk;
    p2a.fixable = p1.fixable;
    for (std::uint64_t k = 0; k < samples; ++k) {
      for (const auto& [ff, kv] : p1.solutions[k]) {
        const auto fs = static_cast<std::size_t>(ff);
        if (!fixed.candidate[fs]) continue;
        const int clamped = std::clamp(kv, fixed.k_lo[fs], fixed.k_hi[fs]);
        if (clamped != 0) p2a.solutions[k].emplace_back(ff, clamped);
      }
    }
  }

  // ------------------- x_avg (III-B2) --------------------------------------
  std::vector<double> targets(static_cast<std::size_t>(ns), 0.0);
  {
    std::vector<double> sum(static_cast<std::size_t>(ns), 0.0);
    std::vector<std::uint64_t> nonzero(static_cast<std::size_t>(ns), 0);
    for (std::uint64_t k = 0; k < samples; ++k)
      for (const auto& [ff, kv] : p2a.solutions[k]) {
        sum[static_cast<std::size_t>(ff)] += kv;
        ++nonzero[static_cast<std::size_t>(ff)];
      }
    for (int f : kept) {
      const auto fs = static_cast<std::size_t>(f);
      if (config_.average_nonzero_only) {
        targets[fs] = nonzero[fs] == 0
                          ? 0.0
                          : sum[fs] / static_cast<double>(nonzero[fs]);
      } else {
        targets[fs] =
            samples == 0 ? 0.0 : sum[fs] / static_cast<double>(samples);
      }
      // The target must be representable inside the window.
      targets[fs] = std::clamp(targets[fs],
                               static_cast<double>(fixed.k_lo[fs]),
                               static_cast<double>(fixed.k_hi[fs]));
    }
  }

  // ------------------- step 2b: concentrate toward the average ------------
  util::Stopwatch sw2b;
  const ConcentrateMode mode2 = config_.enable_concentration
                                    ? ConcentrateMode::toward_target
                                    : ConcentrateMode::none;
  PassOutput p2b = run_pass(screen, violated, false, samples, fixed, mode2,
                            &targets, config_, false);
  res.step2b = p2b.diag;
  res.step2b.seconds = sw2b.seconds();

  // ------------------- final per-buffer statistics ------------------------
  res.hist_step2.assign(static_cast<std::size_t>(ns), {});
  const std::size_t nk_kept = kept.size();
  std::vector<int> kept_index(static_cast<std::size_t>(ns), -1);
  for (std::size_t i = 0; i < nk_kept; ++i)
    kept_index[static_cast<std::size_t>(kept[i])] = static_cast<int>(i);

  std::vector<std::uint64_t> usage(nk_kept, 0);
  std::vector<int> min_k(nk_kept, std::numeric_limits<int>::max());
  std::vector<int> max_k(nk_kept, std::numeric_limits<int>::min());
  std::vector<double> sx(nk_kept, 0.0), sxx(nk_kept, 0.0);
  // Sparse pair products: tunings are zero in most samples, so E[x_i x_j]
  // only accumulates when both are adjusted in the same sample.
  std::vector<std::vector<double>> sxy(nk_kept,
                                       std::vector<double>(nk_kept, 0.0));
  for (std::uint64_t k = 0; k < samples; ++k) {
    const SparseSolution& sol = p2b.solutions[k];
    for (std::size_t a = 0; a < sol.size(); ++a) {
      const int ia = kept_index[static_cast<std::size_t>(sol[a].first)];
      CLKTUNE_ASSERT(ia >= 0);
      const auto ias = static_cast<std::size_t>(ia);
      const double ka = sol[a].second;
      res.hist_step2[static_cast<std::size_t>(sol[a].first)].add(sol[a].second);
      ++usage[ias];
      min_k[ias] = std::min(min_k[ias], sol[a].second);
      max_k[ias] = std::max(max_k[ias], sol[a].second);
      sx[ias] += ka;
      sxx[ias] += ka * ka;
      for (std::size_t b = a + 1; b < sol.size(); ++b) {
        const int ib = kept_index[static_cast<std::size_t>(sol[b].first)];
        const auto ibs = static_cast<std::size_t>(ib);
        const double kb = sol[b].second;
        sxy[std::min(ias, ibs)][std::max(ias, ibs)] += ka * kb;
      }
    }
  }

  // ------------------- final buffer selection -----------------------------
  const std::uint64_t usage_min = config_.final_usage_min();
  std::vector<int> final_local;  // indices into `kept`
  for (std::size_t i = 0; i < nk_kept; ++i)
    if (usage[i] >= usage_min) final_local.push_back(static_cast<int>(i));

  res.buffers.clear();
  res.plan.buffers.clear();
  for (int i : final_local) {
    const auto is = static_cast<std::size_t>(i);
    const int ff = kept[is];
    const auto fs = static_cast<std::size_t>(ff);
    BufferInfo info;
    info.ff = ff;
    info.window_lo = fixed.k_lo[fs];
    info.window_hi = fixed.k_hi[fs];
    info.range_lo = std::min(min_k[is], 0);
    info.range_hi = std::max(max_k[is], 0);
    info.usage_step1 = res.step1_usage[fs];
    info.usage_final = usage[is];
    info.avg_k = usage[is] == 0 ? 0.0 : sx[is] / static_cast<double>(usage[is]);
    res.buffers.push_back(info);
    res.plan.buffers.push_back(
        feas::BufferWindow{ff, info.range_lo, info.range_hi});
  }

  // Correlation over the final buffer list (population moments; zeros
  // included implicitly via the sparse sums).
  const std::size_t nb = final_local.size();
  res.correlation.assign(nb, std::vector<double>(nb, 0.0));
  const double n = static_cast<double>(samples);
  for (std::size_t a = 0; a < nb; ++a) {
    const auto ia = static_cast<std::size_t>(final_local[a]);
    const double mean_a = sx[ia] / n;
    const double var_a = sxx[ia] / n - mean_a * mean_a;
    for (std::size_t b = a; b < nb; ++b) {
      const auto ib = static_cast<std::size_t>(final_local[b]);
      if (a == b) {
        res.correlation[a][b] = var_a > 1e-12 ? 1.0 : 0.0;
        continue;
      }
      const double mean_b = sx[ib] / n;
      const double var_b = sxx[ib] / n - mean_b * mean_b;
      const double cov =
          sxy[std::min(ia, ib)][std::max(ia, ib)] / n - mean_a * mean_b;
      const double denom = std::sqrt(std::max(var_a, 0.0) *
                                     std::max(var_b, 0.0));
      const double corr = denom > 1e-12 ? cov / denom : 0.0;
      res.correlation[a][b] = corr;
      res.correlation[b][a] = corr;
    }
  }

  // ------------------- step 3: grouping (III-C) ---------------------------
  res.plan.reset_groups();
  if (config_.enable_grouping && nb > 1) {
    const double dt = config_.dist_factor * design_->ff_pitch;
    auto eligible = [&](std::size_t a, std::size_t b) {
      if (res.correlation[a][b] < config_.corr_threshold) return false;
      const auto& pa =
          design_->ff_position[static_cast<std::size_t>(res.buffers[a].ff)];
      const auto& pb =
          design_->ff_position[static_cast<std::size_t>(res.buffers[b].ff)];
      return netlist::manhattan(pa, pb) <= dt;
    };
    // Complete-linkage agglomeration in descending correlation order.
    struct Pair {
      std::size_t a, b;
      double corr;
    };
    std::vector<Pair> pairs;
    for (std::size_t a = 0; a < nb; ++a)
      for (std::size_t b = a + 1; b < nb; ++b)
        if (eligible(a, b)) pairs.push_back({a, b, res.correlation[a][b]});
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& x, const Pair& y) { return x.corr > y.corr; });
    std::vector<int> group(nb);
    std::iota(group.begin(), group.end(), 0);
    std::vector<std::vector<std::size_t>> members(nb);
    for (std::size_t i = 0; i < nb; ++i) members[i] = {i};
    for (const Pair& p : pairs) {
      const int ga = group[p.a];
      const int gb = group[p.b];
      if (ga == gb) continue;
      bool all_ok = true;
      for (std::size_t x : members[static_cast<std::size_t>(ga)])
        for (std::size_t y : members[static_cast<std::size_t>(gb)])
          all_ok = all_ok && eligible(x, y);
      if (!all_ok) continue;
      for (std::size_t y : members[static_cast<std::size_t>(gb)]) {
        group[y] = ga;
        members[static_cast<std::size_t>(ga)].push_back(y);
      }
      members[static_cast<std::size_t>(gb)].clear();
    }
    // Compact group ids.
    std::vector<int> remap(nb, -1);
    int next = 0;
    res.plan.group_of.assign(nb, 0);
    for (std::size_t i = 0; i < nb; ++i) {
      const auto gs = static_cast<std::size_t>(group[i]);
      if (remap[gs] < 0) remap[gs] = next++;
      res.plan.group_of[i] = remap[gs];
    }
    res.plan.num_groups = next;
  }

  // ------------------- designer cap on buffer count -----------------------
  if (config_.max_buffers >= 0 &&
      res.plan.num_groups > config_.max_buffers) {
    // Drop whole groups with the fewest total tunings until within budget.
    std::vector<std::uint64_t> group_usage(
        static_cast<std::size_t>(res.plan.num_groups), 0);
    for (std::size_t i = 0; i < res.buffers.size(); ++i)
      group_usage[static_cast<std::size_t>(res.plan.group_of[i])] +=
          res.buffers[i].usage_final;
    std::vector<int> order(res.plan.num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return group_usage[static_cast<std::size_t>(a)] <
             group_usage[static_cast<std::size_t>(b)];
    });
    std::vector<char> dropped(static_cast<std::size_t>(res.plan.num_groups), 0);
    for (int i = 0; i < res.plan.num_groups - config_.max_buffers; ++i)
      dropped[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
    std::vector<BufferInfo> keep_info;
    feas::TuningPlan pruned_plan;
    pruned_plan.step_ps = res.plan.step_ps;
    std::vector<int> gremap(static_cast<std::size_t>(res.plan.num_groups), -1);
    int next = 0;
    for (std::size_t i = 0; i < res.buffers.size(); ++i) {
      const int g = res.plan.group_of[i];
      if (dropped[static_cast<std::size_t>(g)]) continue;
      if (gremap[static_cast<std::size_t>(g)] < 0)
        gremap[static_cast<std::size_t>(g)] = next++;
      keep_info.push_back(res.buffers[i]);
      pruned_plan.buffers.push_back(res.plan.buffers[i]);
      pruned_plan.group_of.push_back(gremap[static_cast<std::size_t>(g)]);
    }
    pruned_plan.num_groups = next;
    res.buffers = std::move(keep_info);
    res.plan = std::move(pruned_plan);
  }

  for (std::size_t i = 0; i < res.buffers.size(); ++i)
    res.buffers[i].group = res.plan.group_of[i];

  res.total_seconds = total.seconds();
  return res;
}

}  // namespace clktune::core
