#include "feas/yield_eval.h"

#include <algorithm>
#include <cmath>

#include "mc/arc_constants.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/thread_pool.h"

namespace clktune::feas {

namespace {

/// MC hot-path metrics.  The evaluate() loop records into these from the
/// worker threads: one counter add per *chunk* (not per sample), counting
/// every chip it decides, and one timed decision every 64th sample, so the
/// instrumentation stays strictly bounded — judge() itself is untouched,
/// which is what keeps the zero-allocation assertions and the perf gate
/// honest.
struct McMetrics {
  obs::Counter& samples;
  obs::Histogram& solve_seconds;

  static McMetrics& get() {
    static McMetrics m{
        obs::Registry::global().counter(
            "clktune_mc_samples_total",
            "Monte-Carlo feasibility samples evaluated"),
        obs::Registry::global().histogram(
            "clktune_mc_solve_seconds",
            "Per-sample feasibility solve wall time (sampled 1-in-64)",
            1e-9),
    };
    return m;
  }
};

/// Stride of the per-sample timing probe: every 64th solve pays two
/// steady-clock reads, the rest pay nothing.
constexpr std::uint64_t kSolveTimingStride = 64;

}  // namespace

void YieldEvaluator::add_static_edge(int u, int v, std::int64_t w) {
  // Constraint x_u - x_v <= w: edge v -> u with weight w.
  edge_to_.push_back(u);
  edge_next_.push_back(head_[static_cast<std::size_t>(v)]);
  head_[static_cast<std::size_t>(v)] =
      static_cast<int>(edge_to_.size()) - 1;
  weights_template_.push_back(w);
}

YieldEvaluator::YieldEvaluator(const ssta::SeqGraph& graph, TuningPlan plan,
                               double clock_period_ps)
    : graph_(&graph), plan_(std::move(plan)), clock_period_(clock_period_ps) {
  CLKTUNE_EXPECTS(clock_period_ps > 0.0);
  if (plan_.group_of.size() != plan_.buffers.size()) plan_.reset_groups();
  var_of_ff_.assign(static_cast<std::size_t>(graph.num_ffs), -1);
  for (std::size_t i = 0; i < plan_.buffers.size(); ++i) {
    const int ff = plan_.buffers[i].ff;
    CLKTUNE_EXPECTS(ff >= 0 && ff < graph.num_ffs);
    var_of_ff_[static_cast<std::size_t>(ff)] = plan_.group_of[i];
  }
  group_windows_.clear();
  for (int g = 0; g < plan_.num_groups; ++g) {
    group_windows_.push_back(plan_.group_window(g));
    // evaluate() passes every chip that passes untuned, which holds under
    // the plan only when x = 0 is a configuration.
    CLKTUNE_EXPECTS(group_windows_.back().k_lo <= 0 &&
                    group_windows_.back().k_hi >= 0);
  }

  // Static topology: the reference node is plan_.num_groups.
  const int ref = plan_.num_groups;
  head_.assign(static_cast<std::size_t>(ref) + 1, -1);

  // Window bounds vs the reference node (weights final).
  for (int g = 0; g < plan_.num_groups; ++g) {
    add_static_edge(g, ref, group_windows_[static_cast<std::size_t>(g)].k_hi);
    add_static_edge(ref, g, -group_windows_[static_cast<std::size_t>(g)].k_lo);
  }

  // Arc partition: tuning cancels on same-variable arcs (both unbuffered,
  // or both in one group), leaving a per-sample sign test; the rest get
  // two weight slots in the static graph.
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const int vi = var_of_ff_[static_cast<std::size_t>(arc.src_ff)];
    const int vj = var_of_ff_[static_cast<std::size_t>(arc.dst_ff)];
    const int ui = vi < 0 ? ref : vi;
    const int uj = vj < 0 ? ref : vj;
    if (ui == uj) {
      check_arcs_.push_back(static_cast<int>(e));
      continue;
    }
    EdgeArc ea;
    ea.arc = static_cast<int>(e);
    ea.setup_slot = static_cast<int>(weights_template_.size());
    add_static_edge(ui, uj, 0);  // setup: x_ui - x_uj <= setup_steps
    ea.hold_slot = static_cast<int>(weights_template_.size());
    add_static_edge(uj, ui, 0);  // hold:  x_uj - x_ui <= hold_steps
    edge_arcs_.push_back(ea);
  }
}

namespace {

/// Delay provider drawing arcs on demand — only the arcs actually visited
/// before an early exit cost any sampling work.
struct SampledDelays {
  const mc::Sampler& sampler;
  std::uint64_t k;
  std::array<double, ssta::kParams> z;

  SampledDelays(const mc::Sampler& s, std::uint64_t sample)
      : sampler(s), k(sample), z(s.globals(sample)) {}

  void delays(std::size_t e, double& late, double& early) const {
    sampler.arc_delays(k, e, z, late, early);
  }
};

/// Delay provider reading already drawn delays.
struct CachedDelays {
  mc::ArcDelaysView view;

  void delays(std::size_t e, double& late, double& early) const {
    late = view.dmax[e];
    early = view.dmin[e];
  }
};

}  // namespace

template <class Delays>
bool YieldEvaluator::solve_sample_impl(const Delays& provider,
                                       Workspace& ws) const {
  const ssta::SeqGraph& graph = *graph_;

  // ---- check-only arcs: sign tests with early exit ----------------------
  for (const int e : check_arcs_) {
    const auto es = static_cast<std::size_t>(e);
    double late = 0.0, early = 0.0;
    provider.delays(es, late, early);
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, es, late, early, clock_period_, setup_c, hold_c);
    if (setup_c < 0.0 || hold_c < 0.0) return false;
  }
  if (edge_arcs_.empty() && plan_.num_groups == 0) {
    // No variables at all: feasible, all-zero potentials.
    ws.spfa.dist.assign(1, 0);
    return true;
  }

  // ---- edge arcs: rewrite the per-sample weights ------------------------
  const double step = plan_.step_ps;
  ws.weights.assign(weights_template_.begin(), weights_template_.end());
  for (const EdgeArc& ea : edge_arcs_) {
    const auto es = static_cast<std::size_t>(ea.arc);
    double late = 0.0, early = 0.0;
    provider.delays(es, late, early);
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, es, late, early, clock_period_, setup_c, hold_c);
    ws.weights[static_cast<std::size_t>(ea.setup_slot)] =
        mc::floor_steps(setup_c, step);
    ws.weights[static_cast<std::size_t>(ea.hold_slot)] =
        mc::floor_steps(hold_c, step);
  }

  return spfa_feasible(ws);
}

bool YieldEvaluator::spfa_feasible(Workspace& ws) const {
  return spfa_potentials(
      plan_.num_groups + 1, ws.spfa,
      [&](int v) { return head_[static_cast<std::size_t>(v)]; },
      [&](int e) { return edge_next_[static_cast<std::size_t>(e)]; },
      [&](int e) { return edge_to_[static_cast<std::size_t>(e)]; },
      [&](int e) { return ws.weights[static_cast<std::size_t>(e)]; });
}

bool YieldEvaluator::judge(const mc::ArcScreen& screen, std::uint64_t k,
                           const mc::ChipVerdict& verdict) const {
  thread_local Workspace ws;
  const ssta::SeqGraph& graph = *graph_;
  const std::array<double, ssta::kParams> z = screen.sampler().globals(k);
  const auto check_only = [&](int e) {
    const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(e)];
    return var_of_ff_[static_cast<std::size_t>(arc.src_ff)] ==
           var_of_ff_[static_cast<std::size_t>(arc.dst_ff)];
  };

  // ---- check-only arcs: raw sign tests, on arcs that can fail ----------
  for (const int e : screen.setup_risk_arcs())
    if (check_only(e) &&
        screen.setup_violated(k, z, static_cast<std::size_t>(e)))
      return false;
  // Without H_k every hold slack of the chip is non-negative.
  if (verdict.hold_fail)
    for (const int e : screen.hold_risk_arcs())
      if (check_only(e) &&
          screen.hold_violated(k, z, static_cast<std::size_t>(e)))
        return false;
  if (edge_arcs_.empty() && plan_.num_groups == 0) return true;

  // ---- edge arcs: exact constants, then SPFA ---------------------------
  ws.weights.assign(weights_template_.begin(), weights_template_.end());
  for (const EdgeArc& ea : edge_arcs_) {
    std::int32_t setup = 0, hold = 0;
    screen.constants(k, z, static_cast<std::size_t>(ea.arc), setup, hold);
    ws.weights[static_cast<std::size_t>(ea.setup_slot)] = setup;
    ws.weights[static_cast<std::size_t>(ea.hold_slot)] = hold;
  }
  return spfa_feasible(ws);
}

bool YieldEvaluator::solve_sample(const mc::Sampler& sampler, std::uint64_t k,
                                  Workspace& ws) const {
  return solve_sample_impl(SampledDelays(sampler, k), ws);
}

bool YieldEvaluator::sample_feasible(const mc::Sampler& sampler,
                                     std::uint64_t k) const {
  thread_local Workspace ws;
  return solve_sample(sampler, k, ws);
}

bool YieldEvaluator::sample_feasible(const mc::ArcDelaysView& delays) const {
  thread_local Workspace ws;
  return solve_sample_impl(CachedDelays{delays}, ws);
}

std::vector<int> YieldEvaluator::config_from_workspace(
    const Workspace& ws) const {
  // Normalise so the reference node sits at zero.
  const auto ref = static_cast<std::size_t>(plan_.num_groups);
  const std::vector<std::int64_t>& dist = ws.spfa.dist;
  const std::int64_t base = dist.size() > ref ? dist[ref] : 0;
  std::vector<int> config(static_cast<std::size_t>(plan_.num_groups));
  for (int g = 0; g < plan_.num_groups; ++g)
    config[static_cast<std::size_t>(g)] =
        static_cast<int>(dist[static_cast<std::size_t>(g)] - base);
  return config;
}

std::optional<std::vector<int>> YieldEvaluator::find_configuration(
    const mc::Sampler& sampler, std::uint64_t k) const {
  thread_local Workspace ws;
  if (!solve_sample(sampler, k, ws)) return std::nullopt;
  return config_from_workspace(ws);
}

std::optional<std::vector<int>> YieldEvaluator::find_configuration(
    const mc::ArcDelaysView& delays) const {
  thread_local Workspace ws;
  if (!solve_sample_impl(CachedDelays{delays}, ws)) return std::nullopt;
  return config_from_workspace(ws);
}

YieldResult YieldEvaluator::evaluate(const mc::Sampler& sampler,
                                     std::uint64_t samples,
                                     int threads) const {
  return evaluate(mc::ChipVerdicts(sampler, samples, threads), threads);
}

YieldResult YieldEvaluator::evaluate(const mc::ChipVerdicts& verdicts,
                                     int threads) const {
  const std::uint64_t samples = verdicts.samples();
  const mc::ArcScreen screen(verdicts.sampler(), clock_period_,
                             plan_.step_ps);
  const double band = screen.rounding_band();
  // With no arc between two variables tuning changes no constraint, and
  // the untuned verdict is final.
  const bool untunable = edge_arcs_.empty();
  const auto passes = [&](std::uint64_t k) {
    const mc::ChipVerdict& v = verdicts[k];
    switch (v.untuned_at(clock_period_, band)) {
      case mc::ChipVerdict::Untuned::passes:
        return true;
      case mc::ChipVerdict::Untuned::fails:
        if (untunable) return false;
        break;
      case mc::ChipVerdict::Untuned::unsure:
        break;
    }
    return judge(screen, k, v);
  };

  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> passing(workers, 0);
  util::parallel_chunks(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        McMetrics& metrics = McMetrics::get();
        for (std::size_t k = begin; k < end; ++k) {
          if ((k & (kSolveTimingStride - 1)) == 0) {
            const std::uint64_t t0 = obs::steady_now_ns();
            passing[w] += passes(k) ? 1 : 0;
            metrics.solve_seconds.record(obs::steady_now_ns() - t0);
          } else {
            passing[w] += passes(k) ? 1 : 0;
          }
        }
        metrics.samples.inc(end - begin);
      });
  YieldResult result;
  result.samples = samples;
  for (std::uint64_t p : passing) result.passing += p;
  result.yield = samples == 0
                     ? 0.0
                     : static_cast<double>(result.passing) /
                           static_cast<double>(samples);
  result.ci95 = util::yield_ci95(result.yield, samples);
  return result;
}

YieldResult YieldEvaluator::evaluate(mc::SampleDelayCache& delays,
                                     std::uint64_t samples, int threads,
                                     bool /*fill*/) const {
  CLKTUNE_EXPECTS(samples == delays.samples());
  return evaluate(delays.verdicts(threads), threads);
}

namespace {

TuningPlan empty_plan() {
  TuningPlan empty;
  empty.step_ps = 1.0;
  empty.reset_groups();
  return empty;
}

}  // namespace

YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           const mc::Sampler& sampler, std::uint64_t samples,
                           int threads) {
  return original_yield(graph, clock_period_ps,
                        mc::ChipVerdicts(sampler, samples, threads), threads);
}

YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           const mc::ChipVerdicts& verdicts, int threads) {
  return YieldEvaluator(graph, empty_plan(), clock_period_ps)
      .evaluate(verdicts, threads);
}

YieldResult original_yield(const ssta::SeqGraph& graph, double clock_period_ps,
                           mc::SampleDelayCache& delays,
                           std::uint64_t samples, int threads, bool /*fill*/) {
  CLKTUNE_EXPECTS(samples == delays.samples());
  return original_yield(graph, clock_period_ps, delays.verdicts(threads),
                        threads);
}

YieldReport evaluate_yield_report(const ssta::SeqGraph& graph,
                                  const TuningPlan& plan,
                                  double clock_period_ps,
                                  std::uint64_t eval_seed,
                                  std::uint64_t samples, int threads) {
  YieldReport report;
  report.clock_period_ps = clock_period_ps;
  report.eval_seed = eval_seed;
  const mc::Sampler sampler(graph, eval_seed);
  const mc::ChipVerdicts verdicts(sampler, samples, threads);
  report.original = original_yield(graph, clock_period_ps, verdicts, threads);
  report.tuned =
      YieldEvaluator(graph, plan, clock_period_ps).evaluate(verdicts, threads);
  return report;
}

}  // namespace clktune::feas
