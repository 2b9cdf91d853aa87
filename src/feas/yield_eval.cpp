#include "feas/yield_eval.h"

#include <algorithm>
#include <cmath>

#include "feas/diff_constraints.h"
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

YieldEvaluator::YieldEvaluator(const ssta::SeqGraph& graph, TuningPlan plan,
                               double clock_period_ps)
    : graph_(&graph),
      plan_(std::move(plan)),
      clock_period_(clock_period_ps) {
  CLKTUNE_EXPECTS(clock_period_ps > 0.0);
  if (plan_.group_of.size() != plan_.buffers.size()) plan_.reset_groups();
  var_of_ff_.assign(static_cast<std::size_t>(graph.num_ffs), -1);
  for (std::size_t i = 0; i < plan_.buffers.size(); ++i) {
    const int ff = plan_.buffers[i].ff;
    CLKTUNE_EXPECTS(ff >= 0 && ff < graph.num_ffs);
    var_of_ff_[static_cast<std::size_t>(ff)] = plan_.group_of[i];
  }
  group_windows_ = plan_.group_windows();
  // evaluate() passes every chip that passes untuned, which holds under the
  // plan only when x = 0 is a configuration.
  for (const BufferWindow& w : group_windows_)
    CLKTUNE_EXPECTS(w.k_lo <= 0 && w.k_hi >= 0);
  // judge() grows its arc set through arcs_of_ff of each moved group.
  CLKTUNE_EXPECTS(graph.arcs_of_ff.size() ==
                  static_cast<std::size_t>(graph.num_ffs));
  group_ff_begin_.assign(static_cast<std::size_t>(plan_.num_groups) + 1, 0);
  for (const int g : plan_.group_of)
    ++group_ff_begin_[static_cast<std::size_t>(g) + 1];
  for (std::size_t g = 1; g < group_ff_begin_.size(); ++g)
    group_ff_begin_[g] += group_ff_begin_[g - 1];
  group_ffs_.resize(plan_.buffers.size());
  std::vector<int> fill(group_ff_begin_.begin(), group_ff_begin_.end() - 1);
  for (std::size_t i = 0; i < plan_.buffers.size(); ++i) {
    int& slot = fill[static_cast<std::size_t>(plan_.group_of[i])];
    group_ffs_[static_cast<std::size_t>(slot++)] = plan_.buffers[i].ff;
  }
  for (const ssta::SeqArc& arc : graph.arcs)
    edge_arc_count_ +=
        group_of_ff(arc.src_ff) != group_of_ff(arc.dst_ff) ? 1 : 0;
}

namespace {

/// Chip k's delays, drawn into per-thread scratch: valid until the
/// thread's next draw.
mc::ArcDelaysView draw(const mc::Sampler& sampler, std::uint64_t k) {
  thread_local mc::ArcSample sample;
  sampler.evaluate(k, sample);
  return {sample.dmax.data(), sample.dmin.data(), sample.dmax.size()};
}

/// judge()'s per-thread scratch: the arc set S and its local constraint
/// graph, whose node 0 is the reference and node n > 0 the group
/// group_of_node[n].  Arcs and groups carry epoch stamps, so starting a
/// chip or a round is O(1).
struct RepairWorkspace {
  /// An arc of S with its exact quantized constants.
  struct Arc {
    int arc = 0;
    std::int32_t setup = 0, hold = 0;
  };
  std::uint64_t epoch = 0;
  /// The chip's epoch: arc_stamp[e] equal to it puts arc e in S, and
  /// group_stamp[g] makes group g node node_of_group[g].  A round takes a
  /// later epoch, which marks the arcs it has drawn.
  std::uint64_t chip = 0;
  std::vector<std::uint64_t> arc_stamp, group_stamp;
  std::vector<int> node_of_group, group_of_node;
  std::vector<Arc> set;
  DiffConstraints graph;

  /// Starts a chip.  Sized on first use for up to `set_arcs` arcs in S,
  /// `groups` nodes besides the reference and `edges` edges, so no later
  /// chip of the same evaluator allocates.
  void begin(std::size_t arcs, std::size_t groups, std::size_t set_arcs,
             std::size_t edges) {
    if (arc_stamp.size() < arcs) arc_stamp.resize(arcs, 0);
    if (group_stamp.size() < groups) {
      group_stamp.resize(groups, 0);
      node_of_group.resize(groups, 0);
    }
    set.reserve(set_arcs);
    group_of_node.reserve(groups + 1);
    graph.reserve(groups + 1, edges);

    chip = ++epoch;
    set.clear();
    group_of_node.assign(1, -1);
    graph.reset(1);
  }

  /// Node of group g (-1: the reference), added with its window edges on
  /// first touch.
  int node(int g, const std::vector<BufferWindow>& windows) {
    if (g < 0) return 0;
    const auto gs = static_cast<std::size_t>(g);
    if (group_stamp[gs] == chip) return node_of_group[gs];
    const int n = graph.add_node();
    group_stamp[gs] = chip;
    node_of_group[gs] = n;
    group_of_node.push_back(g);
    graph.add(n, 0, windows[gs].k_hi);
    graph.add(0, n, -windows[gs].k_lo);
    return n;
  }
};

}  // namespace

const std::vector<std::int64_t>* YieldEvaluator::solve_dense(
    const mc::ArcDelaysView& delays) const {
  thread_local DiffConstraints system;
  const ssta::SeqGraph& graph = *graph_;
  // The reference node is plan_.num_groups.
  const int ref = plan_.num_groups;
  CLKTUNE_EXPECTS(delays.num_arcs == graph.arcs.size());
  system.reset(ref + 1);
  for (int g = 0; g < ref; ++g) {
    const BufferWindow& w = group_windows_[static_cast<std::size_t>(g)];
    system.add(g, ref, w.k_hi);
    system.add(ref, g, -w.k_lo);
  }
  for (std::size_t e = 0; e < delays.num_arcs; ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, e, delays.dmax[e], delays.dmin[e], clock_period_,
                  setup_c, hold_c);
    const int vi = group_of_ff(arc.src_ff);
    const int vj = group_of_ff(arc.dst_ff);
    if (vi == vj) {
      // Both ends on one variable: tuning cancels, leaving a sign test.
      if (setup_c < 0.0 || hold_c < 0.0) return nullptr;
      continue;
    }
    const int ui = vi < 0 ? ref : vi;
    const int uj = vj < 0 ? ref : vj;
    // setup: x_ui - x_uj <= setup_steps;  hold: x_uj - x_ui <= hold_steps
    system.add(ui, uj, mc::floor_steps(setup_c, plan_.step_ps));
    system.add(uj, ui, mc::floor_steps(hold_c, plan_.step_ps));
  }
  return system.solve_inplace();
}

bool YieldEvaluator::judge(const mc::ArcScreen& screen,
                           const mc::ChipVerdicts& verdicts,
                           std::uint64_t k) const {
  thread_local RepairWorkspace ws;
  // At worst every edge arc joins S and every group is a node: two edges
  // per group and per edge arc, as in the dense graph.
  const auto groups = static_cast<std::size_t>(plan_.num_groups);
  ws.begin(graph_->arcs.size(), groups, edge_arc_count_,
           2 * (groups + edge_arc_count_));
  const ssta::SeqGraph& graph = *graph_;
  const std::array<double, ssta::kParams> z = screen.sampler().globals(k);

  // ---- seed: the arcs violated at x = 0, by raw sign --------------------
  // A violated check-only arc fails the chip whatever the tuning.
  const auto seed = [&](int e) {
    const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(e)];
    if (group_of_ff(arc.src_ff) == group_of_ff(arc.dst_ff)) return false;
    std::uint64_t& stamp = ws.arc_stamp[static_cast<std::size_t>(e)];
    if (stamp != ws.chip) {
      stamp = ws.chip;
      ws.set.push_back({e, 0, 0});
    }
    return true;
  };
  for (const int e : screen.setup_risk_arcs())
    if (screen.setup_violated(k, z, static_cast<std::size_t>(e)) && !seed(e))
      return false;
  // The verdict set holds the chip's hold-violated arcs; without H_k there
  // are none.
  for (const int e : verdicts.hold_arcs(k))
    if (!seed(e)) return false;
  if (ws.set.empty()) return true;  // x = 0 is a configuration
  for (RepairWorkspace::Arc& a : ws.set)
    screen.constants(k, z, static_cast<std::size_t>(a.arc), a.setup, a.hold);

  // ---- solve S, then grow it by the arcs the moved groups violate -------
  for (std::size_t added = 0;;) {
    for (; added < ws.set.size(); ++added) {
      const RepairWorkspace::Arc& a = ws.set[added];
      const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(a.arc)];
      const int ui = ws.node(group_of_ff(arc.src_ff), group_windows_);
      const int uj = ws.node(group_of_ff(arc.dst_ff), group_windows_);
      ws.graph.add(ui, uj, a.setup);  // setup: x_ui - x_uj <= setup_steps
      ws.graph.add(uj, ui, a.hold);   // hold:  x_uj - x_ui <= hold_steps
    }
    const std::vector<std::int64_t>* const potentials =
        ws.graph.solve_inplace();
    if (potentials == nullptr) return false;  // S alone is infeasible
    const std::int64_t* const dist = potentials->data();
    // x of a flip-flop: its group's potential against the reference; 0 for
    // an unbuffered flip-flop and for a group S does not touch.
    const auto value = [&](int ff) -> std::int64_t {
      const int g = group_of_ff(ff);
      if (g < 0 || ws.group_stamp[static_cast<std::size_t>(g)] != ws.chip)
        return 0;
      return dist[ws.node_of_group[static_cast<std::size_t>(g)]] - dist[0];
    };
    const std::uint64_t round = ++ws.epoch;
    for (std::size_t node = 1; node < ws.group_of_node.size(); ++node) {
      if (dist[node] == dist[0]) continue;  // the group did not move
      const auto g = static_cast<std::size_t>(ws.group_of_node[node]);
      for (int i = group_ff_begin_[g]; i < group_ff_begin_[g + 1]; ++i) {
        const int ff = group_ffs_[static_cast<std::size_t>(i)];
        for (const int e : graph.arcs_of_ff[static_cast<std::size_t>(ff)]) {
          std::uint64_t& stamp = ws.arc_stamp[static_cast<std::size_t>(e)];
          if (stamp == ws.chip || stamp == round) continue;
          stamp = round;
          const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(e)];
          const std::int64_t xi = value(arc.src_ff);
          const std::int64_t xj = value(arc.dst_ff);
          if (xi == xj) continue;
          RepairWorkspace::Arc a{e, 0, 0};
          screen.constants(k, z, static_cast<std::size_t>(e), a.setup,
                           a.hold);
          if (xi - xj > a.setup || xj - xi > a.hold) {
            stamp = ws.chip;
            ws.set.push_back(a);
          }
        }
      }
    }
    if (added == ws.set.size()) return true;  // every drawn arc holds
  }
}

bool YieldEvaluator::sample_feasible(const mc::Sampler& sampler,
                                     std::uint64_t k) const {
  return solve_dense(draw(sampler, k)) != nullptr;
}

std::optional<std::vector<int>> YieldEvaluator::find_configuration(
    const mc::Sampler& sampler, std::uint64_t k) const {
  return find_configuration(draw(sampler, k));
}

std::optional<std::vector<int>> YieldEvaluator::find_configuration(
    const mc::ArcDelaysView& delays) const {
  const std::vector<std::int64_t>* dist = solve_dense(delays);
  if (dist == nullptr) return std::nullopt;
  // Normalise so the reference node sits at zero.
  const std::int64_t base = (*dist)[static_cast<std::size_t>(plan_.num_groups)];
  std::vector<int> config(static_cast<std::size_t>(plan_.num_groups));
  for (std::size_t g = 0; g < config.size(); ++g)
    config[g] = static_cast<int>((*dist)[g] - base);
  return config;
}

YieldResult YieldEvaluator::evaluate(const mc::Sampler& sampler,
                                     std::uint64_t samples,
                                     int threads) const {
  return evaluate(mc::ChipVerdicts(sampler, samples, threads), threads);
}

YieldResult YieldEvaluator::evaluate(const mc::ChipVerdicts& verdicts,
                                     int threads) const {
  const std::uint64_t samples = verdicts.samples();
  const mc::ArcScreen screen =
      verdicts.screen().at(clock_period_, plan_.step_ps);
  const double band = screen.rounding_band();
  // With no arc between two variables tuning changes no constraint, and
  // the untuned verdict is final.
  const bool untunable = edge_arc_count_ == 0;
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
    return judge(screen, verdicts, k);
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
