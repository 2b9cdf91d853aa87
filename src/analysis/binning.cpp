#include "analysis/binning.h"

#include <utility>

#include "core/report_json.h"
#include "mc/sampler.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace clktune::analysis {

using util::Json;
using util::JsonError;

namespace {

/// The pair that proves the ladder shares sample constants: sampling passes
/// grow by `samples` per report, rung evaluations by samples * rungs * 2
/// (original + tuned).  A per-rung resampling bug would show up as passes
/// scaling with the rung count.
struct BinningMetrics {
  obs::Counter& sampling_passes;
  obs::Counter& rung_evals;

  static BinningMetrics& get() {
    static BinningMetrics m{
        obs::Registry::global().counter(
            "clktune_binning_sampling_passes_total",
            "Monte-Carlo chips sampled by binning reports (once per chip, "
            "shared across all rungs)"),
        obs::Registry::global().counter(
            "clktune_binning_rung_evals_total",
            "Per-rung feasibility evaluations over shared sample delays"),
    };
    return m;
  }
};

feas::TuningPlan empty_plan() {
  feas::TuningPlan plan;
  plan.step_ps = 1.0;
  plan.reset_groups();
  return plan;
}

feas::YieldResult make_result(std::uint64_t passing, std::uint64_t samples) {
  feas::YieldResult r;
  r.passing = passing;
  r.samples = samples;
  r.yield = samples == 0 ? 0.0
                         : static_cast<double>(passing) /
                               static_cast<double>(samples);
  r.ci95 = util::yield_ci95(r.yield, samples);
  return r;
}

Json bin_json(const BinYield& bin) {
  Json j = Json::object();
  j.set("period_ps", bin.period_ps);
  j.set("original", core::yield_result_json(bin.original));
  j.set("tuned", core::yield_result_json(bin.tuned));
  j.set("sell", bin.sell);
  j.set("sell_fraction", bin.sell_fraction);
  return j;
}

}  // namespace

Json BinningReport::to_json() const {
  Json j = Json::object();
  j.set("samples", samples);
  j.set("eval_seed", eval_seed);
  Json bin_list = Json::array();
  for (const BinYield& bin : bins) bin_list.push_back(bin_json(bin));
  j.set("bins", std::move(bin_list));
  j.set("unsellable", unsellable);
  j.set("unsellable_fraction", unsellable_fraction);
  j.set("expected_sell_period_ps", expected_sell_period_ps);
  return j;
}

BinningReport BinningReport::from_json(const Json& j) {
  BinningReport report;
  report.samples = j.at("samples").as_uint();
  report.eval_seed = j.at("eval_seed").as_uint();
  for (const Json& b : j.at("bins").as_array()) {
    BinYield bin;
    bin.period_ps = b.at("period_ps").as_double();
    bin.original = core::yield_result_from_json(b.at("original"));
    bin.tuned = core::yield_result_from_json(b.at("tuned"));
    bin.sell = b.at("sell").as_uint();
    bin.sell_fraction = b.at("sell_fraction").as_double();
    report.bins.push_back(std::move(bin));
  }
  report.unsellable = j.at("unsellable").as_uint();
  report.unsellable_fraction = j.at("unsellable_fraction").as_double();
  report.expected_sell_period_ps =
      j.at("expected_sell_period_ps").as_double();
  return report;
}

BinningReport compute_binning(const ssta::SeqGraph& graph,
                              const feas::TuningPlan& plan,
                              const std::vector<double>& periods_ps,
                              std::uint64_t eval_seed, std::uint64_t samples,
                              int threads) {
  if (periods_ps.empty())
    throw JsonError("binning: the period ladder must not be empty");
  for (std::size_t r = 0; r < periods_ps.size(); ++r) {
    if (periods_ps[r] <= 0.0)
      throw JsonError("binning: ladder periods must be positive");
    if (r > 0 && periods_ps[r] <= periods_ps[r - 1])
      throw JsonError("binning: ladder periods must be strictly ascending");
  }
  const std::size_t rungs = periods_ps.size();

  // One evaluator pair per rung; each builds its constraint-graph topology
  // on its first chip, and only per-sample weights change inside the loop.
  std::vector<feas::YieldEvaluator> tuned, original;
  tuned.reserve(rungs);
  original.reserve(rungs);
  for (const double period : periods_ps) {
    tuned.emplace_back(graph, plan, period);
    original.emplace_back(graph, empty_plan(), period);
  }

  const mc::Sampler sampler(graph, eval_seed);

  struct Partial {
    std::vector<std::uint64_t> original_passing;
    std::vector<std::uint64_t> tuned_passing;
    std::vector<std::uint64_t> sell;
    std::uint64_t unsellable = 0;

    explicit Partial(std::size_t rungs)
        : original_passing(rungs, 0), tuned_passing(rungs, 0),
          sell(rungs, 0) {}
  };

  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<Partial> partial(workers, Partial(rungs));

  util::parallel_chunks(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        Partial& p = partial[w];
        mc::ArcSample scratch;
        for (std::size_t k = begin; k < end; ++k) {
          // Each chip is drawn once; every rung reads the same delays.
          sampler.evaluate(k, scratch);
          const mc::ArcDelaysView view{scratch.dmax.data(),
                                       scratch.dmin.data(),
                                       scratch.dmax.size()};
          bool sold = false;
          for (std::size_t r = 0; r < rungs; ++r) {
            p.original_passing[r] += original[r].sample_feasible(view) ? 1 : 0;
            const bool ok = tuned[r].sample_feasible(view);
            p.tuned_passing[r] += ok ? 1 : 0;
            if (ok && !sold) {
              // Ascending ladder: the first feasible rung is the fastest
              // clock this chip sells at.
              ++p.sell[r];
              sold = true;
            }
          }
          if (!sold) ++p.unsellable;
        }
        BinningMetrics& metrics = BinningMetrics::get();
        metrics.sampling_passes.inc(end - begin);
        metrics.rung_evals.inc((end - begin) * rungs * 2);
      });

  Partial total(rungs);
  for (const Partial& p : partial) {
    for (std::size_t r = 0; r < rungs; ++r) {
      total.original_passing[r] += p.original_passing[r];
      total.tuned_passing[r] += p.tuned_passing[r];
      total.sell[r] += p.sell[r];
    }
    total.unsellable += p.unsellable;
  }

  BinningReport report;
  report.samples = samples;
  report.eval_seed = eval_seed;
  report.unsellable = total.unsellable;
  const double denom = samples == 0 ? 1.0 : static_cast<double>(samples);
  report.unsellable_fraction =
      static_cast<double>(total.unsellable) / denom;

  std::uint64_t sellable = 0;
  double sell_period_sum = 0.0;
  for (std::size_t r = 0; r < rungs; ++r) {
    BinYield bin;
    bin.period_ps = periods_ps[r];
    bin.original = make_result(total.original_passing[r], samples);
    bin.tuned = make_result(total.tuned_passing[r], samples);
    bin.sell = total.sell[r];
    bin.sell_fraction = static_cast<double>(bin.sell) / denom;
    sellable += bin.sell;
    sell_period_sum += static_cast<double>(bin.sell) * bin.period_ps;
    report.bins.push_back(std::move(bin));
  }
  report.expected_sell_period_ps =
      sellable == 0 ? 0.0 : sell_period_sum / static_cast<double>(sellable);
  return report;
}

}  // namespace clktune::analysis
