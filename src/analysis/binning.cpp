#include "analysis/binning.h"

#include <utility>

#include "core/report_json.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace clktune::analysis {

using util::Json;
using util::JsonError;

namespace {

/// The pair that proves the ladder shares one verdict pass: sampling passes
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
            "Per-rung feasibility evaluations over shared chip verdicts"),
    };
    return m;
  }
};

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

  // Each chip's verdict is built once; every rung counts over it.
  const mc::Sampler sampler(graph, eval_seed);
  const mc::ChipVerdicts verdicts(sampler, samples, threads);
  BinningMetrics& metrics = BinningMetrics::get();
  metrics.sampling_passes.inc(samples);
  metrics.rung_evals.inc(samples * periods_ps.size() * 2);

  BinningReport report;
  report.samples = samples;
  report.eval_seed = eval_seed;
  const double denom = samples == 0 ? 1.0 : static_cast<double>(samples);
  std::uint64_t sellable = 0;  // chips feasible at the rung below
  double sell_period_sum = 0.0;
  for (const double period : periods_ps) {
    BinYield bin;
    bin.period_ps = period;
    bin.original = feas::original_yield(graph, period, verdicts, threads);
    bin.tuned =
        feas::YieldEvaluator(graph, plan, period).evaluate(verdicts, threads);
    // Tuned feasibility is monotone in T: every rounding step of the setup
    // constant and of floor_steps is, and hold does not read T.  So the
    // chips whose fastest feasible bin this is are those passing here
    // less those passing at the rung below.
    CLKTUNE_ENSURES(bin.tuned.passing >= sellable);
    bin.sell = bin.tuned.passing - sellable;
    sellable = bin.tuned.passing;
    bin.sell_fraction = static_cast<double>(bin.sell) / denom;
    sell_period_sum += static_cast<double>(bin.sell) * bin.period_ps;
    report.bins.push_back(std::move(bin));
  }
  report.unsellable = samples - sellable;
  report.unsellable_fraction =
      static_cast<double>(report.unsellable) / denom;
  report.expected_sell_period_ps =
      sellable == 0 ? 0.0 : sell_period_sum / static_cast<double>(sellable);
  return report;
}

}  // namespace clktune::analysis
