#include "core/report_json.h"

#include <cstddef>

namespace clktune::core {

using util::Json;

Json buffer_info_json(const BufferInfo& info) {
  Json j = Json::object();
  j.set("ff", info.ff);
  j.set("window", Json(util::JsonArray{Json(info.window_lo),
                                       Json(info.window_hi)}));
  j.set("range", Json(util::JsonArray{Json(info.range_lo),
                                      Json(info.range_hi)}));
  j.set("usage_step1", info.usage_step1);
  j.set("usage_final", info.usage_final);
  j.set("avg_k", info.avg_k);
  j.set("group", info.group);
  return j;
}

Json phase_diagnostics_json(const PhaseDiagnostics& diag,
                            bool include_timing) {
  Json j = Json::object();
  if (include_timing) j.set("seconds", diag.seconds);
  j.set("samples_with_violations", diag.samples_with_violations);
  j.set("unfixable_samples", diag.unfixable_samples);
  j.set("milps_solved", diag.milps_solved);
  j.set("milp_nodes", diag.milp_nodes);
  j.set("truncated_milps", diag.truncated_milps);
  j.set("lazy_rounds", diag.lazy_rounds);
  return j;
}

namespace {

Json histogram_summary_json(const std::vector<util::IntHistogram>& hists) {
  // Summaries only: per-FF total mass and support bounds.  Full Fig.-5
  // dumps stay in the bench binaries.
  Json arr = Json::array();
  for (const util::IntHistogram& h : hists) {
    Json j = Json::object();
    j.set("total", h.total());
    j.set("min_key", h.min_key());
    j.set("max_key", h.max_key());
    arr.push_back(std::move(j));
  }
  return arr;
}

}  // namespace

Json insertion_result_json(const InsertionResult& result,
                           bool include_timing) {
  Json j = Json::object();
  j.set("step_ps", result.step_ps);
  j.set("tau_ps", result.tau_ps);
  j.set("clock_period_ps", result.clock_period_ps);

  Json buffers = Json::array();
  for (const BufferInfo& b : result.buffers)
    buffers.push_back(buffer_info_json(b));
  j.set("buffers", std::move(buffers));

  Json plan = Json::object();
  plan.set("physical_buffers", result.plan.physical_buffers());
  plan.set("average_range", result.plan.average_range());
  Json groups = Json::array();
  for (int g : result.plan.group_of) groups.push_back(Json(g));
  plan.set("group_of", std::move(groups));
  j.set("plan", std::move(plan));

  j.set("step1", phase_diagnostics_json(result.step1, include_timing));
  j.set("step2a", phase_diagnostics_json(result.step2a, include_timing));
  j.set("step2b", phase_diagnostics_json(result.step2b, include_timing));
  j.set("step2a_skipped", result.step2a_skipped);
  j.set("out_of_window_fraction", result.out_of_window_fraction);
  j.set("pruned_count", result.pruned_count);
  j.set("hist_step1_min", histogram_summary_json(result.hist_step1_min));
  j.set("hist_step2", histogram_summary_json(result.hist_step2));
  if (include_timing) j.set("total_seconds", result.total_seconds);
  return j;
}

Json yield_result_json(const feas::YieldResult& result) {
  Json j = Json::object();
  j.set("yield", result.yield);
  j.set("ci95", result.ci95);
  j.set("passing", result.passing);
  j.set("samples", result.samples);
  return j;
}

Json yield_report_json(const feas::YieldReport& report) {
  Json j = Json::object();
  j.set("clock_period_ps", report.clock_period_ps);
  j.set("eval_seed", report.eval_seed);
  j.set("original", yield_result_json(report.original));
  j.set("tuned", yield_result_json(report.tuned));
  j.set("improvement", report.improvement());
  return j;
}

Json table_row_json(const TableRow& row, bool include_timing) {
  Json j = Json::object();
  j.set("circuit", row.circuit);
  j.set("ns", row.ns);
  j.set("ng", row.ng);
  j.set("setting", row.setting);
  j.set("clock_ps", row.clock_ps);
  j.set("nb", row.nb);
  j.set("ab", row.ab);
  j.set("yield", row.yield);
  j.set("yield_original", row.yield_original);
  j.set("improvement", row.improvement());
  if (include_timing) j.set("runtime_s", row.runtime_s);
  return j;
}

BufferInfo buffer_info_from_json(const util::Json& j) {
  BufferInfo info;
  info.ff = static_cast<int>(j.at("ff").as_int());
  const util::JsonArray& window = j.at("window").as_array();
  const util::JsonArray& range = j.at("range").as_array();
  if (window.size() != 2 || range.size() != 2)
    throw util::JsonError("result: window / range must be [lo, hi]");
  info.window_lo = static_cast<int>(window[0].as_int());
  info.window_hi = static_cast<int>(window[1].as_int());
  info.range_lo = static_cast<int>(range[0].as_int());
  info.range_hi = static_cast<int>(range[1].as_int());
  info.usage_step1 = j.at("usage_step1").as_uint();
  info.usage_final = j.at("usage_final").as_uint();
  info.avg_k = j.at("avg_k").as_double();
  info.group = static_cast<int>(j.at("group").as_int());
  return info;
}

PhaseDiagnostics phase_diagnostics_from_json(const util::Json& j) {
  PhaseDiagnostics diag;
  if (const util::Json* seconds = j.find("seconds"))
    diag.seconds = seconds->as_double();
  diag.samples_with_violations = j.at("samples_with_violations").as_uint();
  diag.unfixable_samples = j.at("unfixable_samples").as_uint();
  diag.milps_solved = j.at("milps_solved").as_uint();
  diag.milp_nodes = j.at("milp_nodes").as_uint();
  diag.truncated_milps = j.at("truncated_milps").as_uint();
  diag.lazy_rounds = j.at("lazy_rounds").as_uint();
  return diag;
}

namespace {

std::vector<util::IntHistogram> histograms_from_summary_json(
    const util::Json& j) {
  // The artifact stores per-FF summaries only (total, support bounds); a
  // minimal histogram with the same summary re-serialises identically.
  std::vector<util::IntHistogram> hists;
  for (const util::Json& s : j.as_array()) {
    util::IntHistogram h;
    const std::uint64_t total = s.at("total").as_uint();
    const int min_key = static_cast<int>(s.at("min_key").as_int());
    const int max_key = static_cast<int>(s.at("max_key").as_int());
    if (total > 0) {
      h.add(min_key, total);
      if (max_key != min_key) h.add(max_key, 0);  // extend support only
    }
    hists.push_back(std::move(h));
  }
  return hists;
}

}  // namespace

InsertionResult insertion_result_from_json(const util::Json& j) {
  InsertionResult result;
  result.step_ps = j.at("step_ps").as_double();
  result.tau_ps = j.at("tau_ps").as_double();
  result.clock_period_ps = j.at("clock_period_ps").as_double();
  for (const util::Json& b : j.at("buffers").as_array())
    result.buffers.push_back(buffer_info_from_json(b));
  result.plan = tuning_plan_from_json(j);
  result.step1 = phase_diagnostics_from_json(j.at("step1"));
  result.step2a = phase_diagnostics_from_json(j.at("step2a"));
  result.step2b = phase_diagnostics_from_json(j.at("step2b"));
  result.step2a_skipped = j.at("step2a_skipped").as_bool();
  result.out_of_window_fraction = j.at("out_of_window_fraction").as_double();
  result.pruned_count = static_cast<int>(j.at("pruned_count").as_int());
  result.hist_step1_min = histograms_from_summary_json(j.at("hist_step1_min"));
  result.hist_step2 = histograms_from_summary_json(j.at("hist_step2"));
  if (const util::Json* seconds = j.find("total_seconds"))
    result.total_seconds = seconds->as_double();
  return result;
}

feas::YieldResult yield_result_from_json(const util::Json& j) {
  feas::YieldResult result;
  result.yield = j.at("yield").as_double();
  result.ci95 = j.at("ci95").as_double();
  result.passing = j.at("passing").as_uint();
  result.samples = j.at("samples").as_uint();
  return result;
}

feas::YieldReport yield_report_from_json(const util::Json& j) {
  feas::YieldReport report;
  report.clock_period_ps = j.at("clock_period_ps").as_double();
  report.eval_seed = j.at("eval_seed").as_uint();
  report.original = yield_result_from_json(j.at("original"));
  report.tuned = yield_result_from_json(j.at("tuned"));
  return report;
}

feas::TuningPlan tuning_plan_from_json(const util::Json& result_json) {
  feas::TuningPlan plan;
  plan.step_ps = result_json.at("step_ps").as_double();
  if (plan.step_ps <= 0.0)
    throw util::JsonError("result: step_ps must be positive");
  const util::JsonArray& buffers = result_json.at("buffers").as_array();
  const util::JsonArray& groups =
      result_json.at("plan").at("group_of").as_array();
  if (groups.size() != buffers.size())
    throw util::JsonError("result: group_of and buffers length mismatch");
  int max_group = -1;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const util::Json& b = buffers[i];
    feas::BufferWindow w;
    w.ff = static_cast<int>(b.at("ff").as_int());
    // The plan's windows are the *reduced* ranges (what the evaluator
    // measures), not the wider assigned windows.
    const util::JsonArray& range = b.at("range").as_array();
    if (range.size() != 2)
      throw util::JsonError("result: range must be [lo, hi]");
    w.k_lo = static_cast<int>(range[0].as_int());
    w.k_hi = static_cast<int>(range[1].as_int());
    if (w.ff < 0 || w.k_lo > w.k_hi)
      throw util::JsonError("result: malformed buffer window");
    // The yield evaluator requires x = 0 to be a configuration.
    if (w.k_lo > 0 || w.k_hi < 0)
      throw util::JsonError("result: buffer window must contain 0");
    plan.buffers.push_back(w);
    const int g = static_cast<int>(groups[i].as_int());
    if (g < 0) throw util::JsonError("result: negative group id");
    plan.group_of.push_back(g);
    if (g > max_group) max_group = g;
  }
  plan.num_groups = max_group + 1;
  return plan;
}

}  // namespace clktune::core
