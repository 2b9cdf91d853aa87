#include "exec/request.h"

#include <numeric>
#include <utility>

namespace clktune::exec {

using util::Json;

Request Request::for_scenario(scenario::ScenarioSpec spec) {
  Request request;
  request.kind = Kind::scenario;
  request.scenario = std::move(spec);
  return request;
}

Request Request::for_campaign(scenario::CampaignSpec spec) {
  Request request;
  request.kind = Kind::campaign;
  request.campaign = std::move(spec);
  return request;
}

Request Request::from_json(const Json& doc) {
  if (doc.contains("base"))
    return for_campaign(scenario::CampaignSpec::from_json(doc));
  return for_scenario(scenario::ScenarioSpec::from_json(doc));
}

Json Request::document() const {
  return kind == Kind::scenario ? scenario.to_json() : campaign.to_json();
}

std::size_t Request::expansion_size() const {
  return kind == Kind::scenario ? 1 : campaign.expansion_size();
}

std::vector<std::size_t> Request::selection() const {
  if (indices) return *indices;
  std::vector<std::size_t> all(expansion_size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

void Request::validate() const {
  if (!indices) return;
  if (kind == Kind::scenario)
    throw ExecError("exec: a scenario request cannot carry indices");
  const std::vector<std::size_t>& list = *indices;
  const std::size_t total = expansion_size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] >= total)
      throw ExecError("exec: index " + std::to_string(list[i]) +
                      " out of range for a " + std::to_string(total) +
                      "-cell campaign");
    if (i > 0 && list[i] <= list[i - 1])
      throw ExecError("exec: indices must be strictly increasing");
  }
}

Json Outcome::artifact(bool include_timing) const {
  return kind == Request::Kind::scenario ? result.to_json(include_timing)
                                         : summary.to_json(include_timing);
}

Outcome Outcome::from_summary(scenario::CampaignSummary summary,
                              std::string backend) {
  Outcome outcome;
  outcome.kind = Request::Kind::campaign;
  outcome.backend = std::move(backend);
  outcome.scenarios_run = summary.scenarios_run;
  outcome.scenarios_cached = summary.scenarios_cached;
  outcome.targets_missed = summary.targets_missed;
  outcome.seconds = summary.total_seconds;
  outcome.summary = std::move(summary);
  return outcome;
}

Outcome Outcome::from_result(scenario::ScenarioResult result, bool cached,
                             std::string backend, double seconds) {
  Outcome outcome;
  outcome.kind = Request::Kind::scenario;
  outcome.backend = std::move(backend);
  outcome.scenarios_run = 1;
  outcome.scenarios_cached = cached ? 1 : 0;
  outcome.targets_missed = result.met_target ? 0 : 1;
  outcome.seconds = seconds;
  outcome.result = std::move(result);
  return outcome;
}

}  // namespace clktune::exec
