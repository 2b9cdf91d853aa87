#include "scenario/campaign.h"

#include <utility>

#include "util/stats.h"

namespace clktune::scenario {

using util::Json;
using util::JsonError;

namespace {

/// Splits "insertion.num_samples" into path segments.
std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> segments;
  std::string current;
  for (const char c : path) {
    if (c == '.') {
      if (current.empty())
        throw JsonError("sweep: empty segment in path \"" + path + "\"");
      segments.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (current.empty())
    throw JsonError("sweep: empty segment in path \"" + path + "\"");
  segments.push_back(std::move(current));
  return segments;
}

/// Sets `value` at a dotted path, creating intermediate objects as needed.
void set_path(Json& root, const std::string& path, const Json& value) {
  const std::vector<std::string> segments = split_path(path);
  Json* node = &root;
  for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
    if (!node->is_object())
      throw JsonError("sweep: path \"" + path +
                      "\" descends into a non-object");
    Json* child = node->find(segments[s]);
    if (child == nullptr) {
      node->set(segments[s], Json::object());
      child = node->find(segments[s]);
    }
    node = child;
  }
  if (!node->is_object())
    throw JsonError("sweep: path \"" + path + "\" descends into a non-object");
  node->set(segments.back(), value);
}

/// Human-readable value for scenario name suffixes ("s9234", "10000", ...).
std::string value_token(const Json& v) {
  if (v.is_string()) return v.as_string();
  return v.dump();
}

/// Last path segment ("insertion.num_samples" -> "num_samples").
std::string short_key(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

}  // namespace

CampaignSpec CampaignSpec::from_json(const Json& j) {
  CampaignSpec spec;
  if (!j.is_object()) throw JsonError("campaign: expected a JSON object");
  for (const auto& [key, value] : j.as_object()) {
    if (key == "name") {
      spec.name = value.as_string();
    } else if (key == "base") {
      spec.base = value;
    } else if (key == "sweep") {
      for (const auto& [path, values] : value.as_object()) {
        SweepAxis axis;
        axis.path = path;
        for (const Json& v : values.as_array()) axis.values.push_back(v);
        if (axis.values.empty())
          throw JsonError("sweep: axis \"" + path + "\" has no values");
        spec.axes.push_back(std::move(axis));
      }
    } else if (key == "threads") {
      spec.threads = static_cast<int>(value.as_int());
    } else if (key == "seed_stride") {
      spec.seed_stride = value.as_uint();
    } else {
      throw JsonError("campaign: unknown key \"" + key + "\"");
    }
  }
  if (spec.name.empty()) throw JsonError("campaign: name must not be empty");
  if (!spec.base.is_object() || spec.base.as_object().empty())
    throw JsonError("campaign: missing \"base\" scenario");
  return spec;
}

Json CampaignSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("base", base);
  Json sweep = Json::object();
  for (const SweepAxis& axis : axes) {
    Json values = Json::array();
    for (const Json& v : axis.values) values.push_back(v);
    sweep.set(axis.path, std::move(values));
  }
  j.set("sweep", std::move(sweep));
  j.set("threads", threads);
  j.set("seed_stride", seed_stride);
  return j;
}

std::size_t CampaignSpec::expansion_size() const {
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) {
    if (total > 100000 / axis.values.size())
      throw JsonError("campaign: sweep expands to more than 100000 scenarios");
    total *= axis.values.size();
  }
  return total;
}

std::vector<ScenarioSpec> CampaignSpec::expand() const {
  const std::size_t total = expansion_size();

  // An explicit sample_seed sweep axis must win over the stride: the user
  // asked for those exact seeds.
  bool seed_is_swept = false;
  for (const SweepAxis& axis : axes)
    seed_is_swept |= axis.path == "insertion.sample_seed";

  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(total);
  std::vector<std::size_t> choice(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    Json doc = base;
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const Json& value = axes[a].values[choice[a]];
      set_path(doc, axes[a].path, value);
      suffix += '/';
      suffix += short_key(axes[a].path);
      suffix += '=';
      suffix += value_token(value);
    }
    // Deterministic, distinct sampling seed per expanded scenario.
    if (seed_stride != 0 && !seed_is_swept) {
      std::uint64_t seed = core::InsertionConfig{}.sample_seed;
      if (const Json* insertion = doc.find("insertion")) {
        if (const Json* s = insertion->find("sample_seed"))
          seed = s->as_uint();
      } else {
        doc.set("insertion", Json::object());
      }
      doc.find("insertion")->set("sample_seed",
                                 Json(seed + index * seed_stride));
    }

    ScenarioSpec spec = ScenarioSpec::from_json(doc);
    if (!suffix.empty()) spec.name += suffix;
    scenarios.push_back(std::move(spec));

    // Odometer increment over the axes (last axis fastest).
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++choice[a] < axes[a].values.size()) break;
      choice[a] = 0;
    }
  }
  return scenarios;
}

Json CampaignSummary::Selection::to_json() const {
  Json list = Json::array();
  for (const std::size_t index : indices)
    list.push_back(static_cast<std::uint64_t>(index));
  Json j = Json::object();
  j.set("of", static_cast<std::uint64_t>(of));
  j.set("indices", std::move(list));
  return j;
}

CampaignSummary::Selection CampaignSummary::Selection::from_json(
    const Json& j) {
  Selection selection;
  selection.of = static_cast<std::size_t>(j.at("of").as_uint());
  for (const Json& index : j.at("indices").as_array()) {
    const std::size_t value = static_cast<std::size_t>(index.as_uint());
    if (value >= selection.of)
      throw JsonError("selection index " + std::to_string(value) +
                      " is not below of = " + std::to_string(selection.of));
    if (!selection.indices.empty() && value <= selection.indices.back())
      throw JsonError("selection indices must be strictly increasing");
    selection.indices.push_back(value);
  }
  return selection;
}

Json CampaignSummary::to_json(bool include_timing) const {
  Json j = Json::object();
  j.set("name", name);
  if (selection) j.set("selection", selection->to_json());
  j.set("scenarios_run", scenarios_run);
  j.set("targets_missed", targets_missed);

  util::OnlineStats tuned, improvement;
  std::uint64_t buffers = 0;
  for (const ScenarioResult& r : results) {
    tuned.add(r.yield.tuned.yield);
    improvement.add(r.yield.improvement());
    buffers += static_cast<std::uint64_t>(r.insertion.plan.physical_buffers());
  }
  Json agg = Json::object();
  agg.set("mean_tuned_yield", results.empty() ? 0.0 : tuned.mean());
  agg.set("mean_improvement", results.empty() ? 0.0 : improvement.mean());
  agg.set("total_physical_buffers", buffers);
  j.set("aggregate", std::move(agg));

  Json arr = Json::array();
  for (const ScenarioResult& r : results)
    arr.push_back(r.to_json(include_timing));
  j.set("results", std::move(arr));
  if (include_timing) j.set("total_seconds", total_seconds);
  return j;
}

CampaignSummary CampaignSummary::from_json(const Json& j) {
  CampaignSummary summary;
  summary.name = j.at("name").as_string();
  if (j.contains("shard"))
    throw JsonError("summary: \"shard\" is the old slice record; re-run"
                    " the sweep to record a \"selection\"");
  for (const Json& r : j.at("results").as_array())
    summary.results.push_back(ScenarioResult::from_json(r));
  if (const Json* selected = j.find("selection")) {
    Selection selection = Selection::from_json(*selected);
    if (selection.indices.size() != summary.results.size())
      throw JsonError("summary: selection lists " +
                      std::to_string(selection.indices.size()) +
                      " indices for " +
                      std::to_string(summary.results.size()) + " results");
    summary.selection = std::move(selection);
  }
  // The counters are recomputed rather than trusted, so a hand-edited
  // artifact cannot disagree with its own cells; the aggregate block is
  // derived in to_json the same way.
  summary.recount();
  if (const Json* seconds = j.find("total_seconds"))
    summary.total_seconds = seconds->as_double();
  return summary;
}

void CampaignSummary::set_selection(std::size_t of,
                                    std::vector<std::size_t> indices) {
  if (indices.size() == of)
    selection.reset();
  else
    selection = Selection{of, std::move(indices)};
}

void CampaignSummary::recount() {
  scenarios_run = results.size();
  targets_missed = 0;
  for (const ScenarioResult& r : results)
    targets_missed += r.met_target ? 0 : 1;
}

}  // namespace clktune::scenario
