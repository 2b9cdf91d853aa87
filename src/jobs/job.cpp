#include "jobs/job.h"

#include "scenario/campaign.h"

namespace clktune::jobs {

using util::Json;

namespace {

/// Envelope schema tag: bumping it orphans old envelopes (load skips
/// them) instead of misreading them.
constexpr const char* kJobSchema = "clktune-job-v1";

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::queued: return "queued";
    case JobState::preparing: return "preparing";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::error: return "error";
    case JobState::cancelled: return "cancelled";
  }
  return "unknown";
}

JobState job_state_from_string(const std::string& name) {
  if (name == "queued") return JobState::queued;
  if (name == "preparing") return JobState::preparing;
  if (name == "running") return JobState::running;
  if (name == "done") return JobState::done;
  if (name == "error") return JobState::error;
  if (name == "cancelled") return JobState::cancelled;
  throw util::JsonError("unknown job state \"" + name + "\"");
}

bool is_terminal(JobState state) {
  return state == JobState::done || state == JobState::error ||
         state == JobState::cancelled;
}

std::vector<std::size_t> JobRecord::selection() const {
  if (indices) return *indices;
  std::vector<std::size_t> all;
  all.reserve(cells_total);
  for (std::size_t i = 0; i < cells_total; ++i) all.push_back(i);
  return all;
}

util::Json JobRecord::to_json() const {
  Json j = Json::object();
  j.set("schema", kJobSchema);
  j.set("id", id);
  j.set("seq", seq);
  j.set("state", to_string(state));
  j.set("kind", kind);
  j.set("name", name);
  j.set("doc", doc);
  if (indices) {
    Json list = Json::array();
    for (const std::size_t index : *indices)
      list.push_back(static_cast<std::uint64_t>(index));
    j.set("indices", std::move(list));
  }
  j.set("cells_total", static_cast<std::uint64_t>(cells_total));
  Json done = Json::array();
  for (const std::size_t index : done_indices)
    done.push_back(static_cast<std::uint64_t>(index));
  j.set("done", std::move(done));
  j.set("cached", cached);
  j.set("targets_missed", targets_missed);
  if (!error.empty()) j.set("error", error);
  j.set("created_ms", created_ms);
  j.set("updated_ms", updated_ms);
  return j;
}

JobRecord JobRecord::from_json(const util::Json& j) {
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kJobSchema)
    throw util::JsonError("not a clktune job envelope");
  JobRecord rec;
  rec.id = j.at("id").as_string();
  rec.seq = j.at("seq").as_uint();
  rec.state = job_state_from_string(j.at("state").as_string());
  rec.kind = j.at("kind").as_string();
  rec.name = j.at("name").as_string();
  rec.doc = j.at("doc");
  if (const Json* list = j.find("indices")) {
    rec.indices.emplace();
    for (const Json& index : list->as_array())
      rec.indices->push_back(static_cast<std::size_t>(index.as_uint()));
  }
  rec.cells_total = static_cast<std::size_t>(j.at("cells_total").as_uint());
  for (const Json& index : j.at("done").as_array())
    rec.done_indices.push_back(static_cast<std::size_t>(index.as_uint()));
  rec.cached = j.at("cached").as_uint();
  rec.targets_missed = j.at("targets_missed").as_uint();
  if (const Json* what = j.find("error")) rec.error = what->as_string();
  rec.created_ms = j.at("created_ms").as_uint();
  rec.updated_ms = j.at("updated_ms").as_uint();
  return rec;
}

util::Json JobRecord::status_json() const {
  Json j = Json::object();
  j.set("event", "job");
  j.set("id", id);
  j.set("state", to_string(state));
  j.set("kind", kind);
  j.set("name", name);
  if (indices) {
    // A document that no longer parses (a hand-edited envelope) cannot run
    // either; its frame goes without the record rather than failing every
    // `jobs` listing it is in.
    try {
      const scenario::CampaignSummary::Selection selection{
          scenario::CampaignSpec::from_json(doc).expansion_size(), *indices};
      j.set("selection", selection.to_json());
    } catch (const util::JsonError&) {
    }
  }
  j.set("cells_total", static_cast<std::uint64_t>(cells_total));
  j.set("cells_done", static_cast<std::uint64_t>(done_indices.size()));
  j.set("cached", cached);
  j.set("targets_missed", targets_missed);
  if (!error.empty()) j.set("error", error);
  j.set("created_ms", created_ms);
  j.set("updated_ms", updated_ms);
  return j;
}

Json result_frame(std::size_t index, bool cached, Json artifact) {
  Json frame = Json::object();
  frame.set("event", "result");
  frame.set("index", static_cast<std::uint64_t>(index));
  frame.set("cached", cached);
  frame.set("result", std::move(artifact));
  return frame;
}

}  // namespace clktune::jobs
