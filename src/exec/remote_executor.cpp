#include "exec/remote_executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace clktune::exec {

using util::Json;

namespace {

/// The one reader of a daemon's "result" frames.  Every cell is checked on
/// arrival — its index belongs to the selection (the listed indices, or
/// every index below `of` without a list) and has not arrived before — and
/// only then parsed, handed to the observer and kept.  Cells are keyed by
/// index, so nothing is sized by a number from the wire.
class CellCollector {
 public:
  CellCollector(std::string backend, std::size_t of,
                const std::vector<std::size_t>* indices, Observer* observer)
      : backend_(std::move(backend)),
        of_(of),
        indices_(indices),
        observer_(observer) {}

  std::size_t expected() const {
    return indices_ != nullptr ? indices_->size() : of_;
  }

  void on_event(const Json& event) {
    if (event.at("event").as_string() != "result") return;
    if (observer_ != nullptr && observer_->cancelled())
      throw CancelledError("exec: remote stream cancelled");
    const std::size_t index = event.at("index").as_uint();
    const bool selected =
        indices_ != nullptr
            ? std::binary_search(indices_->begin(), indices_->end(), index)
            : index < of_;
    if (!selected || cells_.count(index) != 0)
      throw ExecError(backend_ + ": cell index " + std::to_string(index) +
                      (selected ? " streamed twice"
                                : " does not belong to the requested"
                                  " selection"));
    Cell cell{scenario::ScenarioResult::from_json(event.at("result")),
              event.at("cached").as_bool()};
    const Cell& kept = cells_.emplace(index, std::move(cell)).first->second;
    if (observer_ != nullptr)
      observer_->on_cell(CellEvent{index, kept.result, kept.cached,
                                   kept.cached ? 0.0 : kept.result.seconds});
  }

  /// The outcome of a stream that ended with `done`: every selected cell
  /// must have arrived.
  Outcome finish(Request::Kind kind, const std::string& campaign_name,
                 double seconds) {
    if (cells_.size() != expected())
      throw ExecError(backend_ + ": server sent " +
                      std::to_string(cells_.size()) + " cells, expected " +
                      std::to_string(expected()));
    if (kind == Request::Kind::scenario) {
      Cell& cell = cells_.begin()->second;
      return Outcome::from_result(std::move(cell.result), cell.cached,
                                  backend_, seconds);
    }
    scenario::CampaignSummary summary;
    summary.name = campaign_name;
    if (indices_ != nullptr) summary.set_selection(of_, *indices_);
    summary.results.reserve(cells_.size());
    for (auto& [index, cell] : cells_) {
      summary.scenarios_cached += cell.cached ? 1 : 0;
      summary.results.push_back(std::move(cell.result));
    }
    summary.recount();
    summary.total_seconds = seconds;
    return Outcome::from_summary(std::move(summary), backend_);
  }

 private:
  struct Cell {
    scenario::ScenarioResult result;
    bool cached = false;
  };

  std::string backend_;
  std::size_t of_;
  const std::vector<std::size_t>* indices_;
  Observer* observer_;
  std::map<std::size_t, Cell> cells_;  ///< expansion order
};

}  // namespace

serve::SubmitOutcome RemoteExecutor::exchange(
    const Json& wire, const char* terminal,
    const serve::EventCallback& on_event) const {
  serve::SubmitOutcome stream;
  try {
    stream = serve::submit_raw(host_, port_, wire, on_event, timeouts_);
  } catch (const ExecError&) {
    throw;
  } catch (const CancelledError&) {
    throw;
  } catch (const util::JsonError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ExecError(name() + ": " + e.what());
  }
  const Json* event = stream.final_event.find("event");
  if (event == nullptr || event->as_string() != terminal) {
    const Json* message = stream.final_event.find("message");
    throw ExecError(name() + ": " +
                    (message != nullptr ? message->as_string()
                                        : "connection closed"));
  }
  return stream;
}

Outcome RemoteExecutor::execute(const Request& request, Observer* observer) {
  request.validate();
  const util::Stopwatch timer;

  Json wire = Json::object();
  wire.set("cmd",
           request.kind == Request::Kind::scenario ? "run" : "sweep");
  wire.set("doc", request.document());
  if (request.indices) {
    Json indices = Json::array();
    for (const std::size_t index : *request.indices)
      indices.push_back(static_cast<std::uint64_t>(index));
    wire.set("indices", std::move(indices));
  }

  CellCollector cells(name(), request.expansion_size(),
                      request.indices ? &*request.indices : nullptr,
                      observer);
  if (observer != nullptr)
    observer->on_begin(request.expansion_size(), cells.expected());
  exchange(wire, "done", [&cells](const Json& event) {
    cells.on_event(event);
  });
  return cells.finish(request.kind, request.campaign.name, timer.seconds());
}

Outcome RemoteExecutor::attach(const std::string& job_id,
                               Observer* observer) {
  const util::Stopwatch timer;

  // Attach streams bare result frames, so the job's kind, name and
  // selection come from its job frame first.
  Json status = Json::object();
  status.set("cmd", "status");
  status.set("id", job_id);
  const Json job = exchange(status, "job", {}).final_event;
  const std::string kind = job.at("kind").as_string();
  if (kind != "scenario" && kind != "campaign")
    throw ExecError(name() + ": job " + job_id + " has unknown kind \"" +
                    kind + "\"");
  std::size_t of = kind == "scenario" ? 1 : job.at("cells_total").as_uint();
  std::optional<scenario::CampaignSummary::Selection> selection;
  if (const Json* record = job.find("selection")) {
    selection = scenario::CampaignSummary::Selection::from_json(*record);
    of = selection->of;
  }

  CellCollector cells(name(), of,
                      selection ? &selection->indices : nullptr, observer);
  if (observer != nullptr) observer->on_begin(of, cells.expected());
  Json wire = Json::object();
  wire.set("cmd", "attach");
  wire.set("id", job_id);
  exchange(wire, "done", [&cells](const Json& event) {
    cells.on_event(event);
  });
  return cells.finish(kind == "scenario" ? Request::Kind::scenario
                                         : Request::Kind::campaign,
                      job.at("name").as_string(), timer.seconds());
}

}  // namespace clktune::exec
