#include "exec/remote_executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "serve/client.h"
#include "util/timer.h"

namespace clktune::exec {

using util::Json;

namespace {

struct RemoteCell {
  std::size_t index = 0;  ///< global expansion index from the wire
  scenario::ScenarioResult result;
  bool cached = false;
};

}  // namespace

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

  const std::vector<std::size_t> selected = request.selection();
  if (observer != nullptr)
    observer->on_begin(request.expansion_size(), selected.size());

  std::vector<RemoteCell> cells;
  serve::SubmitOutcome stream;
  try {
    stream = serve::submit_raw(
        host_, port_, wire,
        [&](const Json& event) {
          if (event.at("event").as_string() != "result") return;
          if (observer != nullptr && observer->cancelled())
            throw CancelledError("exec: remote stream cancelled");
          RemoteCell cell;
          cell.index = event.at("index").as_uint();
          cell.result =
              scenario::ScenarioResult::from_json(event.at("result"));
          cell.cached = event.at("cached").as_bool();
          if (observer != nullptr) {
            CellEvent forwarded{cell.index, cell.result, cell.cached,
                                cell.cached ? 0.0 : cell.result.seconds};
            observer->on_cell(forwarded);
          }
          cells.push_back(std::move(cell));
        },
        timeouts_);
  } catch (const CancelledError&) {
    throw;
  } catch (const util::JsonError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ExecError(name() + ": " + e.what());
  }

  if (!stream.ok()) {
    const Json* message = stream.final_event.find("message");
    throw ExecError(name() + ": " +
                    (message != nullptr ? message->as_string()
                                        : "connection closed"));
  }

  // Streamed completion order back to expansion order — the daemon tags
  // every cell with its global expansion index.
  std::sort(cells.begin(), cells.end(),
            [](const RemoteCell& a, const RemoteCell& b) {
              return a.index < b.index;
            });

  // The daemon must have honoured the selection: exactly the requested
  // cells, none duplicated.  A daemon that ignored the "indices" member
  // would otherwise corrupt a downstream merge silently instead of failing
  // here.
  if (request.kind == Request::Kind::campaign) {
    if (cells.size() != selected.size())
      throw ExecError(name() + ": server sent " +
                      std::to_string(cells.size()) + " cells, expected " +
                      std::to_string(selected.size()));
    for (std::size_t i = 0; i < cells.size(); ++i)
      if (cells[i].index != selected[i])
        throw ExecError(name() + ": cell index " +
                        std::to_string(cells[i].index) +
                        " does not belong to the requested selection");
  }

  if (request.kind == Request::Kind::scenario) {
    if (cells.size() != 1)
      throw ExecError(name() + ": server sent no result");
    Outcome outcome;
    outcome.kind = Request::Kind::scenario;
    outcome.result = std::move(cells.front().result);
    outcome.scenarios_run = 1;
    outcome.scenarios_cached = cells.front().cached ? 1 : 0;
    outcome.targets_missed = outcome.result.met_target ? 0 : 1;
    outcome.seconds = timer.seconds();
    outcome.backend = name();
    return outcome;
  }

  scenario::CampaignSummary summary;
  summary.name = request.campaign.name;
  summary.set_selection(request.expansion_size(), selected);
  summary.results.reserve(cells.size());
  for (RemoteCell& cell : cells) {
    summary.scenarios_cached += cell.cached ? 1 : 0;
    summary.results.push_back(std::move(cell.result));
  }
  summary.recount();
  summary.total_seconds = timer.seconds();
  return Outcome::from_summary(std::move(summary), name());
}

}  // namespace clktune::exec
