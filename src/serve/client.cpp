#include "serve/client.h"

#include <algorithm>
#include <utility>

#include "util/socket.h"

namespace clktune::serve {

using util::Json;

bool SubmitOutcome::ok() const {
  const Json* event = final_event.find("event");
  if (event == nullptr || event->as_string() != "done") return false;
  const Json* ok_flag = final_event.find("ok");
  return ok_flag != nullptr && ok_flag->as_bool();
}

std::uint64_t SubmitOutcome::targets_missed() const {
  const Json* missed = final_event.find("targets_missed");
  return missed == nullptr ? 0 : missed->as_uint();
}

SubmitOutcome submit_raw(const std::string& host, std::uint16_t port,
                         const Json& request, const EventCallback& on_event,
                         const SubmitOptions& options) {
  const util::TcpSocket connection =
      util::tcp_connect(host, port, options.connect_timeout_ms);
  if (options.io_timeout_ms > 0)
    util::tcp_set_recv_timeout(connection, options.io_timeout_ms);
  util::tcp_write_all(connection, request.dump(-1) + "\n");

  SubmitOutcome outcome;
  // (index, artifact) in arrival order; nothing is sized by a wire index.
  std::vector<std::pair<std::uint64_t, Json>> streamed;
  util::LineReader reader(connection);
  std::string line;
  while (reader.read_line(line)) {
    if (line.empty()) continue;
    Json event = Json::parse(line);
    if (on_event) on_event(event);
    const std::string kind = event.at("event").as_string();
    if (kind == "result") {
      outcome.cached += event.at("cached").as_bool() ? 1 : 0;
      streamed.emplace_back(event.at("index").as_uint(), event.at("result"));
      continue;
    }
    outcome.final_event = std::move(event);
    break;  // done / status / error terminates the exchange
  }
  std::stable_sort(
      streamed.begin(), streamed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  outcome.results.reserve(streamed.size());
  for (auto& [index, artifact] : streamed)
    outcome.results.push_back(std::move(artifact));
  return outcome;
}

SubmitOutcome submit_request(const std::string& host, std::uint16_t port,
                             const std::string& cmd, const Json& doc,
                             const EventCallback& on_event) {
  Json request = Json::object();
  request.set("cmd", cmd);
  if (!doc.is_null()) request.set("doc", doc);
  return submit_raw(host, port, request, on_event);
}

SubmitOutcome submit_document(const std::string& host, std::uint16_t port,
                              const Json& doc,
                              const EventCallback& on_event) {
  const std::string cmd = doc.contains("base") ? "sweep" : "run";
  return submit_request(host, port, cmd, doc, on_event);
}

}  // namespace clktune::serve
