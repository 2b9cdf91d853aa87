// Client side of the serve protocol: connect, send one request line, stream
// response events until "done" / "status" / "error" (or EOF).  The layer
// under exec::RemoteExecutor (which `clktune submit` and `job attach` go
// through) and fleet::FleetExecutor; also used by the CLI's job, metrics
// and drain verbs, the end-to-end tests and the serve_roundtrip example.
// It reorders result frames and nothing more: checking them against the
// selection a client asked for is the executors' job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"

namespace clktune::serve {

struct SubmitOutcome {
  /// "result" events' artifacts, one per frame, in ascending index order
  /// (so a sweep submission yields the same ordering as the local
  /// summary); an index selection leaves no gaps.
  std::vector<util::Json> results;
  /// How many of the results were served from the daemon's cache.
  std::uint64_t cached = 0;
  /// The terminal event ("done" / "status" / "error"); object() on EOF.
  util::Json final_event = util::Json::object();

  bool ok() const;             ///< terminal event is a successful "done"
  std::uint64_t targets_missed() const;
};

/// Progress observer: every response event, in arrival order; may be empty.
using EventCallback = std::function<void(const util::Json&)>;

/// Client-side deadlines for one exchange.  0 = no deadline (block
/// indefinitely, the historical behaviour).  A connect that exceeds its
/// deadline, and a response stream that stalls longer than `io_timeout_ms`
/// between bytes, both throw std::runtime_error whose message contains
/// "timed out" — the diagnostic callers show instead of hanging on an
/// unreachable or wedged daemon.
struct SubmitOptions {
  int connect_timeout_ms = 0;
  int io_timeout_ms = 0;
};

/// Sends one pre-built request line verbatim and collects the response
/// stream — the layer RemoteExecutor and fleet::FleetExecutor build on,
/// for requests that carry members beyond cmd/doc (e.g. an "indices"
/// selection or a job id).  Throws std::runtime_error on connection
/// failure or an expired deadline and util::JsonError on a malformed
/// response line; exceptions from `on_event` propagate (closing the
/// connection), which is how an observer aborts a stream.
SubmitOutcome submit_raw(const std::string& host, std::uint16_t port,
                         const util::Json& request,
                         const EventCallback& on_event = {},
                         const SubmitOptions& options = {});

/// Sends `{"cmd":cmd,"doc":doc}` (doc omitted when null) and collects the
/// response stream.  Throws std::runtime_error on connection failure and
/// util::JsonError on a malformed response line.
SubmitOutcome submit_request(const std::string& host, std::uint16_t port,
                             const std::string& cmd, const util::Json& doc,
                             const EventCallback& on_event = {});

/// Convenience: submit a scenario or campaign document, auto-detected by
/// its shape (a campaign has a "base" member).
SubmitOutcome submit_document(const std::string& host, std::uint16_t port,
                              const util::Json& doc,
                              const EventCallback& on_event = {});

}  // namespace clktune::serve
