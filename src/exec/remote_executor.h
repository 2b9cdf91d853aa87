// Remote backend: a `clktune serve` daemon behind the Executor interface.
//
// execute() sends the request's resolved document over the NDJSON serve
// protocol (`{"cmd":"run"|"sweep","doc":{...}[,"indices":[...]]}`);
// attach() follows a job a detached submit left on the daemon, whose job
// frame names its kind, name and selection.  Both read the daemon's
// "result" frames through one collector, which checks each streamed cell
// on arrival — it must belong to the selection asked for and must not
// repeat — before the observer or the outcome sees it.  The artifacts
// round-trip byte-exactly, so the outcome is the same ScenarioResult /
// CampaignSummary a LocalExecutor would have produced for that selection,
// and several RemoteExecutors given disjoint lists split one campaign
// across daemons.
#pragma once

#include <cstdint>
#include <string>

#include "exec/executor.h"
#include "serve/client.h"

namespace clktune::exec {

class RemoteExecutor : public Executor {
 public:
  /// `timeouts` bounds the connect attempt and the gap between response
  /// bytes (0 = block indefinitely); an expired deadline surfaces as an
  /// ExecError naming the daemon and the timeout instead of a hang.
  RemoteExecutor(std::string host, std::uint16_t port,
                 serve::SubmitOptions timeouts = {})
      : host_(std::move(host)), port_(port), timeouts_(timeouts) {}

  /// Submits the request and streams until the terminal event.  The
  /// request's cache pointer is ignored — the daemon owns its own cache.
  /// Throws ExecError when the daemon reports an error, streams a cell
  /// outside the selection (naming its index) or twice, closes the
  /// connection early, cannot be reached, or misses a deadline.
  Outcome execute(const Request& request,
                  Observer* observer = nullptr) override;

  /// Streams job `job_id` — cells already finished replay, the rest
  /// arrive live — and returns the outcome execute() gives for the job's
  /// request: a scenario result, a whole-campaign summary, or a partial
  /// summary recording the job's selection.  A status round trip first
  /// reads the job frame.  Throws ExecError like execute(), and when the
  /// daemon does not know the job or the job failed or was cancelled.
  Outcome attach(const std::string& job_id, Observer* observer = nullptr);

  std::string name() const override {
    return "remote(" + host_ + ":" + std::to_string(port_) + ")";
  }

 private:
  /// One request line and its response stream.  A transport failure, or
  /// a terminal frame other than `terminal`, becomes an ExecError with the
  /// daemon's message.
  serve::SubmitOutcome exchange(const util::Json& wire, const char* terminal,
                                const serve::EventCallback& on_event) const;

  std::string host_;
  std::uint16_t port_;
  serve::SubmitOptions timeouts_;
};

}  // namespace clktune::exec
