// Remote backend: a `clktune serve` daemon behind the Executor interface.
//
// The request's resolved document travels over the NDJSON serve protocol
// (`{"cmd":"run"|"sweep","doc":{...}[,"indices":[...]]}`); streamed
// "result" events become Observer cells, and the reassembled artifacts —
// which round-trip byte-exactly — rebuild the same ScenarioResult /
// CampaignSummary a LocalExecutor would have produced.  An index selection
// is forwarded to the daemon, so several RemoteExecutors given disjoint
// lists split one campaign across daemons.
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
  /// Throws ExecError when the daemon reports an error, closes the
  /// connection early, cannot be reached, or misses a deadline.
  Outcome execute(const Request& request,
                  Observer* observer = nullptr) override;

  std::string name() const override {
    return "remote(" + host_ + ":" + std::to_string(port_) + ")";
  }

 private:
  std::string host_;
  std::uint16_t port_;
  serve::SubmitOptions timeouts_;
};

}  // namespace clktune::exec
