// The execution abstraction: one interface, several backends.
//
// Every entry point of the system — the `clktune` CLI, the serve daemon,
// tests and library users — runs scenarios and campaigns by composing a
// Request with an Executor:
//
//   LocalExecutor          in-process: engine + thread pool + ResultCache
//   RemoteExecutor         a `clktune serve` daemon over the NDJSON protocol
//   fleet::FleetExecutor   a campaign split into index-list work units over
//                          a daemon pool, merged back in expansion order
//
// All backends produce byte-identical artifacts for the same request: the
// Outcome is a pure function of the resolved document (plus the index
// selection), never of the backend that computed it.  That invariant is
// what makes the composition safe — a fleet's index-list units, or the
// outputs of `submit --shard i/n` against n daemons, merge to the summary
// a single local run writes.
#pragma once

#include <string>

#include "exec/observer.h"
#include "exec/request.h"

namespace clktune::exec {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs the request to completion.  Observer events stream while cells
  /// finish; `observer` may be null.  Throws CancelledError when the
  /// observer cancels, ExecError on backend failures and util::JsonError
  /// on invalid documents.
  virtual Outcome execute(const Request& request,
                          Observer* observer = nullptr) = 0;

  /// Diagnostic backend label ("local", "remote(host:port)", "fleet(n)").
  virtual std::string name() const = 0;
};

}  // namespace clktune::exec
