// In-process backend: the scenario engine, the campaign thread pool and
// the content-addressed result cache behind the Executor interface.
#pragma once

#include "exec/executor.h"

namespace clktune::exec {

/// Runs requests in this process.  A scenario request is one engine run
/// (inner loops use the request's thread budget); a campaign request
/// expands the sweep, runs the request's selection of it concurrently —
/// one worker thread per concurrent cell, each cell's inner loops
/// single-threaded — and collects results in expansion order, so the
/// summary is a pure function of the document and the selection.  When
/// the request carries a cache, every cell is looked up by content key
/// first and computed results are stored back.
class LocalExecutor : public Executor {
 public:
  Outcome execute(const Request& request,
                  Observer* observer = nullptr) override;

  std::string name() const override { return "local"; }
};

}  // namespace clktune::exec
