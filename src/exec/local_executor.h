// In-process backend: the scenario engine, the campaign thread pool and
// the content-addressed result cache behind the Executor interface.
#pragma once

#include "exec/executor.h"

namespace clktune::exec {

/// Fetches one cell: a cache lookup by content key, else a fresh engine
/// run (inner loops capped at `threads`) whose result is stored back.
/// Sets `cached` to the provenance and counts the cell in
/// clktune_exec_cells_{computed,cached}_total.  The one cell path of the
/// process: LocalExecutor runs every cell through it (the daemon's
/// run/sweep verbs and job workers included), and so does a job attach
/// that replays a finished cell.
scenario::ScenarioResult run_cell(const scenario::ScenarioSpec& spec,
                                  cache::ResultCache* cache, int threads,
                                  bool& cached);

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
