// Execution observers: streamed progress, per-cell completion and
// cooperative cancellation for every exec backend.
//
// An Observer is handed to Executor::execute and receives the same event
// sequence no matter which backend runs the request: one on_begin with the
// request's expansion size, one on_cell per finished cell (tagged with the
// cell's *global* expansion index, so index-selected and remote execution
// report the same indices a plain local run would), and a cancelled() poll
// between cells.  Campaign cells finish on worker threads, so on_cell may
// be invoked concurrently — implementations that share state must lock.
//
// Cancellation is cooperative: when cancelled() returns true, the backend
// stops starting new cells, lets in-flight ones finish, and raises
// CancelledError instead of returning an Outcome.  Results already computed
// still land in the request's cache, so a cancelled campaign resumes warm.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "scenario/scenario.h"

namespace clktune::exec {

/// One finished cell of a request (a scenario is a single cell at index 0).
struct CellEvent {
  /// Global expansion index of the cell within its campaign.
  std::size_t index = 0;
  const scenario::ScenarioResult& result;
  bool cached = false;    ///< served from a result cache, not computed
  double seconds = 0.0;   ///< wall clock of this cell (0 when cached)
};

class Observer {
 public:
  virtual ~Observer() = default;

  /// Once per execution, before any cell runs: how many cells the request
  /// expands to in total and how many this execution will produce (they
  /// differ only for an index selection).
  virtual void on_begin(std::size_t total_cells, std::size_t own_cells) {
    (void)total_cells;
    (void)own_cells;
  }

  /// Per finished cell, possibly from a worker thread.  Must not throw:
  /// an observer that wants to stop the run returns true from cancelled().
  virtual void on_cell(const CellEvent& event) { (void)event; }

  /// Polled between cells; return true to cancel the run cooperatively.
  virtual bool cancelled() { return false; }
};

/// Raised by Executor::execute when the observer cancelled the run.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace clktune::exec
