// The unit of work of the execution layer.
//
// A Request is a *resolved* scenario or campaign document plus the knobs
// that are orthogonal to it: a result cache, a thread budget and an index
// selection.  None of the knobs may change result bytes — only where
// results come from (cache), how fast they arrive (threads) and which cells
// of the campaign expansion run (indices).  An Outcome is the matching
// artifact — ScenarioResult or CampaignSummary — together with execution
// diagnostics, and Outcome::artifact() is byte-for-byte what `clktune run`
// / `sweep` print for the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "util/json.h"

namespace clktune::cache {
class ResultCache;
}

namespace clktune::exec {

/// A malformed or unsupported execution request (a bad index selection, a
/// backend asked to run a kind it cannot, a remote failure).
class ExecError : public std::runtime_error {
 public:
  explicit ExecError(const std::string& what) : std::runtime_error(what) {}
};

struct Request {
  enum class Kind { scenario, campaign };

  Kind kind = Kind::scenario;
  scenario::ScenarioSpec scenario;  ///< kind == scenario
  scenario::CampaignSpec campaign;  ///< kind == campaign

  /// Thread budget override.  For a scenario request this caps the inner
  /// (Monte-Carlo) loops; for a campaign it is the worker count across
  /// cells (each cell runs its inner loops single-threaded).  0 keeps the
  /// campaign document's own `threads` (or hardware concurrency).
  int threads = 0;

  /// Optional content-addressed result cache, not owned.  Backends look
  /// every cell up by content key before computing and store computed
  /// results back.  RemoteExecutor ignores it — the daemon owns its own.
  cache::ResultCache* cache = nullptr;

  /// Expansion-index selection (campaign only).  Absent runs the whole
  /// expansion; present runs exactly these global indices, strictly
  /// increasing and in range, and an empty list runs no cell.  Fleet work
  /// units and `--shard i/n` (the list i, i+n, ...) both take this form.
  /// A list short of the whole expansion yields a partial summary that
  /// records it (CampaignSummary::selection) for `report --merge`.
  std::optional<std::vector<std::size_t>> indices;

  static Request for_scenario(scenario::ScenarioSpec spec);
  static Request for_campaign(scenario::CampaignSpec spec);

  /// Parses a scenario or campaign document, auto-detected by its shape
  /// (a campaign has a "base" member).  Throws util::JsonError.
  static Request from_json(const util::Json& doc);

  /// The resolved document (ScenarioSpec / CampaignSpec::to_json) — the
  /// wire form RemoteExecutor sends; parsing it back reproduces the spec.
  util::Json document() const;

  /// Number of cells the request expands to (1 for a scenario).
  std::size_t expansion_size() const;

  /// The global expansion indices this request runs, ascending: the index
  /// list when present, every index otherwise.
  std::vector<std::size_t> selection() const;

  /// Throws ExecError on an index list that is non-campaign, out of range
  /// or not strictly increasing.
  void validate() const;
};

struct Outcome {
  Request::Kind kind = Request::Kind::scenario;
  scenario::ScenarioResult result;   ///< kind == scenario
  scenario::CampaignSummary summary; ///< kind == campaign

  // Diagnostics (never serialised into the artifact).
  std::string backend;                 ///< which executor produced this
  std::uint64_t scenarios_run = 0;     ///< cells produced (computed + cached)
  std::uint64_t scenarios_cached = 0;  ///< cells served from a cache
  std::uint64_t targets_missed = 0;    ///< cells below their yield target
  double seconds = 0.0;                ///< wall clock of the whole request

  bool ok() const { return targets_missed == 0; }
  bool fully_cached() const {
    return scenarios_run > 0 && scenarios_cached == scenarios_run;
  }

  /// The artifact `clktune run` / `clktune sweep` print: the scenario
  /// result or the campaign summary, timing-free (deterministic) unless
  /// `include_timing`.
  util::Json artifact(bool include_timing = false) const;

  /// Builds a campaign outcome from its finished summary, deriving every
  /// diagnostic counter — the one place backends map a summary onto an
  /// Outcome, so a new diagnostic field cannot be copied in some
  /// backends and forgotten in others.
  static Outcome from_summary(scenario::CampaignSummary summary,
                              std::string backend);

  /// from_summary's twin for a scenario outcome: its one cell, where the
  /// cell came from, and the wall clock of the whole request.
  static Outcome from_result(scenario::ScenarioResult result, bool cached,
                             std::string backend, double seconds);
};

}  // namespace clktune::exec
