// Campaigns: parameter sweeps over a base scenario, executed as one batch.
//
// A campaign document holds a base scenario plus sweep axes; the cross
// product of all axis values is expanded into a concrete scenario list
// (EffiTest-style circuits x variation settings evaluation grids).  Example:
//
//   {
//     "name": "paper_table1",
//     "base": { ... ScenarioSpec ... },
//     "sweep": {
//       "design.paper_circuit": ["s9234", "s13207"],
//       "clock.sigma_offset": [0, 1, 2],
//       "insertion.num_samples": [1000, 10000]
//     },
//     "threads": 0,
//     "seed_stride": 1
//   }
//
// Sweep keys are dotted paths into the scenario document; each expanded
// scenario gets a deterministic name suffix and (via seed_stride) a
// deterministic, distinct sample seed, so campaign results are reproducible
// bit for bit regardless of how many worker threads execute them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "util/json.h"

namespace clktune::scenario {

/// One sweep axis: dotted scenario path + the values it takes.
struct SweepAxis {
  std::string path;
  std::vector<util::Json> values;
};

struct CampaignSpec {
  std::string name = "campaign";
  util::Json base = util::Json::object();  ///< base scenario document
  std::vector<SweepAxis> axes;             ///< in declaration order
  /// Chunks of scenarios run in parallel on the compute pool
  /// (util/thread_pool.h); 0 = hardware concurrency.
  int threads = 0;
  /// Each expanded scenario i gets sample_seed += i * seed_stride (0 keeps
  /// every scenario on the base seed).
  std::uint64_t seed_stride = 1;

  static CampaignSpec from_json(const util::Json& j);
  util::Json to_json() const;

  /// Number of scenarios the sweep expands to (product of axis sizes);
  /// throws util::JsonError above 100000.  O(#axes).
  std::size_t expansion_size() const;

  /// Cross-product expansion into validated scenario specs.  Throws
  /// util::JsonError when an axis path is unknown or a combination fails
  /// ScenarioSpec validation.  An explicit "insertion.sample_seed" sweep
  /// axis overrides the seed_stride policy.
  std::vector<ScenarioSpec> expand() const;
};

struct CampaignSummary {
  /// The cells of a partial summary: results[k] is expansion index
  /// indices[k] (strictly increasing) of a campaign of `of` cells.
  struct Selection {
    std::size_t of = 0;
    std::vector<std::size_t> indices;

    /// {"of":N,"indices":[...]} — the record a partial summary and a job
    /// frame carry.
    util::Json to_json() const;
    /// Throws util::JsonError unless the indices are strictly increasing
    /// and below `of`.
    static Selection from_json(const util::Json& j);
  };

  std::string name;
  std::vector<ScenarioResult> results;  ///< selected cells, expansion order
  std::uint64_t scenarios_run = 0;
  std::uint64_t targets_missed = 0;
  /// Cells served from the result cache (subset of scenarios_run).  Not
  /// serialised: a warm summary must stay byte-identical to a cold one.
  std::uint64_t scenarios_cached = 0;
  /// Absent for a summary of the whole expansion; recorded in the JSON as
  /// "selection" otherwise, so partial summaries are self-describing.
  std::optional<Selection> selection;
  double total_seconds = 0.0;  ///< wall clock of the whole batch

  /// Records that the results are cells `indices` of an `of`-cell
  /// expansion.  A list of every cell records nothing, so a whole-campaign
  /// summary keeps its bytes however its cells were selected.
  void set_selection(std::size_t of, std::vector<std::size_t> indices);

  /// Deterministic (timing-free) by default.
  util::Json to_json(bool include_timing = false) const;

  /// Rederives scenarios_run and targets_missed from the cells — the one
  /// place those counters are defined; every producer (local execution,
  /// remote reassembly, merge, from_json) calls this instead of
  /// counting by hand.  scenarios_cached is left alone: it is execution
  /// provenance, not derivable from the cells.
  void recount();

  /// Rebuilds a summary from a serialised artifact (a `clktune sweep`
  /// output file).  Round-trip safe for deterministic artifacts:
  /// from_json(s.to_json()).to_json() reproduces the original bytes —
  /// the aggregate block is recomputed from the cells, and cells round
  /// trip via ScenarioResult.  Backs `clktune report --merge` and the
  /// remote execution backend.  Throws util::JsonError on shape errors and
  /// on a selection that disagrees with the file's own cells (indices not
  /// strictly increasing, not below `of`, or not one per result).
  static CampaignSummary from_json(const util::Json& j);
};

// Campaign execution lives in the exec layer: exec::LocalExecutor expands
// and runs a CampaignSpec (optionally cached / index-selected), and
// exec::merge_shard_summaries reassembles partial summaries.

}  // namespace clktune::scenario
