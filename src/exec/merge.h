// Merging disjoint partial summaries back into a full-campaign summary.
//
// A sweep with an index selection (`clktune sweep --shard i/n` is sugar
// for the list i, i+n, ...) records that selection in its summary; this
// module is the inverse: given partial summaries whose selections
// partition one campaign's expansion, it places their cells back in
// expansion order and produces a summary byte-identical to the one a
// sweep of the whole campaign would have written.  Backs
// `clktune report --merge`.
#pragma once

#include <vector>

#include "scenario/campaign.h"

namespace clktune::exec {

/// Merges summaries whose index sets partition one campaign's expansion
/// 0..N-1 (a summary without a selection covers the whole of it).  The
/// inputs may arrive in any order; the output covers the whole expansion
/// and records no selection, like a sweep of the whole campaign.  Throws
/// ExecError when the inputs are not exactly such a partition: mismatched
/// names or expansion sizes, cell counts that do not sum to N (checked
/// before anything is sized by N, which also catches a missing tail), or
/// an index held by two inputs.
scenario::CampaignSummary merge_shard_summaries(
    const std::vector<scenario::CampaignSummary>& parts);

}  // namespace clktune::exec
