#include "exec/merge.h"

#include <string>
#include <vector>

#include "exec/request.h"

namespace clktune::exec {

scenario::CampaignSummary merge_shard_summaries(
    const std::vector<scenario::CampaignSummary>& parts) {
  if (parts.empty()) throw ExecError("merge: no summaries given");
  const auto expansion = [](const scenario::CampaignSummary& part) {
    return part.selection ? part.selection->of : part.results.size();
  };
  const std::string& name = parts.front().name;
  const std::size_t n = expansion(parts.front());
  std::size_t cells = 0;
  for (const scenario::CampaignSummary& part : parts) {
    if (part.name != name)
      throw ExecError("merge: campaign names differ (\"" + name +
                      "\" vs \"" + part.name + "\")");
    if (expansion(part) != n)
      throw ExecError("merge: expansion sizes differ (" + std::to_string(n) +
                      " vs " + std::to_string(expansion(part)) + ")");
    if (part.selection && part.selection->indices.size() != part.results.size())
      throw ExecError("merge: a summary selects " +
                      std::to_string(part.selection->indices.size()) +
                      " indices for " + std::to_string(part.results.size()) +
                      " results");
    cells += part.results.size();
  }
  // N comes from the inputs' own bytes, so nothing is sized by it until
  // the cells in hand account for it exactly.
  if (cells != n)
    throw ExecError("merge: the summaries hold " + std::to_string(cells) +
                    " cells of a " + std::to_string(n) + "-cell campaign");

  // N cells, each index below N and none seen twice: exactly 0..N-1.
  scenario::CampaignSummary merged;
  merged.name = name;
  merged.results.resize(n);
  std::vector<char> seen(n, 0);
  for (const scenario::CampaignSummary& part : parts) {
    for (std::size_t k = 0; k < part.results.size(); ++k) {
      const std::size_t index = part.selection ? part.selection->indices[k] : k;
      if (index >= n || seen[index] != 0)
        throw ExecError("merge: cell " + std::to_string(index) +
                        (index >= n ? " is out of range"
                                    : " is in more than one summary"));
      seen[index] = 1;
      merged.results[index] = part.results[k];
    }
    merged.scenarios_cached += part.scenarios_cached;
    merged.total_seconds += part.total_seconds;
  }
  merged.recount();
  return merged;
}

}  // namespace clktune::exec
