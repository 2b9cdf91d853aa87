#include "exec/local_executor.h"

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace clktune::exec {

using util::Json;

namespace {

/// Cell-level metrics: how many cells were computed vs. served from the
/// cache, and the wall-time distribution of the computed ones.
struct CellMetrics {
  obs::Counter& computed;
  obs::Counter& cached;
  obs::Histogram& cell_seconds;

  static CellMetrics& get() {
    static CellMetrics m{
        obs::Registry::global().counter("clktune_exec_cells_computed_total",
                                        "Scenario cells computed"),
        obs::Registry::global().counter(
            "clktune_exec_cells_cached_total",
            "Scenario cells served from the result cache"),
        obs::Registry::global().histogram(
            "clktune_exec_cell_seconds",
            "Wall time of one computed scenario cell", 1e-9),
    };
    return m;
  }
};

void notify(Observer* observer, std::size_t index,
            const scenario::ScenarioResult& result, bool cached) {
  if (observer == nullptr) return;
  CellEvent event{index, result, cached, cached ? 0.0 : result.seconds};
  observer->on_cell(event);
}

Outcome execute_scenario(const Request& request, Observer* observer) {
  const util::Stopwatch timer;
  if (observer != nullptr) {
    observer->on_begin(1, 1);
    if (observer->cancelled())
      throw CancelledError("exec: cancelled before the scenario started");
  }
  bool cached = false;
  scenario::ScenarioResult result;
  {
    const obs::TraceSpan span("cell:" + request.scenario.name);
    result = run_cell(request.scenario, request.cache, request.threads, cached);
  }
  notify(observer, 0, result, cached);
  return Outcome::from_result(std::move(result), cached, {}, timer.seconds());
}

Outcome execute_campaign(const Request& request, Observer* observer) {
  const util::Stopwatch timer;
  std::vector<scenario::ScenarioSpec> all;
  {
    const obs::TraceSpan span("expand");
    all = request.campaign.expand();
  }

  // The expansion index is the unit of determinism, so an index list
  // partitions a campaign across processes/hosts without coordination
  // (fleet work units, `--shard i/n`).
  const std::vector<std::size_t> selected = request.selection();
  if (observer != nullptr) observer->on_begin(all.size(), selected.size());

  scenario::CampaignSummary summary;
  summary.name = request.campaign.name;
  summary.set_selection(all.size(), selected);
  summary.results.resize(selected.size());
  std::vector<char> cached(selected.size(), 0);

  // The cells split into `workers` chunks that the compute pool runs
  // concurrently; each cell runs its inner loops as one chunk, so the batch
  // scales with cell count.  Every chunk writes only its own result slots,
  // and slots are ordered by expansion index, so the summary is independent
  // of scheduling.  A cell that throws ends its chunk; the other chunks
  // finish, and the first failed cell's exception reaches the caller.
  // Cache hits substitute a stored artifact for the computation —
  // ScenarioResult JSON round trips are byte-exact, so the summary bytes
  // cannot tell.
  const int requested =
      request.threads > 0 ? request.threads : request.campaign.threads;
  const std::size_t workers = util::resolve_thread_count(
      requested <= 0 ? 0 : static_cast<std::size_t>(requested));
  std::atomic<bool> cancel{false};
  util::parallel_chunks(
      selected.size(), workers,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (cancel.load(std::memory_order_relaxed)) return;
          if (observer != nullptr && observer->cancelled()) {
            cancel.store(true, std::memory_order_relaxed);
            return;
          }
          bool from_cache = false;
          {
            const obs::TraceSpan span(
                obs::trace_enabled() ? "cell:" + all[selected[i]].name
                                     : std::string());
            summary.results[i] = run_cell(all[selected[i]], request.cache,
                                          /*threads=*/1, from_cache);
          }
          cached[i] = from_cache ? 1 : 0;
          notify(observer, selected[i], summary.results[i], from_cache);
        }
      });
  if (cancel.load())
    throw CancelledError("exec: campaign cancelled by the observer");

  summary.recount();
  for (const char flag : cached) summary.scenarios_cached += flag;
  summary.total_seconds = timer.seconds();
  return Outcome::from_summary(std::move(summary), {});
}

}  // namespace

scenario::ScenarioResult run_cell(const scenario::ScenarioSpec& spec,
                                  cache::ResultCache* cache, int threads,
                                  bool& cached) {
  CellMetrics& metrics = CellMetrics::get();
  std::string key;
  if (cache != nullptr) {
    key = cache::scenario_cache_key(spec);
    if (std::optional<Json> artifact = cache->get(key)) {
      cached = true;
      metrics.cached.inc();
      return scenario::ScenarioResult::from_json(*artifact);
    }
  }
  cached = false;
  scenario::ScenarioResult result = scenario::run_scenario(spec, threads);
  if (cache != nullptr) cache->put(key, result.to_json());
  metrics.computed.inc();
  metrics.cell_seconds.record(
      static_cast<std::uint64_t>(result.seconds * 1e9));
  return result;
}

Outcome LocalExecutor::execute(const Request& request, Observer* observer) {
  request.validate();
  Outcome outcome = request.kind == Request::Kind::scenario
                        ? execute_scenario(request, observer)
                        : execute_campaign(request, observer);
  outcome.backend = name();
  return outcome;
}

}  // namespace clktune::exec
