// Execution-layer tests.  The load-bearing property is backend
// equivalence: the same request must produce byte-identical artifacts
// through LocalExecutor and RemoteExecutor (a real loopback daemon), with
// or without an index selection, and RemoteExecutor::attach of a detached
// job must give what execute gives for the job's request — that is what
// makes the backends composable.  Also covered: the merge of partial
// summaries (the `report --merge` path), CampaignSummary round trips and
// selection checks, observer streaming and cooperative cancellation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/merge.h"
#include "exec/observer.h"
#include "exec/remote_executor.h"
#include "exec/request.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace clktune {
namespace {

using util::Json;

Json tiny_scenario_doc() {
  return Json::parse(R"({
    "name": "tiny",
    "design": {"synthetic": {"name": "tiny", "num_flipflops": 30,
                             "num_gates": 220, "seed": 5}},
    "clock": {"sigma_offset": 0.0, "period_samples": 400},
    "insertion": {"num_samples": 200, "steps": 8},
    "evaluation": {"samples": 400, "seed": 99}
  })");
}

Json tiny_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "tiny_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Four cells, so a job can select a non-contiguous half.
Json four_cell_campaign_doc() {
  Json doc = tiny_campaign_doc();
  doc.set("name", "four_cells");
  doc.find("sweep")->set("insertion.num_samples",
                         Json(util::JsonArray{Json(150), Json(200)}));
  return doc;
}

/// The two-cell campaign over a bench file that does not exist: every
/// cell throws when it builds its design.
Json missing_bench_campaign_doc() {
  Json doc = tiny_campaign_doc();
  doc.set("name", "missing_bench");
  Json design = Json::object();
  design.set("bench_file", "no/such/circuit.bench");
  doc.find("base")->set("design", std::move(design));
  return doc;
}

exec::Request campaign_request() {
  return exec::Request::from_json(tiny_campaign_doc());
}

/// The two-cell campaign restricted to `indices`.
exec::Request selected_request(std::vector<std::size_t> indices) {
  exec::Request request = campaign_request();
  request.indices = std::move(indices);
  return request;
}

Json criticality_scenario_doc() {
  Json doc = tiny_scenario_doc();
  doc.set("kind", "criticality");
  Json options = Json::object();
  options.set("top_k", 5);
  doc.set("criticality", std::move(options));
  return doc;
}

Json binning_campaign_doc() {
  Json base = tiny_scenario_doc();
  base.set("kind", "binning");
  Json bins = Json::object();
  bins.set("sigma_offsets",
           Json(util::JsonArray{Json(0.0), Json(1.0), Json(2.0)}));
  base.set("bins", std::move(bins));
  Json doc = Json::object();
  doc.set("name", "binning_campaign");
  doc.set("base", std::move(base));
  Json sweep = Json::object();
  sweep.set("design.synthetic.seed",
            Json(util::JsonArray{Json(5), Json(6)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Collects every observer event; thread-safe, since campaign cells finish
/// on worker threads.
class RecordingObserver : public exec::Observer {
 public:
  void on_begin(std::size_t total, std::size_t own) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_cells = total;
    own_cells = own;
    ++begins;
  }
  void on_cell(const exec::CellEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    indices.insert(event.index);
    cached_cells += event.cached ? 1 : 0;
  }

  std::mutex mutex_;
  std::size_t total_cells = 0;
  std::size_t own_cells = 0;
  int begins = 0;
  std::set<std::size_t> indices;
  std::size_t cached_cells = 0;
};

/// Daemon on an ephemeral loopback port, accept loop on a worker thread.
class ExecServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    server_ = std::make_unique<serve::ScenarioServer>(std::move(options));
    server_->start();
    thread_ = std::thread([this] { server_->serve_forever(); });
  }

  void TearDown() override {
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }

  /// A detached submit; returns the job id.
  std::string submit_job(const Json& doc, const Json* indices = nullptr) {
    Json wire = Json::object();
    wire.set("cmd", "submit");
    wire.set("doc", doc);
    if (indices != nullptr) wire.set("indices", *indices);
    const Json frame =
        serve::submit_raw("127.0.0.1", server_->port(), wire).final_event;
    EXPECT_EQ(frame.at("event").as_string(), "job") << frame.dump(-1);
    return frame.at("id").as_string();
  }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
};

// ------------------------------------------------------ backend equivalence

TEST_F(ExecServerFixture, LocalAndRemoteProduceByteIdenticalSummaries) {
  const exec::Request request = campaign_request();

  exec::LocalExecutor local;
  const exec::Outcome via_local = local.execute(request);

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  const exec::Outcome via_remote = remote.execute(request);

  const std::string expected = via_local.artifact().dump();
  EXPECT_EQ(via_remote.artifact().dump(), expected);

  EXPECT_EQ(via_local.backend, "local");
  EXPECT_NE(via_remote.backend.find("remote(127.0.0.1:"), std::string::npos);
  for (const exec::Outcome* outcome : {&via_local, &via_remote}) {
    EXPECT_EQ(outcome->scenarios_run, 2u);
    EXPECT_TRUE(outcome->ok());
  }
}

// Analysis kinds ride the scenario document, so they must flow through
// every backend with zero wire changes — the daemon never inspects the
// kind, it just runs the document it was handed.
TEST_F(ExecServerFixture, AnalysisKindsAreByteIdenticalAcrossBackends) {
  // Criticality: a lone kind-tagged scenario, compared against direct
  // in-process execution.
  exec::Request crit = exec::Request::from_json(criticality_scenario_doc());
  ASSERT_EQ(crit.kind, exec::Request::Kind::scenario);
  crit.threads = 2;
  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(criticality_scenario_doc()), 2);
  ASSERT_EQ(direct.kind, scenario::ScenarioKind::criticality);
  const std::string crit_expected = direct.to_json().dump();

  exec::LocalExecutor local;
  EXPECT_EQ(local.execute(crit).artifact().dump(), crit_expected);
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  EXPECT_EQ(remote.execute(crit).artifact().dump(), crit_expected);

  // Binning: a two-cell campaign through both backends.
  const exec::Request bins = exec::Request::from_json(binning_campaign_doc());
  const std::string bins_expected = local.execute(bins).artifact().dump();
  EXPECT_EQ(remote.execute(bins).artifact().dump(), bins_expected);

  // The artifacts really are kind-tagged (not silently downgraded).
  const Json summary = Json::parse(bins_expected);
  for (const Json& r : summary.at("results").as_array())
    EXPECT_EQ(r.at("kind").as_string(), "binning");
}

TEST_F(ExecServerFixture, ScenarioRequestMatchesDirectExecution) {
  exec::Request request = exec::Request::from_json(tiny_scenario_doc());
  ASSERT_EQ(request.kind, exec::Request::Kind::scenario);
  // A lone scenario parallelises its inner Monte-Carlo loops, whose
  // reduction order depends on the worker count — pin it to the daemon's.
  request.threads = 2;

  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(tiny_scenario_doc()), 2);

  exec::LocalExecutor local;
  EXPECT_EQ(local.execute(request).artifact().dump(),
            direct.to_json().dump());

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  const exec::Outcome cold = remote.execute(request);
  EXPECT_EQ(cold.artifact().dump(), direct.to_json().dump());
  EXPECT_EQ(cold.scenarios_cached, 0u);
  // The daemon's cache serves the repeat byte-identically.
  const exec::Outcome warm = remote.execute(request);
  EXPECT_EQ(warm.scenarios_cached, 1u);
  EXPECT_EQ(warm.artifact().dump(), direct.to_json().dump());
}

TEST_F(ExecServerFixture, RemoteShardSliceMatchesLocalShard) {
  // `--shard 0/2` of the two-cell campaign is the index list {0}.
  const exec::Request request = selected_request({0});

  exec::LocalExecutor local;
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  EXPECT_EQ(remote.execute(request).artifact().dump(),
            local.execute(request).artifact().dump());
}

TEST_F(ExecServerFixture, ExplicitIndicesMatchTheFullSweepsCells) {
  const exec::Request request = selected_request({1});

  // A single selected cell is byte-identical to the same cell of the full
  // sweep — a selection, not a different computation.
  exec::LocalExecutor local;
  const exec::Outcome via_indices = local.execute(request);
  const exec::Outcome full = local.execute(campaign_request());
  ASSERT_EQ(via_indices.summary.results.size(), 1u);
  EXPECT_EQ(via_indices.summary.results[0].to_json().dump(),
            full.summary.results[1].to_json().dump());

  // And the remote backend forwards the list for daemon-side selection.
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  RecordingObserver observer;
  EXPECT_EQ(remote.execute(request, &observer).artifact().dump(),
            via_indices.artifact().dump());
  EXPECT_EQ(observer.indices, (std::set<std::size_t>{1}));

  // The full expansion as an explicit list reproduces the plain sweep's
  // bytes: a list of every cell records no selection.
  EXPECT_EQ(local.execute(selected_request({0, 1})).artifact().dump(),
            full.artifact().dump());

  // An empty list runs no cell, locally and on the daemon alike.
  const exec::Outcome none = local.execute(selected_request({}));
  EXPECT_EQ(none.scenarios_run, 0u);
  ASSERT_TRUE(none.summary.selection.has_value());
  EXPECT_EQ(none.summary.selection->of, 2u);
  RecordingObserver remote_observer;
  const exec::Outcome remote_none =
      remote.execute(selected_request({}), &remote_observer);
  EXPECT_EQ(remote_none.artifact().dump(), none.artifact().dump());
  EXPECT_TRUE(remote_observer.indices.empty());
}

// ------------------------------------------------------- attach to a job

TEST_F(ExecServerFixture, AttachOfAnIndexedJobRecordsItsSelectionAndMerges) {
  const Json indices(util::JsonArray{Json(1), Json(3)});
  const std::string id = submit_job(four_cell_campaign_doc(), &indices);

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  RecordingObserver observer;
  const exec::Outcome attached = remote.attach(id, &observer);
  ASSERT_EQ(attached.kind, exec::Request::Kind::campaign);
  EXPECT_EQ(attached.summary.name, "four_cells");
  ASSERT_TRUE(attached.summary.selection.has_value());
  EXPECT_EQ(attached.summary.selection->of, 4u);
  EXPECT_EQ(attached.summary.selection->indices,
            (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(attached.scenarios_run, 2u);
  EXPECT_EQ(observer.total_cells, 4u);
  EXPECT_EQ(observer.own_cells, 2u);
  EXPECT_EQ(observer.indices, (std::set<std::size_t>{1, 3}));

  // The other half, run locally, merges to the whole campaign's bytes.
  exec::LocalExecutor local;
  exec::Request other = exec::Request::from_json(four_cell_campaign_doc());
  other.indices = std::vector<std::size_t>{0, 2};
  const scenario::CampaignSummary merged = exec::merge_shard_summaries(
      {attached.summary, local.execute(other).summary});
  EXPECT_EQ(
      merged.to_json().dump(),
      local.execute(exec::Request::from_json(four_cell_campaign_doc()))
          .artifact()
          .dump());
}

TEST_F(ExecServerFixture, AttachOfAScenarioJobEqualsRun) {
  const std::string id = submit_job(tiny_scenario_doc());
  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(tiny_scenario_doc()), 2);

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  RecordingObserver observer;
  const exec::Outcome attached = remote.attach(id, &observer);
  ASSERT_EQ(attached.kind, exec::Request::Kind::scenario);
  EXPECT_EQ(attached.artifact().dump(), direct.to_json().dump());
  EXPECT_EQ(attached.scenarios_run, 1u);
  EXPECT_EQ(observer.indices, (std::set<std::size_t>{0}));

  // A job the daemon does not know is an ExecError naming it.
  try {
    remote.attach("deadbeef0000-00000000");
    FAIL() << "expected an ExecError";
  } catch (const exec::ExecError& e) {
    EXPECT_NE(std::string(e.what()).find("deadbeef0000"), std::string::npos);
  }
}

TEST(RequestValidationTest, RejectsMalformedIndexSelections) {
  exec::Request scenario_request =
      exec::Request::from_json(tiny_scenario_doc());
  scenario_request.indices = std::vector<std::size_t>{0};
  EXPECT_THROW(scenario_request.validate(), exec::ExecError);
  scenario_request.indices = std::vector<std::size_t>{};
  EXPECT_THROW(scenario_request.validate(), exec::ExecError);

  EXPECT_THROW(selected_request({7}).validate(), exec::ExecError);
  EXPECT_THROW(selected_request({1, 0}).validate(), exec::ExecError);
  EXPECT_THROW(selected_request({1, 1}).validate(), exec::ExecError);

  // Absent selects every cell; an empty list selects none.
  EXPECT_EQ(campaign_request().selection(),
            (std::vector<std::size_t>{0, 1}));
  const exec::Request none = selected_request({});
  none.validate();
  EXPECT_TRUE(none.selection().empty());
  const exec::Request good = selected_request({0, 1});
  good.validate();
  EXPECT_EQ(good.selection(), (std::vector<std::size_t>{0, 1}));
}

// ------------------------------------------------------------------- merge

TEST(MergeTest, ShardSummariesMergeToUnshardedBytes) {
  exec::LocalExecutor local;
  const scenario::CampaignSummary full =
      local.execute(campaign_request()).summary;
  const scenario::CampaignSummary a =
      local.execute(selected_request({0})).summary;
  const scenario::CampaignSummary b =
      local.execute(selected_request({1})).summary;

  // Input order must not matter, and the merged bytes must be exactly the
  // whole sweep's (modulo the timing field, which to_json omits).
  const scenario::CampaignSummary merged = exec::merge_shard_summaries({b, a});
  EXPECT_EQ(merged.to_json().dump(), full.to_json().dump());

  // Through the artifact layer too — the `report --merge` path parses the
  // partial summaries back from their JSON files first.
  const scenario::CampaignSummary reparsed = exec::merge_shard_summaries(
      {scenario::CampaignSummary::from_json(a.to_json()),
       scenario::CampaignSummary::from_json(b.to_json())});
  EXPECT_EQ(reparsed.to_json().dump(), full.to_json().dump());
}

TEST(MergeTest, RejectsOverlappingMissingAndMismatchedShards) {
  exec::LocalExecutor local;
  const scenario::CampaignSummary a =
      local.execute(selected_request({0})).summary;
  const scenario::CampaignSummary b =
      local.execute(selected_request({1})).summary;

  EXPECT_THROW(exec::merge_shard_summaries({}), exec::ExecError);
  EXPECT_THROW(exec::merge_shard_summaries({a, a}), exec::ExecError);
  EXPECT_THROW(exec::merge_shard_summaries({a}), exec::ExecError);

  scenario::CampaignSummary renamed = b;
  renamed.name = "other_campaign";
  EXPECT_THROW(exec::merge_shard_summaries({a, renamed}), exec::ExecError);

  scenario::CampaignSummary resized = b;
  resized.selection->of = 3;
  EXPECT_THROW(exec::merge_shard_summaries({a, resized}), exec::ExecError);

  // A selection that lists more indices than the summary holds cells.
  scenario::CampaignSummary truncated = a;
  truncated.results.clear();
  EXPECT_THROW(exec::merge_shard_summaries({truncated, b}),
               exec::ExecError);

  // Hand-edited files that claim a huge expansion: the merge must reject
  // them by their cell count before it sizes anything by "of".
  for (const std::uint64_t of :
       {std::uint64_t{1000000000000}, std::uint64_t{1} << 62}) {
    std::vector<scenario::CampaignSummary> oversized;
    for (const scenario::CampaignSummary* part : {&a, &b}) {
      Json edited = part->to_json();
      edited.find("selection")->set("of", of);
      oversized.push_back(scenario::CampaignSummary::from_json(edited));
    }
    try {
      exec::merge_shard_summaries(oversized);
      ADD_FAILURE() << "merge accepted of = " << of;
    } catch (const exec::ExecError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(of)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MergeTest, EmptyShardsOfAnOversplitCampaignMergeCleanly) {
  // `--shard k/3` of a 2-cell campaign: slice 2 is the empty list, which
  // runs nothing, and the merge must still reproduce the whole sweep.
  exec::LocalExecutor local;
  const scenario::CampaignSummary full =
      local.execute(campaign_request()).summary;

  std::vector<scenario::CampaignSummary> parts;
  for (const std::vector<std::size_t>& list :
       {std::vector<std::size_t>{0}, std::vector<std::size_t>{1},
        std::vector<std::size_t>{}})
    parts.push_back(local.execute(selected_request(list)).summary);
  EXPECT_EQ(parts[2].results.size(), 0u);
  EXPECT_EQ(exec::merge_shard_summaries(parts).to_json().dump(),
            full.to_json().dump());
}

TEST(MergeTest, SingleCellCampaignMergesAcrossAnySplit) {
  Json doc = tiny_campaign_doc();
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset", Json(util::JsonArray{Json(0.0)}));
  doc.set("sweep", std::move(sweep));
  const exec::Request request = exec::Request::from_json(doc);
  ASSERT_EQ(request.expansion_size(), 1u);

  exec::LocalExecutor local;
  const scenario::CampaignSummary full = local.execute(request).summary;

  // A whole summary merges to itself; a 2-way split ({0} and the empty
  // list) still reproduces the whole sweep's bytes.
  EXPECT_EQ(exec::merge_shard_summaries({full}).to_json().dump(),
            full.to_json().dump());
  exec::Request first = request, second = request;
  first.indices = std::vector<std::size_t>{0};
  second.indices = std::vector<std::size_t>{};
  const scenario::CampaignSummary merged = exec::merge_shard_summaries(
      {local.execute(first).summary, local.execute(second).summary});
  EXPECT_EQ(merged.to_json().dump(), full.to_json().dump());
}

TEST(MergeTest, DuplicateShardIndexAcrossParsedSummariesIsRejected) {
  // Two files that both claim cell 0 — e.g. the same partial output passed
  // twice to `report --merge` under different names — must be rejected as
  // overlapping even though names and cell counts agree.
  exec::LocalExecutor local;
  const scenario::CampaignSummary a =
      local.execute(selected_request({0})).summary;

  Json relabelled = local.execute(selected_request({1})).summary.to_json();
  relabelled.find("selection")
      ->set("indices", Json(util::JsonArray{Json(0)}));
  EXPECT_THROW(
      exec::merge_shard_summaries(
          {a, scenario::CampaignSummary::from_json(relabelled)}),
      exec::ExecError);
}

TEST(MergeTest, SummaryJsonRoundTripIsByteExact) {
  exec::LocalExecutor local;
  const scenario::CampaignSummary part =
      local.execute(selected_request({1})).summary;
  const std::string original = part.to_json().dump();
  const scenario::CampaignSummary rebuilt =
      scenario::CampaignSummary::from_json(Json::parse(original));
  EXPECT_EQ(rebuilt.to_json().dump(), original);
  ASSERT_TRUE(rebuilt.selection.has_value());
  EXPECT_EQ(rebuilt.selection->of, 2u);
  EXPECT_EQ(rebuilt.selection->indices, (std::vector<std::size_t>{1}));

  // from_json holds a selection to the file's own cells.
  const auto rejected = [&](const Json& indices, std::uint64_t of) {
    Json edited = Json::parse(original);
    edited.find("selection")->set("indices", indices);
    edited.find("selection")->set("of", of);
    EXPECT_THROW(scenario::CampaignSummary::from_json(edited),
                 util::JsonError)
        << edited.at("selection").dump(-1);
  };
  rejected(Json(util::JsonArray{Json(2)}), 2);          // not below of
  rejected(Json(util::JsonArray{}), 2);                 // fewer than cells
  rejected(Json(util::JsonArray{Json(0), Json(1)}), 2); // more than cells
  Json two_cells = local.execute(campaign_request()).summary.to_json();
  Json backwards = Json::object();
  backwards.set("of", 2);
  backwards.set("indices", Json(util::JsonArray{Json(1), Json(0)}));
  two_cells.set("selection", std::move(backwards));
  EXPECT_THROW(scenario::CampaignSummary::from_json(two_cells),
               util::JsonError);

  // The shard record older versions wrote is refused, not misread as a
  // whole-campaign summary.
  Json old = Json::parse(original);
  Json shard = Json::object();
  shard.set("index", 1);
  shard.set("count", 2);
  old.set("shard", std::move(shard));
  EXPECT_THROW(scenario::CampaignSummary::from_json(old), util::JsonError);
}

// ---------------------------------------------------- observer + cancelling

TEST(ObserverTest, StreamsEveryCellWithGlobalIndices) {
  cache::ResultCache cache_store;
  exec::Request request = campaign_request();
  request.cache = &cache_store;

  exec::LocalExecutor local;
  RecordingObserver cold;
  local.execute(request, &cold);
  EXPECT_EQ(cold.begins, 1);
  EXPECT_EQ(cold.total_cells, 2u);
  EXPECT_EQ(cold.own_cells, 2u);
  EXPECT_EQ(cold.indices, (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(cold.cached_cells, 0u);

  RecordingObserver warm;
  local.execute(request, &warm);
  EXPECT_EQ(warm.cached_cells, 2u);

  // An index selection reports its own cell count but global indices.
  exec::Request slice = request;
  slice.indices = std::vector<std::size_t>{1};
  RecordingObserver sliced;
  local.execute(slice, &sliced);
  EXPECT_EQ(sliced.total_cells, 2u);
  EXPECT_EQ(sliced.own_cells, 1u);
  EXPECT_EQ(sliced.indices, (std::set<std::size_t>{1}));
}

TEST(LocalExecutorTest, AThrowingCellReachesTheCallerAtEveryThreadCount) {
  exec::LocalExecutor local;
  for (const int threads : {1, 2, 4}) {
    exec::Request request =
        exec::Request::from_json(missing_bench_campaign_doc());
    request.threads = threads;
    try {
      (void)local.execute(request);
      ADD_FAILURE() << "threads " << threads << ": no exception";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("cannot open bench file"),
                std::string::npos)
          << e.what();
    }
  }
  // The executor and its threads still compute the next campaign.
  exec::Request request = campaign_request();
  request.threads = 2;
  EXPECT_EQ(local.execute(request).summary.results.size(), 2u);
}

TEST(ObserverTest, CancellationStopsTheCampaign) {
  // Single worker makes the poll order deterministic: cell 0 completes,
  // then the cancel flag is seen before cell 1 starts.
  struct CancelAfterFirst : RecordingObserver {
    bool cancelled() override {
      const std::lock_guard<std::mutex> lock(mutex_);
      return !indices.empty();
    }
  } observer;

  auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  spec.threads = 1;
  exec::LocalExecutor local;
  EXPECT_THROW(
      local.execute(exec::Request::for_campaign(spec), &observer),
      exec::CancelledError);
  EXPECT_EQ(observer.indices.size(), 1u);
}

}  // namespace
}  // namespace clktune
