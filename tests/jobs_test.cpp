// Job-service tests.  The load-bearing properties are the acceptance
// criteria of the durable async path: a detached submit is admitted in
// O(enqueue) (the frame comes back `queued`, never computed), an attach
// stream — live or replayed, before or after a daemon restart on the same
// cache directory — is byte-identical to the synchronous run/sweep of the
// same document, and a daemon killed mid-job re-queues it on restart
// instead of losing it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/request.h"
#include "jobs/job.h"
#include "jobs/job_scheduler.h"
#include "jobs/job_store.h"
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

bool terminal_state(const std::string& state) {
  return state == "done" || state == "error" || state == "cancelled";
}

/// A daemon with a persistent cache directory (so jobs survive restarts),
/// restartable mid-test on the same directory.
class JobServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = std::filesystem::temp_directory_path() /
                 ("clktune_jobs_test_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(cache_dir_);
    start_server();
  }

  void TearDown() override {
    if (server_ != nullptr) stop_server();
    std::filesystem::remove_all(cache_dir_);
  }

  void start_server() {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    options.cache_dir = cache_dir_.string();
    server_ = std::make_unique<serve::ScenarioServer>(std::move(options));
    server_->start();
    thread_ = std::thread([s = server_.get()] { s->serve_forever(); });
  }

  void stop_server() {
    server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  serve::SubmitOutcome raw(const Json& wire) {
    return serve::submit_raw("127.0.0.1", server_->port(), wire);
  }

  /// Detached admission; returns the job frame (or the error frame).
  Json submit_job(const Json& doc) {
    Json wire = Json::object();
    wire.set("cmd", "submit");
    wire.set("doc", doc);
    return raw(wire).final_event;
  }

  Json job_status(const std::string& id) {
    Json wire = Json::object();
    wire.set("cmd", "status");
    wire.set("id", id);
    return raw(wire).final_event;
  }

  Json wait_terminal(const std::string& id) {
    for (int i = 0; i < 600; ++i) {
      const Json frame = job_status(id);
      if (terminal_state(frame.at("state").as_string())) return frame;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return job_status(id);
  }

  serve::SubmitOutcome attach(const std::string& id) {
    Json wire = Json::object();
    wire.set("cmd", "attach");
    wire.set("id", id);
    return raw(wire);
  }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
  std::filesystem::path cache_dir_;
};

// ------------------------------------------------------------- admission

TEST_F(JobServiceFixture, DetachedSubmitIsQueuedInstantlyAndRunsToDone) {
  const Json frame = submit_job(tiny_campaign_doc());
  ASSERT_EQ(frame.at("event").as_string(), "job");
  // Admission is O(enqueue): the frame reports the job *queued*, with no
  // cell computed yet, no matter how fast a worker later claims it.
  EXPECT_EQ(frame.at("state").as_string(), "queued");
  EXPECT_EQ(frame.at("cells_total").as_uint(), 2u);
  EXPECT_EQ(frame.at("cells_done").as_uint(), 0u);

  // Id shape: 12 hex chars of content hash, '-', 8 hex chars of nonce.
  const std::string id = frame.at("id").as_string();
  ASSERT_EQ(id.size(), 21u);
  EXPECT_EQ(id[12], '-');
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef-"), std::string::npos);

  const Json done = wait_terminal(id);
  EXPECT_EQ(done.at("state").as_string(), "done");
  EXPECT_EQ(done.at("cells_done").as_uint(), 2u);
  EXPECT_EQ(done.at("targets_missed").as_uint(), 0u);
}

TEST_F(JobServiceFixture, InvalidDocumentsAreRejectedAtAdmission) {
  // A typo'd key never reaches a worker; the submit itself errors.
  Json bad = tiny_scenario_doc();
  bad.set("numsamples", 5);
  const Json rejected = submit_job(bad);
  EXPECT_EQ(rejected.at("event").as_string(), "error");
  EXPECT_NE(rejected.at("message").as_string().find("numsamples"),
            std::string::npos);

  // Protocol v1's "shard" slice gets an error frame on every verb that
  // computes, never a silently whole (or sliced) run.
  Json shard = Json::object();
  shard.set("index", 0);
  shard.set("count", 2);
  for (const std::string cmd : {"run", "sweep", "submit"}) {
    Json sharded = Json::object();
    sharded.set("cmd", cmd);
    sharded.set("doc",
                cmd == "run" ? tiny_scenario_doc() : tiny_campaign_doc());
    sharded.set("shard", shard);
    const serve::SubmitOutcome outcome = raw(sharded);
    EXPECT_EQ(outcome.final_event.at("event").as_string(), "error") << cmd;
    EXPECT_TRUE(outcome.results.empty()) << cmd;
  }

  // None of the refusals computed a cell or queued a job.
  Json status_wire = Json::object();
  status_wire.set("cmd", "status");
  const Json status = raw(status_wire).final_event;
  EXPECT_EQ(status.at("scenarios_run").as_uint(), 0u);
  EXPECT_EQ(status.at("cache").at("puts").as_uint(), 0u);
  Json jobs_wire = Json::object();
  jobs_wire.set("cmd", "jobs");
  EXPECT_TRUE(raw(jobs_wire).final_event.at("jobs").as_array().empty());

  // Unknown ids are structured errors naming the id.
  const Json unknown = job_status("deadbeef0000-00000000");
  EXPECT_EQ(unknown.at("event").as_string(), "error");
  EXPECT_NE(unknown.at("message").as_string().find("deadbeef0000"),
            std::string::npos);
}

// An empty index list is a job of no cell, as it is a sweep of none, not
// the whole campaign: admitted, `done` with zero cells, and an attach
// stream with no result frame.
TEST_F(JobServiceFixture, EmptySelectionIsAJobOfNoCell) {
  Json wire = Json::object();
  wire.set("cmd", "submit");
  wire.set("doc", tiny_campaign_doc());
  wire.set("indices", Json(util::JsonArray{}));
  const Json frame = raw(wire).final_event;
  ASSERT_EQ(frame.at("event").as_string(), "job");
  EXPECT_EQ(frame.at("cells_total").as_uint(), 0u);
  EXPECT_EQ(frame.at("selection").at("of").as_uint(), 2u);
  EXPECT_TRUE(frame.at("selection").at("indices").as_array().empty());
  const std::string id = frame.at("id").as_string();

  const Json done = wait_terminal(id);
  EXPECT_EQ(done.at("state").as_string(), "done");
  EXPECT_EQ(done.at("cells_done").as_uint(), 0u);
  const serve::SubmitOutcome stream = attach(id);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stream.results.empty());

  // No cell was computed, and the job is listed.
  Json status_wire = Json::object();
  status_wire.set("cmd", "status");
  EXPECT_EQ(raw(status_wire).final_event.at("scenarios_run").as_uint(), 0u);
  Json jobs_wire = Json::object();
  jobs_wire.set("cmd", "jobs");
  const util::JsonArray listed =
      raw(jobs_wire).final_event.at("jobs").as_array();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].at("id").as_string(), id);
}

// ---------------------------------------------------------- byte identity

TEST_F(JobServiceFixture, AttachReplayIsByteIdenticalToSynchronousSweep) {
  const Json doc = tiny_campaign_doc();
  exec::LocalExecutor local;
  const exec::Outcome reference =
      local.execute(exec::Request::from_json(doc));

  const Json frame = submit_job(doc);
  ASSERT_EQ(frame.at("event").as_string(), "job");
  const std::string id = frame.at("id").as_string();
  ASSERT_EQ(wait_terminal(id).at("state").as_string(), "done");

  const serve::SubmitOutcome stream = attach(id);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(stream.results[i].dump(),
              reference.summary.results[i].to_json().dump());
  EXPECT_EQ(stream.final_event.at("targets_missed").as_uint(), 0u);

  // Replayed cells come from the daemon's content-addressed cache.
  EXPECT_EQ(stream.cached, 2u);
}

TEST_F(JobServiceFixture, DetachedAnalysisJobsAttachByteIdentically) {
  // Kind-tagged documents through the whole async path: detached submit,
  // terminal state, attach replay — bytes equal to in-process execution.
  Json crit_doc = tiny_scenario_doc();
  crit_doc.set("kind", "criticality");
  Json options = Json::object();
  options.set("top_k", 5);
  crit_doc.set("criticality", std::move(options));

  Json bin_base = tiny_scenario_doc();
  bin_base.set("kind", "binning");
  Json bins = Json::object();
  bins.set("sigma_offsets",
           Json(util::JsonArray{Json(0.0), Json(2.0)}));
  bin_base.set("bins", std::move(bins));
  Json bin_campaign = Json::object();
  bin_campaign.set("name", "binning_campaign");
  bin_campaign.set("base", std::move(bin_base));
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  bin_campaign.set("sweep", std::move(sweep));

  const std::string crit_id = submit_job(crit_doc).at("id").as_string();
  const std::string bin_id = submit_job(bin_campaign).at("id").as_string();
  ASSERT_EQ(wait_terminal(crit_id).at("state").as_string(), "done");
  ASSERT_EQ(wait_terminal(bin_id).at("state").as_string(), "done");

  const scenario::ScenarioResult crit_direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(crit_doc), 2);
  const serve::SubmitOutcome crit_stream = attach(crit_id);
  ASSERT_TRUE(crit_stream.ok());
  ASSERT_EQ(crit_stream.results.size(), 1u);
  EXPECT_EQ(crit_stream.results[0].dump(), crit_direct.to_json().dump());
  EXPECT_EQ(crit_stream.results[0].at("kind").as_string(), "criticality");

  exec::LocalExecutor local;
  const exec::Outcome bin_reference =
      local.execute(exec::Request::from_json(bin_campaign));
  const serve::SubmitOutcome bin_stream = attach(bin_id);
  ASSERT_TRUE(bin_stream.ok());
  ASSERT_EQ(bin_stream.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(bin_stream.results[i].dump(),
              bin_reference.summary.results[i].to_json().dump());
}

TEST_F(JobServiceFixture, LiveAttachOfAScenarioJobMatchesDirectRun) {
  // Attach right after admission: the stream subscribes live (or replays,
  // if the worker already won the race) — the bytes cannot tell.
  const Json doc = tiny_scenario_doc();
  const Json frame = submit_job(doc);
  ASSERT_EQ(frame.at("event").as_string(), "job");
  const serve::SubmitOutcome stream = attach(frame.at("id").as_string());
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream.results.size(), 1u);

  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(doc), 2);
  EXPECT_EQ(stream.results[0].dump(), direct.to_json().dump());
}

TEST(JobReplayTest, EvictedCellsReplayThroughTheCellPathByteIdentically) {
  // A memory-only daemon whose cache holds one artifact: once a 2-cell job
  // is done, at least one of its cells is gone, so attach must recompute
  // it — through the exec cell path, which counts it.
  serve::ServeOptions options;
  options.port = 0;
  options.threads = 2;
  options.cache_capacity = 1;
  serve::ScenarioServer server(std::move(options));
  server.start();
  std::thread accept_thread([&server] { server.serve_forever(); });
  struct Stop {  // joins the accept loop on every exit path
    serve::ScenarioServer& server;
    std::thread& thread;
    ~Stop() {
      server.stop();
      thread.join();
    }
  } stop{server, accept_thread};
  const auto raw = [&server](const Json& wire) {
    return serve::submit_raw("127.0.0.1", server.port(), wire);
  };
  const auto computed_cells = [&raw] {
    Json wire = Json::object();
    wire.set("cmd", "metrics");
    const Json metrics = raw(wire).final_event.at("metrics");
    const Json* value =
        metrics.at("counters").find("clktune_exec_cells_computed_total");
    return value == nullptr ? std::uint64_t{0} : value->as_uint();
  };

  Json submit = Json::object();
  submit.set("cmd", "submit");
  submit.set("doc", tiny_campaign_doc());
  const std::string id = raw(submit).final_event.at("id").as_string();
  Json status = Json::object();
  status.set("cmd", "status");
  status.set("id", id);
  std::string state;
  for (int i = 0; i < 600 && !terminal_state(state); ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    state = raw(status).final_event.at("state").as_string();
  }

  const std::uint64_t before = computed_cells();
  Json attach = Json::object();
  attach.set("cmd", "attach");
  attach.set("id", id);
  const serve::SubmitOutcome stream = raw(attach);
  const std::uint64_t after = computed_cells();

  ASSERT_EQ(state, "done");
  ASSERT_TRUE(stream.ok());
  exec::LocalExecutor local;
  const exec::Outcome reference =
      local.execute(exec::Request::from_json(tiny_campaign_doc()));
  ASSERT_EQ(stream.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(stream.results[i].dump(),
              reference.summary.results[i].to_json().dump());
  const std::uint64_t missed = 2 - stream.cached;
  EXPECT_GE(missed, 1u);
  EXPECT_EQ(after - before, missed);
}

// ------------------------------------------------------- job frames

TEST_F(JobServiceFixture, IndexedJobFramesCarryTheirSelection) {
  // A whole-campaign job's frame keeps its bytes: no selection member.
  const Json whole = submit_job(tiny_campaign_doc());
  ASSERT_EQ(whole.at("event").as_string(), "job");
  const std::string expected =
      R"({"event":"job","id":")" + whole.at("id").as_string() +
      R"(","state":"queued","kind":"campaign","name":"tiny_campaign",)"
      R"("cells_total":2,"cells_done":0,"cached":0,"targets_missed":0,)"
      R"("created_ms":)" +
      std::to_string(whole.at("created_ms").as_uint()) +
      R"(,"updated_ms":)" +
      std::to_string(whole.at("updated_ms").as_uint()) + "}";
  EXPECT_EQ(whole.dump(-1), expected);

  // A job submitted with a list names it, and the campaign size it is a
  // part of, in every frame: submit, status and the jobs listing.
  Json wire = Json::object();
  wire.set("cmd", "submit");
  wire.set("doc", tiny_campaign_doc());
  wire.set("indices", Json(util::JsonArray{Json(1)}));
  const Json indexed = raw(wire).final_event;
  ASSERT_EQ(indexed.at("event").as_string(), "job");
  const std::string selection = R"("name":"tiny_campaign",)"
                                R"("selection":{"of":2,"indices":[1]},)"
                                R"("cells_total":1,)";
  EXPECT_NE(indexed.dump(-1).find(selection), std::string::npos)
      << indexed.dump(-1);
  const std::string id = indexed.at("id").as_string();
  EXPECT_NE(job_status(id).dump(-1).find(selection), std::string::npos);
  Json list = Json::object();
  list.set("cmd", "jobs");
  EXPECT_NE(raw(list).final_event.dump(-1).find(selection),
            std::string::npos);
}

// ------------------------------------------------------- restart recovery

TEST_F(JobServiceFixture, RestartRecoversFinishedJobsByteIdentically) {
  const Json doc = tiny_campaign_doc();
  const Json frame = submit_job(doc);
  const std::string id = frame.at("id").as_string();
  ASSERT_EQ(wait_terminal(id).at("state").as_string(), "done");
  const serve::SubmitOutcome before = attach(id);
  ASSERT_TRUE(before.ok());

  // Same cache directory, fresh daemon: the envelope and every artifact
  // must survive.
  stop_server();
  start_server();

  const Json recovered = job_status(id);
  ASSERT_EQ(recovered.at("event").as_string(), "job");
  EXPECT_EQ(recovered.at("state").as_string(), "done");
  EXPECT_EQ(recovered.at("cells_done").as_uint(), 2u);

  const serve::SubmitOutcome after = attach(id);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.results.size(), before.results.size());
  for (std::size_t i = 0; i < after.results.size(); ++i)
    EXPECT_EQ(after.results[i].dump(), before.results[i].dump());
}

TEST_F(JobServiceFixture, RestartRequeuesInterruptedJobsAndFinishesThem) {
  stop_server();

  // Forge the exact envelope a daemon killed mid-job leaves behind: state
  // `running`, nothing checkpointed.  (Killing a live daemon at a precise
  // instant is inherently racy; the on-disk state is the contract.)
  std::string id;
  {
    exec::Request request = exec::Request::from_json(tiny_campaign_doc());
    request.validate();
    jobs::JobStore store((cache_dir_ / "jobs").string());
    store.load();
    const jobs::JobRecord rec =
        store.create(request.document(), "campaign", request.campaign.name,
                     {}, request.expansion_size());
    store.set_state(rec.id, jobs::JobState::running);
    id = rec.id;
  }

  // A restarted daemon must reset it to queued, run it, and serve an
  // attach byte-identical to the synchronous sweep.
  start_server();
  const Json done = wait_terminal(id);
  ASSERT_EQ(done.at("state").as_string(), "done");
  EXPECT_EQ(done.at("cells_done").as_uint(), 2u);

  exec::LocalExecutor local;
  const exec::Outcome reference =
      local.execute(exec::Request::from_json(tiny_campaign_doc()));
  const serve::SubmitOutcome stream = attach(id);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(stream.results[i].dump(),
              reference.summary.results[i].to_json().dump());
}

TEST_F(JobServiceFixture, AThrowingCellEndsItsJobInError) {
  const Json frame = submit_job(missing_bench_campaign_doc());
  ASSERT_EQ(frame.at("event").as_string(), "job") << frame.dump(-1);
  const Json failed = wait_terminal(frame.at("id").as_string());
  ASSERT_EQ(failed.at("state").as_string(), "error") << failed.dump(-1);
  EXPECT_NE(failed.at("error").as_string().find(
                "cannot open no/such/circuit.bench"),
            std::string::npos);

  // The daemon still admits and runs jobs.
  const Json next = submit_job(tiny_campaign_doc());
  ASSERT_EQ(next.at("event").as_string(), "job");
  EXPECT_EQ(wait_terminal(next.at("id").as_string()).at("state").as_string(),
            "done");
}

TEST_F(JobServiceFixture, RecoveredJobWithAThrowingCellEndsInError) {
  stop_server();

  // The envelope a daemon killed while running this campaign leaves behind.
  std::string id;
  {
    exec::Request request =
        exec::Request::from_json(missing_bench_campaign_doc());
    request.validate();
    jobs::JobStore store((cache_dir_ / "jobs").string());
    store.load();
    const jobs::JobRecord rec =
        store.create(request.document(), "campaign", request.campaign.name,
                     {}, request.expansion_size());
    store.set_state(rec.id, jobs::JobState::running);
    id = rec.id;
  }

  // The restarted daemon re-runs it with no client connected; the job ends
  // `error` and the daemon keeps answering.
  start_server();
  EXPECT_EQ(wait_terminal(id).at("state").as_string(), "error");
  Json wire = Json::object();
  wire.set("cmd", "jobs");
  EXPECT_EQ(raw(wire).final_event.at("event").as_string(), "jobs");
}

// ----------------------------------------------------- cancel / list / status

TEST_F(JobServiceFixture, QueuedJobsCancelImmediatelyAndStayCancelled) {
  // Scheduler-level, unstarted: the queue never drains, so the cancel
  // deterministically hits a still-queued job.
  cache::ResultCache store((cache_dir_ / "unit_cache").string());
  jobs::JobScheduler scheduler((cache_dir_ / "unit_jobs").string(), &store,
                               jobs::JobSchedulerOptions{});
  const jobs::JobRecord job =
      scheduler.submit(tiny_campaign_doc(), {});
  EXPECT_EQ(job.state, jobs::JobState::queued);

  const jobs::JobRecord cancelled = scheduler.cancel(job.id);
  EXPECT_EQ(cancelled.state, jobs::JobState::cancelled);

  // Attaching to a cancelled job streams nothing and reports the state.
  std::size_t frames = 0;
  const jobs::JobRecord after = scheduler.attach(
      job.id, [&frames](const Json&) {
        ++frames;
        return true;
      });
  EXPECT_EQ(after.state, jobs::JobState::cancelled);
  EXPECT_EQ(frames, 0u);
}

TEST_F(JobServiceFixture, JobsListKeepsSubmissionOrderAndStatusCounts) {
  const std::string first =
      submit_job(tiny_scenario_doc()).at("id").as_string();
  const std::string second =
      submit_job(tiny_campaign_doc()).at("id").as_string();
  ASSERT_NE(first, second);

  Json wire = Json::object();
  wire.set("cmd", "jobs");
  const Json listing = raw(wire).final_event;
  ASSERT_EQ(listing.at("event").as_string(), "jobs");
  const auto& jobs = listing.at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].at("id").as_string(), first);
  EXPECT_EQ(jobs[1].at("id").as_string(), second);

  // The daemon status frame carries per-state job counters.
  (void)wait_terminal(first);
  (void)wait_terminal(second);
  Json status_wire = Json::object();
  status_wire.set("cmd", "status");
  const Json status = raw(status_wire).final_event;
  ASSERT_EQ(status.at("event").as_string(), "status");
  EXPECT_EQ(status.at("jobs").at("done").as_uint(), 2u);
  EXPECT_EQ(status.at("jobs").at("queued").as_uint(), 0u);
}

// ------------------------------------------------------------ store layer

TEST(JobStoreTest, EnvelopesPersistAndInterruptedJobsRequeueOnLoad) {
  const std::string dir = testing::TempDir() + "clktune_job_store_test";
  std::filesystem::remove_all(dir);
  const Json doc = tiny_scenario_doc();

  std::string running_id, queued_id;
  {
    jobs::JobStore store(dir);
    const jobs::JobRecord a = store.create(doc, "scenario", "tiny", {}, 1);
    running_id = a.id;
    EXPECT_EQ(a.state, jobs::JobState::queued);
    store.set_state(a.id, jobs::JobState::running);

    // Same document, distinct nonce: ids share the content-hash prefix
    // but never collide.
    const jobs::JobRecord b = store.create(doc, "scenario", "tiny", {}, 1);
    queued_id = b.id;
    EXPECT_NE(a.id, b.id);
    EXPECT_EQ(a.id.substr(0, 12), b.id.substr(0, 12));
    // An explicit selection changes what the job runs — and its hash.
    const jobs::JobRecord c =
        store.create(doc, "scenario", "tiny", std::vector<std::size_t>{0}, 1);
    EXPECT_NE(c.id.substr(0, 12), a.id.substr(0, 12));
    // Its document is no campaign, so its job frame has no expansion size
    // to record and goes without a selection instead of throwing.
    EXPECT_FALSE(c.status_json().contains("selection"));
  }

  jobs::JobStore reloaded(dir);
  EXPECT_EQ(reloaded.load(), 3u);
  // The interrupted job re-entered the queue; the untouched one is as
  // submitted.  claim_next() hands out the oldest queued job.
  EXPECT_EQ(reloaded.get(running_id)->state, jobs::JobState::queued);
  EXPECT_EQ(reloaded.get(queued_id)->state, jobs::JobState::queued);
  const auto claimed = reloaded.claim_next();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, running_id);
  EXPECT_EQ(claimed->state, jobs::JobState::preparing);

  // Checkpoints are idempotent per index and survive the round trip.
  (void)reloaded.record_cell(running_id, 0, /*cached=*/false,
                             /*missed_target=*/true);
  const jobs::JobRecord twice =
      reloaded.record_cell(running_id, 0, false, true);
  EXPECT_EQ(twice.done_indices.size(), 1u);
  EXPECT_EQ(twice.targets_missed, 1u);

  jobs::JobStore again(dir);
  (void)again.load();
  EXPECT_EQ(again.get(running_id)->done_indices.size(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace clktune
