// Fleet-orchestration tests.  The load-bearing property is fault-tolerant
// byte-identity: a campaign fanned out work-stealing style over a daemon
// pool — including a pool that loses a daemon mid-campaign — must produce
// a summary byte-identical to an unsharded LocalExecutor sweep, with every
// observer cell reported exactly once.  Also covered: pool-spec parsing,
// the health probe, requeue onto survivors, retry exhaustion and scenario
// failover.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/local_executor.h"
#include "exec/observer.h"
#include "exec/request.h"
#include "fleet/fleet_executor.h"
#include "fleet/fleet_spec.h"
#include "scenario/scenario.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/socket.h"

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

/// A 4-cell campaign, so a killed daemon always leaves work to requeue.
Json small_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "fleet_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  sweep.set("insertion.num_samples",
            Json(util::JsonArray{Json(150), Json(200)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// A loopback port that refuses connections: bound, then released.
std::uint16_t dead_port() {
  const util::TcpSocket listener = util::tcp_listen(0);
  return util::tcp_local_port(listener);
}

/// Thread-safe observer that counts every delivery per index, so duplicate
/// cells from a requeue are detectable.
class CountingObserver : public exec::Observer {
 public:
  void on_begin(std::size_t total, std::size_t own) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_cells = total;
    own_cells = own;
    ++begins;
  }
  void on_cell(const exec::CellEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++deliveries[event.index];
  }

  std::set<std::size_t> indices() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::size_t> seen;
    for (const auto& [index, count] : deliveries) seen.insert(index);
    return seen;
  }
  bool each_exactly_once(std::size_t expected) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (deliveries.size() != expected) return false;
    for (const auto& [index, count] : deliveries)
      if (count != 1) return false;
    return true;
  }

  std::mutex mutex_;
  std::size_t total_cells = 0;
  std::size_t own_cells = 0;
  int begins = 0;
  std::map<std::size_t, int> deliveries;
};

/// Three daemons on ephemeral loopback ports, accept loops on worker
/// threads.  Individual daemons can be killed mid-test.
class FleetFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kDaemons = 3;

  void SetUp() override {
    // One shared artifact directory: work stealing places units
    // nondeterministically, but any daemon can then serve any cell warm.
    cache_dir_ = std::filesystem::temp_directory_path() /
                 ("clktune_fleet_test_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(cache_dir_);
    for (std::size_t i = 0; i < kDaemons; ++i) {
      serve::ServeOptions options;
      options.port = 0;
      options.threads = 2;
      options.cache_dir = cache_dir_.string();
      servers_.push_back(
          std::make_unique<serve::ScenarioServer>(std::move(options)));
      servers_.back()->start();
      threads_.emplace_back(
          [server = servers_.back().get()] { server->serve_forever(); });
    }
  }

  void TearDown() override {
    for (auto& server : servers_) server->stop();
    for (auto& thread : threads_)
      if (thread.joinable()) thread.join();
    std::filesystem::remove_all(cache_dir_);
  }

  fleet::FleetMember member(std::size_t i) const {
    return {"127.0.0.1", servers_[i]->port(), 1};
  }

  fleet::FleetSpec whole_pool() const {
    fleet::FleetSpec spec;
    for (std::size_t i = 0; i < kDaemons; ++i)
      spec.members.push_back(member(i));
    return spec;
  }

  std::vector<std::unique_ptr<serve::ScenarioServer>> servers_;
  std::vector<std::thread> threads_;
  std::filesystem::path cache_dir_;
};

// ------------------------------------------------------------ byte identity

TEST_F(FleetFixture, FleetSummaryMatchesLocalSweepByteForByte) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());

  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  fleet::FleetExecutor executor(whole_pool());
  CountingObserver observer;
  const exec::Outcome outcome = executor.execute(request, &observer);

  EXPECT_EQ(outcome.artifact().dump(), expected);
  EXPECT_EQ(outcome.backend, "fleet(3)");
  EXPECT_EQ(outcome.scenarios_run, 4u);
  EXPECT_EQ(observer.begins, 1);
  EXPECT_EQ(observer.total_cells, 4u);
  EXPECT_EQ(observer.own_cells, 4u);
  EXPECT_TRUE(observer.each_exactly_once(4));
}

TEST_F(FleetFixture, MultiCellUnitsAndDaemonCachesStayByteIdentical) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  fleet::FleetOptions options;
  options.unit_cells = 3;  // uneven split: units of 3 and 1 cells
  fleet::FleetExecutor executor(whole_pool(), options);
  const exec::Outcome cold = executor.execute(request);
  EXPECT_EQ(cold.artifact().dump(), expected);
  EXPECT_EQ(cold.scenarios_cached, 0u);

  // Repeat: every cell now comes from some daemon's content-addressed
  // cache, and the bytes cannot tell.
  const exec::Outcome warm = executor.execute(request);
  EXPECT_EQ(warm.artifact().dump(), expected);
  EXPECT_EQ(warm.scenarios_cached, 4u);
}

TEST_F(FleetFixture, AnalysisKindCampaignsStayByteIdenticalAcrossTheFleet) {
  // Analysis kinds ride inside the scenario documents, so a mixed fleet
  // run needs no fleet/serve awareness of them at all.  A criticality
  // campaign (2 cells) and a lone binning scenario, fleet vs local.
  Json crit_base = tiny_scenario_doc();
  crit_base.set("kind", "criticality");
  Json options = Json::object();
  options.set("top_k", 5);
  crit_base.set("criticality", std::move(options));
  Json campaign = Json::object();
  campaign.set("name", "crit_campaign");
  campaign.set("base", std::move(crit_base));
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  campaign.set("sweep", std::move(sweep));
  const exec::Request crit_request = exec::Request::from_json(campaign);

  exec::LocalExecutor local;
  const std::string crit_expected =
      local.execute(crit_request).artifact().dump();
  fleet::FleetExecutor executor(whole_pool());
  EXPECT_EQ(executor.execute(crit_request).artifact().dump(), crit_expected);
  const Json crit_summary = Json::parse(crit_expected);
  for (const Json& r : crit_summary.at("results").as_array())
    EXPECT_EQ(r.at("kind").as_string(), "criticality");

  Json bin_doc = tiny_scenario_doc();
  bin_doc.set("kind", "binning");
  Json bins = Json::object();
  bins.set("sigma_offsets",
           Json(util::JsonArray{Json(0.0), Json(2.0)}));
  bin_doc.set("bins", std::move(bins));
  exec::Request bin_request = exec::Request::from_json(bin_doc);
  bin_request.threads = 2;  // pin to the daemons' worker count
  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(bin_doc), 2);
  const exec::Outcome via_fleet = executor.execute(bin_request);
  EXPECT_EQ(via_fleet.artifact().dump(), direct.to_json().dump());
}

// ---------------------------------------------------------- fault injection

TEST_F(FleetFixture, DaemonKilledMidCampaignIsRequeuedByteIdentically) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  // The first finished cell kills daemon 0 outright: its accept loop exits
  // and every connection it holds is severed, so an in-flight unit fails
  // mid-stream and must be requeued onto the two survivors.
  struct Killer : CountingObserver {
    explicit Killer(serve::ScenarioServer* victim) : victim_(victim) {}
    void on_cell(const exec::CellEvent& event) override {
      CountingObserver::on_cell(event);
      if (!killed_.exchange(true)) victim_->stop();
    }
    serve::ScenarioServer* victim_;
    std::atomic<bool> killed_{false};
  } observer{servers_[0].get()};

  fleet::FleetExecutor executor(whole_pool());
  const exec::Outcome outcome = executor.execute(request, &observer);
  EXPECT_EQ(outcome.artifact().dump(), expected);
  EXPECT_TRUE(observer.each_exactly_once(4));
  EXPECT_TRUE(observer.killed_.load());
}

TEST_F(FleetFixture, DeadPoolMemberIsDiscoveredAndWorkRequeued) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", dead_port(), 1});
  pool.members.push_back(member(1));

  // probe off: dispatch itself must hit the dead daemon, retire it and
  // requeue its units on the survivor.
  fleet::FleetOptions options;
  options.probe = false;
  fleet::FleetExecutor executor(std::move(pool), options);
  CountingObserver observer;
  const exec::Outcome outcome = executor.execute(request, &observer);
  EXPECT_EQ(outcome.artifact().dump(), expected);
  EXPECT_TRUE(observer.each_exactly_once(4));
}

TEST_F(FleetFixture, ProbeRetiresUnreachableDaemonsUpFront) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  exec::LocalExecutor local;

  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", dead_port(), 1});
  pool.members.push_back(member(2));
  fleet::FleetExecutor executor(std::move(pool));
  EXPECT_EQ(executor.execute(request).artifact().dump(),
            local.execute(request).artifact().dump());
}

TEST(FleetFailureTest, AllDaemonsUnreachableFailsWithDiagnostics) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", dead_port(), 1});

  // With the probe on, the pool is rejected before any dispatch.
  try {
    fleet::FleetExecutor(pool).execute(request);
    FAIL() << "expected ExecError";
  } catch (const exec::ExecError& e) {
    EXPECT_NE(std::string(e.what()).find("no healthy daemon"),
              std::string::npos);
  }

  // With the probe off, dispatch discovers the death and reports the
  // per-unit diagnostic of the lost work.
  fleet::FleetOptions options;
  options.probe = false;
  options.max_retries = 1;
  try {
    fleet::FleetExecutor(pool, options).execute(request);
    FAIL() << "expected ExecError";
  } catch (const exec::ExecError& e) {
    EXPECT_NE(std::string(e.what()).find("fleet:"), std::string::npos);
  }
}

TEST(FleetReprobeTest, RestartedDaemonRejoinsMidCampaign) {
  const exec::Request request = exec::Request::from_json(small_campaign_doc());
  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  // The pool's only member is dead at dispatch time; with re-probing on,
  // the campaign pauses instead of failing and must finish byte-identical
  // once a daemon comes up on the named port mid-campaign.
  const std::uint16_t port = dead_port();
  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", port, 1});

  fleet::FleetOptions options;
  options.probe = false;           // dispatch discovers the death itself
  options.reprobe_interval_ms = 50;
  options.max_retries = 100;       // ample all-dead probe rounds
  fleet::FleetExecutor executor(std::move(pool), options);

  CountingObserver observer;
  std::string failure;
  std::string produced;
  std::thread campaign([&] {
    try {
      produced = executor.execute(request, &observer).artifact().dump();
    } catch (const std::exception& e) {
      failure = e.what();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  serve::ServeOptions serve_options;
  serve_options.port = port;
  serve_options.threads = 2;
  serve::ScenarioServer server(std::move(serve_options));
  server.start();
  std::thread accept([&server] { server.serve_forever(); });

  campaign.join();
  server.stop();
  accept.join();

  EXPECT_EQ(failure, "");
  EXPECT_EQ(produced, expected);
  EXPECT_TRUE(observer.each_exactly_once(4));
}

// ---------------------------------------------------------------- scenarios

TEST_F(FleetFixture, ScenarioFailsOverAcrossThePool) {
  exec::Request request = exec::Request::from_json(tiny_scenario_doc());
  request.threads = 2;  // match the daemons' inner-loop worker count

  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", dead_port(), 1});
  pool.members.push_back(member(0));
  fleet::FleetOptions options;
  options.probe = false;  // first attempt lands on the dead daemon

  fleet::FleetExecutor executor(std::move(pool), options);
  CountingObserver observer;
  const exec::Outcome outcome = executor.execute(request, &observer);

  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(tiny_scenario_doc()), 2);
  EXPECT_EQ(outcome.artifact().dump(), direct.to_json().dump());
  EXPECT_EQ(observer.begins, 1);
  EXPECT_TRUE(observer.each_exactly_once(1));
}

// ------------------------------------------------------------- cancellation

TEST_F(FleetFixture, CancellationRaisesCancelledError) {
  struct CancelAfterFirst : CountingObserver {
    bool cancelled() override {
      const std::lock_guard<std::mutex> lock(mutex_);
      return !deliveries.empty();
    }
  } observer;

  fleet::FleetExecutor executor(whole_pool());
  EXPECT_THROW(
      executor.execute(exec::Request::from_json(small_campaign_doc()),
                       &observer),
      exec::CancelledError);
}

// -------------------------------------------------------------- pool specs

TEST(FleetSpecTest, ParsesDaemonListsAndFleetDocuments) {
  const fleet::FleetSpec list =
      fleet::FleetSpec::parse_daemon_list("hostA:7001,hostB:7002");
  ASSERT_EQ(list.members.size(), 2u);
  EXPECT_EQ(list.members[0].host, "hostA");
  EXPECT_EQ(list.members[0].port, 7001);
  EXPECT_EQ(list.members[0].weight, 1u);
  EXPECT_EQ(list.members[1].endpoint(), "hostB:7002");

  const fleet::FleetSpec doc = fleet::FleetSpec::from_json(Json::parse(R"({
    "daemons": [
      {"host": "10.0.0.1", "port": 7001, "weight": 2},
      "10.0.0.2:7001"
    ]
  })"));
  ASSERT_EQ(doc.members.size(), 2u);
  EXPECT_EQ(doc.members[0].weight, 2u);
  EXPECT_EQ(doc.members[1].host, "10.0.0.2");

  fleet::FleetSpec merged = list;
  merged.merge(doc);
  EXPECT_EQ(merged.members.size(), 4u);

  EXPECT_THROW(fleet::FleetSpec::parse_daemon_list(""), exec::ExecError);
  EXPECT_THROW(fleet::FleetSpec::parse_daemon_list("no-port"),
               exec::ExecError);
  EXPECT_THROW(fleet::FleetSpec::parse_daemon_list("host:99999"),
               exec::ExecError);
  EXPECT_THROW(
      fleet::FleetSpec::from_json(Json::parse(R"({"daemons": []})")),
      exec::ExecError);
  EXPECT_THROW(fleet::FleetSpec::from_json(Json::parse(
                   R"({"daemons": [{"host": "x", "port": 1, "w": 2}]})")),
               util::JsonError);
  EXPECT_THROW(
      fleet::FleetSpec::from_json(Json::parse(
          R"({"daemons": [{"host": "x", "port": 1, "weight": 0}]})")),
      exec::ExecError);
}

TEST(FleetSpecTest, ExecutorRejectsEmptyPoolsAndPreslicedRequests) {
  EXPECT_THROW(fleet::FleetExecutor(fleet::FleetSpec{}), exec::ExecError);

  fleet::FleetSpec pool;
  pool.members.push_back({"127.0.0.1", 1, 1});
  fleet::FleetExecutor executor(std::move(pool));

  // Any selection is refused, the empty one included.
  exec::Request indexed = exec::Request::from_json(small_campaign_doc());
  indexed.indices = std::vector<std::size_t>{0, 1};
  EXPECT_THROW(executor.execute(indexed), exec::ExecError);
  indexed.indices = std::vector<std::size_t>{};
  EXPECT_THROW(executor.execute(indexed), exec::ExecError);
}

}  // namespace
}  // namespace clktune
