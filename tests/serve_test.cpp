// End-to-end serve tests: a real daemon on an ephemeral loopback port, real
// client connections.  A submitted scenario must stream back exactly the
// artifact `clktune run` (run_scenario) produces for the same document; a
// submitted campaign streams one result per cell and serves a repeat
// submission entirely from the cache.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "scenario/scenario.h"
#include "serve/client.h"
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

/// Daemon on an ephemeral port with its accept loop on a worker thread;
/// shut down via the wire protocol (or stop() as a fallback).
class ServerFixture : public ::testing::Test {
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

  serve::SubmitOutcome submit(const std::string& cmd, const Json& doc) {
    return serve::submit_request("127.0.0.1", server_->port(), cmd, doc);
  }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
};

TEST_F(ServerFixture, RunMatchesDirectExecutionByteForByte) {
  const Json doc = tiny_scenario_doc();
  const serve::SubmitOutcome outcome =
      serve::submit_document("127.0.0.1", server_->port(), doc);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.cached, 0u);
  EXPECT_EQ(outcome.targets_missed(), 0u);

  const auto spec = scenario::ScenarioSpec::from_json(doc);
  const scenario::ScenarioResult local = scenario::run_scenario(spec, 2);
  EXPECT_EQ(outcome.results[0].dump(), local.to_json().dump());

  // The same document again is served from the cache, byte-identically.
  const serve::SubmitOutcome warm =
      serve::submit_document("127.0.0.1", server_->port(), doc);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cached, 1u);
  EXPECT_EQ(warm.results[0].dump(), outcome.results[0].dump());
}

TEST_F(ServerFixture, SweepStreamsOneResultPerCellAndCachesRepeats) {
  const Json doc = tiny_campaign_doc();
  std::size_t result_events = 0;
  const serve::SubmitOutcome cold = serve::submit_request(
      "127.0.0.1", server_->port(), "sweep", doc, [&](const Json& event) {
        result_events += event.at("event").as_string() == "result";
      });
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(result_events, 2u);
  ASSERT_EQ(cold.results.size(), 2u);
  EXPECT_EQ(cold.final_event.at("scenarios_run").as_uint(), 2u);
  EXPECT_EQ(cold.cached, 0u);
  // Expansion-index order regardless of completion order.
  EXPECT_EQ(cold.results[0].at("setting").as_string(), "muT");
  EXPECT_EQ(cold.results[1].at("setting").as_string(), "muT+s");

  const serve::SubmitOutcome warm =
      serve::submit_request("127.0.0.1", server_->port(), "sweep", doc);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cached, 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(warm.results[i].dump(), cold.results[i].dump());

  // The base document is not any expanded cell (name suffix, seed stride),
  // so submitting it directly computes fresh under its own content key.
  const serve::SubmitOutcome run =
      serve::submit_document("127.0.0.1", server_->port(),
                             tiny_scenario_doc());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.cached, 0u);
}

TEST_F(ServerFixture, StatusReportsCountersAndCacheStats) {
  (void)submit("run", tiny_scenario_doc());
  const serve::SubmitOutcome status = submit("status", Json());
  EXPECT_EQ(status.final_event.at("event").as_string(), "status");
  EXPECT_EQ(status.final_event.at("scenarios_run").as_uint(), 1u);
  EXPECT_GE(status.final_event.at("requests").as_uint(), 2u);
  EXPECT_EQ(status.final_event.at("cache").at("misses").as_uint(), 1u);
}

TEST_F(ServerFixture, MalformedAndInvalidRequestsReportErrors) {
  // Unknown command.
  const serve::SubmitOutcome unknown = submit("frobnicate", Json());
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.final_event.at("event").as_string(), "error");

  // Invalid scenario document (typo'd key) — loud, structured error.
  Json bad = tiny_scenario_doc();
  bad.set("numsamples", 5);
  const serve::SubmitOutcome invalid = submit("run", bad);
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.final_event.at("event").as_string(), "error");
  EXPECT_NE(invalid.final_event.at("message").as_string().find("numsamples"),
            std::string::npos);

  // Garbage bytes: an error line comes back and the connection closes.
  const util::TcpSocket connection =
      util::tcp_connect("127.0.0.1", server_->port());
  util::tcp_write_all(connection, "this is not json\n");
  util::LineReader reader(connection);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(Json::parse(line).at("event").as_string(), "error");

  // Pathological nesting gets a coded error frame, its connection stays
  // usable, and the daemon survives.
  const util::TcpSocket deep = util::tcp_connect("127.0.0.1", server_->port());
  util::tcp_write_all(deep, std::string(100000, '[') + "\n");
  util::LineReader deep_reader(deep);
  ASSERT_TRUE(deep_reader.read_line(line));
  const Json deep_frame = Json::parse(line);
  EXPECT_EQ(deep_frame.at("event").as_string(), "error");
  EXPECT_EQ(deep_frame.at("code").as_string(), "too_deep");
  util::tcp_write_all(deep, "{\"cmd\":\"status\"}\n");
  ASSERT_TRUE(deep_reader.read_line(line));
  EXPECT_EQ(Json::parse(line).at("event").as_string(), "status");
  EXPECT_EQ(submit("status", Json()).final_event.at("event").as_string(),
            "status");
}

TEST_F(ServerFixture, OversizedRequestLineCostsOnlyItsConnection) {
  // One unterminated line of cap + 1 bytes: the daemon answers too_large,
  // closes that connection, and keeps serving new ones.
  const util::TcpSocket big = util::tcp_connect("127.0.0.1", server_->port());
  util::tcp_write_all(big, std::string(serve::kMaxRequestBytes + 1, 'x'));
  util::LineReader reader(big);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  const Json frame = Json::parse(line);
  EXPECT_EQ(frame.at("event").as_string(), "error");
  EXPECT_EQ(frame.at("code").as_string(), "too_large");
  EXPECT_FALSE(reader.read_line(line));  // closed after the frame
  EXPECT_EQ(submit("status", Json()).final_event.at("event").as_string(),
            "status");
}

TEST_F(ServerFixture, ShutdownRequestStopsTheAcceptLoop) {
  const serve::SubmitOutcome outcome = submit("shutdown", Json());
  EXPECT_TRUE(outcome.ok());
  thread_.join();  // serve_forever() must return on its own
}

// -------------------------------------------------- work units ("indices")

TEST_F(ServerFixture, IndicesSweepRunsExactlyTheRequestedCells) {
  Json wire = Json::object();
  wire.set("cmd", "sweep");
  wire.set("doc", tiny_campaign_doc());
  wire.set("indices", Json(util::JsonArray{Json(1)}));
  const serve::SubmitOutcome unit =
      serve::submit_raw("127.0.0.1", server_->port(), wire);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit.final_event.at("scenarios_run").as_uint(), 1u);
  // submit_raw stores results by index, so slot 0 stays empty.
  ASSERT_EQ(unit.results.size(), 2u);
  EXPECT_TRUE(unit.results[0].is_null());
  EXPECT_EQ(unit.results[1].at("setting").as_string(), "muT+s");

  // The same cell through the full sweep is byte-identical — a work unit
  // is just a selection, never a different computation.
  const serve::SubmitOutcome full = serve::submit_request(
      "127.0.0.1", server_->port(), "sweep", tiny_campaign_doc());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(unit.results[1].dump(), full.results[1].dump());

  // Out-of-range and unsorted index lists are structured errors.
  wire.set("indices", Json(util::JsonArray{Json(7)}));
  EXPECT_FALSE(serve::submit_raw("127.0.0.1", server_->port(), wire).ok());
  wire.set("indices", Json(util::JsonArray{Json(1), Json(0)}));
  EXPECT_FALSE(serve::submit_raw("127.0.0.1", server_->port(), wire).ok());
}

// ---------------------------------------------- admission and backpressure

TEST(ServerBackpressureTest, QueueFullConnectionsGetBusyFrames) {
  serve::ServeOptions options;
  options.port = 0;
  options.threads = 1;
  options.admission_threads = 1;  // one handler: a held connection owns it
  options.queue_capacity = 1;
  serve::ScenarioServer server(std::move(options));
  server.start();
  std::thread accept_thread([&server] { server.serve_forever(); });

  {
    // Occupy the only handler: a status round trip proves the handler has
    // claimed this connection, and keeping it open keeps the handler
    // blocked on its next line.
    const util::TcpSocket held = util::tcp_connect("127.0.0.1",
                                                   server.port());
    util::tcp_write_all(held, "{\"cmd\":\"status\"}\n");
    util::LineReader held_reader(held);
    std::string line;
    ASSERT_TRUE(held_reader.read_line(line));
    EXPECT_EQ(Json::parse(line).at("event").as_string(), "status");

    // Fill the queue with a second idle connection...
    const util::TcpSocket queued = util::tcp_connect("127.0.0.1",
                                                     server.port());
    // ...then the third must be rejected with the structured busy frame.
    // Like a real fleet client it writes its request line immediately —
    // the server must still deliver the frame (closing with the request
    // unread would reset the connection and discard it).
    const util::TcpSocket rejected = util::tcp_connect("127.0.0.1",
                                                       server.port());
    util::tcp_write_all(rejected, "{\"cmd\":\"status\"}\n");
    util::LineReader rejected_reader(rejected);
    ASSERT_TRUE(rejected_reader.read_line(line));
    const Json busy = Json::parse(line);
    EXPECT_EQ(busy.at("event").as_string(), "error");
    EXPECT_EQ(busy.at("code").as_string(), "busy");
    EXPECT_FALSE(rejected_reader.read_line(line));  // and closed

    // Releasing the held connection frees the handler for the queued one.
  }
  // The handler drains the queued connection asynchronously, so a status
  // request may race it and be busy-rejected too — poll until admitted.
  serve::SubmitOutcome after;
  bool got_status = false;
  for (int i = 0; i < 200 && !got_status; ++i) {
    after = serve::submit_request("127.0.0.1", server.port(), "status",
                                  Json());
    const Json* event = after.final_event.find("event");
    got_status = event != nullptr && event->as_string() == "status";
    if (!got_status)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Stop before asserting: an early ASSERT return past the joinable
  // accept thread would escalate a failure into std::terminate.
  server.stop();
  accept_thread.join();
  ASSERT_TRUE(got_status);
  EXPECT_GE(after.final_event.at("rejected").as_uint(), 1u);
}

TEST_F(ServerFixture, SlowClientDoesNotBlockOtherConnections) {
  // An idle connection pins one handler indefinitely; with concurrent
  // admission the next client is served by another handler instead of
  // waiting for the first to finish (the pre-hardening behaviour).
  const util::TcpSocket idle = util::tcp_connect("127.0.0.1",
                                                 server_->port());
  const serve::SubmitOutcome outcome = submit("run", tiny_scenario_doc());
  EXPECT_TRUE(outcome.ok());
}

// ------------------------------------------------------- client deadlines

TEST(ClientTimeoutTest, SilentPeerSurfacesAsTimedOutNotEof) {
  // A listener that never responds: connects succeed (loopback backlog),
  // but no response line ever arrives.
  const util::TcpSocket silent = util::tcp_listen(0);
  serve::SubmitOptions timeouts;
  timeouts.io_timeout_ms = 100;
  try {
    serve::submit_raw("127.0.0.1", util::tcp_local_port(silent),
                      Json::parse(R"({"cmd":"status"})"), {}, timeouts);
    FAIL() << "expected a timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(ClientTimeoutTest, UnreachableDaemonReportsTheEndpoint) {
  // Grab an ephemeral port and release it: connecting must now fail fast
  // with a diagnostic naming the endpoint rather than hanging.
  std::uint16_t port;
  {
    const util::TcpSocket listener = util::tcp_listen(0);
    port = util::tcp_local_port(listener);
  }
  serve::SubmitOptions timeouts;
  timeouts.connect_timeout_ms = 2000;
  try {
    serve::submit_raw("127.0.0.1", port, Json::parse(R"({"cmd":"status"})"),
                      {}, timeouts);
    FAIL() << "expected a connection failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(port)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace clktune
