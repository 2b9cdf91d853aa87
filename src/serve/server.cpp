#include "serve/server.h"

#include <sys/socket.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/local_executor.h"
#include "exec/observer.h"
#include "exec/request.h"
#include "jobs/job.h"
#include "jobs/job_scheduler.h"
#include "obs/metrics.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "util/json.h"

namespace clktune::serve {

using util::Json;

namespace {

/// Serve-layer admission metrics in the process-wide obs registry.
struct ServeMetrics {
  obs::Counter& connections;
  obs::Counter& busy;
  obs::Gauge& queue_depth;

  static ServeMetrics& get() {
    static ServeMetrics m{
        obs::Registry::global().counter(
            "clktune_serve_connections_total", "Connections accepted"),
        obs::Registry::global().counter(
            "clktune_serve_busy_rejections_total",
            "Connections rejected with the busy backpressure frame"),
        obs::Registry::global().gauge(
            "clktune_serve_queue_depth",
            "Accepted connections waiting for a handler"),
    };
    return m;
  }
};

/// Per-verb request counter + latency histogram.  Unknown cmd strings
/// collapse into one "other" label so a misbehaving client cannot grow
/// the registry without bound.
const std::string& verb_label(const std::string& cmd) {
  static const std::string known[] = {"run",     "sweep", "status",
                                      "metrics", "submit", "attach",
                                      "cancel",  "jobs",   "shutdown",
                                      "drain",   "prune"};
  static const std::string other = "other";
  for (const std::string& verb : known)
    if (verb == cmd) return verb;
  return other;
}

obs::Histogram& verb_latency(const std::string& verb) {
  return obs::Registry::global().histogram(
      "clktune_serve_request_seconds",
      "Request handling latency by verb", 1e-9, {{"verb", verb}});
}

obs::Counter& verb_requests(const std::string& verb) {
  return obs::Registry::global().counter(
      "clktune_serve_requests_total", "Requests handled by verb",
      {{"verb", verb}});
}

void send_event(const util::TcpSocket& connection, const Json& event) {
  util::tcp_write_all(connection, event.dump(-1) + "\n");
}

void send_error(const util::TcpSocket& connection, const std::string& what) {
  Json event = Json::object();
  event.set("event", "error");
  event.set("message", what);
  send_event(connection, event);
}

Json result_event(std::size_t index, bool cached, const Json& artifact) {
  Json event = Json::object();
  event.set("event", "result");
  event.set("index", static_cast<std::uint64_t>(index));
  event.set("cached", cached);
  event.set("result", artifact);
  return event;
}

Json done_event(std::uint64_t scenarios_run, std::uint64_t targets_missed,
                std::uint64_t cached) {
  Json event = Json::object();
  event.set("event", "done");
  event.set("ok", true);
  event.set("scenarios_run", scenarios_run);
  event.set("targets_missed", targets_missed);
  event.set("cached", cached);
  return event;
}

/// The wire adapter of the exec layer: every finished cell becomes one
/// streamed "result" line.  Cells finish on worker threads, hence the
/// lock; a dead peer stops the stream but never the computation — results
/// still land in the cache.
class StreamObserver : public exec::Observer {
 public:
  explicit StreamObserver(const util::TcpSocket& connection)
      : connection_(connection) {}

  void on_cell(const exec::CellEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (peer_gone_) return;
    try {
      send_event(connection_,
                 result_event(event.index, event.cached,
                              event.result.to_json()));
    } catch (const std::exception&) {
      peer_gone_ = true;
    }
  }

  bool peer_gone() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peer_gone_;
  }

 private:
  const util::TcpSocket& connection_;
  mutable std::mutex mutex_;
  bool peer_gone_ = false;
};

}  // namespace

ScenarioServer::ScenarioServer(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir, options_.cache_capacity) {
  if (options_.admission_threads == 0) options_.admission_threads = 1;
  // Capacity 0 would reject every connection while handlers sit idle.
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  jobs::JobSchedulerOptions job_options;
  job_options.workers = options_.job_workers;
  job_options.threads = options_.threads;
  job_options.retain_terminal = options_.job_retain;
  job_options.stall_timeout_ms = options_.job_stall_timeout_ms;
  // Job envelopes live inside the cache directory (a sibling subdir, so
  // cache gc/verify — which scan only top-level files — never touch
  // them); without a cache dir the job queue is in-memory only.
  jobs_ = std::make_unique<jobs::JobScheduler>(
      options_.cache_dir.empty() ? std::string()
                                 : options_.cache_dir + "/jobs",
      &cache_, job_options);
}

ScenarioServer::~ScenarioServer() = default;

void ScenarioServer::start() {
  // A peer that resets mid-stream must surface as an EPIPE/ECONNRESET
  // error on the write, never as a process-killing signal.  tcp_write_all
  // already passes MSG_NOSIGNAL, but any other write path (and third-party
  // code) is only safe with the disposition set process-wide.  Idempotent.
  std::signal(SIGPIPE, SIG_IGN);
  listener_ = util::tcp_listen(options_.port);
  port_ = util::tcp_local_port(listener_);
  started_at_ = std::chrono::steady_clock::now();
  // Recover persisted jobs and start the worker pool: a daemon restarted
  // on the same cache dir resumes interrupted jobs before the first
  // connection arrives.
  jobs_->start();
}

void ScenarioServer::serve_forever() {
  std::vector<std::thread> handlers;
  handlers.reserve(options_.admission_threads);
  for (std::size_t i = 0; i < options_.admission_threads; ++i)
    handlers.emplace_back([this] { handler_loop(); });

  while (!stop_.load()) {
    util::TcpSocket connection = util::tcp_accept(listener_);
    if (!connection.valid()) break;  // listener shut down by stop()/drain
    ++connections_;
    ServeMetrics::get().connections.inc();
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(connection));
        admitted = true;
        ServeMetrics::get().queue_depth.set(
            static_cast<std::int64_t>(queue_.size()));
      }
    }
    if (admitted) {
      queue_ready_.notify_one();
      continue;
    }
    // Backpressure: a structured frame the client can tell apart from a
    // protocol error, then close.  Rejecting at admission keeps the bound
    // on waiting work exact — one slow fleet cannot wedge the daemon.
    // The client has typically already written its request line; closing
    // with it unread would turn the close into a TCP reset that discards
    // the busy frame, so drain the buffered bytes (non-blocking) first.
    ++rejected_;
    ServeMetrics::get().busy.inc();
    util::tcp_drain_pending(connection);
    Json busy = Json::object();
    busy.set("event", "error");
    busy.set("code", "busy");
    busy.set("message",
             "server queue full (" + std::to_string(options_.queue_capacity) +
                 " waiting); retry on another daemon");
    try {
      send_event(connection, busy);
    } catch (const std::exception&) {
      // Peer already gone: the rejection stands either way.
    }
    // Half-close and linger briefly for the client's EOF: a multi-segment
    // request still in flight when we close would otherwise reset the
    // connection and discard the frame.  A cooperative client closes
    // within one round trip of reading it; the per-recv deadline and the
    // total byte cap bound everyone else — this runs on the accept
    // thread, so an uncooperative peer must not stall admission.
    ::shutdown(connection.fd(), SHUT_WR);
    try {
      util::tcp_set_recv_timeout(connection, 50);
    } catch (const std::exception&) {
      continue;  // cannot bound the linger: close immediately instead
    }
    char discard[4096];
    std::size_t drained = 0;
    while (drained < 64 * 1024) {
      const ssize_t n =
          ::recv(connection.fd(), discard, sizeof(discard), 0);
      if (n <= 0) break;  // EOF, reset, or the 50 ms deadline
      drained += static_cast<std::size_t>(n);
    }
  }

  // Graceful drain: admission is already closed (the listener is down),
  // but connections that were accepted keep their handlers — wait up to
  // the grace period for the queue to empty and in-flight frames to
  // finish before severing anything.  A hard stop() skips this.
  if (draining_.load() && !stop_.load()) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_grace_ms);
    for (;;) {
      bool idle;
      {
        const std::lock_guard<std::mutex> queue_lock(queue_mutex_);
        const std::lock_guard<std::mutex> active_lock(active_mutex_);
        idle = queue_.empty() && active_fds_.empty();
      }
      if (idle || stop_.load() ||
          std::chrono::steady_clock::now() >= deadline)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // Wind down: no handler may pick up new work, queued-but-unclaimed
  // connections are closed (their clients see EOF rather than a hang),
  // blocked reads are severed so every handler observes EOF, then all of
  // them are joined.
  stop_.store(true);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  queue_ready_.notify_all();
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Before joining handlers: an attach handler blocks on a job
  // subscription, not a socket read, so severing its fd alone would not
  // wake it — stopping the scheduler closes every subscription (and asks
  // running jobs to yield without marking them terminal, so a restart
  // recovers them).
  jobs_->stop();
  for (std::thread& handler : handlers) handler.join();
}

void ScenarioServer::close_listener() {
  ::shutdown(listener_.fd(), SHUT_RDWR);
}

void ScenarioServer::drain() {
  draining_.store(true);
  // Shutting the listener down pops the accept loop out of tcp_accept();
  // serve_forever then runs the grace window before the hard wind-down.
  close_listener();
}

void ScenarioServer::stop() {
  stop_.store(true);
  close_listener();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  queue_ready_.notify_all();
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  jobs_->stop();
}

void ScenarioServer::track_connection(int fd, bool add) {
  const std::lock_guard<std::mutex> lock(active_mutex_);
  if (add) {
    active_fds_.insert(fd);
    // stop() may have severed the registry an instant ago; a connection
    // registering after that must not outlive the wind-down.
    if (stop_.load()) ::shutdown(fd, SHUT_RDWR);
  } else {
    active_fds_.erase(fd);
  }
}

void ScenarioServer::handler_loop() {
  for (;;) {
    util::TcpSocket connection;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_ready_.wait(lock,
                        [this] { return stop_.load() || !queue_.empty(); });
      if (stop_.load()) return;  // wind-down already drained the queue
      connection = std::move(queue_.front());
      queue_.pop_front();
      ServeMetrics::get().queue_depth.set(
          static_cast<std::int64_t>(queue_.size()));
    }
    handle_connection(std::move(connection));
  }
}

void ScenarioServer::handle_connection(util::TcpSocket connection) {
  track_connection(connection.fd(), /*add=*/true);
  util::LineReader reader(connection);
  std::string line;
  try {
    while (!stop_.load() && reader.read_line(line)) {
      if (line.empty()) continue;
      try {
        handle_request(connection, line);
      } catch (const std::exception& e) {
        // Parse/validation/runtime failure of one request; the connection
        // stays usable because requests are line-framed.
        try {
          send_error(connection, e.what());
        } catch (const std::exception&) {
          break;  // peer gone mid-error: drop the connection
        }
      }
    }
  } catch (const std::exception&) {
    // A read failure — recv deadline, a reset mid-frame, an injected
    // socket fault — costs this connection only.  Letting it propagate
    // would unwind the handler thread and terminate the daemon.
  }
  track_connection(connection.fd(), /*add=*/false);
}

double ScenarioServer::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

void ScenarioServer::handle_request(const util::TcpSocket& connection,
                                    const std::string& line) {
  const Json request = Json::parse(line);
  const std::string cmd = request.at("cmd").as_string();
  ++requests_;
  if (!options_.quiet)
    std::fprintf(stderr, "clktune-serve: %s\n", cmd.c_str());
  // Time the dispatch even when it throws — an error frame is still a
  // served request, and failures must not hide from the latency series.
  const std::string& verb = verb_label(cmd);
  verb_requests(verb).inc();
  const obs::ScopedTimer timer(verb_latency(verb));
  handle_command(connection, cmd, request);
}

void ScenarioServer::handle_command(const util::TcpSocket& connection,
                                    const std::string& cmd,
                                    const Json& request) {
  if (cmd == "status") {
    // With an "id" member this is a *job* status query; without one it is
    // the daemon-wide status frame (which now also carries job counters).
    if (const Json* id = request.find("id")) {
      const std::optional<jobs::JobRecord> job =
          jobs_->get(id->as_string());
      if (!job)
        throw jobs::JobError("unknown job id \"" + id->as_string() + "\"");
      send_event(connection, job->status_json());
      return;
    }
    Json event = Json::object();
    event.set("event", "status");
    event.set("version", kProtocolVersion);
    event.set("uptime_seconds", uptime_seconds());
    event.set("requests", requests_.load());
    event.set("connections", connections_.load());
    event.set("rejected", rejected_.load());
    event.set("draining", draining_.load());
    event.set("scenarios_run", scenarios_run_.load());
    event.set("cache", cache_.stats().to_json());
    event.set("jobs", jobs_->counters());
    send_event(connection, event);
    return;
  }

  if (cmd == "metrics") {
    // Job gauges are refreshed here (and only here) rather than on every
    // lifecycle transition: the scheduler already keeps exact per-state
    // counts, so sampling them at exposition time is cheaper and cannot
    // drift.
    const Json jobs = jobs_->counters();
    obs::Registry& registry = obs::Registry::global();
    static const char* kStates[] = {"queued", "preparing", "running"};
    for (const char* state : kStates) {
      const Json* count = jobs.find(state);
      registry
          .gauge("clktune_jobs_" + std::string(state),
                 "Jobs currently in this lifecycle state")
          .set(count ? static_cast<std::int64_t>(count->as_uint()) : 0);
    }
    Json event = Json::object();
    event.set("event", "metrics");
    event.set("version", kProtocolVersion);
    event.set("uptime_seconds", uptime_seconds());
    const Json* format = request.find("format");
    if (format && format->as_string() == "prometheus") {
      event.set("format", "prometheus");
      event.set("text", registry.prometheus_text());
    } else if (format && format->as_string() != "json") {
      throw std::runtime_error("metrics: unknown format \"" +
                               format->as_string() +
                               "\" (expected \"json\" or \"prometheus\")");
    } else {
      event.set("metrics", registry.snapshot_json());
    }
    send_event(connection, event);
    return;
  }

  if (cmd == "submit") {
    // Fire-and-forget admission: validate, persist, answer with the job
    // frame — O(enqueue), no cell of computation on this connection.
    if (request.contains("shard"))
      throw jobs::JobError(
          "submit jobs take an \"indices\" selection, not a shard");
    std::vector<std::size_t> indices;
    if (const Json* list = request.find("indices")) {
      indices.reserve(list->as_array().size());
      for (const Json& index : list->as_array())
        indices.push_back(static_cast<std::size_t>(index.as_uint()));
    }
    const jobs::JobRecord job =
        jobs_->submit(request.at("doc"), std::move(indices));
    send_event(connection, job.status_json());
    return;
  }

  if (cmd == "attach") {
    // Streams exactly what run/sweep would: "result" frames (replayed
    // from the cache for finished cells, live otherwise) and a terminal
    // done/error frame derived from the job's state.  No header frame —
    // clients that need metadata ask `status` first — so the stream
    // shape matches the synchronous verbs and existing clients (the
    // fleet dispatcher) consume it unchanged.
    const std::string id = request.at("id").as_string();
    bool peer_gone = false;
    const jobs::JobRecord final_state =
        jobs_->attach(id, [&](const Json& frame) {
          try {
            send_event(connection, frame);
            return true;
          } catch (const std::exception&) {
            peer_gone = true;
            return false;
          }
        });
    if (peer_gone) return;
    switch (final_state.state) {
      case jobs::JobState::done:
        send_event(connection,
                   done_event(final_state.done_indices.size(),
                              final_state.targets_missed,
                              final_state.cached));
        return;
      case jobs::JobState::error:
        send_error(connection,
                   "job " + id + " failed: " + final_state.error);
        return;
      case jobs::JobState::cancelled: {
        Json event = Json::object();
        event.set("event", "error");
        event.set("code", "cancelled");
        event.set("message", "job " + id + " was cancelled");
        send_event(connection, event);
        return;
      }
      default:
        // Only reachable when the daemon is winding down mid-stream.
        send_error(connection,
                   "daemon stopping; job " + id +
                       " will be recovered on restart — re-attach then");
        return;
    }
  }

  if (cmd == "cancel") {
    const std::string id = request.at("id").as_string();
    send_event(connection, jobs_->cancel(id).status_json());
    return;
  }

  if (cmd == "jobs") {
    Json listing = Json::array();
    for (const jobs::JobRecord& job : jobs_->list())
      listing.push_back(job.status_json());
    Json event = Json::object();
    event.set("event", "jobs");
    event.set("jobs", std::move(listing));
    send_event(connection, event);
    return;
  }

  if (cmd == "shutdown") {
    // Answer first: once stop_ is set the wind-down severs every active
    // connection, racing this send for the fd.  A peer that vanished
    // before reading the frame must not veto the shutdown itself.
    try {
      send_event(connection, done_event(0, 0, 0));
    } catch (const std::exception&) {
    }
    stop_.store(true);
    close_listener();
    return;
  }

  if (cmd == "drain") {
    // Answer first: once drain() closes the listener the accept loop is
    // already gone, and this connection finishes inside the grace window.
    Json event = Json::object();
    event.set("event", "draining");
    event.set("ok", true);
    event.set("grace_ms", static_cast<std::uint64_t>(
                              options_.drain_grace_ms < 0
                                  ? 0
                                  : options_.drain_grace_ms));
    event.set("jobs", jobs_->counters());
    send_event(connection, event);
    drain();
    return;
  }

  if (cmd == "prune") {
    std::size_t keep = 0;
    if (const Json* k = request.find("keep"))
      keep = static_cast<std::size_t>(k->as_uint());
    const std::size_t removed = jobs_->prune(keep);
    Json event = Json::object();
    event.set("event", "pruned");
    event.set("removed", static_cast<std::uint64_t>(removed));
    event.set("keep", static_cast<std::uint64_t>(keep));
    send_event(connection, event);
    return;
  }

  if (cmd == "run" || cmd == "sweep") {
    exec::Request exec_request =
        cmd == "run"
            ? exec::Request::for_scenario(
                  scenario::ScenarioSpec::from_json(request.at("doc")))
            : exec::Request::for_campaign(
                  scenario::CampaignSpec::from_json(request.at("doc")));
    exec_request.threads = options_.threads;
    exec_request.cache = &cache_;
    if (const Json* shard = request.find("shard")) {
      exec_request.shard_index =
          static_cast<std::size_t>(shard->at("index").as_uint());
      exec_request.shard_count =
          static_cast<std::size_t>(shard->at("count").as_uint());
    }
    if (const Json* indices = request.find("indices")) {
      exec_request.indices.reserve(indices->as_array().size());
      for (const Json& index : indices->as_array())
        exec_request.indices.push_back(
            static_cast<std::size_t>(index.as_uint()));
    }
    exec::LocalExecutor executor;
    StreamObserver observer(connection);
    const exec::Outcome outcome = executor.execute(exec_request, &observer);
    scenarios_run_ += outcome.scenarios_run;
    if (!observer.peer_gone())
      send_event(connection,
                 done_event(outcome.scenarios_run, outcome.targets_missed,
                            outcome.scenarios_cached));
    return;
  }

  send_error(connection, "unknown cmd \"" + cmd + "\"");
}

}  // namespace clktune::serve
