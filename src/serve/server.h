// `clktune serve` — a long-running scenario service.
//
// The daemon listens on a loopback TCP port and speaks newline-delimited
// JSON: each request line is an object with a "cmd" member, each response
// line an object with an "event" member.  The PR-1 artifact layer is the
// wire format — a streamed "result" event carries exactly the JSON that
// `clktune run` would have written for the same document.
// docs/serve_protocol.md is the normative wire specification.
//
//   request                                  response lines
//   {"cmd":"run","doc":{scenario}}       -> result, done
//   {"cmd":"sweep","doc":{campaign}}     -> result per finished cell, done
//   {"cmd":"status"}                     -> status
//   {"cmd":"metrics"}                    -> metrics (obs registry snapshot;
//                                           {"format":"prometheus"} swaps
//                                           the JSON snapshot for text
//                                           exposition in a "text" member)
//   {"cmd":"shutdown"}                   -> done (then the server exits)
//   {"cmd":"drain"}                      -> draining (stop admission,
//                                           finish in-flight work, then
//                                           exit — SIGTERM semantics)
//   {"cmd":"prune","keep":N}             -> pruned (drop the oldest
//                                           terminal job envelopes
//                                           beyond N)
//
// Async job verbs (the durable submission path, backed by jobs::
// JobScheduler; see docs/jobs.md):
//   {"cmd":"submit","doc":{...}}         -> job (queued; returns at once)
//   {"cmd":"status","id":j}              -> job (lifecycle + progress)
//   {"cmd":"attach","id":j}              -> result per cell, then done /
//                                           error — replayed for finished
//                                           jobs, live otherwise, byte-
//                                           identical to run/sweep
//   {"cmd":"cancel","id":j}              -> job
//   {"cmd":"jobs"}                       -> jobs (every known job)
// A submit may carry {"indices":[...]} exactly like sweep.  With a
// --cache-dir, job envelopes persist under <cache_dir>/jobs and a
// restarted daemon recovers every job: finished ones replay from the
// result cache, interrupted ones re-queue.
//
// A sweep request may carry one of two selection members:
//   {"shard":{"index":i,"count":n}}   run expansion indices idx % n == i,
//                                     exactly like `clktune sweep --shard`
//   {"indices":[i0,i1,...]}           run exactly these global expansion
//                                     indices (strictly increasing)
// The shard form backs static fan-out (exec::ShardedExecutor over
// exec::RemoteExecutors); the indices form is the work-unit interface that
// fleet::FleetExecutor feeds daemons work-stealing style.
//
//   result: {"event":"result","index":i,"cached":bool,"result":{artifact}}
//   done:   {"event":"done","ok":true,"scenarios_run":n,
//            "targets_missed":m,"cached":c}
//   status: {"event":"status","version":v,"uptime_seconds":s,"requests":r,
//            "connections":k,"rejected":j,"scenarios_run":n,
//            "cache":{hits,misses,...},"jobs":{queued,...}}
//   metrics:{"event":"metrics","version":v,"uptime_seconds":s,
//            "metrics":{counters,gauges,histograms} | "format":
//            "prometheus","text":"..."}
//   error:  {"event":"error","message":"..."[,"code":"busy"]}
//
// Sweep results stream in completion order, tagged with their global
// expansion index.  Connections are admitted concurrently: the accept loop
// pushes each connection onto a bounded queue drained by a pool of handler
// threads, so one slow client no longer blocks the rest of a fleet.  When
// the queue is full the daemon answers with a structured backpressure
// frame ({"event":"error","code":"busy",...}) and closes — callers treat
// it like any other daemon failure and retry elsewhere.  Requests execute
// through exec::LocalExecutor — the same backend the CLI uses — with a
// streaming exec::Observer as the wire adapter, and every result goes
// through the content-addressed ResultCache, so the daemon never
// recomputes a document it has already solved, across requests and across
// clients.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "util/socket.h"

namespace clktune::jobs {
class JobScheduler;
}

namespace clktune::serve {

/// Wire protocol version, carried by the status and metrics frames.
/// Bumped on incompatible frame-shape changes (additive members do not
/// count); v1 is the first versioned protocol.
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Longest request line the daemon buffers, far above any real document.
/// A longer line gets a `too_large` error frame and costs its connection.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{4} << 20;

struct ServeOptions {
  std::uint16_t port = 0;   ///< 0 = ephemeral (query via ScenarioServer::port)
  int threads = 0;          ///< campaign workers; 0 = hardware concurrency
  std::string cache_dir;    ///< empty = in-memory cache only
  std::size_t cache_capacity = 256;  ///< LRU entries held in memory
  bool quiet = true;        ///< suppress per-request stderr lines
  /// Connection handlers running concurrently (admission parallelism).
  std::size_t admission_threads = 4;
  /// Accepted-but-unclaimed connections held while every handler is busy;
  /// beyond this the daemon rejects with a "busy" backpressure frame.
  std::size_t queue_capacity = 16;
  /// Async jobs executing concurrently (the submit-verb worker pool).
  std::size_t job_workers = 2;
  /// Terminal jobs retained before the oldest envelopes are pruned.
  std::size_t job_retain = 512;
  /// Stuck-job watchdog deadline passed to the JobScheduler (0 = off).
  int job_stall_timeout_ms = 0;
  /// Graceful-drain grace period: how long serve_forever waits for
  /// in-flight connections to finish before severing them.
  int drain_grace_ms = 5000;
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServeOptions options);
  ~ScenarioServer();

  /// Binds and listens; after this, port() is the actual port.
  void start();
  std::uint16_t port() const { return port_; }

  /// Accept loop; returns after a shutdown request or stop(), with every
  /// handler joined.  Connections are admitted onto the bounded queue and
  /// handled by the pool; each may carry any number of request lines.
  void serve_forever();

  /// Thread-safe: asks the accept loop to exit, unblocks it, and severs
  /// in-flight connections so handlers wind down.
  void stop();

  /// Graceful drain, the SIGTERM semantics: stop admission (close the
  /// listener) but let in-flight frames finish — serve_forever waits up
  /// to drain_grace_ms for active connections to complete before winding
  /// down.  Running jobs are asked to yield at their next checkpoint and
  /// stay `running` on disk, so a restarted daemon recovers them.
  /// Thread-safe and idempotent; also exposed as the `drain` serve verb.
  void drain();
  bool draining() const { return draining_.load(); }

  cache::ResultCache& cache() { return cache_; }
  jobs::JobScheduler& scheduler() { return *jobs_; }

 private:
  void handler_loop();
  void handle_connection(util::TcpSocket connection);
  /// Parses one request line and times its dispatch into the per-verb
  /// latency histogram.
  void handle_request(const util::TcpSocket& connection,
                      const std::string& line);
  void handle_command(const util::TcpSocket& connection,
                      const std::string& cmd, const util::Json& request);
  double uptime_seconds() const;
  /// Registry of fds handlers are blocked on, so stop() can sever them.
  void track_connection(int fd, bool add);
  /// Stops admission from any thread: shuts the listening socket down,
  /// which wakes the accept loop.  The descriptor itself stays open until
  /// the destructor, so the accept loop never reads a closed (or reused)
  /// fd number; shutting down twice is harmless.
  void close_listener();

  ServeOptions options_;
  cache::ResultCache cache_;
  /// The async-job service; envelopes live under <cache_dir>/jobs when a
  /// cache directory is configured (in-memory otherwise).
  std::unique_ptr<jobs::JobScheduler> jobs_;
  util::TcpSocket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  /// start() time; uptime_seconds derives from this, steady so it never
  /// jumps with wall-clock adjustments.
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
  std::deque<util::TcpSocket> queue_;  ///< accepted, awaiting a handler

  std::mutex active_mutex_;
  std::set<int> active_fds_;  ///< connections currently owned by handlers

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> rejected_{0};  ///< busy backpressure rejections
  std::atomic<std::uint64_t> scenarios_run_{0};  ///< computed + cache-served
};

}  // namespace clktune::serve
