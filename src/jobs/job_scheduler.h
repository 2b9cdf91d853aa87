// The job service: a bounded worker pool draining the persistent queue.
//
// JobScheduler owns a JobStore and a pool of worker threads.  Workers
// claim queued jobs in submission order, build an exec::Request from the
// stored document and drive exec::LocalExecutor with an observer that
// checkpoints every finished cell back into the store (and broadcasts it
// to live attach subscribers).  submit() is O(enqueue): parse + validate
// + one envelope write, never a cell of computation — the fire-and-forget
// admission path the serve daemon exposes as the `submit` verb.
//
// attach() is the read side and the replay guarantee: for cells that
// already finished it re-derives each artifact through exec::run_cell,
// the cell path the worker used (a cache hit, or a deterministic
// recomputation on a miss), for cells still running it subscribes to the
// live broadcast — so an attach stream is byte-identical to the
// synchronous run/sweep stream no matter when the client connects,
// including after a daemon restart.
//
// Shutdown is cooperative and *non-terminal*: stop() asks running jobs to
// stop via the observer's cancelled() poll, but deliberately does not
// persist a `cancelled` state for them — the envelope stays `running` on
// disk, which is exactly what JobStore::load() resets to `queued` on the
// next start.  A restart therefore loses nothing (the recovery
// acceptance criterion); only an explicit cancel() is terminal.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "jobs/job.h"
#include "jobs/job_store.h"
#include "util/json.h"

namespace clktune::cache {
class ResultCache;
}

namespace clktune::jobs {

struct JobSchedulerOptions {
  /// Jobs executing concurrently.  Each running campaign additionally
  /// uses `threads` cell workers of its own.
  std::size_t workers = 2;
  /// Thread budget handed to each job's exec::Request (0 = hardware
  /// concurrency) — the serve daemon passes its own --threads through.
  int threads = 0;
  /// Terminal jobs retained (memory + disk) before the oldest are pruned.
  std::size_t retain_terminal = 512;
  /// Stuck-job watchdog: a running job whose last progress stamp (claim or
  /// per-cell checkpoint) is older than this deadline is cooperatively
  /// yanked back to `queued` and re-claimed — its checkpointed cells
  /// replay from the result cache, so only the stalled remainder re-runs.
  /// 0 disables the watchdog.
  int stall_timeout_ms = 0;
};

class JobScheduler {
 public:
  /// `directory` empty = no persistence (jobs forgotten on restart).
  /// `cache` is the daemon's result cache, not owned, must outlive the
  /// scheduler; attach replays finished cells through it.
  JobScheduler(std::string directory, cache::ResultCache* cache,
               JobSchedulerOptions options);
  ~JobScheduler();

  /// Recovers persisted jobs (interrupted ones re-queue) and starts the
  /// worker pool.  Idempotent.
  void start();
  /// Cooperatively stops: wakes idle workers, asks running jobs to yield,
  /// closes every attach subscription, joins the pool.  Idempotent and
  /// safe to call from any thread.
  void stop();

  /// Admits a document, optionally with a campaign index selection
  /// (nullopt = the whole expansion; an empty list = a job of no cell,
  /// which ends `done`).  Validates eagerly — a malformed document throws
  /// here, at submission, never later inside a worker.  Returns the queued
  /// record.
  JobRecord submit(const util::Json& doc,
                   std::optional<std::vector<std::size_t>> indices);

  std::optional<JobRecord> get(const std::string& id) const;
  std::vector<JobRecord> list() const;

  /// Drops the oldest terminal job envelopes beyond `keep` (memory +
  /// disk).  Returns how many were removed.  The serve `prune` verb and
  /// `clktune job prune` expose this; submit() also applies the
  /// retain_terminal bound automatically.
  std::size_t prune(std::size_t keep) { return store_.prune_terminal(keep); }

  /// Requests cancellation: a queued job becomes `cancelled` immediately;
  /// a preparing/running one is flagged and reaches `cancelled` once the
  /// executor yields (poll status to observe it).  Terminal jobs are
  /// returned unchanged.  Throws JobError on an unknown id.
  JobRecord cancel(const std::string& id);

  /// Streams the job's "result" frames to `sink` — finished cells
  /// replayed from the cache first, live cells as they complete — until
  /// the job is terminal or the scheduler stops.  `sink` returns false to
  /// detach early.  Returns the record as of stream end (callers emit the
  /// terminal frame from its state).  Throws JobError on an unknown id.
  JobRecord attach(const std::string& id,
                   const std::function<bool(const util::Json&)>& sink);

  /// Jobs per state, for the daemon status frame:
  /// {"queued":q,"preparing":p,"running":r,"done":d,"error":e,
  ///  "cancelled":c}.
  util::Json counters() const;

 private:
  /// One live attach: a bounded-by-job-size frame queue fed by the
  /// broadcast side, drained by the attach loop.
  struct Subscription {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<util::Json> frames;
    bool closed = false;
  };

  void worker_loop();
  void watchdog_loop();
  void run_job(JobRecord job);
  void broadcast(const std::string& id, const util::Json& frame);
  void close_subscribers(const std::string& id);
  void remove_subscriber(const std::string& id,
                         const std::shared_ptr<Subscription>& sub);
  bool cancel_requested(const std::string& id) const;
  bool stall_requested(const std::string& id) const;
  void stamp_progress(const std::string& id);

  JobStore store_;
  cache::ResultCache* cache_;
  JobSchedulerOptions options_;

  std::mutex queue_mutex_;
  /// Workers wait here for a claimable job.  Only workers: submit() wakes
  /// one waiter, which must be a worker for the job to run.
  std::condition_variable queue_ready_;
  /// The watchdog's own wake-up, for stop().
  std::condition_variable watchdog_wake_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  std::thread watchdog_;

  mutable std::mutex cancel_mutex_;
  std::set<std::string> cancel_requested_;
  /// Jobs the watchdog has flagged; observed by the cancelled() poll and
  /// translated into a re-queue (not a cancel) when the executor yields.
  std::set<std::string> stall_requested_;

  /// Steady-clock submission stamps, consumed (and erased) by the worker
  /// that claims the job to record queue-wait latency.  A recovered job
  /// has no stamp — its pre-restart wait is unknowable, so it records
  /// nothing rather than a lie.
  mutable std::mutex obs_mutex_;
  std::map<std::string, std::uint64_t> queued_at_ns_;
  /// Steady-clock last-progress stamps of in-flight jobs (claim and every
  /// checkpoint); the watchdog compares them against stall_timeout_ms.
  std::map<std::string, std::uint64_t> progress_ns_;

  mutable std::mutex sub_mutex_;
  std::map<std::string, std::vector<std::shared_ptr<Subscription>>> subs_;
};

}  // namespace clktune::jobs
