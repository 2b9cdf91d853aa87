#include "jobs/job_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/observer.h"
#include "exec/request.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"

namespace clktune::jobs {

using util::Json;

namespace {

/// Job-service metrics in the process-wide obs registry.  Per-state
/// gauges are sampled from JobStore at exposition time (see the serve
/// metrics verb), so only event counters and latencies live here.
struct JobMetrics {
  obs::Counter& submitted;
  obs::Counter& checkpoints;
  obs::Counter& stall_requeues;
  obs::Histogram& queue_wait;
  obs::Histogram& run_seconds;

  static JobMetrics& get() {
    static JobMetrics m{
        obs::Registry::global().counter("clktune_jobs_submitted_total",
                                        "Jobs admitted via submit"),
        obs::Registry::global().counter(
            "clktune_jobs_checkpoints_total",
            "Per-cell checkpoints persisted to job envelopes"),
        obs::Registry::global().counter(
            "clktune_jobs_stall_requeues_total",
            "Running jobs re-queued by the stuck-job watchdog"),
        obs::Registry::global().histogram(
            "clktune_jobs_queue_wait_seconds",
            "Submit-to-claim latency of the job queue", 1e-9),
        obs::Registry::global().histogram(
            "clktune_jobs_run_seconds",
            "Executor wall time of one job, claim to terminal", 1e-9),
    };
    return m;
  }
};

obs::Counter& jobs_completed(const char* state) {
  return obs::Registry::global().counter(
      "clktune_jobs_completed_total", "Jobs reaching a terminal state",
      {{"state", state}});
}

/// Observer adapter: the scheduler wires per-job lambdas in, so the
/// checkpoint/broadcast plumbing stays inside JobScheduler.
class CallbackObserver : public exec::Observer {
 public:
  CallbackObserver(std::function<void(const exec::CellEvent&)> on_cell,
                   std::function<bool()> cancelled)
      : on_cell_(std::move(on_cell)), cancelled_(std::move(cancelled)) {}

  void on_cell(const exec::CellEvent& event) override { on_cell_(event); }
  bool cancelled() override { return cancelled_(); }

 private:
  std::function<void(const exec::CellEvent&)> on_cell_;
  std::function<bool()> cancelled_;
};

/// The wire "result" frame — member order matches the serve layer's
/// result_event, so job streams are byte-compatible with run/sweep
/// streams.
Json result_frame(std::size_t index, bool cached, Json artifact) {
  Json frame = Json::object();
  frame.set("event", "result");
  frame.set("index", static_cast<std::uint64_t>(index));
  frame.set("cached", cached);
  frame.set("result", std::move(artifact));
  return frame;
}

/// The scenario specs a job's cells run, indexed by global expansion
/// index (a scenario job is its own single cell).
std::vector<scenario::ScenarioSpec> specs_of(const JobRecord& rec) {
  if (rec.kind == "campaign")
    return scenario::CampaignSpec::from_json(rec.doc).expand();
  return {scenario::ScenarioSpec::from_json(rec.doc)};
}

}  // namespace

JobScheduler::JobScheduler(std::string directory, cache::ResultCache* cache,
                           JobSchedulerOptions options)
    : store_(std::move(directory)), cache_(cache), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
}

JobScheduler::~JobScheduler() { stop(); }

void JobScheduler::start() {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  if (started_) return;
  started_ = true;
  store_.load();
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (options_.stall_timeout_ms > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

void JobScheduler::stop() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true);
  }
  queue_ready_.notify_all();
  watchdog_wake_.notify_all();
  // Close every live attach before joining: attach loops block on
  // subscription queues, not sockets, so this is what unblocks them.
  {
    const std::lock_guard<std::mutex> lock(sub_mutex_);
    for (auto& [id, subscribers] : subs_) {
      for (const std::shared_ptr<Subscription>& sub : subscribers) {
        {
          const std::lock_guard<std::mutex> sub_lock(sub->mutex);
          sub->closed = true;
        }
        sub->ready.notify_all();
      }
    }
    subs_.clear();
  }
  std::vector<std::thread> workers;
  std::thread watchdog;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers.swap(workers_);
    watchdog.swap(watchdog_);
  }
  for (std::thread& worker : workers)
    if (worker.joinable()) worker.join();
  if (watchdog.joinable()) watchdog.join();
}

JobRecord JobScheduler::submit(const util::Json& doc,
                               std::vector<std::size_t> indices) {
  // Validate at admission: a malformed document must fail the submit
  // verb, never a worker minutes later.  The *resolved* document is what
  // gets persisted, so recovery and replay never depend on parser
  // defaults staying stable.
  exec::Request request = exec::Request::from_json(doc);
  request.indices = indices;
  request.validate();
  const bool campaign = request.kind == exec::Request::Kind::campaign;
  const std::size_t cells_total =
      indices.empty() ? request.expansion_size() : indices.size();
  JobRecord rec = store_.create(
      request.document(), campaign ? "campaign" : "scenario",
      campaign ? request.campaign.name : request.scenario.name,
      std::move(indices), cells_total);
  store_.prune_terminal(options_.retain_terminal);
  JobMetrics::get().submitted.inc();
  {
    const std::lock_guard<std::mutex> lock(obs_mutex_);
    queued_at_ns_[rec.id] = obs::steady_now_ns();
  }
  queue_ready_.notify_one();
  return rec;
}

std::optional<JobRecord> JobScheduler::get(const std::string& id) const {
  return store_.get(id);
}

std::vector<JobRecord> JobScheduler::list() const { return store_.list(); }

JobRecord JobScheduler::cancel(const std::string& id) {
  {
    const std::lock_guard<std::mutex> lock(cancel_mutex_);
    cancel_requested_.insert(id);
  }
  // Atomic in the store: a queued job dies right here; anything already
  // claimed is cancelled cooperatively by the flag above.
  const JobRecord rec = store_.cancel_if_queued(id);
  if (is_terminal(rec.state)) {
    {
      const std::lock_guard<std::mutex> lock(cancel_mutex_);
      cancel_requested_.erase(id);
    }
    close_subscribers(id);
  }
  return rec;
}

bool JobScheduler::cancel_requested(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(cancel_mutex_);
  return cancel_requested_.count(id) != 0;
}

bool JobScheduler::stall_requested(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(cancel_mutex_);
  return stall_requested_.count(id) != 0;
}

void JobScheduler::stamp_progress(const std::string& id) {
  const std::lock_guard<std::mutex> lock(obs_mutex_);
  progress_ns_[id] = obs::steady_now_ns();
}

void JobScheduler::watchdog_loop() {
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(options_.stall_timeout_ms) * 1000000ull;
  // Scan a few times per deadline so detection latency stays a fraction
  // of the timeout itself.
  const auto interval =
      std::chrono::milliseconds(std::max(options_.stall_timeout_ms / 4, 10));
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (!stopping_.load()) {
    watchdog_wake_.wait_for(lock, interval);
    if (stopping_.load()) return;
    const std::uint64_t now = obs::steady_now_ns();
    std::vector<std::string> stalled;
    {
      const std::lock_guard<std::mutex> obs_lock(obs_mutex_);
      for (const auto& [id, stamp] : progress_ns_)
        if (now - stamp > deadline_ns) stalled.push_back(id);
    }
    // The flag is advisory: the executor notices it at its next
    // cancelled() poll and run_job translates the yield into a re-queue
    // (counted there, where it actually happens).
    const std::lock_guard<std::mutex> cancel_lock(cancel_mutex_);
    for (const std::string& id : stalled) stall_requested_.insert(id);
  }
}

util::Json JobScheduler::counters() const {
  std::size_t by_state[6] = {0, 0, 0, 0, 0, 0};
  for (const JobRecord& rec : store_.list())
    ++by_state[static_cast<int>(rec.state)];
  Json j = Json::object();
  j.set("queued", static_cast<std::uint64_t>(
                      by_state[static_cast<int>(JobState::queued)]));
  j.set("preparing", static_cast<std::uint64_t>(
                         by_state[static_cast<int>(JobState::preparing)]));
  j.set("running", static_cast<std::uint64_t>(
                       by_state[static_cast<int>(JobState::running)]));
  j.set("done", static_cast<std::uint64_t>(
                    by_state[static_cast<int>(JobState::done)]));
  j.set("error", static_cast<std::uint64_t>(
                     by_state[static_cast<int>(JobState::error)]));
  j.set("cancelled", static_cast<std::uint64_t>(
                         by_state[static_cast<int>(JobState::cancelled)]));
  return j;
}

void JobScheduler::worker_loop() {
  for (;;) {
    std::optional<JobRecord> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_ready_.wait(lock, [&] {
        if (stopping_.load()) return true;
        job = store_.claim_next();
        return job.has_value();
      });
      // A job claimed in the same instant the stop arrived stays
      // `preparing` on disk; the next start's recovery re-queues it.
      if (stopping_.load()) return;
    }
    if (job) run_job(std::move(*job));
  }
}

void JobScheduler::run_job(JobRecord job) {
  const std::string id = job.id;
  {
    const std::lock_guard<std::mutex> lock(obs_mutex_);
    const auto stamp = queued_at_ns_.find(id);
    if (stamp != queued_at_ns_.end()) {
      JobMetrics::get().queue_wait.record(obs::steady_now_ns() -
                                          stamp->second);
      queued_at_ns_.erase(stamp);
    }
  }
  if (cancel_requested(id)) {
    store_.set_state(id, JobState::cancelled);
    jobs_completed("cancelled").inc();
    {
      const std::lock_guard<std::mutex> lock(cancel_mutex_);
      cancel_requested_.erase(id);
    }
    close_subscribers(id);
    return;
  }

  exec::Request request;
  try {
    request = exec::Request::from_json(job.doc);
    request.threads = options_.threads;
    request.cache = cache_;
    request.indices = job.indices;
    request.validate();
  } catch (const std::exception& e) {
    // submit() validated this document once, but a recovered envelope
    // could have aged across schema changes — fail the job, not the pool.
    store_.set_state(id, JobState::error, e.what());
    jobs_completed("error").inc();
    close_subscribers(id);
    return;
  }

  // Crash point: a daemon dying between claiming a job and running it —
  // the envelope is `preparing`, which recovery re-queues.
  if (fault::armed()) fault::poll("scheduler.claim");

  store_.set_state(id, JobState::running);
  stamp_progress(id);

  CallbackObserver observer(
      [this, &id](const exec::CellEvent& event) {
        // Crash point: dying between a computed cell and its checkpoint —
        // the cell's artifact is already in the result cache, so the
        // recovered job replays it for free.
        if (fault::armed()) fault::poll("scheduler.checkpoint");
        // The per-cell checkpoint: persist first, then broadcast —
        // a subscriber snapshot can only ever lag the live stream, and
        // the attach-side index dedup absorbs the overlap.
        try {
          store_.record_cell(id, event.index, event.cached,
                             !event.result.met_target);
        } catch (const std::exception&) {
          // Observer contract: never throw from on_cell.
        }
        stamp_progress(id);
        JobMetrics::get().checkpoints.inc();
        broadcast(id, result_frame(event.index, event.cached,
                                   event.result.to_json()));
      },
      [this, &id] {
        return cancel_requested(id) || stall_requested(id) ||
               stopping_.load();
      });

  exec::LocalExecutor executor;
  const std::uint64_t run_start_ns = obs::steady_now_ns();
  bool requeued = false;
  try {
    executor.execute(request, &observer);
    store_.set_state(id, JobState::done);
    jobs_completed("done").inc();
  } catch (const exec::CancelledError&) {
    if (cancel_requested(id)) {
      store_.set_state(id, JobState::cancelled);
      jobs_completed("cancelled").inc();
    } else if (stall_requested(id)) {
      // The watchdog yanked a stalled job: back to `queued`, where any
      // worker (including this one) re-claims it.  Checkpointed cells
      // replay from the result cache, so only the stalled remainder
      // recomputes; live attach subscriptions survive the hand-off.
      store_.set_state(id, JobState::queued);
      JobMetrics::get().stall_requeues.inc();
      requeued = true;
    } else if (!stopping_.load()) {
      store_.set_state(id, JobState::cancelled);
      jobs_completed("cancelled").inc();
    }
    // else: daemon wind-down, not a user cancel — the envelope stays
    // `running` on disk so recovery re-queues the job on restart.
  } catch (const std::exception& e) {
    store_.set_state(id, JobState::error, e.what());
    jobs_completed("error").inc();
  }
  JobMetrics::get().run_seconds.record(obs::steady_now_ns() - run_start_ns);
  {
    const std::lock_guard<std::mutex> lock(obs_mutex_);
    progress_ns_.erase(id);
  }
  {
    const std::lock_guard<std::mutex> lock(cancel_mutex_);
    cancel_requested_.erase(id);
    stall_requested_.erase(id);
  }
  if (requeued) {
    queue_ready_.notify_one();
    return;  // subscribers stay attached across the re-run
  }
  close_subscribers(id);
}

void JobScheduler::broadcast(const std::string& id, const util::Json& frame) {
  std::vector<std::shared_ptr<Subscription>> targets;
  {
    const std::lock_guard<std::mutex> lock(sub_mutex_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return;
    targets = it->second;
  }
  for (const std::shared_ptr<Subscription>& sub : targets) {
    {
      const std::lock_guard<std::mutex> sub_lock(sub->mutex);
      if (sub->closed) continue;
      sub->frames.push_back(frame);
    }
    sub->ready.notify_all();
  }
}

void JobScheduler::close_subscribers(const std::string& id) {
  std::vector<std::shared_ptr<Subscription>> targets;
  {
    const std::lock_guard<std::mutex> lock(sub_mutex_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return;
    targets = std::move(it->second);
    subs_.erase(it);
  }
  for (const std::shared_ptr<Subscription>& sub : targets) {
    {
      const std::lock_guard<std::mutex> sub_lock(sub->mutex);
      sub->closed = true;
    }
    sub->ready.notify_all();
  }
}

void JobScheduler::remove_subscriber(
    const std::string& id, const std::shared_ptr<Subscription>& sub) {
  const std::lock_guard<std::mutex> lock(sub_mutex_);
  const auto it = subs_.find(id);
  if (it == subs_.end()) return;
  auto& subscribers = it->second;
  subscribers.erase(std::remove(subscribers.begin(), subscribers.end(), sub),
                    subscribers.end());
  if (subscribers.empty()) subs_.erase(it);
}

JobRecord JobScheduler::attach(
    const std::string& id, const std::function<bool(const util::Json&)>& sink) {
  const std::optional<JobRecord> admitted = store_.get(id);
  if (!admitted) throw JobError("unknown job id \"" + id + "\"");

  // Subscribe *before* snapshotting progress: a cell checkpointed before
  // the snapshot replays from the cache, one checkpointed after arrives
  // on the subscription, and the overlap is deduplicated by index — no
  // interleaving can lose a cell.
  std::shared_ptr<Subscription> sub;
  if (!is_terminal(admitted->state)) {
    const std::lock_guard<std::mutex> lock(sub_mutex_);
    if (!stopping_.load()) {
      sub = std::make_shared<Subscription>();
      subs_[id].push_back(sub);
    }
  }

  std::optional<JobRecord> snapshot = store_.get(id);
  if (!snapshot) {  // pruned in the gap — treat like unknown
    if (sub != nullptr) remove_subscriber(id, sub);
    throw JobError("unknown job id \"" + id + "\"");
  }
  JobRecord rec = *snapshot;

  // Replay the checkpointed cells from the content-addressed cache.  The
  // artifacts are pure functions of the document, so a cache miss (e.g. a
  // memory-only daemon restarted) recomputes the exact same bytes — the
  // replayed stream is indistinguishable from the live one.
  std::vector<scenario::ScenarioSpec> specs;
  if (!rec.done_indices.empty()) specs = specs_of(rec);
  std::set<std::size_t> sent;
  for (const std::size_t index : rec.done_indices) {
    const scenario::ScenarioSpec& spec =
        rec.kind == "campaign" ? specs.at(index) : specs.at(0);
    const std::string key = cache::scenario_cache_key(spec);
    Json artifact;
    bool cached = true;
    if (std::optional<Json> hit = cache_->get(key)) {
      artifact = std::move(*hit);
    } else {
      const scenario::ScenarioResult result = scenario::run_scenario(
          spec, rec.kind == "campaign" ? 1 : options_.threads);
      artifact = result.to_json();
      cache_->put(key, artifact);
      cached = false;
    }
    sent.insert(index);
    if (!sink(result_frame(index, cached, std::move(artifact)))) {
      if (sub != nullptr) remove_subscriber(id, sub);
      return rec;
    }
  }

  // Terminal already (or scheduler stopping): the stream is complete.
  if (sub == nullptr) return rec;
  if (is_terminal(rec.state)) {
    remove_subscriber(id, sub);
    return rec;
  }

  // Live phase: drain the subscription until the worker closes it.
  for (;;) {
    Json frame;
    {
      std::unique_lock<std::mutex> lock(sub->mutex);
      sub->ready.wait(lock,
                      [&] { return sub->closed || !sub->frames.empty(); });
      if (sub->frames.empty()) break;  // closed and fully drained
      frame = std::move(sub->frames.front());
      sub->frames.pop_front();
    }
    const std::size_t index =
        static_cast<std::size_t>(frame.at("index").as_uint());
    if (!sent.insert(index).second) continue;  // replay overlap
    if (!sink(frame)) break;
  }
  remove_subscriber(id, sub);
  const std::optional<JobRecord> final_state = store_.get(id);
  return final_state ? *final_state : rec;
}

}  // namespace clktune::jobs
