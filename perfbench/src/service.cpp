// `service`: one `clktune serve` daemon, default serve options, an empty
// cache directory and an ephemeral port, driven closed-loop over loopback
// through serve::submit_raw.  The loop is closed because the daemon's real
// callers (fleet dispatchers, `clktune submit`) each wait for their reply.
//
// Set-up starts the daemon and solves a pool of documents; each round then
// replays the same seeded schedule of hit / compute / job / status
// requests, with compute and job documents that no round has sent before.
// Latencies are exact per-request timings; the daemon's own view comes
// from its `metrics` verb, read before and after the measured phase.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "host.h"
#include "load/workload.h"
#include "scenario/scenario.h"
#include "schedule.h"
#include "serve/client.h"
#include "stats.h"

namespace perfbench {
namespace {

using clktune::util::Json;

/// Documents solved during set-up; `hit` requests repeat them.
constexpr std::size_t kPoolSize = 64;
/// Requests per round (400 hits, 200 computes, 100 jobs, 200 status
/// probes).  Percentiles pool every round's samples.
constexpr std::size_t kRequestsPerRound = 900;
constexpr int kSetups = 3;
/// Three rounds hold 1200 hits: twelve beyond the hit p99.
constexpr int kMinRounds = 3;
/// Every this-many-th compute and job artifact is re-derived in process.
constexpr std::uint64_t kCheckStride = 24;
constexpr const char* kHost = "127.0.0.1";

clktune::serve::SubmitOptions timeouts() {
  clktune::serve::SubmitOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 30000;
  return options;
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

/// A `clktune serve` child process.  The destructor shuts it down and
/// reaps it, on error paths too.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& dir) {
    std::filesystem::create_directories(dir + "/cache");
    const std::string out = dir + "/daemon.out";
    const std::string cache_dir = dir + "/cache";
    std::vector<std::string> args = {binary,      "serve",     "--port",
                                     "0",         "--cache-dir", cache_dir,
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) fail_start(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      // Only async-signal-safe calls until exec.  The daemon dies with the
      // harness, so a killed run leaves no server behind.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(127);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    // The daemon prints "clktune: serving on 127.0.0.1:<port>" once bound.
    const std::string marker = "serving on 127.0.0.1:";
    const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
    while (port_ == 0) {
      std::ifstream in(out);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const std::size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos)
        port_ = static_cast<std::uint16_t>(
            std::stoul(text.substr(at + marker.size())));
      else if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        fail_start("daemon exited before serving");
      } else if (now_ns() > deadline) {
        fail_start("daemon did not come up");
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Asks the daemon to shut down, then reaps it (SIGKILL after 5 s).
  void stop() {
    if (pid_ <= 0) return;
    if (port_ != 0) {
      try {
        Json wire = Json::object();
        wire.set("cmd", "shutdown");
        clktune::serve::submit_raw(kHost, port_, wire, {}, timeouts());
      } catch (const std::exception&) {
        // Already gone or wedged: the kill below handles both.
      }
    }
    const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  /// A throwing constructor runs no destructor: reap the child here.
  [[noreturn]] void fail_start(const std::string& why) {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    throw std::runtime_error(why);
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Counters and histogram (sum, count) pairs from the `metrics` verb.
struct ServerMetrics {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;

  double counter(const std::string& id) const {
    const auto it = counters.find(id);
    return it == counters.end() ? 0.0 : it->second;
  }
  std::pair<double, double> histogram(const std::string& id) const {
    const auto it = histograms.find(id);
    return it == histograms.end() ? std::pair<double, double>{0.0, 0.0}
                                  : it->second;
  }
};

ServerMetrics fetch_metrics(std::uint16_t port) {
  Json wire = Json::object();
  wire.set("cmd", "metrics");
  const clktune::serve::SubmitOutcome outcome =
      clktune::serve::submit_raw(kHost, port, wire, {}, timeouts());
  const Json* event = outcome.final_event.find("event");
  if (event == nullptr || event->as_string() != "metrics")
    throw std::runtime_error("metrics verb failed");
  const Json& metrics = outcome.final_event.at("metrics");
  ServerMetrics out;
  for (const auto& [id, value] : metrics.at("counters").as_object())
    out.counters[id] = value.as_double();
  for (const auto& [id, value] : metrics.at("histograms").as_object())
    out.histograms[id] = {value.at("sum").as_double(),
                          value.at("count").as_double()};
  return out;
}

double counter_delta(const ServerMetrics& before, const ServerMetrics& after,
                     const std::string& id) {
  return after.counter(id) - before.counter(id);
}

/// Mean of a seconds histogram over the interval, in milliseconds.
double mean_ms_delta(const ServerMetrics& before, const ServerMetrics& after,
                     const std::string& id) {
  const auto [sum0, count0] = before.histogram(id);
  const auto [sum1, count1] = after.histogram(id);
  return count1 > count0 ? 1e3 * (sum1 - sum0) / (count1 - count0) : 0.0;
}

std::string verb_histogram(const char* verb) {
  return std::string("clktune_serve_request_seconds{verb=\"") + verb + "\"}";
}

/// A reply that must match an in-process run of its document.
struct Checked {
  std::uint64_t doc_index = 0;
  std::string artifact;
};

struct Sample {
  RequestKind kind = RequestKind::status;
  double ms = 0.0;
  bool ok = false;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<Checked> checked;
  std::vector<std::string> errors;
  SpanRecorder spans;
  double busy_ms = 0.0;  ///< time inside requests
};

/// The one artifact of a successful run/attach stream, or "" on failure.
std::string single_artifact(const clktune::serve::SubmitOutcome& outcome) {
  if (!outcome.ok() || outcome.results.size() != 1) return "";
  return outcome.results.front().dump();
}

class Documents {
 public:
  explicit Documents(std::uint64_t seed)
      : base_(clktune::load::default_base_scenario()),
        fresh_offset_((derive_seed(seed, 4) % 100000 + 1) * 100000) {}

  /// Document `index`.  The pool (indices below kPoolSize) is the same for
  /// every seed, so set-up work and the pool's figures do not vary with
  /// it; fresh documents (kPoolSize on) are seeded variants.
  Json doc(std::uint64_t index) const {
    return clktune::load::fresh_scenario(
        base_, index < kPoolSize ? index : fresh_offset_ + index);
  }
  std::uint64_t fresh_offset() const { return fresh_offset_; }

 private:
  Json base_;
  std::uint64_t fresh_offset_;
};

Json run_wire(const Json& doc) {
  Json wire = Json::object();
  wire.set("cmd", "run");
  wire.set("doc", doc);
  return wire;
}

/// Drops every terminal job the daemon retains.
bool prune_jobs(std::uint16_t port) {
  Json wire = Json::object();
  wire.set("cmd", "prune");
  wire.set("keep", 0);
  try {
    const Json* event = clktune::serve::submit_raw(kHost, port, wire, {},
                                                   timeouts())
                            .final_event.find("event");
    return event != nullptr && event->as_string() == "pruned";
  } catch (const std::exception&) {
    return false;
  }
}

/// Solves the pool on a fresh daemon; returns each document's artifact.
std::vector<std::string> solve_pool(std::uint16_t port, const Documents& docs,
                                    int clients) {
  std::vector<std::string> artifacts(kPoolSize);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < kPoolSize; i = next++) {
        try {
          artifacts[i] = single_artifact(clktune::serve::submit_raw(
              kHost, port, run_wire(docs.doc(i)), {}, timeouts()));
        } catch (const std::exception&) {
          artifacts[i].clear();
        }
      }
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kPoolSize; ++i)
    if (artifacts[i].empty())
      throw std::runtime_error("pool document " + std::to_string(i) +
                               " failed during set-up");
  return artifacts;
}

struct Round {
  const std::vector<ScheduledRequest>* schedule = nullptr;
  std::uint64_t fresh_base = 0;  ///< document index of fresh ordinal 0
  bool traced = false;
};

/// One client's share of a round: pulls schedule entries until none are
/// left, each request waiting for the previous reply (closed loop).
void client_loop(std::uint16_t port, const Documents& docs,
                 const std::vector<std::string>& pool, const Round& round,
                 std::atomic<std::size_t>& next, ClientLog& log) {
  using clktune::serve::submit_raw;
  const std::vector<ScheduledRequest>& schedule = *round.schedule;
  for (std::size_t i = next++; i < schedule.size(); i = next++) {
    const ScheduledRequest& request = schedule[i];
    Sample sample;
    sample.kind = request.kind;
    const std::uint64_t doc_index =
        request.kind == RequestKind::hit ? request.doc
                                         : round.fresh_base + request.doc;
    const bool check = request.kind != RequestKind::hit &&
                       request.kind != RequestKind::status &&
                       doc_index % kCheckStride == 0;
    std::string artifact;
    std::string error;
    // Request lines are built before the clock starts: the client's own
    // JSON work is not the daemon's latency.
    Json wire = Json::object();
    switch (request.kind) {
      case RequestKind::hit:
      case RequestKind::compute:
        wire = run_wire(docs.doc(doc_index));
        break;
      case RequestKind::job:
        wire.set("cmd", "submit");
        wire.set("doc", docs.doc(doc_index));
        break;
      case RequestKind::status:
        wire.set("cmd", "status");
        break;
    }
    const std::uint64_t start = now_ns();
    const int span = log.spans.begin(std::string("client.") +
                                      kind_name(request.kind));
    try {
      if (request.kind == RequestKind::status) {
        const Json* event =
            submit_raw(kHost, port, wire, {}, timeouts()).final_event.find(
                "event");
        if (event == nullptr || event->as_string() != "status")
          error = "status reply not a status frame";
      } else if (request.kind == RequestKind::job) {
        const int submit_span = log.spans.begin("client.submit");
        const clktune::serve::SubmitOutcome queued =
            submit_raw(kHost, port, wire, {}, timeouts());
        log.spans.end(submit_span);
        const Json* event = queued.final_event.find("event");
        if (event == nullptr || event->as_string() != "job") {
          error = "submit reply not a job frame";
        } else {
          Json attach = Json::object();
          attach.set("cmd", "attach");
          attach.set("id", queued.final_event.at("id").as_string());
          const int attach_span = log.spans.begin("client.attach");
          artifact = single_artifact(
              submit_raw(kHost, port, attach, {}, timeouts()));
          log.spans.end(attach_span);
          if (artifact.empty()) error = "attach stream not a successful done";
        }
      } else {
        artifact = single_artifact(submit_raw(kHost, port, wire, {},
                                              timeouts()));
        if (artifact.empty()) error = "run reply not a successful done";
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    log.spans.end(span);
    sample.ms = ms_since(start);
    log.busy_ms += sample.ms;
    if (error.empty() && request.kind == RequestKind::hit &&
        artifact != pool[request.doc])
      error = "hit artifact differs from the pool's";
    sample.ok = error.empty();
    if (!sample.ok)
      log.errors.push_back(std::string(kind_name(request.kind)) + " doc " +
                           std::to_string(doc_index) + ": " + error);
    else if (check)
      log.checked.push_back({doc_index, std::move(artifact)});
    log.samples.push_back(sample);
  }
}

}  // namespace

RunResult run_service(const RunOptions& options) {
  const CpuTimes cpu_start = read_cpu_times();
  const std::uint64_t timewait = timewait_sockets();
  const double calibration = calibration_ms(options.threads);
  const int clients = std::clamp(options.threads, 1, 4);
  const Documents docs(options.seed);
  const std::vector<ScheduledRequest> schedule = make_service_schedule(
      derive_seed(options.seed, 5), kRequestsPerRound, kPoolSize);
  const std::uint64_t fresh_per_round = fresh_documents(schedule);

  RunResult result;
  result.provenance.set("clients", static_cast<std::uint64_t>(clients));
  result.provenance.set("pool", static_cast<std::uint64_t>(kPoolSize));
  result.provenance.set("requests_per_round",
                        static_cast<std::uint64_t>(kRequestsPerRound));
  {
    Json mix = Json::object();
    for (std::size_t k = 0; k < kRequestKinds; ++k)
      mix.set(kind_name(static_cast<RequestKind>(k)),
              static_cast<std::uint64_t>(kMix[k]));
    result.provenance.set("mix", std::move(mix));
  }
  result.provenance.set("loop", "closed");
  result.provenance.set("fresh_offset", docs.fresh_offset());

  // ---- set-up, repeated: each repetition is a fresh daemon (own port, own
  // empty cache directory) solving the pool; the last one is measured.
  const std::string run_dir =
      options.work_dir + "/service-" + std::to_string(getpid());
  std::filesystem::remove_all(run_dir);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> pool;
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) daemon->stop();
    daemon.reset();
    const std::string dir = run_dir + "/setup-" + std::to_string(s);
    const std::uint64_t start = now_ns();
    daemon = std::make_unique<Daemon>(options.clktune_path, dir);
    pool = solve_pool(daemon->port(), docs, clients);
    setup_s.push_back(ms_since(start) * 1e-3);
  }
  const std::uint16_t port = daemon->port();
  result.provenance.set("port", static_cast<std::uint64_t>(port));

  // ---- measured rounds.
  const ServerMetrics before = fetch_metrics(port);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  std::vector<double> untraced_s, traced_s, all_s, unattributed_s;
  std::array<std::vector<double>, kRequestKinds> latency_ms;
  std::vector<Checked> checked;
  for (int r = 0;; ++r) {
    Round round;
    round.schedule = &schedule;
    round.fresh_base = kPoolSize + static_cast<std::uint64_t>(r) * fresh_per_round;
    round.traced = options.trace && r % 2 == 1;
    std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      logs[static_cast<std::size_t>(c)].spans = SpanRecorder(round.traced, c);
    std::atomic<std::size_t> next{0};
    const std::uint64_t start = now_ns();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c)
        threads.emplace_back(client_loop, port, std::cref(docs),
                             std::cref(pool), std::cref(round),
                             std::ref(next),
                             std::ref(logs[static_cast<std::size_t>(c)]));
      for (std::thread& t : threads) t.join();
    }
    const double makespan = ms_since(start) * 1e-3;
    all_s.push_back(makespan);
    (round.traced ? traced_s : untraced_s).push_back(makespan);
    double idle = 0.0;
    for (ClientLog& log : logs) {
      for (const Sample& sample : log.samples) {
        ++result.attempted;
        if (!sample.ok) ++result.failed;
        latency_ms[static_cast<std::size_t>(sample.kind)].push_back(sample.ms);
      }
      for (std::string& error : log.errors) result.fail(std::move(error));
      for (Checked& c : log.checked) checked.push_back(std::move(c));
      idle += makespan - log.busy_ms * 1e-3;
      if (round.traced) result.spans.append(log.spans);
    }
    if (round.traced) unattributed_s.push_back(idle / clients);
    // Every round starts from the same daemon state: a status frame counts
    // every retained job, so earlier rounds' jobs would slow later rounds.
    if (!prune_jobs(port)) result.fail("prune between rounds failed");

    const bool enough = r + 1 >= kMinRounds;
    if (enough && now_ns() + static_cast<std::uint64_t>(median(all_s) * 1e9) >
                      deadline)
      break;
  }
  const ServerMetrics after = fetch_metrics(port);
  const double daemon_rss = peak_rss_mb(daemon->pid());
  const double steal = steal_pct(cpu_start, read_cpu_times());
  daemon->stop();
  daemon.reset();
  std::filesystem::remove_all(run_dir);

  // ---- outside the timed phase: artifacts against in-process runs.
  std::uint64_t buffers = 0;
  double gain_pp = 0.0;
  const auto reference = [&](std::uint64_t doc_index) {
    return clktune::scenario::run_scenario(
        clktune::scenario::ScenarioSpec::from_json(docs.doc(doc_index)),
        options.threads);
  };
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const clktune::scenario::ScenarioResult res = reference(i);
    if (res.to_json().dump() != pool[i])
      result.fail("pool document " + std::to_string(i) +
                  " differs from its in-process run");
    buffers += static_cast<std::uint64_t>(res.insertion.plan.physical_buffers());
    gain_pp += 100.0 * res.yield.improvement();
  }
  for (const Checked& c : checked)
    if (reference(c.doc_index).to_json().dump() != c.artifact) {
      ++result.failed;
      result.fail("document " + std::to_string(c.doc_index) +
                  " differs from its in-process run");
    }

  const std::size_t rounds = all_s.size();
  result.provenance.set("setup_s", json_array(setup_s));
  result.provenance.set("round_s", json_array(all_s));
  result.provenance.set("rounds", static_cast<std::uint64_t>(rounds));
  result.provenance.set("requests",
                        static_cast<std::uint64_t>(result.attempted));
  result.provenance.set("checked_artifacts",
                        static_cast<std::uint64_t>(checked.size() + kPoolSize));

  result.e2e("flow_s", median(untraced_s), "s", untraced_s.size());
  result.e2e("setup_s", median(setup_s), "s", setup_s.size());
  result.e2e("peak_rss_mb", daemon_rss, "MiB", 1);
  result.e2e("success_rate",
             static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "ratio", result.attempted);
  result.e2e("yield_gain_pct", gain_pp / static_cast<double>(kPoolSize), "pp",
             kPoolSize);
  result.e2e("buffers", static_cast<double>(buffers), "count", kPoolSize);

  // Exact percentiles per request class, pooled over every round.
  struct Wanted {
    RequestKind kind;
    unsigned percent;
  };
  const Wanted wanted[] = {
      {RequestKind::hit, 50},     {RequestKind::hit, 99},
      {RequestKind::compute, 50}, {RequestKind::compute, 90},
      {RequestKind::job, 50},     {RequestKind::job, 90},
      {RequestKind::status, 50},  {RequestKind::status, 90}};
  for (const Wanted& w : wanted) {
    const std::string name = std::string("serve.") + kind_name(w.kind) +
                             "_p" + std::to_string(w.percent) + "_ms";
    const std::vector<double>& series =
        latency_ms[static_cast<std::size_t>(w.kind)];
    try {
      const Percentile p = rank_percentile(series, w.percent, name);
      result.layer(name, p.value, "ms", p.samples);
    } catch (const TooFewSamples& e) {
      result.fail(e.what());
      result.layer(name, 0.0, "ms", series.size());
    }
  }

  // Counts are per round, so runs that fit a different number of rounds
  // compare like for like.
  const auto per_round = [&](const char* id) {
    return counter_delta(before, after, id) / static_cast<double>(rounds);
  };
  const double status_client_ms = [&] {
    const std::vector<double>& s =
        latency_ms[static_cast<std::size_t>(RequestKind::status)];
    double sum = 0.0;
    for (double v : s) sum += v;
    return s.empty() ? 0.0 : sum / static_cast<double>(s.size());
  }();
  const double status_server_ms =
      mean_ms_delta(before, after, verb_histogram("status"));
  const std::size_t n = result.attempted;
  result.layer("serve.run_server_ms",
               mean_ms_delta(before, after, verb_histogram("run")), "ms", n);
  result.layer("serve.status_server_ms", status_server_ms, "ms", n);
  result.layer("serve.submit_server_ms",
               mean_ms_delta(before, after, verb_histogram("submit")), "ms",
               n);
  result.layer("serve.attach_server_ms",
               mean_ms_delta(before, after, verb_histogram("attach")), "ms",
               n);
  result.layer("serve.status_wait_ms", status_client_ms - status_server_ms,
               "ms", n);
  const double hits = per_round("clktune_cache_hits_total");
  const double misses = per_round("clktune_cache_misses_total");
  result.layer("cache.hits", hits, "count", n);
  result.layer("cache.misses", misses, "count", n);
  result.layer("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio", n);
  result.layer("cache.evictions", per_round("clktune_cache_evictions_total"),
               "count", n);
  result.layer("cache.disk_bytes_written",
               per_round("clktune_cache_disk_bytes_written_total"), "B", n);
  result.layer("exec.cells_computed",
               per_round("clktune_exec_cells_computed_total"), "count", n);
  result.layer("exec.cell_ms",
               mean_ms_delta(before, after, "clktune_exec_cell_seconds"), "ms",
               n);
  result.layer("mc.samples", per_round("clktune_mc_samples_total"), "count",
               n);
  result.layer("jobs.queue_wait_ms",
               mean_ms_delta(before, after, "clktune_jobs_queue_wait_seconds"),
               "ms", n);
  result.layer("jobs.run_ms",
               mean_ms_delta(before, after, "clktune_jobs_run_seconds"), "ms",
               n);
  result.layer("jobs.checkpoints", per_round("clktune_jobs_checkpoints_total"),
               "count", n);
  result.layer("serve.connections",
               per_round("clktune_serve_connections_total"), "count", n);
  result.layer("serve.busy_rejections",
               per_round("clktune_serve_busy_rejections_total"), "count", n);

  // Every fresh document misses the cache exactly once.
  if (misses != static_cast<double>(fresh_per_round))
    result.fail("cache.misses per round = " + std::to_string(misses) +
                ", expected " + std::to_string(fresh_per_round));

  const std::size_t ntraced = traced_s.size();
  result.layer("bench.unattributed_s", median(unattributed_s), "s", ntraced);
  const double untraced = median(untraced_s);
  result.layer("bench.trace_overhead_pct",
               untraced > 0.0 && ntraced > 0
                   ? 100.0 * (median(traced_s) - untraced) / untraced
                   : 0.0,
               "%", ntraced);
  result.layer("host.steal_pct", steal, "%", 1);
  result.layer("host.timewait_sockets", static_cast<double>(timewait),
               "count", 1);
  result.layer("host.calibration_ms", calibration, "ms", 1);
  return result;
}

}  // namespace perfbench
