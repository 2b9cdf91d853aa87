// clktune — command-line driver for the scenario / campaign pipeline.
//
//   clktune run <scenario.json>        run one scenario, write an artifact
//   clktune sweep <campaign.json>      expand + run a parameter sweep
//   clktune report <result.json>       render a saved artifact as a table
//   clktune report --diff <a> <b>      compare two artifacts cell by cell
//   clktune report --merge <s...>      merge partial summaries into one
//   clktune serve                      long-running scenario service (TCP)
//   clktune submit <doc.json>          send a document to a running server
//   clktune fanout <doc.json>          fan a campaign out over a daemon
//                                      pool, work-stealing with requeue
//   clktune job status|attach|cancel <id>   inspect / stream / stop an
//                                      async job on a running server
//   clktune job list                   every job the server knows
//   clktune job prune [--keep N]       drop terminal job envelopes
//   clktune drain                      ask a server to drain and exit
//   clktune cache stats|gc|verify      maintain an on-disk result cache
//   clktune metrics [--prom]           fetch a running server's metrics
//                                      snapshot (JSON, or Prometheus text)
//   clktune fleet status               probe a daemon pool and render one
//                                      health/metrics table
//
// Every command that yields results is a thin composition over the
// clktune::exec layer: build an exec::Request from the document, pick an
// Executor (local for run and sweep, remote for submit, fleet::FleetExecutor
// for fanout), attach an exec::Observer for progress lines, and print the
// Outcome's artifact.  `job attach` is RemoteExecutor::attach with the same
// observer and artifact, so submit, a detached job and sweep print the same
// bytes for the same document and selection.  docs/exec_api.md describes
// the API; docs/fleet.md the fanout flow.
//
// Common options:
//   -o, --output <path>   write the JSON artifact here (default: stdout)
//   -t, --threads <n>     parallel chunks (default: hardware concurrency)
//       --cache-dir <dir> content-addressed result cache (run/sweep/serve);
//                         repeated invocations skip already-solved cells
//       --shard <i/n>     sweep/submit: sugar for the index list i, i+n,
//                         i+2n, ... (submit, also with --detach: sent as
//                         the daemon's "indices" selection)
//       --progress        run/sweep/submit: per-cell NDJSON progress
//                         lines on stderr (replaces the human lines)
//       --tolerance <y>   --diff: allowed tuned-yield drop (default 0.005)
//       --host <h>        submit/job: server host (default 127.0.0.1)
//       --detach          submit: enqueue as a durable async job and print
//                         its descriptor instead of waiting for results;
//                         follow up with `clktune job attach <id>`
//       --daemons <l>     fanout: comma-separated host:port pool
//       --fleet <f.json>  fanout: JSON fleet file (daemons + weights);
//                         combines with --daemons
//       --retries <n>     fanout: re-dispatches per work unit (default 3)
//       --unit <n>        fanout: expansion cells per work unit (default 1)
//       --reprobe <ms>    fanout: re-probe retired daemons this often so
//                         restarted ones rejoin (default 1000; 0 = never)
//       --connect-timeout <ms>  submit/fanout: daemon connect deadline
//                         (default 5000; 0 blocks forever)
//       --io-timeout <ms> submit/fanout: response-stream stall deadline
//                         (default 0 = none; must exceed the slowest cell)
//       --max-bytes <n>   cache gc: evict oldest entries beyond this size
//       --trace <file>    run/sweep: write Chrome-trace-event NDJSON spans
//                         (chrome://tracing / Perfetto; expand, per-cell,
//                         per-step) to <file>
//       --prom            metrics: Prometheus text exposition instead of
//                         the JSON snapshot
//       --json            cache stats: include process-local registry
//                         counters; fleet status: JSON instead of a table
//   -p, --port <n>        serve/submit: TCP port (default 20160; serve: 0
//                         picks an ephemeral port and prints it)
//       --timings         include wall-clock fields (artifact is then no
//                         longer bit-identical across runs)
//       --compact         single-line JSON instead of pretty-printed
//       --quiet           suppress progress lines on stderr
//
// Exit codes: 0 success, 1 usage error, 2 bad input file / structural diff
// mismatch / merge rejection, 3 a scenario missed its yield target or a
// diff cell regressed.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/maintenance.h"
#include "cache/result_cache.h"
#include "core/report.h"
#include "exec/local_executor.h"
#include "fleet/fleet_executor.h"
#include "fleet/fleet_spec.h"
#include "exec/merge.h"
#include "exec/observer.h"
#include "exec/remote_executor.h"
#include "exec/request.h"
#include "fault/fault.h"
#include "fleet/fleet_status.h"
#include "load/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "scenario/summary_diff.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace {

using clktune::util::Json;

/// Default service port (after the paper's DATE 2016 venue).
constexpr std::uint16_t kDefaultPort = 20160;

struct Options {
  std::string command;
  std::vector<std::string> inputs;  ///< positional arguments after command
  std::string output;
  std::string cache_dir;
  std::string host = "127.0.0.1";
  std::string daemons;     ///< fanout: comma-separated host:port list
  std::string fleet_file;  ///< fanout: JSON fleet file
  int port = -1;  ///< -1 = command default
  int threads = 0;
  std::size_t shard_index = 0;  ///< --shard i/n; n == 1 runs every cell
  std::size_t shard_count = 1;
  std::size_t retries = 3;
  std::size_t unit_cells = 1;
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 0;
  int reprobe_interval_ms = 1000;  ///< fanout re-probe period (0 = never)
  std::uint64_t max_bytes = 0;
  bool max_bytes_set = false;
  double tolerance = 0.005;
  bool diff = false;
  bool merge = false;
  bool detach = false;
  bool progress = false;
  bool timings = false;
  bool compact = false;
  bool quiet = false;
  bool prom = false;       ///< metrics: Prometheus text exposition
  bool json = false;       ///< cache stats / fleet status: JSON output
  std::string trace_file;  ///< run/sweep: Chrome-trace NDJSON span file
  std::string fault_plan;  ///< fault-injection plan (inline JSON or path)
  std::size_t keep = 0;           ///< job prune: terminal envelopes kept
  int stall_timeout_ms = 0;       ///< serve: stuck-job watchdog (0 = off)
  int drain_grace_ms = 5000;      ///< serve: graceful-drain grace window
  // bench load
  std::string connect;            ///< target daemons, host:port[,...]
  std::string mix_spec;           ///< workload mix, inline JSON or a file
  std::string base_file;          ///< base scenario document
  std::size_t clients = 4;
  std::uint64_t requests = 0;
  std::uint64_t seed = 20160;
  double duration_seconds = 0.0;
  double rate = 0.0;
  double max_error_rate = 1.0;
  double xcheck_overhead = 0.0;   ///< 0 = library default
  bool no_xcheck = false;
};

void print_usage(std::FILE* to) {
  std::fputs(
      "usage: clktune <command> [args] [options]\n"
      "\n"
      "commands:\n"
      "  run <scenario.json>     execute one scenario (kind: yield,\n"
      "                          criticality or binning; docs/scenarios.md)\n"
      "  sweep <campaign.json>   expand and execute a parameter sweep\n"
      "  report <result.json>    print a saved result artifact as a table\n"
      "  report --diff <a> <b>   compare two artifacts, flag regressions\n"
      "  report --merge <s...>   merge disjoint partial summaries into one\n"
      "  serve                   run the scenario service (TCP, NDJSON)\n"
      "  submit <doc.json>       send a scenario/campaign to a server\n"
      "  fanout <doc.json>       work-stealing dispatch over a daemon pool\n"
      "  job status <id>         one lifecycle/progress frame for a job\n"
      "  job attach <id>         stream a job's results (replay or live)\n"
      "  job cancel <id>         cancel a queued or running job\n"
      "  job list                every job the server knows\n"
      "  job prune [--keep <n>]  drop terminal job envelopes beyond n\n"
      "  drain                   ask a server to drain gracefully and exit\n"
      "  cache stats|gc|verify   maintain an on-disk result cache\n"
      "  metrics                 fetch a running server's metrics snapshot\n"
      "  fleet status            probe a daemon pool, render a health table\n"
      "  bench load              closed-loop load generation against a\n"
      "                          daemon or fleet; writes BENCH_load.json\n"
      "\n"
      "options:\n"
      "  -o, --output <path>     write the JSON artifact to <path>\n"
      "  -t, --threads <n>       parallel chunks (0 = hardware concurrency)\n"
      "      --cache-dir <dir>   enable the content-addressed result cache\n"
      "      --shard <i/n>       sweep/submit: run indices i, i+n, i+2n, ...\n"
      "      --progress          per-cell NDJSON progress lines on stderr\n"
      "      --tolerance <y>     allowed tuned-yield drop for --diff\n"
      "      --host <h>          server host for submit/job\n"
      "      --detach            submit: enqueue as an async job, print id\n"
      "      --daemons <list>    fanout pool as host:port,host:port,...\n"
      "      --fleet <f.json>    fanout pool from a JSON fleet file\n"
      "      --retries <n>       fanout re-dispatches per unit (default 3)\n"
      "      --unit <n>          fanout cells per work unit (default 1)\n"
      "      --reprobe <ms>      fanout daemon re-probe period (0 = never)\n"
      "      --connect-timeout <ms>  daemon connect deadline (default 5000)\n"
      "      --io-timeout <ms>   response stall deadline (default 0 = none)\n"
      "      --max-bytes <n>     cache gc size cap in bytes\n"
      "      --trace <file>      run/sweep: Chrome-trace NDJSON spans\n"
      "      --keep <n>          job prune: terminal envelopes kept\n"
      "      --stall-timeout <ms>  serve: re-queue jobs with no checkpoint\n"
      "                          progress for this long (default 0 = off)\n"
      "      --drain-grace <ms>  serve: drain wait for in-flight work\n"
      "                          before hard wind-down (default 5000)\n"
      "      --fault-plan <p>    arm the deterministic fault-injection\n"
      "                          registry: inline JSON or a plan file\n"
      "                          (docs/robustness.md; also via the\n"
      "                          CLKTUNE_FAULT_PLAN environment variable)\n"
      "      --connect <list>    bench load: target daemons host:port,...\n"
      "      --clients <n>       bench load: concurrent clients (default 4)\n"
      "      --duration <s>      bench load: run this long (default 5)\n"
      "      --requests <n>      bench load: fixed operation budget instead\n"
      "      --rate <rps>        bench load: open-loop arrivals per second\n"
      "                          (default closed loop)\n"
      "      --seed <n>          bench load: schedule seed (default 20160)\n"
      "      --mix <m>           bench load: workload mix weights, inline\n"
      "                          JSON or a file (docs/load.md)\n"
      "      --base <doc.json>   bench load: base scenario document\n"
      "      --max-error-rate <r>  bench load: fail (exit 3) above this\n"
      "      --no-xcheck         bench load: skip the client/server\n"
      "                          histogram cross-check\n"
      "      --xcheck-overhead <f>  bench load: allowed client/server\n"
      "                          latency overhead factor (default 16)\n"
      "      --prom              metrics: Prometheus text exposition\n"
      "      --json              cache stats: add registry counters;\n"
      "                          fleet status: JSON instead of a table\n"
      "  -p, --port <n>          server port (default 20160)\n"
      "      --timings           include wall-clock fields in artifacts\n"
      "      --compact           single-line JSON output\n"
      "      --quiet             no progress lines on stderr\n",
      to);
}

/// Strict deadline parse: a half-parsed "10s" must not silently become
/// 10 ms, nor "abc" become 0 — which this CLI defines as "no deadline".
bool parse_timeout_ms(const char* text, int& out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 86400000)
    return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_shard(const std::string& text, Options& opt) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    return false;
  char* end = nullptr;
  const unsigned long i = std::strtoul(text.c_str(), &end, 10);
  if (end != text.c_str() + slash) return false;
  const unsigned long n = std::strtoul(text.c_str() + slash + 1, &end, 10);
  if (*end != '\0' || n == 0 || i >= n) return false;
  opt.shard_index = i;
  opt.shard_count = n;
  return true;
}

/// `--shard i/n` is sugar for the index list i, i+n, i+2n, ... below the
/// campaign's expansion size; a scenario document has nothing to split.
void apply_shard(const Options& opt, clktune::exec::Request& request) {
  if (opt.shard_count == 1) return;
  if (request.kind != clktune::exec::Request::Kind::campaign)
    throw clktune::exec::ExecError("--shard splits a campaign document,"
                                   " not a scenario");
  std::vector<std::size_t> indices;
  for (std::size_t i = opt.shard_index; i < request.expansion_size();
       i += opt.shard_count)
    indices.push_back(i);
  request.indices = std::move(indices);
}

int parse_options(int argc, char** argv, Options& opt) {
  if (argc < 2) {
    print_usage(stderr);
    return 1;
  }
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "-o" || arg == "--output") && i + 1 < argc) {
      opt.output = argv[++i];
    } else if ((arg == "-t" || arg == "--threads") && i + 1 < argc) {
      opt.threads = std::atoi(argv[++i]);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      opt.cache_dir = argv[++i];
    } else if (arg == "--shard" && i + 1 < argc) {
      if (!parse_shard(argv[++i], opt)) {
        std::fprintf(stderr, "clktune: --shard wants i/n with 0 <= i < n\n");
        return 1;
      }
    } else if (arg == "--tolerance" && i + 1 < argc) {
      opt.tolerance = std::atof(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      opt.host = argv[++i];
    } else if (arg == "--daemons" && i + 1 < argc) {
      opt.daemons = argv[++i];
    } else if (arg == "--fleet" && i + 1 < argc) {
      opt.fleet_file = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      const long retries = std::atol(argv[++i]);
      if (retries < 0) {
        // A negative cast to size_t would mean "retry forever" and
        // defeat the fleet's bounded-retry guarantee.
        std::fprintf(stderr, "clktune: --retries wants >= 0\n");
        return 1;
      }
      opt.retries = static_cast<std::size_t>(retries);
    } else if (arg == "--unit" && i + 1 < argc) {
      const long unit = std::atol(argv[++i]);
      if (unit <= 0) {
        std::fprintf(stderr, "clktune: --unit wants a positive cell count\n");
        return 1;
      }
      opt.unit_cells = static_cast<std::size_t>(unit);
    } else if (arg == "--connect-timeout" && i + 1 < argc) {
      if (!parse_timeout_ms(argv[++i], opt.connect_timeout_ms)) {
        std::fprintf(stderr,
                     "clktune: --connect-timeout wants milliseconds\n");
        return 1;
      }
    } else if (arg == "--io-timeout" && i + 1 < argc) {
      if (!parse_timeout_ms(argv[++i], opt.io_timeout_ms)) {
        std::fprintf(stderr, "clktune: --io-timeout wants milliseconds\n");
        return 1;
      }
    } else if (arg == "--reprobe" && i + 1 < argc) {
      if (!parse_timeout_ms(argv[++i], opt.reprobe_interval_ms)) {
        std::fprintf(stderr, "clktune: --reprobe wants milliseconds\n");
        return 1;
      }
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      // gc is destructive: a half-parsed "2GB" silently becoming 2 bytes
      // would wipe the cache, so the value must be a plain byte count.
      const char* text = argv[++i];
      char* end = nullptr;
      opt.max_bytes = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr,
                     "clktune: --max-bytes wants a plain byte count\n");
        return 1;
      }
      opt.max_bytes_set = true;
    } else if ((arg == "-p" || arg == "--port") && i + 1 < argc) {
      opt.port = std::atoi(argv[++i]);
      if (opt.port < 0 || opt.port > 65535) {
        std::fprintf(stderr, "clktune: --port wants 0..65535\n");
        return 1;
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      opt.trace_file = argv[++i];
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      opt.fault_plan = argv[++i];
    } else if (arg == "--keep" && i + 1 < argc) {
      const long keep = std::atol(argv[++i]);
      if (keep < 0) {
        std::fprintf(stderr, "clktune: --keep wants >= 0\n");
        return 1;
      }
      opt.keep = static_cast<std::size_t>(keep);
    } else if (arg == "--stall-timeout" && i + 1 < argc) {
      if (!parse_timeout_ms(argv[++i], opt.stall_timeout_ms)) {
        std::fprintf(stderr, "clktune: --stall-timeout wants milliseconds\n");
        return 1;
      }
    } else if (arg == "--drain-grace" && i + 1 < argc) {
      if (!parse_timeout_ms(argv[++i], opt.drain_grace_ms)) {
        std::fprintf(stderr, "clktune: --drain-grace wants milliseconds\n");
        return 1;
      }
    } else if (arg == "--connect" && i + 1 < argc) {
      opt.connect = argv[++i];
    } else if (arg == "--clients" && i + 1 < argc) {
      const long clients = std::atol(argv[++i]);
      if (clients <= 0) {
        std::fprintf(stderr, "clktune: --clients wants >= 1\n");
        return 1;
      }
      opt.clients = static_cast<std::size_t>(clients);
    } else if (arg == "--duration" && i + 1 < argc) {
      opt.duration_seconds = std::atof(argv[++i]);
      if (!(opt.duration_seconds > 0.0)) {
        std::fprintf(stderr, "clktune: --duration wants seconds > 0\n");
        return 1;
      }
    } else if (arg == "--requests" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      opt.requests = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || opt.requests == 0) {
        std::fprintf(stderr, "clktune: --requests wants a count >= 1\n");
        return 1;
      }
    } else if (arg == "--rate" && i + 1 < argc) {
      opt.rate = std::atof(argv[++i]);
      if (!(opt.rate > 0.0)) {
        std::fprintf(stderr, "clktune: --rate wants arrivals/second > 0\n");
        return 1;
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      opt.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "clktune: --seed wants an integer\n");
        return 1;
      }
    } else if (arg == "--mix" && i + 1 < argc) {
      opt.mix_spec = argv[++i];
    } else if (arg == "--base" && i + 1 < argc) {
      opt.base_file = argv[++i];
    } else if (arg == "--max-error-rate" && i + 1 < argc) {
      opt.max_error_rate = std::atof(argv[++i]);
      if (opt.max_error_rate < 0.0 || opt.max_error_rate > 1.0) {
        std::fprintf(stderr, "clktune: --max-error-rate wants 0..1\n");
        return 1;
      }
    } else if (arg == "--no-xcheck") {
      opt.no_xcheck = true;
    } else if (arg == "--xcheck-overhead" && i + 1 < argc) {
      opt.xcheck_overhead = std::atof(argv[++i]);
      if (!(opt.xcheck_overhead >= 1.0)) {
        std::fprintf(stderr, "clktune: --xcheck-overhead wants >= 1\n");
        return 1;
      }
    } else if (arg == "--prom") {
      opt.prom = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--diff") {
      opt.diff = true;
    } else if (arg == "--detach") {
      opt.detach = true;
    } else if (arg == "--merge") {
      opt.merge = true;
    } else if (arg == "--progress") {
      opt.progress = true;
    } else if (arg == "--timings") {
      opt.timings = true;
    } else if (arg == "--compact") {
      opt.compact = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "clktune: unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 1;
    } else {
      opt.inputs.push_back(arg);
    }
  }
  return 0;
}

/// Enforces the command's positional-argument count.
bool expect_inputs(const Options& opt, std::size_t count) {
  if (opt.inputs.size() == count) return true;
  std::fprintf(stderr, "clktune: %s expects %zu file argument%s\n",
               opt.command.c_str(), count, count == 1 ? "" : "s");
  print_usage(stderr);
  return false;
}

void emit(const Options& opt, const Json& artifact) {
  const int indent = opt.compact ? -1 : 2;
  if (opt.output.empty()) {
    const std::string text = artifact.dump(indent);
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    clktune::util::write_json_file(opt.output, artifact, indent);
    // --progress keeps stderr a pure NDJSON stream.
    if (!opt.quiet && !opt.progress)
      std::fprintf(stderr, "clktune: wrote %s\n", opt.output.c_str());
  }
}

std::unique_ptr<clktune::cache::ResultCache> make_cache(const Options& opt) {
  if (opt.cache_dir.empty()) return nullptr;
  return std::make_unique<clktune::cache::ResultCache>(opt.cache_dir);
}

/// Kind-aware one-line cell summary for human progress output ("yield
/// 61.20% -> 95.40%", "top-arc criticality ...", "12 bins ...").
std::string cell_summary(const clktune::scenario::ScenarioResult& result) {
  char buf[160];
  switch (result.kind) {
    case clktune::scenario::ScenarioKind::criticality: {
      const auto& arcs = result.criticality.arcs;
      std::snprintf(buf, sizeof(buf),
                    "top-arc criticality %.2f%% -> %.2f%% (%zu arcs ranked)",
                    arcs.empty() ? 0.0 : 100.0 * arcs.front().before,
                    arcs.empty() ? 0.0 : 100.0 * arcs.front().after,
                    arcs.size());
      break;
    }
    case clktune::scenario::ScenarioKind::binning:
      std::snprintf(buf, sizeof(buf),
                    "%zu bins  sell T=%.1f ps  unsellable %.2f%%",
                    result.binning.bins.size(),
                    result.binning.expected_sell_period_ps,
                    100.0 * result.binning.unsellable_fraction);
      break;
    case clktune::scenario::ScenarioKind::yield:
      std::snprintf(buf, sizeof(buf), "yield %.2f%% -> %.2f%%",
                    100.0 * result.yield.original.yield,
                    100.0 * result.yield.tuned.yield);
      break;
  }
  return buf;
}

/// Progress printer shared by run / sweep / submit / fanout / job attach:
/// human lines by default, machine-readable NDJSON with --progress,
/// nothing with --quiet.  Cells finish on worker threads; each line is a
/// single stdio call, so lines never interleave.
class CliObserver : public clktune::exec::Observer {
 public:
  explicit CliObserver(const Options& opt) : opt_(opt) {}

  void on_begin(std::size_t total_cells, std::size_t) override {
    total_ = total_cells;
  }

  void on_cell(const clktune::exec::CellEvent& event) override {
    if (opt_.quiet) return;
    if (opt_.progress) {
      Json line = Json::object();
      line.set("event", "cell");
      line.set("index", static_cast<std::uint64_t>(event.index));
      line.set("name", event.result.name);
      line.set("cached", event.cached);
      line.set("seconds", event.seconds);
      const std::string text = line.dump(-1) + "\n";
      std::fputs(text.c_str(), stderr);
      return;
    }
    std::fprintf(stderr, "clktune: [%zu/%zu] %s  %s%s\n", event.index + 1,
                 total_, event.result.name.c_str(),
                 cell_summary(event.result).c_str(),
                 event.cached ? "  (cached)" : "");
  }

 private:
  const Options& opt_;
  std::size_t total_ = 1;
};

int cmd_run(const Options& opt) {
  const Json doc = clktune::util::read_json_file(opt.inputs[0]);
  clktune::exec::Request request = clktune::exec::Request::for_scenario(
      clktune::scenario::ScenarioSpec::from_json(doc));
  request.threads = opt.threads;
  const std::unique_ptr<clktune::cache::ResultCache> cache = make_cache(opt);
  request.cache = cache.get();

  // With a cache configured the scenario may be served without running;
  // announce the run upfront only when it is certain to compute.  With
  // --progress, stderr is the observer's NDJSON stream instead.
  if (!opt.quiet && !opt.progress && request.cache == nullptr)
    std::fprintf(stderr, "clktune: running scenario %s\n",
                 request.scenario.name.c_str());
  CliObserver observer(opt);
  clktune::exec::LocalExecutor executor;
  const clktune::obs::TraceSession trace(opt.trace_file);
  const clktune::exec::Outcome outcome =
      executor.execute(request, opt.progress ? &observer : nullptr);

  // A cache-served artifact carries no timing fields and stays the exact
  // bytes that were stored; recomputed results honour --timings.
  if (outcome.fully_cached() && !opt.quiet && !opt.progress) {
    std::fprintf(stderr, "clktune: %s served from cache\n",
                 outcome.result.name.c_str());
    if (opt.timings)
      std::fprintf(stderr,
                   "clktune: cached artifacts carry no timing fields\n");
  }
  emit(opt, outcome.artifact(opt.timings && !outcome.fully_cached()));
  if (!outcome.fully_cached() && !opt.quiet && !opt.progress)
    std::fprintf(stderr, "clktune: %s  T=%.1f ps  Nb=%d  %s  (%.1f s)\n",
                 outcome.result.name.c_str(), outcome.result.clock_period_ps,
                 outcome.result.insertion.plan.physical_buffers(),
                 cell_summary(outcome.result).c_str(),
                 outcome.result.seconds);
  return outcome.ok() ? 0 : 3;
}

int cmd_sweep(const Options& opt) {
  const Json doc = clktune::util::read_json_file(opt.inputs[0]);
  clktune::exec::Request request = clktune::exec::Request::for_campaign(
      clktune::scenario::CampaignSpec::from_json(doc));
  request.threads = opt.threads;
  apply_shard(opt, request);
  const std::unique_ptr<clktune::cache::ResultCache> cache = make_cache(opt);
  request.cache = cache.get();

  // With --progress stderr is a pure NDJSON stream; the human header and
  // trailer lines would pollute it.
  if (!opt.quiet && !opt.progress) {
    if (request.indices)
      std::fprintf(stderr,
                   "clktune: campaign %s, shard %zu/%zu: %zu of %zu"
                   " scenarios\n",
                   request.campaign.name.c_str(), opt.shard_index,
                   opt.shard_count, request.indices->size(),
                   request.expansion_size());
    else
      std::fprintf(stderr, "clktune: campaign %s, %zu scenarios\n",
                   request.campaign.name.c_str(), request.expansion_size());
  }

  CliObserver observer(opt);
  clktune::exec::LocalExecutor executor;
  const clktune::exec::Outcome outcome = [&] {
    const clktune::obs::TraceSession trace(opt.trace_file);
    return executor.execute(request, &observer);
  }();
  emit(opt, outcome.artifact(opt.timings));
  if (!opt.quiet && !opt.progress)
    std::fprintf(stderr,
                 "clktune: %llu scenarios (%llu from cache), %llu missed"
                 " target  (%.1f s)\n",
                 static_cast<unsigned long long>(outcome.scenarios_run),
                 static_cast<unsigned long long>(outcome.scenarios_cached),
                 static_cast<unsigned long long>(outcome.targets_missed),
                 outcome.seconds);
  return outcome.ok() ? 0 : 3;
}

clktune::serve::SubmitOptions submit_timeouts(const Options& opt) {
  clktune::serve::SubmitOptions timeouts;
  timeouts.connect_timeout_ms = opt.connect_timeout_ms;
  timeouts.io_timeout_ms = opt.io_timeout_ms;
  return timeouts;
}

std::uint16_t submit_port(const Options& opt) {
  return opt.port < 0 ? kDefaultPort : static_cast<std::uint16_t>(opt.port);
}

/// `submit --detach`: enqueue the document as a durable async job and
/// return immediately with its descriptor — admission is O(enqueue) on the
/// daemon, no cell is computed before this prints.  The id feeds
/// `clktune job status|attach|cancel`; with --shard the job runs the index
/// list and its job frame records the selection, so `job attach` writes
/// the partial summary `sweep --shard` would.
int cmd_submit_detached(const Options& opt, const Json& doc) {
  Json wire = Json::object();
  wire.set("cmd", "submit");
  wire.set("doc", doc);
  if (opt.shard_count > 1) {
    clktune::exec::Request request = clktune::exec::Request::from_json(doc);
    apply_shard(opt, request);
    Json indices = Json::array();
    for (const std::size_t index : *request.indices)
      indices.push_back(static_cast<std::uint64_t>(index));
    wire.set("indices", std::move(indices));
  }
  const clktune::serve::SubmitOutcome outcome = clktune::serve::submit_raw(
      opt.host, submit_port(opt), wire, {}, submit_timeouts(opt));
  const Json* event = outcome.final_event.find("event");
  if (event == nullptr || event->as_string() != "job") {
    const Json* message = outcome.final_event.find("message");
    std::fprintf(stderr, "clktune: submit rejected: %s\n",
                 message != nullptr ? message->as_string().c_str()
                                    : "connection closed");
    return 2;
  }
  emit(opt, outcome.final_event);
  if (!opt.quiet && !opt.progress)
    std::fprintf(stderr, "clktune: job %s queued; clktune job attach %s\n",
                 outcome.final_event.at("id").as_string().c_str(),
                 outcome.final_event.at("id").as_string().c_str());
  return 0;
}

/// `clktune submit`: the daemon runs the document (an index list with
/// --shard) and this prints exactly what `clktune run` / `sweep` print for
/// it, so N `submit --shard i/N` invocations against N daemons merge with
/// `report --merge` like `sweep --shard` outputs.
int cmd_submit(const Options& opt) {
  const Json doc = clktune::util::read_json_file(opt.inputs[0]);
  if (opt.detach) return cmd_submit_detached(opt, doc);
  clktune::exec::Request request = clktune::exec::Request::from_json(doc);
  apply_shard(opt, request);
  clktune::exec::RemoteExecutor executor(opt.host, submit_port(opt),
                                         submit_timeouts(opt));
  CliObserver observer(opt);
  const clktune::exec::Outcome outcome = executor.execute(request, &observer);
  emit(opt, outcome.artifact());
  return outcome.ok() ? 0 : 3;
}

int cmd_fanout(const Options& opt) {
  if (opt.daemons.empty() && opt.fleet_file.empty()) {
    std::fprintf(stderr,
                 "clktune: fanout needs --daemons and/or --fleet\n");
    print_usage(stderr);
    return 1;
  }
  clktune::fleet::FleetSpec pool;
  if (!opt.fleet_file.empty())
    pool = clktune::fleet::FleetSpec::from_file(opt.fleet_file);
  if (!opt.daemons.empty())
    pool.merge(clktune::fleet::FleetSpec::parse_daemon_list(opt.daemons));

  clktune::fleet::FleetOptions fleet_options;
  fleet_options.unit_cells = opt.unit_cells;
  fleet_options.max_retries = opt.retries;
  fleet_options.connect_timeout_ms = opt.connect_timeout_ms;
  fleet_options.io_timeout_ms = opt.io_timeout_ms;
  fleet_options.reprobe_interval_ms = opt.reprobe_interval_ms;

  const Json doc = clktune::util::read_json_file(opt.inputs[0]);
  clktune::exec::Request request = clktune::exec::Request::from_json(doc);
  if (!opt.quiet && !opt.progress &&
      request.kind == clktune::exec::Request::Kind::campaign)
    std::fprintf(stderr,
                 "clktune: campaign %s, %zu scenarios over %zu daemons\n",
                 request.campaign.name.c_str(), request.expansion_size(),
                 pool.members.size());

  clktune::fleet::FleetExecutor executor(std::move(pool), fleet_options);
  CliObserver observer(opt);
  const clktune::exec::Outcome outcome = executor.execute(request, &observer);
  emit(opt, outcome.artifact(opt.timings));
  if (!opt.quiet && !opt.progress)
    std::fprintf(stderr,
                 "clktune: %llu scenarios (%llu from daemon caches), %llu"
                 " missed target  (%.1f s)\n",
                 static_cast<unsigned long long>(outcome.scenarios_run),
                 static_cast<unsigned long long>(outcome.scenarios_cached),
                 static_cast<unsigned long long>(outcome.targets_missed),
                 outcome.seconds);
  return outcome.ok() ? 0 : 3;
}

/// Emits a job lifecycle frame or an error diagnostic; exit 0 on a job
/// frame, 2 when the server answered with an error.
int emit_job_frame(const Options& opt,
                   const clktune::serve::SubmitOutcome& outcome) {
  const Json* event = outcome.final_event.find("event");
  if (event != nullptr && event->as_string() == "job") {
    emit(opt, outcome.final_event);
    return 0;
  }
  const Json* message = outcome.final_event.find("message");
  std::fprintf(stderr, "clktune: %s\n",
               message != nullptr ? message->as_string().c_str()
                                  : "connection closed");
  return 2;
}

/// `clktune job attach <id>`: stream the job's result frames — replayed
/// for finished cells, live otherwise — and print the artifact.  A done
/// scenario job prints exactly what `clktune run` would; a done campaign
/// job exactly what `clktune sweep` would, with `--shard` when it was
/// submitted with one (the byte-identity contract that makes a detached
/// submit a drop-in for the blocking commands).
int cmd_job_attach(const Options& opt, const std::string& id) {
  clktune::exec::RemoteExecutor executor(opt.host, submit_port(opt),
                                         submit_timeouts(opt));
  CliObserver observer(opt);
  const clktune::exec::Outcome outcome = executor.attach(id, &observer);
  emit(opt, outcome.artifact());
  return outcome.ok() ? 0 : 3;
}

/// `clktune job <verb>` — the client side of the async job service.
int cmd_job(const Options& opt) {
  const bool bare = !opt.inputs.empty() &&
                    (opt.inputs[0] == "list" || opt.inputs[0] == "prune");
  if ((bare && opt.inputs.size() != 1) || (!bare && opt.inputs.size() != 2) ||
      (!bare && opt.inputs[0] != "status" && opt.inputs[0] != "attach" &&
       opt.inputs[0] != "cancel")) {
    std::fprintf(stderr,
                 "clktune: job expects status|attach|cancel <id>, list or"
                 " prune\n");
    print_usage(stderr);
    return 1;
  }
  const std::string& verb = opt.inputs[0];

  if (verb == "prune") {
    Json wire = Json::object();
    wire.set("cmd", "prune");
    wire.set("keep", static_cast<std::uint64_t>(opt.keep));
    const clktune::serve::SubmitOutcome outcome = clktune::serve::submit_raw(
        opt.host, submit_port(opt), wire, {}, submit_timeouts(opt));
    const Json* event = outcome.final_event.find("event");
    if (event == nullptr || event->as_string() != "pruned")
      return emit_job_frame(opt, outcome);  // prints the error diagnostic
    emit(opt, outcome.final_event);
    return 0;
  }

  if (verb == "list") {
    Json wire = Json::object();
    wire.set("cmd", "jobs");
    const clktune::serve::SubmitOutcome outcome = clktune::serve::submit_raw(
        opt.host, submit_port(opt), wire, {}, submit_timeouts(opt));
    const Json* event = outcome.final_event.find("event");
    if (event == nullptr || event->as_string() != "jobs")
      return emit_job_frame(opt, outcome);  // prints the error diagnostic
    emit(opt, outcome.final_event.at("jobs"));
    return 0;
  }

  const std::string& id = opt.inputs[1];
  if (verb == "attach") return cmd_job_attach(opt, id);

  Json wire = Json::object();
  wire.set("cmd", verb);  // "status" or "cancel"
  wire.set("id", id);
  return emit_job_frame(
      opt, clktune::serve::submit_raw(opt.host, submit_port(opt), wire, {},
                                      submit_timeouts(opt)));
}

int cmd_cache(const Options& opt) {
  if (opt.inputs.size() != 1 ||
      (opt.inputs[0] != "stats" && opt.inputs[0] != "gc" &&
       opt.inputs[0] != "verify")) {
    std::fprintf(stderr, "clktune: cache expects stats, gc or verify\n");
    print_usage(stderr);
    return 1;
  }
  if (opt.cache_dir.empty()) {
    std::fprintf(stderr, "clktune: cache needs --cache-dir\n");
    return 1;
  }
  const std::string& verb = opt.inputs[0];

  if (verb == "stats") {
    const clktune::cache::DiskCacheStats stats =
        clktune::cache::disk_cache_stats(opt.cache_dir);
    Json artifact = Json::object();
    artifact.set("entries", stats.entries);
    artifact.set("bytes", stats.bytes);
    if (opt.json) {
      // Process-local registry counters (this invocation's cache traffic);
      // the disk numbers above describe the directory across processes.
      // Constructing a ResultCache registers the family, so every counter
      // is listed (at zero here — the stats scan bypasses the cache).
      const clktune::cache::ResultCache registrar;
      Json counters = Json::object();
      const Json snapshot = clktune::obs::Registry::global().snapshot_json();
      for (const auto& [id, value] : snapshot.at("counters").as_object())
        if (id.rfind("clktune_cache_", 0) == 0)
          counters.set(id, value);
      artifact.set("counters", std::move(counters));
    }
    emit(opt, artifact);
    return 0;
  }

  if (verb == "gc") {
    if (!opt.max_bytes_set) {
      std::fprintf(stderr, "clktune: cache gc needs --max-bytes\n");
      return 1;
    }
    const clktune::cache::GcReport report =
        clktune::cache::gc_cache_dir(opt.cache_dir, opt.max_bytes);
    Json artifact = Json::object();
    artifact.set("scanned", report.scanned);
    artifact.set("removed", report.removed);
    artifact.set("removed_bytes", report.removed_bytes);
    artifact.set("kept", report.kept);
    artifact.set("kept_bytes", report.kept_bytes);
    artifact.set("temp_files_removed", report.temp_files_removed);
    emit(opt, artifact);
    if (!opt.quiet)
      std::fprintf(stderr,
                   "clktune: evicted %llu of %llu entries (%llu bytes"
                   " freed)\n",
                   static_cast<unsigned long long>(report.removed),
                   static_cast<unsigned long long>(report.scanned),
                   static_cast<unsigned long long>(report.removed_bytes));
    return 0;
  }

  const clktune::cache::VerifyReport report =
      clktune::cache::verify_cache_dir(opt.cache_dir);
  Json issues = Json::array();
  for (const clktune::cache::VerifyIssue& issue : report.issues) {
    Json entry = Json::object();
    entry.set("file", issue.file);
    entry.set("what", issue.what);
    issues.push_back(std::move(entry));
  }
  Json artifact = Json::object();
  artifact.set("checked", report.checked);
  artifact.set("issues", std::move(issues));
  emit(opt, artifact);
  if (!opt.quiet)
    std::fprintf(stderr, "clktune: %llu entries checked, %zu issue(s)\n",
                 static_cast<unsigned long long>(report.checked),
                 report.issues.size());
  return report.ok() ? 0 : 3;
}

/// Rebuilds a TableRow from a serialised scenario-result object.
clktune::core::TableRow row_from_json(const Json& r) {
  clktune::core::TableRow row;
  row.circuit = r.at("name").as_string();
  row.setting = r.at("setting").as_string();
  row.clock_ps = r.at("clock_period_ps").as_double();
  const Json& design = r.at("design");
  row.ns = static_cast<int>(design.at("num_flipflops").as_int());
  row.ng = static_cast<int>(design.at("num_gates").as_int());
  const Json& plan = r.at("insertion").at("plan");
  row.nb = static_cast<int>(plan.at("physical_buffers").as_int());
  row.ab = plan.at("average_range").as_double();
  const Json& yield = r.at("yield");
  row.yield = 100.0 * yield.at("tuned").at("yield").as_double();
  row.yield_original = 100.0 * yield.at("original").at("yield").as_double();
  if (const Json* seconds = r.find("seconds"))
    row.runtime_s = seconds->as_double();
  return row;
}

int cmd_report_diff(const Options& opt) {
  const Json a = clktune::util::read_json_file(opt.inputs[0]);
  const Json b = clktune::util::read_json_file(opt.inputs[1]);
  const clktune::scenario::SummaryDiff diff =
      clktune::scenario::diff_summaries(a, b, opt.tolerance);

  std::printf("%-40s %10s %10s %9s\n", "cell", "yield_a", "yield_b", "delta");
  for (const clktune::scenario::CellDiff& cell : diff.cells)
    std::printf("%-40s %9.2f%% %9.2f%% %+8.2f%%%s%s\n", cell.name.c_str(),
                100.0 * cell.yield_a, 100.0 * cell.yield_b,
                100.0 * cell.delta(),
                cell.kind == "yield" ? "" : ("  [" + cell.kind + "]").c_str(),
                cell.regression ? "  REGRESSION" : "");
  for (const std::string& name : diff.only_in_a)
    std::printf("%-40s only in %s\n", name.c_str(), opt.inputs[0].c_str());
  for (const std::string& name : diff.only_in_b)
    std::printf("%-40s only in %s\n", name.c_str(), opt.inputs[1].c_str());
  for (const std::string& name : diff.incomparable)
    std::printf("%-40s incomparable (kind or ladder changed)\n",
                name.c_str());
  std::printf("%zu cells compared, %llu regression(s) beyond %.3f\n",
              diff.cells.size(),
              static_cast<unsigned long long>(diff.regressions),
              opt.tolerance);
  if (diff.structural_mismatch()) {
    std::fprintf(stderr,
                 "clktune: cell sets differ — not the same sweep\n");
    return 2;
  }
  return diff.regressions == 0 ? 0 : 3;
}

int cmd_report_merge(const Options& opt) {
  if (opt.inputs.size() < 2) {
    std::fprintf(stderr,
                 "clktune: report --merge expects at least 2 shard"
                 " summaries\n");
    print_usage(stderr);
    return 1;
  }
  std::vector<clktune::scenario::CampaignSummary> shards;
  shards.reserve(opt.inputs.size());
  for (const std::string& path : opt.inputs)
    shards.push_back(clktune::scenario::CampaignSummary::from_json(
        clktune::util::read_json_file(path)));
  const clktune::scenario::CampaignSummary merged =
      clktune::exec::merge_shard_summaries(shards);
  emit(opt, merged.to_json(opt.timings));
  if (!opt.quiet)
    std::fprintf(stderr,
                 "clktune: merged %zu shards into %llu cells, %llu missed"
                 " target\n",
                 opt.inputs.size(),
                 static_cast<unsigned long long>(merged.scenarios_run),
                 static_cast<unsigned long long>(merged.targets_missed));
  // Same yield gate as the unsharded sweep this summary stands in for.
  return merged.targets_missed == 0 ? 0 : 3;
}

/// Renders a kind-tagged (criticality / binning) result artifact.
void print_analysis_cell(const Json& r) {
  const std::string kind = r.at("kind").as_string();
  if (kind == "criticality") {
    const Json& crit = r.at("criticality");
    std::printf("criticality %s: T=%.1f ps, %llu samples, %llu untunable\n",
                r.at("name").as_string().c_str(),
                crit.at("clock_period_ps").as_double(),
                static_cast<unsigned long long>(
                    crit.at("samples").as_uint()),
                static_cast<unsigned long long>(
                    crit.at("untunable").as_uint()));
    std::printf("%8s %6s %6s %10s %10s\n", "arc", "src", "dst", "before",
                "after");
    for (const Json& arc : crit.at("arcs").as_array())
      std::printf("%8llu %6lld %6lld %9.2f%% %9.2f%%\n",
                  static_cast<unsigned long long>(arc.at("arc").as_uint()),
                  static_cast<long long>(arc.at("src_ff").as_int()),
                  static_cast<long long>(arc.at("dst_ff").as_int()),
                  100.0 * arc.at("before").as_double(),
                  100.0 * arc.at("after").as_double());
    return;
  }
  const Json& binning = r.at("binning");
  std::printf("binning %s: %llu samples, sell T=%.1f ps,"
              " unsellable %.2f%%\n",
              r.at("name").as_string().c_str(),
              static_cast<unsigned long long>(
                  binning.at("samples").as_uint()),
              binning.at("expected_sell_period_ps").as_double(),
              100.0 * binning.at("unsellable_fraction").as_double());
  std::printf("%12s %10s %10s %10s\n", "period_ps", "original", "tuned",
              "sell");
  for (const Json& bin : binning.at("bins").as_array())
    std::printf("%12.1f %9.2f%% %9.2f%% %9.2f%%\n",
                bin.at("period_ps").as_double(),
                100.0 * bin.at("original").at("yield").as_double(),
                100.0 * bin.at("tuned").at("yield").as_double(),
                100.0 * bin.at("sell_fraction").as_double());
}

int cmd_report(const Options& opt) {
  if (opt.diff) {
    if (!expect_inputs(opt, 2)) return 1;
    return cmd_report_diff(opt);
  }
  if (opt.merge) return cmd_report_merge(opt);
  if (!expect_inputs(opt, 1)) return 1;
  const Json doc = clktune::util::read_json_file(opt.inputs[0]);
  // Yield cells render as the paper's table; kind-tagged cells get their
  // own per-kind rendering below it.
  std::vector<clktune::core::TableRow> rows;
  std::vector<const Json*> analysis_cells;
  const auto classify = [&](const Json& r) {
    if (r.contains("kind"))
      analysis_cells.push_back(&r);
    else
      rows.push_back(row_from_json(r));
  };
  if (doc.contains("results")) {
    // Campaign summary.
    for (const Json& r : doc.at("results").as_array()) classify(r);
    std::printf("campaign %s: %llu scenarios, %llu missed target\n",
                doc.at("name").as_string().c_str(),
                static_cast<unsigned long long>(
                    doc.at("scenarios_run").as_uint()),
                static_cast<unsigned long long>(
                    doc.at("targets_missed").as_uint()));
  } else {
    classify(doc);
  }
  if (!rows.empty()) {
    std::ostringstream table;
    clktune::core::print_table(table, rows);
    std::fputs(table.str().c_str(), stdout);
  }
  for (const Json* r : analysis_cells) print_analysis_cell(*r);
  return 0;
}

/// `clktune metrics [--prom]`: one metrics round trip against a running
/// daemon.  JSON prints the whole frame (version + uptime + registry
/// snapshot); --prom prints the daemon's Prometheus text exposition raw —
/// suitable for piping into promtool or a scrape-file exporter.
int cmd_metrics(const Options& opt) {
  Json wire = Json::object();
  wire.set("cmd", "metrics");
  if (opt.prom) wire.set("format", "prometheus");
  const clktune::serve::SubmitOutcome outcome = clktune::serve::submit_raw(
      opt.host, submit_port(opt), wire, {}, submit_timeouts(opt));
  const Json* event = outcome.final_event.find("event");
  if (event == nullptr || event->as_string() != "metrics") {
    const Json* message = outcome.final_event.find("message");
    std::fprintf(stderr, "clktune: metrics failed: %s\n",
                 message != nullptr ? message->as_string().c_str()
                                    : "connection closed");
    return 2;
  }
  if (opt.prom) {
    const std::string& text = outcome.final_event.at("text").as_string();
    if (opt.output.empty()) {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::ofstream out(opt.output, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "clktune: cannot write %s\n",
                     opt.output.c_str());
        return 2;
      }
      out << text;
    }
    return 0;
  }
  emit(opt, outcome.final_event);
  return 0;
}

/// `clktune fleet status`: probe every pool member and render one
/// aggregated health table (or, with --json, the full per-daemon frames).
/// Exit 0 with every member alive, 3 with some dead, 2 with none alive.
int cmd_fleet(const Options& opt) {
  if (opt.inputs.size() != 1 || opt.inputs[0] != "status") {
    std::fprintf(stderr, "clktune: fleet expects the status verb\n");
    print_usage(stderr);
    return 1;
  }
  if (opt.daemons.empty() && opt.fleet_file.empty()) {
    std::fprintf(stderr,
                 "clktune: fleet status needs --daemons and/or --fleet\n");
    print_usage(stderr);
    return 1;
  }
  clktune::fleet::FleetSpec pool;
  if (!opt.fleet_file.empty())
    pool = clktune::fleet::FleetSpec::from_file(opt.fleet_file);
  if (!opt.daemons.empty())
    pool.merge(clktune::fleet::FleetSpec::parse_daemon_list(opt.daemons));

  // Probes answer instantly by design, so they always get a bounded read
  // deadline — a wedged daemon must render as dead, not hang the table.
  clktune::serve::SubmitOptions timeouts = submit_timeouts(opt);
  if (timeouts.io_timeout_ms <= 0)
    timeouts.io_timeout_ms =
        timeouts.connect_timeout_ms > 0 ? timeouts.connect_timeout_ms : 5000;
  const clktune::fleet::PoolStatus status =
      clktune::fleet::probe_pool(pool, timeouts);

  if (opt.json) {
    emit(opt, status.to_json());
  } else {
    std::ostringstream table;
    clktune::fleet::render_pool_table(table, status);
    std::fputs(table.str().c_str(), stdout);
  }
  if (status.alive == 0) return 2;
  return status.dead == 0 ? 0 : 3;
}

/// `clktune bench load`: K-client load generation against a daemon or
/// fleet (src/load/harness.h).  Writes the gate-ready BENCH_load.json in
/// the working directory — the same artifact convention as the standalone
/// bench binaries — and prints a short human summary.  Exit 0 when every
/// gate held, 2 when no target answered the pre-flight probe or an input
/// file is bad, 3 when the error-rate or cross-check gate failed.
int cmd_bench(const Options& opt) {
  if (opt.inputs.size() != 1 || opt.inputs[0] != "load") {
    std::fprintf(stderr, "clktune: bench expects the load verb\n");
    print_usage(stderr);
    return 1;
  }
  if (opt.connect.empty() && opt.daemons.empty() && opt.fleet_file.empty()) {
    std::fprintf(stderr,
                 "clktune: bench load needs --connect, --daemons and/or"
                 " --fleet\n");
    print_usage(stderr);
    return 1;
  }

  clktune::load::LoadOptions load;
  if (!opt.fleet_file.empty())
    load.targets = clktune::fleet::FleetSpec::from_file(opt.fleet_file);
  if (!opt.connect.empty())
    load.targets.merge(
        clktune::fleet::FleetSpec::parse_daemon_list(opt.connect));
  if (!opt.daemons.empty())
    load.targets.merge(
        clktune::fleet::FleetSpec::parse_daemon_list(opt.daemons));
  if (!opt.mix_spec.empty())
    load.mix = clktune::load::WorkloadMix::from_spec(opt.mix_spec);
  if (!opt.base_file.empty())
    load.base_doc = clktune::util::read_json_file(opt.base_file);
  load.seed = opt.seed;
  load.clients = opt.clients;
  load.requests = opt.requests;
  load.duration_seconds = opt.duration_seconds;
  load.rate = opt.rate;
  load.connect_timeout_ms = opt.connect_timeout_ms;
  if (opt.io_timeout_ms > 0) load.io_timeout_ms = opt.io_timeout_ms;
  load.max_error_rate = opt.max_error_rate;
  load.cross_check = !opt.no_xcheck;
  if (opt.xcheck_overhead > 0.0)
    load.xcheck.overhead_factor = opt.xcheck_overhead;
  load.quiet = opt.quiet;

  const clktune::load::LoadResult result = clktune::load::run_load(load);

  clktune::util::write_json_file("BENCH_load.json", result.bench_artifact, 2);
  if (!opt.output.empty()) emit(opt, result.bench_artifact);
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "clktune: load: %llu ops in %.2fs (%.1f rps), ok %llu,"
                 " busy %llu (%.2f%%), errors %llu (%.2f%%)\n",
                 static_cast<unsigned long long>(result.ops),
                 result.wall_seconds, result.throughput_rps(),
                 static_cast<unsigned long long>(result.ok),
                 static_cast<unsigned long long>(result.busy),
                 100.0 * result.busy_rate(),
                 static_cast<unsigned long long>(result.errors),
                 100.0 * result.error_rate());
    for (const clktune::load::VerbObservation& verb : result.verbs)
      std::fprintf(stderr,
                   "clktune:   %-7s n=%-6llu p50 %.4fs  p90 %.4fs"
                   "  p99 %.4fs\n",
                   verb.verb.c_str(),
                   static_cast<unsigned long long>(verb.count), verb.p50,
                   verb.p90, verb.p99);
    std::fprintf(stderr, "clktune: wrote BENCH_load.json\n");
  }
  for (const std::string& failure : result.gate_failures)
    std::fprintf(stderr, "clktune: load gate: %s\n", failure.c_str());
  return result.gate_exit_code();
}

/// `clktune drain`: ask a running server to stop admission, finish its
/// in-flight work and exit — the remote form of SIGTERM.
int cmd_drain(const Options& opt) {
  Json wire = Json::object();
  wire.set("cmd", "drain");
  const clktune::serve::SubmitOutcome outcome = clktune::serve::submit_raw(
      opt.host, submit_port(opt), wire, {}, submit_timeouts(opt));
  const Json* event = outcome.final_event.find("event");
  if (event == nullptr || event->as_string() != "draining")
    return emit_job_frame(opt, outcome);  // prints the error diagnostic
  emit(opt, outcome.final_event);
  return 0;
}

int cmd_serve(const Options& opt) {
  clktune::serve::ServeOptions serve_options;
  serve_options.port =
      opt.port < 0 ? kDefaultPort : static_cast<std::uint16_t>(opt.port);
  serve_options.threads = opt.threads;
  serve_options.cache_dir = opt.cache_dir;
  serve_options.quiet = opt.quiet;
  serve_options.job_stall_timeout_ms = opt.stall_timeout_ms;
  serve_options.drain_grace_ms = opt.drain_grace_ms;
  clktune::serve::ScenarioServer server(std::move(serve_options));

  // Graceful shutdown: block SIGTERM/SIGINT before any thread exists so
  // every thread the server spawns inherits the mask, then sink them in a
  // dedicated watcher.  The first signal drains (stop admission, finish
  // in-flight frames, checkpoint running jobs, exit 0 — a restarted
  // daemon recovers the rest); a second one exits immediately.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);

  server.start();
  // Machine-readable so scripts can scrape the (possibly ephemeral) port.
  std::printf("clktune: serving on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  std::atomic<bool> watcher_done{false};
  std::thread watcher([&] {
    int seen = 0;
    while (!watcher_done.load()) {
      timespec wait{};
      wait.tv_nsec = 200 * 1000 * 1000;  // poll the done flag at 5 Hz
      const int sig = sigtimedwait(&drain_signals, nullptr, &wait);
      if (sig != SIGTERM && sig != SIGINT) continue;  // timeout or EINTR
      if (++seen == 1) {
        std::fprintf(stderr,
                     "clktune: caught signal %d, draining (again to force"
                     " exit)\n",
                     sig);
        server.drain();
      } else {
        std::fprintf(stderr, "clktune: second signal, exiting now\n");
        _exit(130);
      }
    }
  });

  server.serve_forever();
  watcher_done.store(true);
  watcher.join();
  if (!opt.quiet) std::fprintf(stderr, "clktune: server stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon writing to a client that already hung up must see EPIPE from
  // the send, not die; every other command tolerates it too.
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  const int usage = parse_options(argc, argv, opt);
  if (usage != 0) return usage;
  try {
    // Fault injection arms before any command runs so every site in the
    // process — including cache construction — is covered.  A malformed
    // plan is a structural input error: exit 2 like any bad JSON file.
    if (!opt.fault_plan.empty())
      clktune::fault::arm_from_spec(opt.fault_plan);
    else
      clktune::fault::arm_from_environment();
    if (opt.command == "run")
      return expect_inputs(opt, 1) ? cmd_run(opt) : 1;
    if (opt.command == "sweep")
      return expect_inputs(opt, 1) ? cmd_sweep(opt) : 1;
    if (opt.command == "report") return cmd_report(opt);
    if (opt.command == "serve")
      return expect_inputs(opt, 0) ? cmd_serve(opt) : 1;
    if (opt.command == "submit")
      return expect_inputs(opt, 1) ? cmd_submit(opt) : 1;
    if (opt.command == "fanout")
      return expect_inputs(opt, 1) ? cmd_fanout(opt) : 1;
    if (opt.command == "job") return cmd_job(opt);
    if (opt.command == "drain")
      return expect_inputs(opt, 0) ? cmd_drain(opt) : 1;
    if (opt.command == "cache") return cmd_cache(opt);
    if (opt.command == "metrics")
      return expect_inputs(opt, 0) ? cmd_metrics(opt) : 1;
    if (opt.command == "fleet") return cmd_fleet(opt);
    if (opt.command == "bench") return cmd_bench(opt);
    std::fprintf(stderr, "clktune: unknown command '%s'\n",
                 opt.command.c_str());
    print_usage(stderr);
    return 1;
  } catch (const clktune::util::JsonError& e) {
    std::fprintf(stderr, "clktune: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clktune: %s\n", e.what());
    return 2;
  }
}
