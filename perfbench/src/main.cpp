// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload table1|insertion|service --seed N --seconds S
//             --trace 0|1 --clktune <daemon binary> --work-dir <dir>
//             --root <repository root>
//
// Standard output ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}, where metrics holds every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1), each as
// {"value", "unit"}.  The lines before it carry the provenance stamp and a
// table with each metric's sample count.  The exit code is 0 only when
// every output check passed.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "harness.h"
#include "util/sha256.h"

namespace perfbench {
namespace {

using clktune::util::Json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of both lists (BENCHMARK.json);
// a layer a workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"flow_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},    {"success_rate", "ratio"},
    {"yield_gain_pct", "pp"},  {"buffers", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"netlist.generate_s", "s"},
    {"ssta.extract_s", "s"},
    {"mc.period_s", "s"},
    {"core.engine_s", "s"},
    {"core.step1_s", "s"},
    {"core.step2a_s", "s"},
    {"core.step2b_s", "s"},
    {"core.post_s", "s"},
    {"milp.solves", "count"},
    {"milp.nodes", "count"},
    {"milp.truncated", "count"},
    {"core.lazy_rounds", "count"},
    {"core.unfixable_samples", "count"},
    {"core.topk_plan_s", "s"},
    {"feas.original_s", "s"},
    {"feas.ours_s", "s"},
    {"feas.topk_s", "s"},
    {"feas.allbuf_s", "s"},
    {"feas.allbuf_infeasible", "count"},
    {"mc.delay_cache_s", "s"},
    {"mc.eval_streaming", "count"},
    {"mc.samples", "count"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p99_ms", "ms"},
    {"serve.compute_p50_ms", "ms"},
    {"serve.compute_p90_ms", "ms"},
    {"serve.job_p50_ms", "ms"},
    {"serve.job_p90_ms", "ms"},
    {"serve.status_p50_ms", "ms"},
    {"serve.status_p90_ms", "ms"},
    {"serve.run_server_ms", "ms"},
    {"serve.status_server_ms", "ms"},
    {"serve.submit_server_ms", "ms"},
    {"serve.attach_server_ms", "ms"},
    {"serve.status_wait_ms", "ms"},
    {"serve.connections", "count"},
    {"serve.busy_rejections", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.disk_bytes_written", "B"},
    {"exec.cells_computed", "count"},
    {"exec.cell_ms", "ms"},
    {"jobs.queue_wait_ms", "ms"},
    {"jobs.run_ms", "ms"},
    {"jobs.checkpoints", "count"},
    {"bench.unattributed_s", "s"},
    {"bench.trace_overhead_pct", "%"},
    {"host.steal_pct", "%"},
    {"host.timewait_sockets", "count"},
    {"host.calibration_ms", "ms"},
};

/// SHA-256 over every source file of the library and the harness, in path
/// order: identifies the code measured even where no git metadata exists.
std::string source_digest(const std::string& root) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"src", "perfbench"}) {
    const std::filesystem::path base = std::filesystem::path(root) / dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base))
      if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    all += std::filesystem::relative(file, root).string();
    all += '\0';
    all.append(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return clktune::util::sha256_hex(all);
}

RunOptions parse(int argc, char** argv, std::string& root) {
  RunOptions options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("odd argument list");
  const auto take = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end())
      throw std::invalid_argument(std::string("missing --") + key);
    return it->second;
  };
  options.workload = take("workload");
  options.seed = std::stoull(take("seed"));
  options.seconds = std::stod(take("seconds"));
  options.trace = take("trace") == "1";
  options.clktune_path = take("clktune");
  options.work_dir = take("work-dir");
  root = take("root");
  if (!(options.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  options.threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  return options;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

/// The result object over a declared list: every listed metric, measured
/// or 0.  A measured metric missing from the list is a harness bug.
template <std::size_t N>
Json metrics_json(const std::vector<Metric>& measured,
                  const MetricSpec (&specs)[N]) {
  for (const Metric& m : measured)
    if (std::none_of(std::begin(specs), std::end(specs),
                     [&](const MetricSpec& s) {
                       return m.name == s.name && m.unit == s.unit;
                     }))
      throw std::logic_error("metric " + m.name + " (" + m.unit +
                             ") is not declared");
  Json out = Json::object();
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    for (const Metric& m : measured)
      if (m.name == spec.name) value = m.value;
    Json metric = Json::object();
    metric.set("value", value);
    metric.set("unit", spec.unit);
    out.set(spec.name, std::move(metric));
  }
  return out;
}

int run(int argc, char** argv) {
  std::string root;
  const RunOptions options = parse(argc, argv, root);
  RunResult result;
  if (options.workload == "table1" || options.workload == "insertion")
    result = run_batch(options);
  else if (options.workload == "service")
    result = run_service(options);
  else
    throw std::invalid_argument("unknown workload " + options.workload);

  const Json end_to_end = metrics_json(result.end_to_end, kEndToEnd);
  const Json per_layer = metrics_json(result.per_layer, kPerLayer);

  Json provenance = result.provenance;
  provenance.set("workload", options.workload);
  provenance.set("seed", options.seed);
  provenance.set("seconds", options.seconds);
  provenance.set("trace", options.trace);
  provenance.set("threads", static_cast<std::uint64_t>(options.threads));
  provenance.set("nproc", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()));
  provenance.set("git_sha", clktune::bench::bench_git_sha());
  provenance.set("source_sha256", source_digest(root));
  std::printf("provenance %s\n", provenance.dump().c_str());
  std::printf("end-to-end:\n");
  print_table(result.end_to_end);
  std::printf("per-layer:\n");
  print_table(result.per_layer);
  for (const std::string& failure : result.failures)
    std::printf("FAILED: %s\n", failure.c_str());

  if (options.trace) {
    const std::string dir = options.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    clktune::util::write_json_file(path, chrome_trace(result.spans.spans()),
                                   -1);
    std::printf("trace: %zu spans -> %s\n", result.spans.spans().size(),
                path.c_str());
  }

  Json line = Json::object();
  line.set("correct", result.correct());
  line.set("attempted", result.attempted);
  line.set("failed", result.failed);
  line.set("metrics", options.trace ? per_layer : end_to_end);
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
