// Machine-readable benchmark artifacts (BENCH_<name>.json).
//
// BenchReport is the one way a performance number leaves this codebase:
// the reproduction benches under bench/, and the `clktune bench load`
// harness, all write their results through it, so every BENCH_*.json in
// existence carries the same provenance stamp (git_sha / hostname /
// threads), the same throughput fields, and the same `faults_injected`
// guard that lets scripts/perf_gate.sh refuse chaos-polluted runs.
// It lives in the library (not bench/bench_common.h, which also drags in
// circuit preparation) precisely so the CLI can produce gateable
// artifacts without linking the reproduction benches.
#pragma once

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "util/alloc_counter.h"
#include "util/json.h"
#include "util/timer.h"

namespace clktune::bench {

/// The commit the bench binary ran against: GITHUB_SHA when CI exports it,
/// otherwise `git rev-parse` against the working tree, otherwise
/// "unknown".  Advisory provenance — never used for comparisons.
std::string bench_git_sha();

std::string bench_hostname();

/// Machine-readable benchmark artifact: construct one at the top of a bench
/// main, feed it counters as the run progresses, and `return report.write()`
/// at the end.  Writes BENCH_<name>.json into the working directory with
/// wall-clock seconds, samples/sec throughput, total MILP nodes and the
/// main thread's heap-allocation count, so perf trajectories are diffable
/// across commits (CI uploads them as artifacts; scripts/perf_gate.sh
/// holds the checked-in bench/baselines/ trajectory against them).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Monte-Carlo sample problems processed (solves, yield checks, draws).
  void count_samples(std::uint64_t n) { samples_ += n; }
  /// One engine run: its configured sample count plus its MILP nodes.
  void count_insertion(const core::InsertionResult& res,
                       std::uint64_t samples) {
    samples_ += samples;
    milp_nodes_ += res.step1.milp_nodes + res.step2a.milp_nodes +
                   res.step2b.milp_nodes;
  }
  /// Faults observed outside this process (a load-tested daemon's
  /// clktune_fault_injected_total, say).  Added to the report's
  /// faults_injected so the perf gate rejects a run whose *server* was a
  /// chaos experiment, not just one whose client was.
  void count_external_faults(std::uint64_t n) { external_faults_ += n; }
  /// Extra named metric, appended after the standard fields.
  void metric(const std::string& key, double value) {
    extra_.set(key, value);
  }
  /// Extra structured member (per-verb breakdowns, cross-check verdicts);
  /// the perf gate only reads top-level numbers, so nested detail is free.
  void metric_json(const std::string& key, util::Json value) {
    extra_.set(key, std::move(value));
  }
  /// Headline samples/sec measured externally (micro benches); by default
  /// the report derives it as samples / wall_seconds.
  void override_samples_per_sec(double sps) { samples_per_sec_ = sps; }

  /// The artifact as it would be written (wall clock read now).
  util::Json to_json() const;

  /// Writes BENCH_<name>.json into the working directory; returns 0 on
  /// success, 1 on an I/O failure (bench mains return this from main()).
  int write() const;

 private:
  std::string name_;
  util::Stopwatch wall_;
  util::AllocCounterScope allocs_;
  std::uint64_t samples_ = 0;
  std::uint64_t milp_nodes_ = 0;
  std::uint64_t external_faults_ = 0;
  double samples_per_sec_ = -1.0;
  util::Json extra_ = util::Json::object();
};

}  // namespace clktune::bench
