// Shared setup for the reproduction benches: circuit construction, the three
// Table-I clock settings (muT, muT+sigma, muT+2sigma), and env-variable
// configuration.
//
//   CLKTUNE_SAMPLES   insertion Monte-Carlo samples (default 10000, paper)
//   CLKTUNE_EVAL      yield-evaluation samples       (default 10000)
//   CLKTUNE_THREADS   worker threads                 (default: all cores)
//   CLKTUNE_CIRCUITS  comma list to restrict circuits (default: all eight)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "core/engine.h"
#include "core/insertion_config.h"
#include "fault/fault.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/paper_circuits.h"
#include "ssta/seq_graph.h"
#include "util/alloc_counter.h"
#include "util/env.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace clktune::bench {

struct BenchConfig {
  std::uint64_t samples;
  std::uint64_t eval_samples;
  int threads;
  std::vector<std::string> circuits;

  static BenchConfig from_env() {
    // Honour CLKTUNE_FAULT_PLAN in benches too: a bench under faults is a
    // chaos experiment, and the report stamps `faults_injected` so the
    // perf gate can prove production numbers ran disarmed.
    fault::arm_from_environment();
    BenchConfig cfg;
    cfg.samples = static_cast<std::uint64_t>(
        util::env_long("CLKTUNE_SAMPLES", 10000));
    cfg.eval_samples =
        static_cast<std::uint64_t>(util::env_long("CLKTUNE_EVAL", 10000));
    cfg.threads = static_cast<int>(util::env_long("CLKTUNE_THREADS", 0));
    const std::string list = util::env_string("CLKTUNE_CIRCUITS", "");
    if (!list.empty()) {
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) cfg.circuits.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    return cfg;
  }

  bool wants(const std::string& name) const {
    if (circuits.empty()) return true;
    for (const std::string& c : circuits)
      if (c == name) return true;
    return false;
  }

  core::InsertionConfig insertion() const {
    core::InsertionConfig ic;
    ic.num_samples = samples;
    ic.threads = threads;
    return ic;
  }
};

/// A circuit plus its sequential graph and measured period distribution.
struct PreparedCircuit {
  netlist::SyntheticSpec spec;
  netlist::Design design;
  ssta::SeqGraph graph;
  mc::PeriodStats period;

  double setting_period(int sigmas) const {
    return period.mu() + sigmas * period.sigma();
  }
};

inline PreparedCircuit prepare(const netlist::SyntheticSpec& spec,
                               const BenchConfig& cfg) {
  PreparedCircuit pc;
  pc.spec = spec;
  pc.design = netlist::generate(spec);
  pc.graph = ssta::extract_seq_graph(pc.design);
  const mc::Sampler sampler(pc.graph, 20160314);
  pc.period = mc::sample_min_period(
      sampler, std::max<std::uint64_t>(2000, cfg.samples / 2), cfg.threads);
  return pc;
}

inline const char* setting_name(int sigmas) {
  switch (sigmas) {
    case 0:
      return "muT";
    case 1:
      return "muT+s";
    default:
      return "muT+2s";
  }
}

/// Evaluation sampler seed is distinct from the insertion seed so reported
/// yields are out-of-sample.
inline constexpr std::uint64_t kEvalSeed = 0xE7A1;

// BenchReport and the provenance helpers (bench_git_sha, bench_hostname)
// moved into the library — src/bench/bench_report.h — so `clktune bench
// load` writes the same gateable artifact shape the reproduction benches
// do.  Included above; the clktune::bench namespace is unchanged.

}  // namespace clktune::bench
