// What every workload takes and returns.
//
// A run sets up once per repetition (the median becomes setup_s), then
// repeats a fixed round of work until its time budget is spent.  Every
// round of one seed does identical work, so the round's wall time is
// sampled several times and its counts must repeat exactly.  In a traced
// run the rounds alternate untraced and traced; the traced ones give the
// per-layer figures, and the difference between the two kinds is the
// tracing overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "util/json.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;           ///< resolved worker threads (nproc)
  std::string clktune_path;  ///< daemon binary for the service workload
  std::string work_dir;      ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  clktune::util::Json provenance = clktune::util::Json::object();
  SpanRecorder spans{true};

  bool correct() const { return failures.empty() && failed == 0; }
  void fail(const std::string& why) { failures.push_back(why); }
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    per_layer.push_back({name, value, unit, samples});
  }
};

/// Seed of stream `stream` derived from the run seed (splitmix64 finaliser).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline clktune::util::Json json_array(const std::vector<double>& values) {
  clktune::util::Json array = clktune::util::Json::array();
  for (double v : values) array.push_back(v);
  return array;
}

/// `table1` and `insertion`: the paper's Table I flow on the library.
RunResult run_batch(const RunOptions& options);

/// `service`: a closed loop against a `clktune serve` daemon.
RunResult run_service(const RunOptions& options);

}  // namespace perfbench
