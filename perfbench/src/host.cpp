#include "host.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace perfbench {

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes times;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user/nice, so it is not added again).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double calibration_ms(int threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&sink, t] {
      clktune::util::SplitMix64 rng(static_cast<std::uint64_t>(t));
      std::uint64_t acc = 0;
      for (int i = 0; i < 20'000'000; ++i) acc ^= rng.next_u64();
      sink.fetch_xor(acc);
    });
  for (std::thread& worker : workers) worker.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t timewait_sockets() {
  std::uint64_t count = 0;
  for (const char* path : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string slot, local, remote, state;
      fields >> slot >> local >> remote >> state;
      if (state == "06") ++count;
    }
  }
  return count;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(static_cast<long>(pid)) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
