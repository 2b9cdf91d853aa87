// Host readings that qualify a run: CPU steal (another tenant took the
// cores), a timed fixed loop (the same, on hypervisors that report no
// steal), sockets left in TIME_WAIT by earlier runs, and the peak resident
// set of a process.  The /proc readings return 0 where /proc lacks the
// figure, so the harness still runs on a host without it.
#pragma once

#include <cstdint>
#include <sys/types.h>

namespace perfbench {

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes read_cpu_times();

/// Steal as a percentage of all CPU time between two readings.
double steal_pct(const CpuTimes& before, const CpuTimes& after);

/// Wall milliseconds for `threads` threads to each finish the same fixed
/// integer loop: it rises when other tenants share the cores.
double calibration_ms(int threads);

/// TCP sockets (IPv4 and IPv6) currently in TIME_WAIT.
std::uint64_t timewait_sockets();

/// Peak resident set (VmHWM) of process `pid`, MiB; pid 0 = this process.
double peak_rss_mb(pid_t pid = 0);

}  // namespace perfbench
