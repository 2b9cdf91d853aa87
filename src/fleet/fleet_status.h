// Pool health aggregation behind `clktune fleet status`.
//
// probe_pool() makes one status round trip (plus a best-effort metrics
// fetch) per pool member, in parallel, and folds the answers into one
// PoolStatus: per-daemon liveness/uptime/load plus pool-wide totals of
// the key serve counters.  A member that refuses, times out or answers
// garbage is reported dead with its error — a partially-down pool still
// renders, which is the whole point of a health view.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/fleet_spec.h"
#include "serve/client.h"
#include "util/json.h"

namespace clktune::fleet {

/// One member's probe outcome.  `status` is the daemon's status frame
/// verbatim (empty object when dead); `metrics` is its metrics snapshot
/// frame, best-effort (empty object when unavailable — an older daemon
/// without the verb still probes alive).
struct DaemonProbe {
  FleetMember member;
  bool alive = false;
  std::string error;
  util::Json status = util::Json::object();
  util::Json metrics = util::Json::object();

  util::Json to_json() const;
};

/// The aggregated pool view.
struct PoolStatus {
  std::vector<DaemonProbe> daemons;
  std::size_t alive = 0;
  std::size_t dead = 0;
  /// Sums over the alive members' status frames.
  std::uint64_t requests = 0;
  std::uint64_t scenarios_run = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t jobs_queued = 0;
  std::uint64_t jobs_running = 0;

  util::Json to_json() const;
};

/// One status round trip to `member`: the one definition of healthy, which
/// probe_pool and FleetExecutor share, each with its own timeouts.  A
/// daemon that answers with its status frame is alive with that frame in
/// `status`; a busy one has no free handler, so it is alive with the
/// backpressure note in `error` and no status; anything else is dead, with
/// the reason in `error`.
DaemonProbe probe_status(const FleetMember& member,
                         const serve::SubmitOptions& timeouts);

/// Probes every member of `spec` in parallel and aggregates.
PoolStatus probe_pool(const FleetSpec& spec,
                      const serve::SubmitOptions& timeouts);

/// Renders the fixed-width table `clktune fleet status` prints: one row
/// per daemon (DAEMON/STATE/UPTIME/REQS/SCEN/HIT%/JOBS) plus a TOTAL row.
void render_pool_table(std::ostream& out, const PoolStatus& pool);

}  // namespace clktune::fleet
