// The service workload's seeded request schedule: the mix
// hit:compute:job:status = 4:2:1:2 in exact quotas, in seeded order, each
// hit repeating a seeded pool document and each compute or job sending the
// next fresh one.  A pure function of (seed, count, pool size).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class RequestKind { hit, compute, job, status };
inline constexpr std::size_t kRequestKinds = 4;

const char* kind_name(RequestKind kind);

struct ScheduledRequest {
  RequestKind kind = RequestKind::status;
  /// hit: pool index; compute/job: ordinal among the schedule's fresh
  /// documents; status: 0.
  std::uint64_t doc = 0;
};

/// Relative weights of hit, compute, job and status, in RequestKind order.
inline constexpr std::size_t kMix[kRequestKinds] = {4, 2, 1, 2};

std::vector<ScheduledRequest> make_service_schedule(std::uint64_t seed,
                                                    std::size_t count,
                                                    std::size_t pool_size);

/// Fresh documents (compute + job) in a schedule.
std::uint64_t fresh_documents(const std::vector<ScheduledRequest>& schedule);

}  // namespace perfbench
