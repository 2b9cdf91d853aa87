#include "schedule.h"

#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace perfbench {

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::hit:
      return "hit";
    case RequestKind::compute:
      return "compute";
    case RequestKind::job:
      return "job";
    case RequestKind::status:
      return "status";
  }
  return "?";
}

std::vector<ScheduledRequest> make_service_schedule(std::uint64_t seed,
                                                    std::size_t count,
                                                    std::size_t pool_size) {
  if (pool_size == 0) throw std::invalid_argument("empty document pool");
  // Exact quotas, then a seeded shuffle: every seed sends the same number
  // of each kind, so seeds differ in order and documents, not in how much
  // compute a round asks for.
  const std::size_t total = kMix[0] + kMix[1] + kMix[2] + kMix[3];
  std::vector<ScheduledRequest> schedule;
  schedule.reserve(count);
  for (std::size_t k = 0; k < kRequestKinds; ++k) {
    const std::size_t quota =
        k + 1 == kRequestKinds ? count - schedule.size()
                               : count * kMix[k] / total;
    for (std::size_t i = 0; i < quota; ++i)
      schedule.push_back({static_cast<RequestKind>(k), 0});
  }
  clktune::util::SplitMix64 rng(seed);
  for (std::size_t i = schedule.size(); i > 1; --i)
    std::swap(schedule[i - 1], schedule[rng.next_u64() % i]);
  std::uint64_t fresh = 0;
  for (ScheduledRequest& request : schedule) {
    if (request.kind == RequestKind::hit)
      request.doc = rng.next_u64() % pool_size;
    else if (request.kind != RequestKind::status)
      request.doc = fresh++;
  }
  return schedule;
}

std::uint64_t fresh_documents(const std::vector<ScheduledRequest>& schedule) {
  std::uint64_t fresh = 0;
  for (const ScheduledRequest& request : schedule)
    fresh += request.kind == RequestKind::compute ||
             request.kind == RequestKind::job;
  return fresh;
}

}  // namespace perfbench
