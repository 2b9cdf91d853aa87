#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace clktune::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_strided(std::size_t n, std::size_t workers,
                      const std::function<void(std::size_t, std::size_t)>& fn) {
  workers = std::max<std::size_t>(1, std::min(workers, n == 0 ? 1 : n));
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&fn, w, n, workers] {
      for (std::size_t i = w; i < n; i += workers) fn(w, i);
    });
  }
  for (auto& t : threads) t.join();
}

namespace {

/// Worker count parallel_chunks actually uses for n items.
std::size_t chunk_workers(std::size_t n, std::size_t workers) {
  return std::max<std::size_t>(1, std::min(workers, n == 0 ? 1 : n));
}

/// Worker w's range [begin, end) of n items split into `workers` chunks.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t workers,
                                                std::size_t w) {
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t begin = std::min(n, w * chunk);
  return {begin, std::min(n, begin + chunk)};
}

}  // namespace

void parallel_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  workers = chunk_workers(n, workers);
  if (workers == 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [begin, end] = chunk_range(n, workers, w);
    threads.emplace_back([&fn, w, begin, end] { fn(w, begin, end); });
  }
  for (auto& t : threads) t.join();
}

void serial_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  workers = chunk_workers(n, workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [begin, end] = chunk_range(n, workers, w);
    fn(w, begin, end);
  }
}

}  // namespace clktune::util
