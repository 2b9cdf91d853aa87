#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace clktune::util {

namespace {

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Pool threads started so far, for pool_threads_started().
std::atomic<std::size_t> g_threads_started{0};

/// One parallel region: chunks 0 .. chunks - 1, each a call run(body, c),
/// handed out in index order.  It lives on its caller's stack; the pool's
/// mutex guards every member a pool thread changes.
struct Region {
  Region(void (*run_chunk)(const void*, std::size_t), const void* chunk_body,
         std::size_t chunk_count)
      : run(run_chunk), body(chunk_body), chunks(chunk_count) {}

  void (*run)(const void* body, std::size_t chunk);
  const void* body;
  std::size_t chunks;
  std::size_t claimed = 0;   ///< chunks handed out
  std::size_t finished = 0;  ///< chunks run to their end
  std::size_t failed = 0;    ///< lowest chunk that threw, when error is set
  std::exception_ptr error;
  std::condition_variable all_finished;
};

/// The process-wide pool: hardware_concurrency - 1 threads that claim the
/// untaken chunks of open regions, oldest region first.
class ComputePool {
 public:
  static ComputePool& get() {
    static ComputePool pool(hardware_threads() - 1);
    return pool;
  }

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  ~ComputePool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Runs every chunk of a region of at least two chunks: the caller runs
  /// chunks until none is left to claim, then waits for those pool threads
  /// claimed, and rethrows the lowest failed chunk's exception.
  void run(Region& region) {
    std::unique_lock<std::mutex> lock(mutex_);
    open_.push_back(&region);
    std::size_t chunk = claim(region);
    lock.unlock();
    const std::size_t wake = std::min(region.chunks - 1, threads_.size());
    for (std::size_t i = 0; i < wake; ++i) work_ready_.notify_one();
    for (;;) {
      run_chunk(lock, region, chunk);
      if (region.claimed == region.chunks) break;
      chunk = claim(region);
      lock.unlock();
    }
    region.all_finished.wait(
        lock, [&region] { return region.finished == region.chunks; });
    if (region.error) std::rethrow_exception(region.error);
  }

 private:
  explicit ComputePool(std::size_t threads) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      try {
        threads_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // fewer threads: callers run the chunks nobody claims
      }
      g_threads_started.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_ready_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (stop_) return;
      Region& region = *open_.front();
      const std::size_t chunk = claim(region);
      lock.unlock();
      run_chunk(lock, region, chunk);
    }
  }

  /// Next chunk of `region` (lock held); its last chunk closes the region
  /// to further claims.
  std::size_t claim(Region& region) {
    const std::size_t chunk = region.claimed++;
    if (region.claimed == region.chunks)
      open_.erase(std::find(open_.begin(), open_.end(), &region));
    return chunk;
  }

  /// Runs a claimed chunk with `lock` released and records its end with
  /// `lock` held, which it returns holding.
  static void run_chunk(std::unique_lock<std::mutex>& lock, Region& region,
                        std::size_t chunk) {
    std::exception_ptr error;
    try {
      region.run(region.body, chunk);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && (!region.error || chunk < region.failed)) {
      region.error = std::move(error);
      region.failed = chunk;
    }
    if (++region.finished == region.chunks) region.all_finished.notify_one();
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::vector<Region*> open_;  ///< regions with unclaimed chunks
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< last: its threads use the above
};

/// Runs body(c) for c in [0, chunks) on the caller and the pool.
template <class Body>
void run_region(std::size_t chunks, const Body& body) {
  Region region(
      [](const void* b, std::size_t c) { (*static_cast<const Body*>(b))(c); },
      &body, chunks);
  ComputePool::get().run(region);
}

/// Chunk count for n items split `workers` ways.
std::size_t chunk_workers(std::size_t n, std::size_t workers) {
  return std::max<std::size_t>(1, std::min(workers, n == 0 ? 1 : n));
}

/// Chunk w's range [begin, end) of n items split into `workers` chunks.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t workers,
                                                std::size_t w) {
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t begin = std::min(n, w * chunk);
  return {begin, std::min(n, begin + chunk)};
}

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
  return requested > 0 ? requested : hardware_threads();
}

void parallel_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  workers = chunk_workers(n, workers);
  if (workers == 1) {
    fn(0, 0, n);
    return;
  }
  run_region(workers, [&](std::size_t w) {
    const auto [begin, end] = chunk_range(n, workers, w);
    fn(w, begin, end);
  });
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

void parallel_strided(std::size_t n, std::size_t workers,
                      const std::function<void(std::size_t, std::size_t)>& fn) {
  workers = chunk_workers(n, workers);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  run_region(workers, [&](std::size_t w) {
    for (std::size_t i = w; i < n; i += workers) fn(w, i);
  });
}

std::size_t pool_threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

}  // namespace clktune::util
