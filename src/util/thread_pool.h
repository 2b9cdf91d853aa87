// Minimal deterministic parallel-for.  Work is split into contiguous index
// ranges, one per worker; each worker writes only to its own accumulator, and
// results are merged in worker order so the outcome is independent of
// scheduling.  The paper notes the sampling flow "can be parallelized easily
// onto multiple CPU cores" — this is that knob.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace clktune::util {

/// Number of workers to use: explicit request, else hardware concurrency
/// (at least 1).
std::size_t resolve_thread_count(std::size_t requested);

/// Invoke fn(worker_index, begin, end) on `workers` threads over [0, n)
/// split into contiguous chunks.  Blocks until all complete.  fn must only
/// touch worker-private state (indexed by worker_index).
void parallel_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// The same chunks as parallel_chunks(n, workers, fn), visited in worker
/// order on the calling thread: a reduction over them merges partials
/// exactly as the parallel loop's workers would have built them.
void serial_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Invoke fn(worker_index, i) for every i in [0, n), with worker w taking
/// indices w, w + workers, w + 2*workers, ...  Interleaving spreads
/// expensive clustered items evenly (Monte-Carlo samples with violations
/// come in bursts).  Only safe when per-index work writes to index-keyed or
/// worker-keyed state whose final reduction is order-independent.
void parallel_strided(std::size_t n, std::size_t workers,
                      const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace clktune::util
