// Deterministic parallel loops over one process-wide compute pool.
//
// A parallel region splits [0, n) into chunks: chunk w of
// parallel_chunks(n, workers, fn) is the contiguous range worker w of a
// `workers`-way split takes, and task w of parallel_strided is stride w.
// fn receives the chunk index as its worker index, so every worker-indexed
// partial, and every reduction over partials in index order, is the same
// whichever thread ran the chunk and at every pool size.  `workers` is a
// chunk count, not a thread count: it may exceed the cores.
//
// The pool holds hardware_concurrency - 1 threads, started once on the
// first region that has more than one chunk; no region starts a thread
// after that.  The caller of a region claims and runs its own region's
// chunks while idle pool threads claim any untaken chunk of any open
// region, so concurrent callers (daemon handlers, job workers) and a
// region nested in a chunk all make progress.  Idle pool threads block.
//
// A chunk that throws ends there; every other chunk still runs to its end,
// and once the region is over the caller rethrows the exception of the
// lowest chunk index that threw.  The pool stays usable.
//
// The paper notes the sampling flow "can be parallelized easily onto
// multiple CPU cores" — this is that knob.
#pragma once

#include <cstddef>
#include <functional>

namespace clktune::util {

/// Number of workers to use: explicit request, else hardware concurrency
/// (at least 1).
std::size_t resolve_thread_count(std::size_t requested);

/// Invoke fn(worker_index, begin, end) for each of `workers` contiguous
/// chunks of [0, n) (fewer when n < workers), on the caller and the pool.
/// Blocks until all complete.  fn must only touch worker-private state
/// (indexed by worker_index).
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

/// OS threads the compute pool has started in this process: 0 before the
/// first multi-chunk region, hardware_concurrency - 1 after it.
std::size_t pool_threads_started();

}  // namespace clktune::util
