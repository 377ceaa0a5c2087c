// parallel.hpp — persistent worker pool for the shared-memory CPU side
// of the paper's platform (two eight-core Xeons in §6).
//
// The seed implementation spawned fresh std::threads on every BLAS-3
// call, so the fork-join cost was paid on the hot path of every figure
// bench. Workers are now long-lived and park on a condition variable
// between calls; parallel_ranges only pushes range descriptors into a
// shared queue and the caller participates in draining it, so an idle
// pool costs nothing and a busy one costs one lock per chunk.
//
// Concurrency contract:
//  * parallel_ranges may be called from any thread, including
//    concurrently (the serving runtime's scheduler workers all run
//    factorizations that bottom out here). Each call only waits on its
//    own chunks, and the calling thread claims chunks itself, so
//    completion never depends on pool workers being available.
//  * Nested calls (a chunk body that itself reaches parallel_ranges,
//    e.g. a GEMM inside a parallel TSQR subtree) degrade to serial
//    execution instead of deadlocking.
//  * Each chunk runs under the caller's kernel-profiling context
//    (la/profile_hooks.hpp), so a kernel inside a chunk counts as
//    nested in the caller's kernel, on whichever lane it runs.
//  * The pool holds blas_num_threads()-1 workers (the caller is the
//    n-th lane) and is rebuilt lazily when the knob changes. Pinning
//    the knob to 1 gives strictly serial, bitwise-reproducible runs.
//
// The initial thread count comes from RANDLA_NUM_THREADS when set
// (CI's TSan stage uses this to force the pool on), otherwise from the
// hardware concurrency.
#pragma once

#include <cstdint>
#include <functional>

#include "la/matrix.hpp"

namespace randla {

/// Global worker-count knob for the BLAS kernels (1 = serial).
index_t blas_num_threads();
void set_blas_num_threads(index_t n);

/// Run fn(begin, end) over [0, total) split into at most
/// blas_num_threads() contiguous chunks of at least `grain` items.
/// Serial when one chunk suffices. fn must be safe to run concurrently
/// on disjoint ranges.
void parallel_ranges(index_t total, index_t grain,
                     const std::function<void(index_t, index_t)>& fn);

/// Observable pool counters (monotonic since process start), for tests
/// and telemetry: how many range-chunks ran, how many of those were
/// split batches (count > 1), and how many worker threads are resident.
struct PoolStats {
  std::uint64_t chunks_run = 0;    ///< total chunks executed (any lane)
  std::uint64_t split_batches = 0; ///< parallel_ranges calls that split
  std::uint64_t rebuilds = 0;      ///< pool resize events
  index_t workers = 0;             ///< resident worker threads right now
};
PoolStats pool_stats();

}  // namespace randla
