#ifndef BCDB_UTIL_PARALLEL_FOR_H_
#define BCDB_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace bcdb {

/// Resolves the DcSatOptions::num_threads convention: 0 → hardware
/// concurrency (at least 1), anything else → itself.
std::size_t EffectiveThreads(std::size_t requested);

/// Runs `task(0)` .. `task(n - 1)` on `min(EffectiveThreads(width), n)`
/// threads: inline on the caller when that is at most 1, otherwise on that
/// many minus one new threads with the caller working alongside them. Each
/// thread claims its next index from one shared counter, so a slow task
/// holds up only the thread running it, never a queue of indices behind it.
/// The new threads inherit the caller's CPU affinity, so a caller pinned to
/// one CPU runs them all there.
///
/// Every started thread is joined before ParallelFor returns or throws —
/// tasks usually reference the caller's stack — and then the exception of
/// the lowest-index task that threw is rethrown. Inline, that is the first
/// throw, and it ends the loop; on threads, the other tasks still run.
void ParallelFor(std::size_t n, std::size_t width,
                 const std::function<void(std::size_t)>& task);

}  // namespace bcdb

#endif  // BCDB_UTIL_PARALLEL_FOR_H_
