// Deterministic data parallelism for the numerical kernels.
//
// The paper's testbed runs every algorithm on 28 cores; this pool provides
// the equivalent for the row-parallel kernels (dense products, similarity
// matrices, GW gradients). Work is partitioned into contiguous index blocks
// and each block writes disjoint rows, so results are byte-identical to the
// sequential execution regardless of thread count.
//
// Thread count: GRAPHALIGN_THREADS env var, else hardware concurrency.
#ifndef GRAPHALIGN_COMMON_PARALLEL_H_
#define GRAPHALIGN_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace graphalign {

// The largest pool GRAPHALIGN_THREADS or --threads may ask for.
inline constexpr int kMaxThreads = 1024;

// Pool size for a GRAPHALIGN_THREADS value: the value when it is an integer
// in 1..kMaxThreads, else `hardware`. Unset or empty means `hardware`;
// anything else out of range is reported on stderr.
int ThreadCountFromEnv(const char* value, int hardware);

// Number of worker threads the pool uses (>= 1).
int ParallelThreadCount();

// Number of pool worker threads actually started so far: 0 until the first
// pool dispatch, ParallelThreadCount() - 1 afterwards. Fork-based isolation
// (common/subprocess.h) uses this to tell the known fork-tolerant pool
// threads apart from foreign threads it must refuse to fork under.
int ParallelWorkersStarted();

// Invokes fn(begin, end) over a partition of [0, n) across the pool.
// Blocks until all blocks complete. Falls back to a single inline call when
// n < min_work or only one thread is configured. fn must write only to
// locations indexed by its own [begin, end) range.
//
// Reentrancy: a ParallelFor issued from inside a pool job (i.e. from within
// fn) runs inline on the calling thread — the pool has a single job slot,
// so nesting never touches shared pool state.
void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_work = 4096);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_PARALLEL_H_
