// The one parallel primitive of the offline analysis pipeline (§7.2): the
// analyzer merges one measurement shard per thread, so the natural unit
// of parallelism is "one shard file", "one chunk of metric rows" or "one
// source file".
//
// Determinism contract: parallel_for_each decides WHICH thread runs an
// index, never the ORDER results are combined in. Bodies must only write
// state owned by their index (or combine under their own lock in an order
// they fix, as the shard merge does). With one thread it is the plain
// serial loop — that is the whole jobs-1 path.
#pragma once

#include <cstddef>
#include <functional>

namespace numaprof::support {

/// Default parallelism: NUMAPROF_JOBS when set (clamped to [1, 256]),
/// otherwise std::thread::hardware_concurrency() (at least 1).
unsigned default_jobs() noexcept;

/// Runs body(0) ... body(count - 1) on min(jobs, count) threads: the
/// calling thread plus threads started here and joined before returning.
/// Every thread claims the next index from one shared counter, so indices
/// START in ascending order. With one thread this is the plain loop: the
/// first throw propagates and later indices do not run. Otherwise every
/// index runs and the exception thrown by the SMALLEST index is rethrown
/// (the one a serial in-order loop would surface first). Calls may nest;
/// a nested call starts its own threads.
void parallel_for_each(unsigned jobs, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace numaprof::support
