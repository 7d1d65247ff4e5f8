// Fixed-size work-stealing thread pool plus a chunked parallel_for, built
// for the offline analysis pipeline (§7.2): the analyzer merges one
// measurement shard per thread, so the natural unit of parallelism is
// "one shard file" or "one chunk of metric rows".
//
// Determinism contract: the pool decides WHICH thread runs an index, never
// the ORDER results are combined in. for_each_index runs each index exactly
// once with no ordering guarantee, so bodies must only write state owned by
// their index (or combine under their own lock in an order they fix, as the
// shard merge does). A pool of one participant runs every batch inline, in
// index order, on the calling thread — that is the whole jobs-1 path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace numaprof::support {

/// Default parallelism: NUMAPROF_JOBS when set (clamped to [1, 256]),
/// otherwise std::thread::hardware_concurrency() (at least 1).
unsigned default_jobs() noexcept;

class ThreadPool {
 public:
  /// A pool with `jobs` participants total: the calling thread plus
  /// jobs - 1 workers. jobs <= 1 spawns no threads and runs inline.
  explicit ThreadPool(unsigned jobs = default_jobs());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants (workers + the calling thread).
  unsigned jobs() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(0) ... body(count - 1) across all participants and returns
  /// when every index has completed. The index space is pre-partitioned
  /// into one contiguous shard per participant; a participant that drains
  /// its own shard steals indices from the others, so uneven per-index
  /// costs do not serialize the batch. If bodies throw, the batch still
  /// completes and the exception thrown by the SMALLEST index is rethrown
  /// (matching what a serial in-order loop would surface first).
  /// Nested or concurrent calls fall back to an inline serial loop.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body);

 private:
  struct Shard {
    alignas(64) std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  struct Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::vector<Shard> shards;
    std::atomic<std::size_t> done{0};
    std::size_t error_index = ~std::size_t{0};  // guarded by pool mutex
    std::exception_ptr error;                   // guarded by pool mutex
    unsigned active_workers = 0;                // guarded by pool mutex
  };

  void worker_loop();
  void work_on(Batch& batch, unsigned participant);
  bool claim(Batch& batch, unsigned participant, std::size_t& index) noexcept;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Batch* batch_ = nullptr;   // guarded by mutex_
  std::uint64_t epoch_ = 0;  // guarded by mutex_
  bool stop_ = false;        // guarded by mutex_
  std::atomic<bool> busy_{false};
  std::vector<std::thread> workers_;
};

/// Chunked parallel for: splits [0, count) into chunks of at most `grain`
/// indices and runs chunk(begin, end) for each through
/// pool->for_each_index (serial, in ascending chunk order, when `pool` is
/// null or for_each_index runs inline); otherwise chunks run concurrently
/// in unspecified order.
void parallel_for(ThreadPool* pool, std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& chunk);

}  // namespace numaprof::support
