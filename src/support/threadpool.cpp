#include "support/threadpool.hpp"

#include <algorithm>

#include "support/env.hpp"

namespace numaprof::support {

unsigned default_jobs() noexcept {
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t jobs = env_int_or("NUMAPROF_JOBS", hardware, 1);
  return static_cast<unsigned>(std::min<std::int64_t>(jobs, 256));
}

ThreadPool::ThreadPool(unsigned jobs) {
  const unsigned workers = jobs > 1 ? jobs - 1 : 0;
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::claim(Batch& batch, unsigned participant,
                       std::size_t& index) noexcept {
  const std::size_t shards = batch.shards.size();
  // Own shard first, then steal round-robin from the others. fetch_add may
  // overshoot `end` on an exhausted shard; that only marks the probe as
  // failed — an index below `end` is claimed exactly once.
  for (std::size_t probe = 0; probe < shards; ++probe) {
    Shard& shard = batch.shards[(participant + probe) % shards];
    const std::size_t i = shard.next.fetch_add(1, std::memory_order_relaxed);
    if (i < shard.end) {
      index = i;
      return true;
    }
  }
  return false;
}

void ThreadPool::work_on(Batch& batch, unsigned participant) {
  std::size_t index;
  while (claim(batch, participant, index)) {
    try {
      (*batch.body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (index < batch.error_index) {
        batch.error_index = index;
        batch.error = std::current_exception();
      }
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.count) {
      // Lock pairs with the waiter's predicate check so the final
      // completion cannot slip between its check and its sleep.
      std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    unsigned participant = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || (epoch_ != seen && batch_ != nullptr);
      });
      if (stop_) return;
      seen = epoch_;
      batch = batch_;
      participant = ++batch->active_workers;  // caller owns shard 0
    }
    work_on(*batch, participant);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --batch->active_workers;
    }
    done_.notify_all();
  }
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  bool expected = false;
  if (workers_.empty() || count == 1 ||
      !busy_.compare_exchange_strong(expected, true)) {
    // No workers, a trivial batch, or a nested/concurrent call: the serial
    // in-order loop is the reference semantics anyway.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  Batch batch;
  batch.count = count;
  batch.body = &body;
  batch.shards =
      std::vector<Shard>(std::min<std::size_t>(jobs(), count));
  const std::size_t shards = batch.shards.size();
  for (std::size_t s = 0; s < shards; ++s) {
    batch.shards[s].next.store(count * s / shards,
                               std::memory_order_relaxed);
    batch.shards[s].end = count * (s + 1) / shards;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++epoch_;
  }
  wake_.notify_all();
  work_on(batch, 0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
      return batch.done.load(std::memory_order_acquire) == batch.count &&
             batch.active_workers == 0;
    });
    batch_ = nullptr;
  }
  busy_.store(false);
  if (batch.error) std::rethrow_exception(batch.error);
}

void parallel_for(ThreadPool* pool, std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& chunk) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (count + grain - 1) / grain;
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    chunk(begin, std::min(count, begin + grain));
  };
  if (pool == nullptr) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  pool->for_each_index(chunks, run_chunk);
}

}  // namespace numaprof::support
