#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "support/env.hpp"

namespace numaprof::support {

unsigned default_jobs() noexcept {
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t jobs = env_int_or("NUMAPROF_JOBS", hardware, 1);
  return static_cast<unsigned>(std::min<std::int64_t>(jobs, 256));
}

void parallel_for_each(unsigned jobs, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  const std::size_t threads = std::min<std::size_t>(jobs, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::size_t error_index = count;  // guarded by mutex
  std::exception_ptr error;         // guarded by mutex
  const auto run = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  try {
    while (helpers.size() + 1 < threads) helpers.emplace_back(run);
  } catch (const std::system_error&) {
    // Out of threads: the ones already started and the caller finish.
  }
  run();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace numaprof::support
