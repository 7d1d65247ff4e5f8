// Events the machine publishes to observers (PMUs, the profiler's
// allocation wrappers, and the first-touch trap handler), and the interest
// an observer declares to be called only when its count runs out.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "numasim/types.hpp"
#include "simos/heap.hpp"
#include "simos/page_policy.hpp"
#include "simos/types.hpp"
#include "simrt/frame.hpp"

namespace numaprof::simrt {

using ThreadId = std::uint32_t;

/// One resolved memory access — the raw material of address sampling (§3):
/// effective address, "instruction pointer" (synthetic op index + leaf
/// frame), latency, and data source. Spans are valid only for the duration
/// of the callback.
struct AccessEvent {
  ThreadId tid = 0;
  numasim::CoreId core = 0;
  numasim::DomainId thread_domain = 0;  // domain executing the access
  numasim::DomainId home_domain = 0;    // domain owning the page
  simos::VAddr addr = 0;
  std::uint32_t size = 8;
  bool is_write = false;
  numasim::Cycles latency = 0;
  numasim::DataSource source = numasim::DataSource::kL1;
  bool l3_miss = false;
  numasim::Cycles time = 0;       // thread virtual time at completion
  std::uint64_t op_index = 0;     // thread-local retired-op number ("IP")
  FrameId leaf_frame = kInvalidFrame;
  std::span<const FrameId> stack;  // full call path, root..leaf
};

/// A heap allocation performed through the simulated malloc wrapper.
struct AllocEvent {
  ThreadId tid = 0;
  simos::HeapBlock block;
  std::string name;  // source-level variable name, may be empty
  simos::PolicySpec policy;
  std::span<const FrameId> stack;  // allocation call path
};

struct FreeEvent {
  ThreadId tid = 0;
  simos::HeapBlock block;
};

/// Delivered when an access hits a protected page (the simulated SIGSEGV of
/// §6). The handler must unprotect the page or the access faults fatally.
struct FaultEvent {
  ThreadId tid = 0;
  numasim::CoreId core = 0;
  simos::VAddr addr = 0;
  bool is_write = false;
  std::span<const FrameId> stack;
};

class SimThread;

/// What an observer counts toward its next call (MachineObserver::interest).
/// A hardware PMU counts its event in silicon and interrupts only when the
/// count runs out; the machine does the same for every observer that
/// declares a count, so an access that no countdown expires on costs no
/// call at all.
enum class Counts : std::uint8_t {
  kEvery,         // on_access for every access, on_exec for every batch
  kNothing,       // alloc, free and thread events only
  kAccesses,      // every memory access
  kL3Misses,      // accesses that missed the L3
  kSlowLoads,     // loads whose latency is at least the threshold
  kInstructions,  // every retired instruction: accesses and exec batches
  kClock,         // the running thread's clock reaching a deadline
};

/// An observer's declared interest, read once by Machine::add_observer.
struct Interest {
  Counts counts = Counts::kEvery;
  /// One countdown per thread; otherwise one for the whole machine.
  /// A kClock deadline is always the machine's.
  bool per_thread = false;
  /// Counted events up to and including the first call; for kClock, the
  /// first deadline.
  std::uint64_t first = 1;
  numasim::Cycles latency_threshold = 0;  // kSlowLoads
};

/// An on_count() count that asks for no further call.
inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// When the machine calls an observer next: on_count()'s answer. A bare
/// count converts to one.
struct NextCall {
  NextCall(std::uint64_t count_ = kNever,
           numasim::Cycles quiet_until_ = 0) noexcept
      : count(count_), quiet_until(quiet_until_) {}
  /// Counted events up to and including the next call (0 acts as 1); for
  /// kClock, the next deadline.
  std::uint64_t count;
  /// A per-thread access countdown that runs out while the thread's clock
  /// is below this is re-armed with `count` without a call: a PMU that
  /// will not fire again before then (MRK's rate limit) costs nothing.
  numasim::Cycles quiet_until;
};

/// Observer interface for everything that watches execution. Default
/// implementations are no-ops so observers override only what they need.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  /// What this observer counts. The default, kEvery, delivers every access
  /// to on_access and every exec batch to on_exec, as they happen.
  virtual Interest interest() const { return {}; }
  /// Called on the counted event that runs this observer's countdown out.
  /// `counted` is the number of events counted since the previous call,
  /// this one included (an exec batch counts its instructions, so it can
  /// overshoot); `access` is the access that ran it out, or null for an
  /// exec batch. Returns when to call next. For kClock, `counted` is the
  /// thread's clock and the returned count is the next deadline.
  virtual NextCall on_count(const SimThread& /*thread*/,
                            std::uint64_t /*counted*/,
                            const AccessEvent* /*access*/) {
    return kNever;
  }
  /// `count` non-memory instructions retired in one batch (kEvery only).
  virtual void on_exec(const SimThread& /*thread*/, std::uint64_t /*count*/) {}
  /// One resolved access (kEvery only).
  virtual void on_access(const SimThread& /*thread*/,
                         const AccessEvent& /*event*/) {}
  virtual void on_alloc(const AllocEvent& /*event*/) {}
  virtual void on_free(const FreeEvent& /*event*/) {}
  virtual void on_thread_start(const SimThread& /*thread*/) {}
  virtual void on_thread_finish(const SimThread& /*thread*/) {}
};

using FaultHandler = std::function<void(const FaultEvent&)>;

}  // namespace numaprof::simrt
