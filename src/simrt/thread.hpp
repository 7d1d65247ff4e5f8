// SimThread: one simulated hardware thread of execution.
//
// Workload kernels receive a SimThread& and program against its API:
// load/store (memory instructions), exec (ALU instructions), malloc/free
// (wrapped heap calls), scoped frames (call-stack maintenance), and
// tick()/yield() suspension points for the discrete-event scheduler.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "numasim/types.hpp"
#include "simos/page_policy.hpp"
#include "simos/types.hpp"
#include "simrt/frame.hpp"
#include "simrt/task.hpp"

namespace numaprof::simrt {

class Machine;
using ThreadId = std::uint32_t;

class SimThread {
 public:
  SimThread(Machine& machine, ThreadId tid, numasim::CoreId core);

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  // --- Identity ---
  ThreadId tid() const noexcept { return tid_; }
  numasim::CoreId core() const noexcept { return core_; }
  numasim::DomainId domain() const noexcept { return domain_; }
  numasim::Cycles now() const noexcept { return clock_; }

  // --- Instruction stream ---
  /// One load/store of `size` bytes at `addr`; returns its latency and
  /// advances the virtual clock by issue cost + latency.
  numasim::Cycles load(simos::VAddr addr, std::uint32_t size = 8);
  numasim::Cycles store(simos::VAddr addr, std::uint32_t size = 8);
  /// `count` non-memory instructions (1 cycle each).
  void exec(std::uint64_t count);

  // --- Wrapped allocation (the tool's malloc interposition point, §6) ---
  /// Allocates, publishes an AllocEvent (carrying the current call path),
  /// and — when a profiler enabled first-touch tracking — protects the
  /// block's pages. `name` is the source-level variable name.
  simos::VAddr malloc(std::uint64_t size, std::string_view name = {},
                      simos::PolicySpec policy = simos::PolicySpec::first_touch());
  void free(simos::VAddr addr);

  // --- Scheduling ---
  /// Suspension point: suspends when the quantum's fuel is spent.
  /// Usage: `co_await thread.tick();` at loop boundaries.
  SuspendIf tick() noexcept;
  /// Unconditional suspension (barrier-like fairness point).
  SuspendIf yield() noexcept;

  // --- Call stack ---
  void push_frame(FrameId frame);
  void pop_frame() noexcept;
  std::span<const FrameId> call_stack() const noexcept { return stack_; }
  FrameId leaf_frame() const noexcept {
    return stack_.empty() ? kInvalidFrame : stack_.back();
  }

  // --- Counters (the "conventional PMU counters" of §4.2) ---
  std::uint64_t instructions() const noexcept { return instructions_; }
  std::uint64_t memory_accesses() const noexcept { return memory_accesses_; }

  bool finished() const noexcept { return task_.done(); }

  Machine& machine() noexcept { return machine_; }
  const Machine& machine() const noexcept { return machine_; }

 private:
  friend class Machine;
  friend class Scheduler;

  void charge_fuel(std::uint64_t instructions) noexcept {
    fuel_ = instructions >= fuel_ ? 0 : fuel_ - instructions;
  }

  Machine& machine_;
  ThreadId tid_;
  numasim::CoreId core_;
  numasim::DomainId domain_;
  numasim::Cycles clock_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t memory_accesses_ = 0;
  std::uint64_t fuel_ = 0;
  std::uint64_t quantum_ = 0;
  std::vector<FrameId> stack_;
  Task task_;
};

/// RAII frame push/pop. Kernels create one per simulated function, loop, or
/// parallel region; coroutine locals persist across suspensions, so the
/// frame stays on the stack for the scope's full virtual duration.
class ScopedFrame {
 public:
  ScopedFrame(SimThread& thread, FrameId frame) : thread_(thread) {
    thread_.push_frame(frame);
  }
  /// Convenience: interns the frame in the machine's registry.
  ScopedFrame(SimThread& thread, std::string_view name,
              std::string_view file = "", std::uint32_t line = 0,
              FrameKind kind = FrameKind::kFunction);
  ~ScopedFrame() { thread_.pop_frame(); }

  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  SimThread& thread_;
};

}  // namespace numaprof::simrt
