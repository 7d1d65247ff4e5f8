// Machine: the facade tying together the NUMA hardware model (numasim),
// the OS memory layer (simos), and simulated threads (simrt).
//
// A workload is a set of thread kernels spawned on the machine and run to
// completion by a least-virtual-time scheduler. Observers (the PMU samplers
// and the profiler's wrappers) watch the instruction/access/allocation
// stream — the machine is the "hardware + OS" the paper's tool monitors.
// Like a PMU, the machine counts each observer's declared events inline
// and calls it only when its count or deadline runs out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "numasim/system.hpp"
#include "support/telemetry.hpp"
#include "numasim/topology.hpp"
#include "simos/address_space.hpp"
#include "simrt/events.hpp"
#include "simrt/frame.hpp"
#include "simrt/thread.hpp"

namespace numaprof::simrt {

struct MachineConfig {
  /// Instructions per scheduling quantum. Small values interleave threads
  /// finely (accurate contention, slower); large values batch. The default
  /// keeps worst-case per-quantum virtual-time spans (quantum x worst
  /// access latency) well inside the queue model's epoch ring, so
  /// concurrent demand is observed concurrently.
  std::uint64_t quantum = 200;
};

class Machine {
 public:
  using Kernel = std::function<Task(SimThread&)>;

  explicit Machine(numasim::Topology topology, MachineConfig config = {});

  // Non-movable: threads hold stable references to the machine.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const numasim::Topology& topology() const noexcept {
    return system_.topology();
  }
  numasim::System& system() noexcept { return system_; }
  const numasim::System& system() const noexcept { return system_; }
  simos::AddressSpace& memory() noexcept { return space_; }
  const simos::AddressSpace& memory() const noexcept { return space_; }
  FrameRegistry& frames() noexcept { return frames_; }
  const FrameRegistry& frames() const noexcept { return frames_; }

  /// Spawns a thread running `kernel`, bound to `core` (default: tid modulo
  /// core count, the paper's thread-per-core binding). The thread starts at
  /// the machine's current elapsed time, so spawn-after-run sequences model
  /// serial program phases. `initial_stack` seeds the call path (e.g.
  /// main -> solver -> parallel-region) so worker CCTs root correctly.
  ThreadId spawn(Kernel kernel,
                 std::optional<numasim::CoreId> core = std::nullopt,
                 std::vector<FrameId> initial_stack = {});

  /// Runs every unfinished thread to completion (deterministic least-clock
  /// order). May be called repeatedly as phases spawn more threads.
  void run();

  /// Max virtual time reached by any thread: the program's execution time.
  numasim::Cycles elapsed() const noexcept { return elapsed_; }

  SimThread& thread(ThreadId tid) { return *threads_.at(tid); }
  std::size_t thread_count() const noexcept { return threads_.size(); }

  // --- Monitoring hookup ---
  /// Registers `observer` and reads its interest(). Observers are called
  /// in registration order.
  void add_observer(MachineObserver& observer);
  void remove_observer(MachineObserver& observer) noexcept;
  /// Installs the simulated-SIGSEGV handler (§6). Replaces any previous.
  void set_fault_handler(FaultHandler handler) {
    fault_handler_ = std::move(handler);
  }
  bool has_fault_handler() const noexcept {
    return static_cast<bool>(fault_handler_);
  }

  /// When true, SimThread::malloc protects the interior pages of each new
  /// block so the first access traps (enabled by the profiler's
  /// first-touch module).
  void set_protect_on_alloc(bool enabled) noexcept {
    protect_on_alloc_ = enabled;
  }

  /// Streams runtime self-observability into `hub`: per-thread retired
  /// instruction counts plus thread start/finish events. nullptr = off.
  /// The hub must outlive the machine.
  void set_telemetry(support::TelemetryHub* hub) noexcept {
    telemetry_ = hub;
  }

  /// Migrates one page to `target`, invalidating its cached lines and
  /// charging the page-copy cost to thread `tid` (the OS-migration model:
  /// the faulting thread pays, as with Linux NUMA hint faults). Returns
  /// the charged cycles.
  numasim::Cycles migrate_page(simos::VAddr addr, numasim::DomainId target,
                               ThreadId tid);

  /// Adds `cycles` to a thread's virtual clock (synchronous OS work
  /// performed on the thread's behalf, e.g. inside a fault handler).
  void charge(ThreadId tid, numasim::Cycles cycles);

  // --- Static variables (read from "the executable's symbols", §5.1) ---
  simos::StaticSymbol define_static(
      std::string name, std::uint64_t size,
      simos::PolicySpec policy = simos::PolicySpec::first_touch());

  // --- Aggregate counters ---
  std::uint64_t total_instructions() const noexcept;
  std::uint64_t total_accesses() const noexcept;
  /// Events counted toward `observer`'s calls so far, every thread's and
  /// those since its last call included (0 for one that counts nothing).
  std::uint64_t counted(const MachineObserver& observer) const noexcept;
  /// The latest thread clock at which an access or exec batch retired
  /// while an observer was counting.
  numasim::Cycles latest_event_time() const noexcept {
    return latest_event_time_;
  }

 private:
  friend class SimThread;

  /// The full memory-access path: protection check (fault delivery), page
  /// home resolution (first-touch assignment), hardware access, observer
  /// notification. Returns the latency charged to the thread.
  numasim::Cycles access_path(SimThread& thread, simos::VAddr addr,
                              std::uint32_t size, bool is_write);
  void notify_exec(SimThread& thread, std::uint64_t count);
  simos::VAddr wrapped_malloc(SimThread& thread, std::uint64_t size,
                              std::string_view name,
                              simos::PolicySpec policy);
  void wrapped_free(SimThread& thread, simos::VAddr addr);

  /// Events left until a call, the count the observer asked for, and
  /// the clock before which running out re-arms it without a call.
  struct Countdown {
    std::uint64_t left = 1;
    std::uint64_t asked = 1;
    numasim::Cycles quiet_until = 0;
  };
  /// An observer that counts (any interest but kNothing).
  struct Counter {
    MachineObserver* observer = nullptr;
    Interest interest;
    Countdown global;  // kClock: the deadline, in both fields
    std::vector<Countdown> threads;  // per_thread, indexed by ThreadId
    std::uint64_t counted = 0;       // reported at past calls

    Countdown& countdown(ThreadId tid) {
      return interest.per_thread ? threads[tid] : global;
    }
  };
  /// Counts `n` events on `down`, calling the observer when they run it out.
  static void count_down(Counter& counter, Countdown& down,
                         const SimThread& thread, std::uint64_t n,
                         const AccessEvent* access);
  /// Applies `counter`'s filter to an access and counts it down; true when
  /// the access must call the observer (notify_access).
  static bool due(Counter& counter, const SimThread& thread,
                  const numasim::MemoryResult& result, bool is_write);
  void notify_access(Counter& counter, SimThread& thread, simos::VAddr addr,
                     std::uint32_t size, bool is_write, numasim::DomainId home,
                     const numasim::MemoryResult& result);

  numasim::System system_;
  simos::AddressSpace space_;
  FrameRegistry frames_;
  MachineConfig config_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<ThreadId> runnable_;
  std::vector<MachineObserver*> observers_;
  std::vector<Counter> counters_;  // registration order
  FaultHandler fault_handler_;
  support::TelemetryHub* telemetry_ = nullptr;
  bool protect_on_alloc_ = false;
  numasim::Cycles elapsed_ = 0;
  numasim::Cycles latest_event_time_ = 0;
};

/// Runs `body(thread, index)` on `count` freshly spawned threads (bound to
/// cores 0..count-1) and waits for all — an OpenMP `parallel` analogue.
/// `region` names the parallel-region frame pushed on every worker;
/// `base_stack` is the enclosing call path.
void parallel_region(Machine& machine, std::uint32_t count,
                     std::string_view region,
                     std::vector<FrameId> base_stack,
                     std::function<Task(SimThread&, std::uint32_t)> body);

}  // namespace numaprof::simrt
