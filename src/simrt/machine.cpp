#include "simrt/machine.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace numaprof::simrt {

Machine::Machine(numasim::Topology topology, MachineConfig config)
    : system_(std::move(topology)),
      space_(system_.topology().domain_count),
      config_(config) {}

ThreadId Machine::spawn(Kernel kernel, std::optional<numasim::CoreId> core,
                        std::vector<FrameId> initial_stack) {
  const auto tid = static_cast<ThreadId>(threads_.size());
  const numasim::CoreId bound =
      core.value_or(tid % system_.topology().core_count());
  if (bound >= system_.topology().core_count()) {
    throw std::out_of_range("spawn: core id out of range");
  }

  auto thread = std::make_unique<SimThread>(*this, tid, bound);
  thread->clock_ = elapsed_;  // serial-phase semantics: start "now"
  thread->quantum_ = config_.quantum;
  thread->fuel_ = config_.quantum;
  thread->stack_ = std::move(initial_stack);
  space_.stack_base(tid);  // reserve its stack segment

  SimThread& ref = *thread;
  threads_.push_back(std::move(thread));
  runnable_.push_back(tid);
  for (Counter& counter : counters_) {
    if (counter.interest.per_thread) {
      counter.threads.resize(threads_.size(), counter.global);
    }
  }

  // Trampoline: a capture-less coroutine taking the kernel BY VALUE, so the
  // callable (and its captures) live inside the coroutine frame itself and
  // stay valid across suspensions regardless of what the caller does with
  // its copy.
  constexpr auto trampoline = [](Kernel owned, SimThread& t) -> Task {
    Task inner = owned(t);
    while (!inner.done()) {
      inner.resume();
      if (!inner.done()) co_await t.tick();
    }
  };
  ref.task_ = trampoline(std::move(kernel), ref);

  for (auto* obs : observers_) obs->on_thread_start(ref);
  if (telemetry_ != nullptr) {
    support::TelemetryEvent event;
    event.kind = support::TelemetryEventKind::kThreadStart;
    event.tid = tid;
    event.time = ref.clock_;
    telemetry_->ring(tid).publish(event);
  }
  return tid;
}

void Machine::run() {
  using Entry = std::pair<numasim::Cycles, ThreadId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (const ThreadId tid : runnable_) {
    queue.emplace(threads_[tid]->clock_, tid);
  }
  runnable_.clear();

  while (!queue.empty()) {
    const auto [time, tid] = queue.top();
    queue.pop();
    SimThread& thread = *threads_[tid];
    if (thread.finished()) continue;
    thread.fuel_ = thread.quantum_;
    thread.task_.resume();
    if (thread.finished()) {
      elapsed_ = std::max(elapsed_, thread.clock_);
      for (auto* obs : observers_) obs->on_thread_finish(thread);
      if (telemetry_ != nullptr) {
        support::TelemetryEvent event;
        event.kind = support::TelemetryEventKind::kThreadFinish;
        event.tid = thread.tid_;
        event.time = thread.clock_;
        telemetry_->ring(thread.tid_).publish(event);
      }
    } else {
      queue.emplace(thread.clock_, tid);
    }
  }
  for (const auto& thread : threads_) {
    elapsed_ = std::max(elapsed_, thread->clock_);
  }
}

void Machine::add_observer(MachineObserver& observer) {
  observers_.push_back(&observer);
  Counter counter;
  counter.observer = &observer;
  counter.interest = observer.interest();
  const Counts counts = counter.interest.counts;
  if (counts == Counts::kNothing) return;
  const std::uint64_t first =
      counts == Counts::kClock
          ? counter.interest.first
          : std::max<std::uint64_t>(1, counter.interest.first);
  counter.global = {.left = first, .asked = first, .quiet_until = 0};
  if (counts == Counts::kClock) counter.interest.per_thread = false;
  if (counter.interest.per_thread) {
    counter.threads.assign(threads_.size(), counter.global);
  }
  counters_.push_back(std::move(counter));
}

void Machine::remove_observer(MachineObserver& observer) noexcept {
  std::erase(observers_, &observer);
  std::erase_if(counters_, [&observer](const Counter& counter) {
    return counter.observer == &observer;
  });
}

void Machine::count_down(Counter& counter, Countdown& down,
                         const SimThread& thread, std::uint64_t n,
                         const AccessEvent* access) {
  if (n < down.left) {
    down.left -= n;
    return;
  }
  const std::uint64_t counted = down.asked - down.left + n;
  counter.counted += counted;
  if (thread.clock_ < down.quiet_until) {
    down.left = down.asked - (counted - down.asked) % down.asked;
    return;
  }
  const NextCall next = counter.observer->on_count(thread, counted, access);
  down.left = down.asked = std::max<std::uint64_t>(1, next.count);
  down.quiet_until = next.quiet_until;
}

numasim::Cycles Machine::migrate_page(simos::VAddr addr,
                                      numasim::DomainId target,
                                      ThreadId tid) {
  const simos::PageId page = simos::page_of(addr);
  space_.page_table().migrate(page, target);
  // The page's lines move: every cached copy is stale.
  const numasim::LineAddr first = numasim::line_of(simos::page_base(page));
  const auto lines_per_page = simos::kPageBytes / numasim::kLineBytes;
  for (numasim::LineAddr line = first; line < first + lines_per_page;
       ++line) {
    system_.invalidate_line(line);
  }
  // Copy cost: one page of lines through two controllers, flat-rated.
  const numasim::Cycles cost =
      lines_per_page * system_.topology().controller_service * 2;
  charge(tid, cost);
  return cost;
}

void Machine::charge(ThreadId tid, numasim::Cycles cycles) {
  threads_.at(tid)->clock_ += cycles;
}

simos::StaticSymbol Machine::define_static(std::string name,
                                           std::uint64_t size,
                                           simos::PolicySpec policy) {
  return space_.define_static(std::move(name), size, policy);
}

std::uint64_t Machine::total_instructions() const noexcept {
  std::uint64_t total = 0;
  for (const auto& thread : threads_) total += thread->instructions();
  return total;
}

std::uint64_t Machine::total_accesses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& thread : threads_) total += thread->memory_accesses();
  return total;
}

std::uint64_t Machine::counted(const MachineObserver& observer) const noexcept {
  for (const Counter& counter : counters_) {
    if (counter.observer != &observer) continue;
    std::uint64_t total =
        counter.counted + counter.global.asked - counter.global.left;
    for (const Countdown& down : counter.threads) {
      total += down.asked - down.left;
    }
    return total;
  }
  return 0;
}

numasim::Cycles Machine::access_path(SimThread& thread, simos::VAddr addr,
                                     std::uint32_t size, bool is_write) {
  auto& page_table = space_.page_table();
  const simos::PageId page = simos::page_of(addr);

  // First-touch trap (§6): a protected page delivers a synchronous fault to
  // the installed handler, which must unprotect before the access retries.
  if (page_table.any_protected() && page_table.is_protected(page)) {
    if (!fault_handler_) {
      throw std::runtime_error("segfault: access to protected page with no handler");
    }
    fault_handler_(FaultEvent{.tid = thread.tid_,
                              .core = thread.core_,
                              .addr = addr,
                              .is_write = is_write,
                              .stack = thread.stack_});
    if (page_table.is_protected(page)) {
      throw std::runtime_error("segfault: fault handler left page protected");
    }
  }

  const numasim::DomainId home = page_table.home_of(page, thread.domain_);
  const numasim::MemoryResult result =
      system_.access(thread.core_, home, addr, is_write, thread.clock_);

  thread.clock_ += result.latency + 1;  // +1 issue cycle
  ++thread.instructions_;
  ++thread.memory_accesses_;
  thread.charge_fuel(1);

  // Each counter checks its filter and counts down inline; an observer is
  // called, and its event built, only when its count or deadline runs out.
  if (!counters_.empty()) {
    latest_event_time_ = std::max(latest_event_time_, thread.clock_);
    for (Counter& counter : counters_) {
      if (due(counter, thread, result, is_write)) {
        notify_access(counter, thread, addr, size, is_write, home, result);
      }
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->ring(thread.tid_).add(
        support::TelemetryCounter::kInstructions);
  }
  return result.latency;
}

bool Machine::due(Counter& counter, const SimThread& thread,
                  const numasim::MemoryResult& result, bool is_write) {
  switch (counter.interest.counts) {
    case Counts::kEvery:
      return true;
    case Counts::kClock:
      return thread.clock_ >= counter.global.left;
    case Counts::kL3Misses:
      if (!result.l3_miss) return false;
      break;
    case Counts::kSlowLoads:
      if (is_write || result.latency < counter.interest.latency_threshold) {
        return false;
      }
      break;
    case Counts::kNothing:
    case Counts::kAccesses:
    case Counts::kInstructions:
      break;
  }
  Countdown& down = counter.countdown(thread.tid_);
  if (down.left > 1) {
    --down.left;
    return false;
  }
  if (thread.clock_ < down.quiet_until) {
    counter.counted += down.asked;
    down.left = down.asked;
    return false;
  }
  return true;
}

void Machine::notify_access(Counter& counter, SimThread& thread,
                            simos::VAddr addr, std::uint32_t size,
                            bool is_write, numasim::DomainId home,
                            const numasim::MemoryResult& result) {
  const AccessEvent event{.tid = thread.tid_,
                          .core = thread.core_,
                          .thread_domain = thread.domain_,
                          .home_domain = home,
                          .addr = addr,
                          .size = size,
                          .is_write = is_write,
                          .latency = result.latency,
                          .source = result.source,
                          .l3_miss = result.l3_miss,
                          .time = thread.clock_,
                          .op_index = thread.instructions_,
                          .leaf_frame = thread.leaf_frame(),
                          .stack = thread.stack_};
  switch (counter.interest.counts) {
    case Counts::kEvery:
      counter.observer->on_access(thread, event);
      return;
    case Counts::kClock:
      counter.global.left = counter.global.asked =
          counter.observer->on_count(thread, thread.clock_, &event).count;
      return;
    case Counts::kNothing:
    case Counts::kAccesses:
    case Counts::kL3Misses:
    case Counts::kSlowLoads:
    case Counts::kInstructions:
      count_down(counter, counter.countdown(thread.tid_), thread, 1, &event);
      return;
  }
}

void Machine::notify_exec(SimThread& thread, std::uint64_t count) {
  if (!counters_.empty()) {
    latest_event_time_ = std::max(latest_event_time_, thread.clock_);
  }
  for (Counter& counter : counters_) {
    switch (counter.interest.counts) {
      case Counts::kEvery:
        counter.observer->on_exec(thread, count);
        break;
      case Counts::kClock:
        if (thread.clock_ >= counter.global.left) {
          counter.global.left = counter.global.asked =
              counter.observer->on_count(thread, thread.clock_, nullptr)
                  .count;
        }
        break;
      case Counts::kInstructions:
        count_down(counter, counter.countdown(thread.tid_), thread, count,
                   nullptr);
        break;
      case Counts::kNothing:
      case Counts::kAccesses:
      case Counts::kL3Misses:
      case Counts::kSlowLoads:
        break;  // accesses only
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->ring(thread.tid_).add(
        support::TelemetryCounter::kInstructions, count);
  }
}

simos::VAddr Machine::wrapped_malloc(SimThread& thread, std::uint64_t size,
                                     std::string_view name,
                                     simos::PolicySpec policy) {
  const simos::HeapBlock block = space_.heap_alloc(size, policy);
  // Allocator bookkeeping cost: a small constant, like a real malloc.
  thread.clock_ += 50;
  ++thread.instructions_;

  if (protect_on_alloc_) {
    space_.page_table().protect_range(simos::page_of(block.start),
                                      block.page_count);
  }
  if (!observers_.empty()) {
    const AllocEvent event{.tid = thread.tid_,
                           .block = block,
                           .name = std::string(name),
                           .policy = policy,
                           .stack = thread.stack_};
    for (auto* obs : observers_) obs->on_alloc(event);
  }
  return block.start;
}

void Machine::wrapped_free(SimThread& thread, simos::VAddr addr) {
  const auto block = space_.heap_free(addr);
  if (!block) {
    throw std::invalid_argument("free: not a live heap block start");
  }
  thread.clock_ += 50;
  ++thread.instructions_;
  if (!observers_.empty()) {
    const FreeEvent event{.tid = thread.tid_, .block = *block};
    for (auto* obs : observers_) obs->on_free(event);
  }
}

void parallel_region(Machine& machine, std::uint32_t count,
                     std::string_view region, std::vector<FrameId> base_stack,
                     std::function<Task(SimThread&, std::uint32_t)> body) {
  const FrameId region_frame = machine.frames().intern(
      region, "", 0, FrameKind::kParallelRegion);
  // Scatter binding: worker i lands in domain (i mod D), like
  // OMP_PLACES=scatter / the paper's thread-per-core binding. A compact
  // binding would put a small team entirely inside domain 0 and hide every
  // NUMA effect. Memory-only domains (a CXL-style far tier) have no cores,
  // so only compute domains participate.
  const auto& topo = machine.topology();
  const auto scatter_core = [&topo](std::uint32_t i) -> numasim::CoreId {
    const std::uint32_t domains = topo.compute_domain_count();
    const std::uint32_t domain = i % domains;
    const std::uint32_t slot = (i / domains) % topo.cores_per_domain;
    return domain * topo.cores_per_domain + slot;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    machine.spawn(
        [body, region_frame, i](SimThread& t) -> Task {
          ScopedFrame frame(t, region_frame);
          Task inner = body(t, i);
          while (!inner.done()) {
            inner.resume();
            if (!inner.done()) co_await t.tick();
          }
        },
        scatter_core(i), base_stack);
  }
  machine.run();
}

}  // namespace numaprof::simrt
