#include <gtest/gtest.h>

#include <vector>

#include "numasim/topology.hpp"
#include "simrt/machine.hpp"

namespace numaprof::simrt {
namespace {

using numasim::test_machine;

Machine small() { return Machine(test_machine(2, 2)); }

TEST(FrameRegistry, InternsAndDedupes) {
  FrameRegistry reg;
  const FrameId a = reg.intern("foo", "a.c", 10);
  const FrameId b = reg.intern("foo", "a.c", 10);
  const FrameId c = reg.intern("foo", "a.c", 11);
  const FrameId d = reg.intern("foo", "a.c", 10, FrameKind::kLoop);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(reg.info(a).name, "foo");
  EXPECT_EQ(reg.describe(a), "foo (a.c:10)");
  EXPECT_EQ(reg.describe(reg.intern("bare")), "bare");
}

TEST(Machine, SpawnRunsKernelToCompletion) {
  Machine m = small();
  int steps = 0;
  m.spawn([&steps](SimThread& t) -> Task {
    for (int i = 0; i < 5; ++i) {
      t.exec(10);
      ++steps;
      co_await t.tick();
    }
  });
  m.run();
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(m.thread(0).instructions(), 50u);
  EXPECT_GE(m.elapsed(), 50u);
}

TEST(Machine, LoadAdvancesClockByLatency) {
  Machine m = small();
  numasim::Cycles latency = 0;
  m.spawn([&](SimThread& t) -> Task {
    const auto before = t.now();
    latency = t.load(simos::kHeapBase);  // cold: DRAM
    EXPECT_EQ(t.now(), before + latency + 1);
    co_return;
  });
  m.run();
  EXPECT_GT(latency, 100u);
  EXPECT_EQ(m.thread(0).memory_accesses(), 1u);
}

TEST(Machine, CoreBindingAndDomains) {
  Machine m = small();
  m.spawn([](SimThread&) -> Task { co_return; }, 3);
  EXPECT_EQ(m.thread(0).core(), 3u);
  EXPECT_EQ(m.thread(0).domain(), 1u);
  EXPECT_THROW(m.spawn([](SimThread&) -> Task { co_return; }, 99),
               std::out_of_range);
}

TEST(Machine, DefaultBindingIsRoundRobin) {
  Machine m = small();
  for (int i = 0; i < 6; ++i) {
    m.spawn([](SimThread&) -> Task { co_return; });
  }
  EXPECT_EQ(m.thread(0).core(), 0u);
  EXPECT_EQ(m.thread(3).core(), 3u);
  EXPECT_EQ(m.thread(4).core(), 0u);  // wraps
}

TEST(Machine, SequentialPhasesAccumulateTime) {
  Machine m = small();
  m.spawn([](SimThread& t) -> Task {
    t.exec(100);
    co_return;
  });
  m.run();
  const auto after_first = m.elapsed();
  m.spawn([](SimThread& t) -> Task {
    t.exec(100);
    co_return;
  });
  m.run();
  EXPECT_GE(m.elapsed(), after_first + 100);
}

TEST(Machine, LeastClockSchedulingInterleavesFairly) {
  Machine m(test_machine(1, 4), MachineConfig{.quantum = 10});
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    m.spawn([&order, id](SimThread& t) -> Task {
      for (int i = 0; i < 3; ++i) {
        t.exec(10);
        order.push_back(id);
        co_await t.tick();
      }
    });
  }
  m.run();
  // With equal quanta, threads alternate rather than running to completion.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_NE(order[0], order[1]);
}

TEST(Machine, CallStackMaintenance) {
  Machine m = small();
  const FrameId f1 = m.frames().intern("outer");
  const FrameId f2 = m.frames().intern("inner");
  std::vector<std::size_t> depths;
  m.spawn(
      [&](SimThread& t) -> Task {
        depths.push_back(t.call_stack().size());
        {
          ScopedFrame a(t, f1);
          depths.push_back(t.call_stack().size());
          {
            ScopedFrame b(t, f2);
            depths.push_back(t.call_stack().size());
            EXPECT_EQ(t.leaf_frame(), f2);
          }
        }
        depths.push_back(t.call_stack().size());
        co_return;
      },
      std::nullopt, {m.frames().intern("main")});
  m.run();
  EXPECT_EQ(depths, (std::vector<std::size_t>{1, 2, 3, 1}));
}

TEST(Machine, MallocFreeEventsReachObservers) {
  struct Recorder : MachineObserver {
    std::vector<std::string> allocs;
    int frees = 0;
    void on_alloc(const AllocEvent& e) override {
      allocs.push_back(e.name);
      EXPECT_FALSE(e.stack.empty());
    }
    void on_free(const FreeEvent&) override { ++frees; }
  } recorder;

  Machine m = small();
  m.add_observer(recorder);
  const FrameId main_f = m.frames().intern("main");
  m.spawn(
      [&](SimThread& t) -> Task {
        const simos::VAddr a = t.malloc(100, "thing");
        t.free(a);
        co_return;
      },
      std::nullopt, {main_f});
  m.run();
  ASSERT_EQ(recorder.allocs.size(), 1u);
  EXPECT_EQ(recorder.allocs[0], "thing");
  EXPECT_EQ(recorder.frees, 1);
}

TEST(Machine, FreeOfBogusPointerThrows) {
  Machine m = small();
  m.spawn([](SimThread& t) -> Task {
    t.free(simos::kHeapBase + 12345);
    co_return;
  });
  EXPECT_THROW(m.run(), std::invalid_argument);
}

TEST(Machine, ProtectedAccessWithoutHandlerFaults) {
  Machine m = small();
  m.set_protect_on_alloc(true);
  m.spawn([](SimThread& t) -> Task {
    const simos::VAddr a = t.malloc(100, "x");
    t.store(a);  // traps, no handler -> simulated crash
    co_return;
  });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, FaultHandlerUnprotectsAndAccessProceeds) {
  Machine m = small();
  m.set_protect_on_alloc(true);
  int faults = 0;
  m.set_fault_handler([&](const FaultEvent& f) {
    ++faults;
    EXPECT_TRUE(f.is_write);
    m.memory().page_table().unprotect(simos::page_of(f.addr));
  });
  m.spawn([](SimThread& t) -> Task {
    const simos::VAddr a = t.malloc(2 * simos::kPageBytes, "x");
    t.store(a);                          // fault 1
    t.store(a + 8);                      // same page: no fault
    t.store(a + simos::kPageBytes);      // fault 2
    co_return;
  });
  m.run();
  EXPECT_EQ(faults, 2);
}

TEST(Machine, HandlerThatDoesNotUnprotectIsFatal) {
  Machine m = small();
  m.set_protect_on_alloc(true);
  m.set_fault_handler([](const FaultEvent&) {});
  m.spawn([](SimThread& t) -> Task {
    const simos::VAddr a = t.malloc(100, "x");
    t.store(a);
    co_return;
  });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, AccessObserverSeesEventFields) {
  struct Recorder : MachineObserver {
    std::vector<AccessEvent> events;
    void on_access(const SimThread&, const AccessEvent& e) override {
      AccessEvent copy = e;
      copy.stack = {};
      events.push_back(copy);
    }
  } recorder;

  Machine m = small();
  m.add_observer(recorder);
  m.spawn(
      [](SimThread& t) -> Task {
        t.load(simos::kHeapBase + 0x100, 4);
        t.store(simos::kHeapBase + 0x100);
        co_return;
      },
      2);  // core 2 -> domain 1
  m.run();
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_FALSE(recorder.events[0].is_write);
  EXPECT_TRUE(recorder.events[1].is_write);
  EXPECT_EQ(recorder.events[0].size, 4u);
  EXPECT_EQ(recorder.events[0].thread_domain, 1u);
  EXPECT_EQ(recorder.events[0].home_domain, 1u);  // first touch: local
  EXPECT_GT(recorder.events[0].latency, recorder.events[1].latency);
}

// An observer that declares no interest is called as every observer was
// before machines counted: on_access for every access and on_exec for
// every exec batch, as they happen, in order. The digest of every call
// and every AccessEvent field pins that stream.
TEST(Machine, DefaultObserverSeesEveryEventInOrder) {
  struct Recorder : MachineObserver {
    std::uint64_t digest = 14695981039346656037ull;
    std::uint64_t accesses = 0;
    std::uint64_t execs = 0;
    std::uint64_t exec_instructions = 0;
    void add(std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xffu;
        digest *= 1099511628211ull;
      }
    }
    void on_exec(const SimThread& t, std::uint64_t count) override {
      ++execs;
      exec_instructions += count;
      add(0);
      add(t.tid());
      add(count);
      add(t.now());
    }
    void on_access(const SimThread& t, const AccessEvent& e) override {
      ++accesses;
      EXPECT_EQ(e.tid, t.tid());
      EXPECT_EQ(e.time, t.now());
      EXPECT_EQ(e.op_index, t.instructions());
      EXPECT_EQ(e.leaf_frame, t.leaf_frame());
      EXPECT_EQ(e.stack.size(), t.call_stack().size());
      add(1);
      for (const std::uint64_t v :
           {std::uint64_t{e.tid}, std::uint64_t{e.core},
            std::uint64_t{e.thread_domain}, std::uint64_t{e.home_domain},
            e.addr, std::uint64_t{e.size}, std::uint64_t{e.is_write},
            e.latency, static_cast<std::uint64_t>(e.source),
            std::uint64_t{e.l3_miss}, e.time, e.op_index,
            std::uint64_t{e.leaf_frame}}) {
        add(v);
      }
      for (const FrameId f : e.stack) add(f);
    }
  } recorder;

  Machine m = small();
  m.add_observer(recorder);
  const FrameId main_f = m.frames().intern("main");
  const FrameId loop_f = m.frames().intern("loop");
  for (std::uint32_t k = 0; k < 3; ++k) {
    m.spawn(
        [=](SimThread& t) -> Task {
          const simos::VAddr own = simos::kHeapBase + k * (1u << 16);
          for (std::uint64_t i = 0; i < 400; ++i) {
            ScopedFrame frame(t, loop_f);
            if (i % 3 == 0) {
              t.store(own + (i * 40 % 4096), 4);
            } else {
              t.load(own + (i * 72 % 8192));
            }
            if (i % 5 == 0) t.load(simos::kHeapBase + (i * 8 % 2048));
            if (i % 4 == 1) t.exec(1 + i % 17);
            if (i % 16 == 0) co_await t.tick();
          }
        },
        std::nullopt, {main_f});
  }
  m.run();
  EXPECT_EQ(recorder.accesses, m.total_accesses());
  EXPECT_EQ(recorder.accesses + recorder.exec_instructions,
            m.total_instructions());
  EXPECT_EQ(recorder.execs, 300u);
  EXPECT_EQ(recorder.digest, 0x8ec749d416af74e4ull)
      << "0x" << std::hex << recorder.digest;
}

// A counting observer is called only on the event that runs its count
// out, and told how many events the count covered: an exec batch can
// overshoot it.
TEST(Machine, CountingObserverIsCalledWhenItsCountRunsOut) {
  struct EveryFifth : MachineObserver {
    std::vector<std::uint64_t> counted;
    std::uint64_t on_accesses = 0;
    Interest interest() const override {
      Interest interest;
      interest.counts = Counts::kInstructions;
      interest.first = 5;
      return interest;
    }
    NextCall on_count(const SimThread&, std::uint64_t n,
                      const AccessEvent* access) override {
      counted.push_back(n);
      if (access != nullptr) ++on_accesses;
      return 5;
    }
  } observer;
  Machine m = small();
  m.add_observer(observer);
  m.spawn([](SimThread& t) -> Task {
    for (int i = 0; i < 12; ++i) t.load(simos::kHeapBase + 64 * i);
    t.exec(7);  // 3 short of the third call: overshoots it by 4
    t.exec(2);
    co_return;
  });
  m.run();
  EXPECT_EQ(observer.counted, (std::vector<std::uint64_t>{5, 5, 9}));
  EXPECT_EQ(observer.on_accesses, 2u);
  EXPECT_EQ(m.counted(observer), 21u);  // the 2 since the last call too
}

TEST(Machine, ClockDeadlineFiresOnTheRunningThreadsClock) {
  struct Ticker : MachineObserver {
    std::vector<std::uint64_t> clocks;
    Interest interest() const override {
      Interest interest;
      interest.counts = Counts::kClock;
      interest.first = 1000;
      return interest;
    }
    NextCall on_count(const SimThread& t, std::uint64_t clock,
                      const AccessEvent*) override {
      EXPECT_EQ(clock, t.now());
      clocks.push_back(clock);
      return clock + 1000;
    }
  } ticker;
  Machine m = small();
  m.add_observer(ticker);
  m.spawn([](SimThread& t) -> Task {
    for (int i = 0; i < 10; ++i) t.exec(300);
    co_return;
  });
  m.run();
  EXPECT_EQ(ticker.clocks, (std::vector<std::uint64_t>{1200, 2400}));
  EXPECT_EQ(m.counted(ticker), 0u);
}

TEST(Machine, RemoveObserverStopsDelivery) {
  struct Counter : MachineObserver {
    int execs = 0;
    void on_exec(const SimThread&, std::uint64_t) override { ++execs; }
  } counter;
  Machine m = small();
  m.add_observer(counter);
  m.spawn([](SimThread& t) -> Task {
    t.exec(1);
    co_return;
  });
  m.run();
  m.remove_observer(counter);
  m.spawn([](SimThread& t) -> Task {
    t.exec(1);
    co_return;
  });
  m.run();
  EXPECT_EQ(counter.execs, 1);
}

TEST(Machine, ParallelRegionSpawnsAndJoins) {
  Machine m = small();
  std::vector<std::uint32_t> seen;
  const FrameId main_f = m.frames().intern("main");
  parallel_region(m, 4, "region._omp", {main_f},
                  [&](SimThread& t, std::uint32_t index) -> Task {
                    t.exec(10);
                    seen.push_back(index);
                    EXPECT_EQ(t.call_stack().size(), 2u);  // main + region
                    co_return;
                  });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(m.thread_count(), 4u);
}

TEST(Machine, DeterministicReplay) {
  const auto run_once = []() {
    Machine m(test_machine(2, 4), MachineConfig{.quantum = 100});
    parallel_region(m, 8, "r", {},
                    [&](SimThread& t, std::uint32_t index) -> Task {
                      for (int i = 0; i < 50; ++i) {
                        t.load(simos::kStaticBase + (index * 50 + i) * 64);
                        t.exec(3);
                        co_await t.tick();
                      }
                    });
    return m.elapsed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Machine, ExceptionFromKernelPropagates) {
  Machine m = small();
  m.spawn([](SimThread& t) -> Task {
    t.exec(1);
    throw std::logic_error("kernel bug");
    co_return;
  });
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, TotalsAggregateAcrossThreads) {
  Machine m = small();
  for (int i = 0; i < 3; ++i) {
    m.spawn([](SimThread& t) -> Task {
      t.exec(10);
      t.load(simos::kStaticBase);
      co_return;
    });
  }
  m.run();
  EXPECT_EQ(m.total_instructions(), 33u);
  EXPECT_EQ(m.total_accesses(), 3u);
}

}  // namespace
}  // namespace numaprof::simrt
