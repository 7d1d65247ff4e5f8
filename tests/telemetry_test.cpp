// The live telemetry layer (support/telemetry.hpp): ring wraparound and
// drop accounting, detail truncation, concurrent publishers against a
// concurrent snapshot consumer (the TSan job runs this), hub slot reuse,
// and the deterministic snapshot fold.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/telemetry.hpp"

namespace numaprof::support {
namespace {

TelemetryEvent make_event(TelemetryEventKind kind, std::uint32_t tid,
                          std::uint64_t time, std::uint64_t value = 0) {
  TelemetryEvent event;
  event.kind = kind;
  event.tid = tid;
  event.time = time;
  event.value = value;
  return event;
}

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TelemetryRing(0, 1, 0).event_capacity(), 8u);
  EXPECT_EQ(TelemetryRing(0, 1, 5).event_capacity(), 8u);
  EXPECT_EQ(TelemetryRing(0, 1, 9).event_capacity(), 16u);
  EXPECT_EQ(TelemetryRing(0, 1, 256).event_capacity(), 256u);
}

TEST(TelemetryRing, CountersAccumulate) {
  TelemetryRing ring(3, 2, 8);
  ring.add(TelemetryCounter::kSamples);
  ring.add(TelemetryCounter::kSamples, 4);
  ring.add(TelemetryCounter::kInstructions, 100);
  EXPECT_EQ(ring.counter(TelemetryCounter::kSamples), 5u);
  EXPECT_EQ(ring.counter(TelemetryCounter::kInstructions), 100u);
  EXPECT_EQ(ring.counter(TelemetryCounter::kDroppedSamples), 0u);
  EXPECT_EQ(ring.tid(), 3u);
}

TEST(TelemetryRing, DomainColumnsIgnoreOutOfRange) {
  TelemetryRing ring(0, 2, 8);
  ring.add_domain_sample(0, false);
  ring.add_domain_sample(1, true);
  ring.add_domain_sample(1, true);
  ring.add_domain_sample(7, false);  // out of range: dropped, no crash
  EXPECT_EQ(ring.domain_match(0), 1u);
  EXPECT_EQ(ring.domain_mismatch(1), 2u);
  EXPECT_EQ(ring.domain_match(7), 0u);
}

TEST(TelemetryRing, FullRingDropsNewestAndCountsIt) {
  TelemetryRing ring(0, 1, 8);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const bool kept = ring.publish(
        make_event(TelemetryEventKind::kPeriodRetune, 0, i, i));
    EXPECT_EQ(kept, i < 8) << "event " << i;
  }
  EXPECT_EQ(ring.counter(TelemetryCounter::kEventsDropped), 4u);

  std::vector<TelemetryEvent> drained;
  ring.drain(drained);
  ASSERT_EQ(drained.size(), 8u);
  // Newest-loses: the oldest 8 survive, in FIFO order.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(drained[i].time, i);
    EXPECT_EQ(drained[i].value, i);
  }
}

TEST(TelemetryRing, DrainFreesCapacityForNewEvents) {
  TelemetryRing ring(0, 1, 8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ring.publish(make_event(TelemetryEventKind::kThreadStart, 0, i));
  }
  std::vector<TelemetryEvent> drained;
  ring.drain(drained);
  EXPECT_EQ(drained.size(), 8u);

  // Wraparound: the ring is reusable after a drain, indices keep growing.
  for (std::uint64_t i = 100; i < 103; ++i) {
    EXPECT_TRUE(
        ring.publish(make_event(TelemetryEventKind::kThreadFinish, 0, i)));
  }
  drained.clear();
  ring.drain(drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].time, 100u);
  EXPECT_EQ(drained[2].time, 102u);
  EXPECT_EQ(ring.counter(TelemetryCounter::kEventsDropped), 0u);
}

TEST(TelemetryEventDetail, TruncatesToInlineBuffer) {
  TelemetryEvent event;
  event.set_detail("short");
  EXPECT_EQ(event.detail_view(), "short");
  const std::string long_text(200, 'x');
  event.set_detail(long_text);
  EXPECT_EQ(event.detail_view().size(), sizeof(event.detail) - 1);
  EXPECT_EQ(event.detail_view(), long_text.substr(0, sizeof(event.detail) - 1));
}

TEST(TelemetryHub, RingPerThreadAndOverflowSlot) {
  TelemetryHub hub;
  TelemetryRing& r0 = hub.ring(0);
  TelemetryRing& r7 = hub.ring(7);
  EXPECT_NE(&r0, &r7);
  EXPECT_EQ(&r0, &hub.ring(0));  // stable on repeat contact
  // Out-of-range tids share the overflow ring (last slot) instead of
  // being lost.
  TelemetryRing& overflow_a = hub.ring(TelemetryHub::kMaxThreads + 5);
  TelemetryRing& overflow_b = hub.ring(TelemetryHub::kMaxThreads + 900);
  EXPECT_EQ(&overflow_a, &overflow_b);
  EXPECT_EQ(overflow_a.tid(), TelemetryHub::kMaxThreads - 1);
  EXPECT_EQ(hub.ring_count(), 3u);
}

TEST(TelemetryHub, DomainCountAppliesToRingsCreatedLater) {
  TelemetryHub hub;
  TelemetryRing& before = hub.ring(0);
  hub.set_domain_count(4);
  TelemetryRing& after = hub.ring(1);
  EXPECT_EQ(before.domain_count(), 1u);
  EXPECT_EQ(after.domain_count(), 4u);
}

TEST(TelemetryHub, SnapshotFoldIsDeterministic) {
  TelemetryConfig config;
  config.domain_count = 2;
  TelemetryHub hub(config);
  // Touch rings in a scrambled order; the fold must ascend by tid anyway.
  for (const std::uint32_t tid : {9u, 2u, 5u}) {
    TelemetryRing& ring = hub.ring(tid);
    ring.add(TelemetryCounter::kSamples, tid);
    ring.add_domain_sample(tid % 2, tid == 5);
  }
  // Same time on two rings: the (time, tid, kind) sort breaks the tie.
  hub.ring(5).publish(make_event(TelemetryEventKind::kThreadStart, 5, 40));
  hub.ring(2).publish(make_event(TelemetryEventKind::kThreadFinish, 2, 40));
  hub.ring(9).publish(make_event(TelemetryEventKind::kPeriodRetune, 9, 10));

  const TelemetrySnapshot snap = hub.snapshot(123);
  EXPECT_EQ(snap.sequence, 1u);
  EXPECT_EQ(snap.time, 123u);
  ASSERT_EQ(snap.threads.size(), 3u);
  EXPECT_EQ(snap.threads[0].tid, 2u);
  EXPECT_EQ(snap.threads[1].tid, 5u);
  EXPECT_EQ(snap.threads[2].tid, 9u);
  EXPECT_EQ(snap.total(TelemetryCounter::kSamples), 16u);
  EXPECT_EQ(snap.domain_match[0], 1u);   // tid 2
  EXPECT_EQ(snap.domain_match[1], 1u);   // tid 9
  EXPECT_EQ(snap.domain_mismatch[1], 1u);  // tid 5 mismatch

  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[0].time, 10u);
  EXPECT_EQ(snap.events[1].tid, 2u);  // time tie: lower tid first
  EXPECT_EQ(snap.events[2].tid, 5u);

  // Events are drained exactly once; counters stay cumulative.
  const TelemetrySnapshot again = hub.snapshot(456);
  EXPECT_EQ(again.sequence, 2u);
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.total(TelemetryCounter::kSamples), 16u);
}

TEST(TelemetryHub, DropFraction) {
  TelemetryHub hub;
  EXPECT_EQ(hub.snapshot().drop_fraction(), 0.0);
  hub.ring(0).add(TelemetryCounter::kSamples, 3);
  hub.ring(0).add(TelemetryCounter::kDroppedSamples, 1);
  EXPECT_DOUBLE_EQ(hub.snapshot().drop_fraction(), 0.25);
}

// The concurrency contract under a real race: N publisher threads hammer
// their own rings (counters + events) while the main thread snapshots
// concurrently. Run under TSan this is the lock-freedom proof; under the
// default build it checks conservation (nothing lost, nothing invented).
TEST(TelemetryHub, ConcurrentPublishersAndSnapshotConsumer) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kEventsPerThread = 2000;
  TelemetryHub hub(TelemetryConfig{.domain_count = 2, .event_capacity = 64});

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hub, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      TelemetryRing& ring = hub.ring(t);
      for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
        ring.add(TelemetryCounter::kSamples);
        ring.add_domain_sample(static_cast<std::uint32_t>(i % 2), i % 3 == 0);
        TelemetryEvent event;
        event.kind = TelemetryEventKind::kPeriodRetune;
        event.tid = t;
        event.time = i;
        event.value = i;
        event.set_detail("concurrent publish");
        ring.publish(event);
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t drained = 0;
  for (int round = 0; round < 50; ++round) {
    drained += hub.snapshot(round).events.size();
  }
  for (std::thread& w : workers) w.join();

  const TelemetrySnapshot final_snap = hub.snapshot(999);
  drained += final_snap.events.size();
  // Conservation: every published event was either drained exactly once
  // or counted as dropped; every counter increment is visible.
  EXPECT_EQ(drained + final_snap.total(TelemetryCounter::kEventsDropped),
            kThreads * kEventsPerThread);
  EXPECT_EQ(final_snap.total(TelemetryCounter::kSamples),
            kThreads * kEventsPerThread);
  EXPECT_EQ(final_snap.domain_match[0] + final_snap.domain_match[1] +
                final_snap.domain_mismatch[0] + final_snap.domain_mismatch[1],
            kThreads * kEventsPerThread);
  EXPECT_EQ(final_snap.threads.size(), kThreads);
}

TEST(TelemetryHot, SpaceSavingBoundsSlotsAndEvicts) {
  TelemetryRing ring(0, 2, 8);
  // Fill every slot of the pages table with distinct keys.
  for (std::uint64_t key = 0; key < kHotSlotsPerTable; ++key) {
    ring.add_hot(HotTableKind::kPages, key, 0, false);
    ring.add_hot(HotTableKind::kPages, key, 0, false);
  }
  std::vector<HotCounter> rows;
  ring.collect_hot(HotTableKind::kPages, rows);
  EXPECT_EQ(rows.size(), kHotSlotsPerTable);

  // A new key on a full table evicts the current minimum and inherits
  // min+1 (the Space-Saving overestimate bound).
  ring.add_hot(HotTableKind::kPages, 0xdead, 1, true);
  rows.clear();
  ring.collect_hot(HotTableKind::kPages, rows);
  EXPECT_EQ(rows.size(), kHotSlotsPerTable);
  bool found = false;
  for (const HotCounter& row : rows) {
    if (row.key == 0xdead) {
      found = true;
      EXPECT_EQ(row.domain, 1u);
      EXPECT_EQ(row.count, 3u);  // evicted min (2) + 1
      EXPECT_EQ(row.mismatch, 1u);
    }
  }
  EXPECT_TRUE(found);

  // Same key, different domain is a distinct entry; same (key, domain)
  // bumps in place.
  TelemetryRing fresh(0, 2, 8);
  fresh.add_hot(HotTableKind::kVariables, 7, 0, false, "a[]");
  fresh.add_hot(HotTableKind::kVariables, 7, 1, true, "a[]");
  fresh.add_hot(HotTableKind::kVariables, 7, 0, true, "a[]");
  rows.clear();
  fresh.collect_hot(HotTableKind::kVariables, rows);
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t total = 0;
  for (const HotCounter& row : rows) {
    total += row.count;
    EXPECT_EQ(row.label, "a[]");
  }
  EXPECT_EQ(total, 3u);
}

TEST(TelemetryHot, EmptyLabelReadsBackEmpty) {
  // A default label is a view with a null data(); claiming a slot with it
  // must store (and read back) an empty label.
  TelemetryRing ring(0, 1, 8);
  ring.add_hot(HotTableKind::kVariables, 9, 0, false, std::string_view{});
  ring.add_hot(HotTableKind::kPaths, 4, 0, false);
  for (const HotTableKind table :
       {HotTableKind::kVariables, HotTableKind::kPaths}) {
    std::vector<HotCounter> rows;
    ring.collect_hot(table, rows);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].count, 1u);
    EXPECT_EQ(rows[0].label, "");
  }
}

TEST(TelemetryHot, HubSnapshotAggregatesAndRanksHotTables) {
  TelemetryConfig config;
  config.domain_count = 2;
  TelemetryHub hub(config);
  // Two threads touch overlapping pages; the fold must merge (key,
  // domain) groups across rings and rank per domain by count.
  for (int i = 0; i < 5; ++i) hub.ring(1).add_hot(HotTableKind::kPages, 0x10, 0, false);
  for (int i = 0; i < 3; ++i) hub.ring(2).add_hot(HotTableKind::kPages, 0x10, 0, true);
  for (int i = 0; i < 4; ++i) hub.ring(2).add_hot(HotTableKind::kPages, 0x20, 0, false);
  hub.ring(1).add_hot(HotTableKind::kPages, 0x30, 1, true);
  hub.ring(1).add_hot(HotTableKind::kVariables, 3, 0, false, "grid");
  hub.ring(2).add_hot(HotTableKind::kPaths, 11, 0, false, "main>solve");

  const TelemetrySnapshot snap = hub.snapshot(50);
  ASSERT_EQ(snap.hot_pages.size(), 3u);
  // Domain 0 first, ranked by merged count (8 for 0x10, 4 for 0x20).
  EXPECT_EQ(snap.hot_pages[0].key, 0x10u);
  EXPECT_EQ(snap.hot_pages[0].domain, 0u);
  EXPECT_EQ(snap.hot_pages[0].count, 8u);
  EXPECT_EQ(snap.hot_pages[0].mismatch, 3u);
  EXPECT_EQ(snap.hot_pages[1].key, 0x20u);
  EXPECT_EQ(snap.hot_pages[2].domain, 1u);
  ASSERT_EQ(snap.hot_vars.size(), 1u);
  EXPECT_EQ(snap.hot_vars[0].label, "grid");
  // Paths stay per thread (they are a drill-down, not a global table).
  ASSERT_EQ(snap.threads.size(), 2u);
  EXPECT_TRUE(snap.hot_pages == hub.snapshot(51).hot_pages)
      << "fold must be deterministic across snapshots";
  ASSERT_EQ(snap.threads[1].hot_paths.size(), 1u);
  EXPECT_EQ(snap.threads[1].hot_paths[0].label, "main>solve");
}

TEST(TelemetryHot, TopKTruncationPerDomain) {
  TelemetryHub hub(TelemetryConfig{.domain_count = 2, .event_capacity = 8});
  // 12 distinct keys per domain, one domain per ring (12 fits the 16
  // slots, so no Space-Saving noise): the snapshot keeps only the
  // kHotTopK hottest per domain.
  for (std::uint64_t key = 0; key < 12; ++key) {
    for (std::uint64_t n = 0; n <= key; ++n) {
      hub.ring(0).add_hot(HotTableKind::kPages, key, 0, false);
      hub.ring(1).add_hot(HotTableKind::kPages, 100 + key, 1, false);
    }
  }
  const TelemetrySnapshot snap = hub.snapshot(1);
  std::size_t domain0 = 0;
  std::size_t domain1 = 0;
  for (const HotCounter& row : snap.hot_pages) {
    (row.domain == 0 ? domain0 : domain1)++;
  }
  EXPECT_EQ(domain0, kHotTopK);
  EXPECT_EQ(domain1, kHotTopK);
  // The survivors are the hottest: counts 12..5 for domain 0.
  EXPECT_EQ(snap.hot_pages[0].count, 12u);
  EXPECT_EQ(snap.hot_pages[kHotTopK - 1].count, 5u);
}

// Multi-threaded publishers vs. a concurrent snapshot consumer, hot
// tables included; under TSan (the CI job runs this binary) this is the
// data-race proof for the hot-table claim/evict protocol. The final
// quiesced snapshot must also be internally ordered: domains ascend,
// counts descend within a domain.
TEST(TelemetryHub, ConcurrentHotPublishersKeepSnapshotsOrdered) {
  constexpr std::uint32_t kThreads = 6;
  constexpr std::uint64_t kTouchesPerThread = 4000;
  TelemetryHub hub(TelemetryConfig{.domain_count = 2, .event_capacity = 16});

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hub, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      TelemetryRing& ring = hub.ring(t);
      for (std::uint64_t i = 0; i < kTouchesPerThread; ++i) {
        ring.add_hot(HotTableKind::kPages, i % 24,
                     static_cast<std::uint32_t>(i % 2), i % 5 == 0);
        ring.add_hot(HotTableKind::kVariables, i % 7, 0, false, "v[]");
        ring.add(TelemetryCounter::kMemorySamples);
      }
    });
  }
  go.store(true, std::memory_order_release);

  const auto check_ordered = [](const TelemetrySnapshot& snap) {
    for (std::size_t i = 1; i < snap.hot_pages.size(); ++i) {
      const HotCounter& a = snap.hot_pages[i - 1];
      const HotCounter& b = snap.hot_pages[i];
      ASSERT_LE(a.domain, b.domain);
      if (a.domain == b.domain) {
        ASSERT_GE(a.count, b.count);
      }
    }
    for (const ThreadTelemetry& thread : snap.threads) {
      for (std::size_t i = 1; i < thread.hot_paths.size(); ++i) {
        ASSERT_GE(thread.hot_paths[i - 1].count, thread.hot_paths[i].count);
      }
    }
  };
  // Snapshots taken mid-race must already satisfy the ordering contract
  // (values are racy, ordering is not).
  for (int round = 0; round < 30; ++round) check_ordered(hub.snapshot(round));
  for (std::thread& w : workers) w.join();

  const TelemetrySnapshot final_snap = hub.snapshot(999);
  check_ordered(final_snap);
  EXPECT_EQ(final_snap.total(TelemetryCounter::kMemorySamples),
            kThreads * kTouchesPerThread);
  EXPECT_FALSE(final_snap.hot_pages.empty());
  EXPECT_FALSE(final_snap.hot_vars.empty());
  EXPECT_EQ(final_snap.hot_vars[0].label, "v[]");
}

}  // namespace
}  // namespace numaprof::support
