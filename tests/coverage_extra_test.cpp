// Fine-grained coverage of edge behaviours across modules: sampler period
// statistics, interconnect accounting, table rendering corners, trace
// phase thresholds, and page-table boundary conditions.
#include <gtest/gtest.h>

#include "apps/common.hpp"
#include "apps/distributions.hpp"
#include "core/trace.hpp"
#include "numasim/system.hpp"
#include "pmu/sampler.hpp"
#include "simrt/machine.hpp"
#include "support/table.hpp"

namespace numaprof {
namespace {

TEST(IbsJitter, InterSampleGapsStayWithinTheDocumentedSpread) {
  // +-12.5% jitter: every gap between consecutive IBS samples on a pure
  // instruction stream lies in [0.875, 1.125] x period.
  pmu::EventConfig cfg = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.period = 400;
  const auto sampler = pmu::make_sampler(cfg);
  simrt::Machine m(numasim::test_machine(1, 1));
  m.add_observer(*sampler);
  std::vector<std::uint64_t> sample_ops;
  sampler->set_sink([&](const pmu::Sample& s) {
    sample_ops.push_back(s.op_index);
  });
  m.spawn([](simrt::SimThread& t) -> simrt::Task {
    // Single-instruction batches: op_index has per-instruction resolution
    // (a batched exec() reports the batch-end op for every sample in it).
    for (int i = 0; i < 100'000; ++i) {
      t.exec(1);
      if (i % 128 == 0) co_await t.tick();
    }
  });
  m.run();
  ASSERT_GT(sample_ops.size(), 100u);
  for (std::size_t i = 1; i < sample_ops.size(); ++i) {
    const auto gap = sample_ops[i] - sample_ops[i - 1];
    EXPECT_GE(gap, 350u) << "gap " << i;
    EXPECT_LE(gap, 450u) << "gap " << i;
  }
}

TEST(PebsLl, ThresholdSweepMonotonicallyFiltersEvents) {
  // Higher latency thresholds qualify (weakly) fewer events.
  const auto events_at = [](numasim::Cycles threshold) {
    pmu::EventConfig cfg = pmu::EventConfig::mini(pmu::Mechanism::kPebsLl);
    cfg.period = 10;
    cfg.latency_threshold = threshold;
    const auto sampler = pmu::make_sampler(cfg);
    simrt::Machine m(numasim::test_machine(2, 2));
    m.add_observer(*sampler);
    m.spawn([](simrt::SimThread& t) -> simrt::Task {
      for (int i = 0; i < 3000; ++i) {
        t.load(simos::kHeapBase + (i % 700) * 64);
        if (i % 64 == 0) co_await t.tick();
      }
    });
    m.run();
    return m.counted(*sampler);
  };
  const auto any = events_at(1);
  const auto l2ish = events_at(15);
  const auto dram = events_at(90);
  const auto absurd = events_at(100000);
  EXPECT_GE(any, l2ish);
  EXPECT_GE(l2ish, dram);
  EXPECT_GT(dram, 0u);
  EXPECT_EQ(absurd, 0u);
}

TEST(Interconnect, TransferAccountingPerDirectedLink) {
  numasim::System sys(numasim::test_machine(3, 1));
  // Domain 0 core reads pages homed in domains 1 and 2.
  sys.access(0, 1, 0x10000, false, 0);
  sys.access(0, 1, 0x20000, false, 10);
  sys.access(0, 2, 0x30000, false, 20);
  const auto& net = sys.interconnect();
  EXPECT_EQ(net.transfers(0, 1), 2u);
  EXPECT_EQ(net.transfers(0, 2), 1u);
  EXPECT_EQ(net.transfers(1, 0), 0u);  // response path not double-counted
  EXPECT_EQ(net.inbound_transfers(1), 2u);
  EXPECT_EQ(net.inbound_transfers(0), 0u);
  sys.reset_stats();
  EXPECT_EQ(sys.interconnect().transfers(0, 1), 0u);
}

TEST(Table, EmptyTableRendersHeaderOnly) {
  support::Table t({"a", "bb"});
  EXPECT_EQ(t.row_count(), 0u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,bb\n");
}

TEST(Table, NewlineCellsAreCsvQuoted) {
  support::Table t({"x"});
  t.add_row({"two\nlines"});
  EXPECT_NE(t.to_csv().find("\"two\nlines\""), std::string::npos);
}

TEST(TracePhases, ThresholdSweepChangesSegmentation) {
  // Alternating local / remote windows: a threshold below the remote
  // windows' fraction splits phases; a threshold of ~1 collapses them.
  std::vector<core::TraceEvent> events;
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (int i = 0; i < 10; ++i) {
      core::TraceEvent e;
      e.time = 1000 * w + 10 * i + 1;
      e.mismatch = (w % 2 == 1);
      events.push_back(e);
    }
  }
  const core::TraceAnalysis analysis(events);
  EXPECT_GE(analysis.phases(8, 0.5).size(), 4u);
  EXPECT_EQ(analysis.phases(8, 1.1).size(), 1u);  // nothing is "heavy"
}

TEST(PageTable, ProtectRangeCoversUnregisteredPagesToo) {
  simos::PageTable pt(2);
  pt.protect_range(100, 3);  // no region registered: still protectable
  EXPECT_TRUE(pt.is_protected(101));
  pt.unprotect(100);
  pt.unprotect(101);
  pt.unprotect(102);
  EXPECT_FALSE(pt.any_protected());
}

TEST(PageTable, UnregisterUnknownRegionIsNoOp) {
  simos::PageTable pt(2);
  EXPECT_NO_THROW(pt.unregister_region(42));
}

TEST(Machine, HasFaultHandlerReflectsInstallation) {
  simrt::Machine m(numasim::test_machine(2, 2));
  EXPECT_FALSE(m.has_fault_handler());
  m.set_fault_handler([](const simrt::FaultEvent&) {});
  EXPECT_TRUE(m.has_fault_handler());
  m.set_fault_handler({});
  EXPECT_FALSE(m.has_fault_handler());
}

TEST(Topology, FirstCoreOfDomain) {
  const auto t = numasim::amd_magny_cours();
  EXPECT_EQ(t.first_core_of(0), 0u);
  EXPECT_EQ(t.first_core_of(3), 18u);
}

TEST(Distribution, InterleavedRunBalancesControllers) {
  simrt::Machine m(numasim::amd_magny_cours());
  const apps::DistributionRun run = apps::run_distribution(
      m, {.threads = 16,
          .pages_per_thread = 2,
          .sweeps = 2,
          .distribution = apps::Distribution::kInterleaved});
  // Requests spread across all 8 controllers.
  std::uint64_t nonzero = 0;
  for (const auto r : run.controller_requests) nonzero += r > 0;
  EXPECT_EQ(nonzero, 8u);
  EXPECT_LT(run.controller_imbalance, 1.5);
}

}  // namespace
}  // namespace numaprof
