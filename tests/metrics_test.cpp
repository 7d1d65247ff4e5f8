#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/metrics.hpp"

namespace numaprof::core {
namespace {

TEST(MetricNames, IncludePerDomainColumns) {
  const auto names = metric_names(3);
  EXPECT_EQ(names.size(), kFixedMetricCount + 3);
  EXPECT_EQ(names[kNumaMatch], "NUMA_MATCH");
  EXPECT_EQ(names[kNumaMismatch], "NUMA_MISMATCH");
  EXPECT_EQ(names[domain_metric(0)], "NUMA_NODE0");
  EXPECT_EQ(names[domain_metric(2)], "NUMA_NODE2");
}

TEST(MetricStore, AddAndGet) {
  MetricStore store(2);
  EXPECT_EQ(store.get(5, kSamples), 0.0);
  store.add(5, kSamples, 1);
  store.add(5, kSamples, 2);
  store.add(5, kRemoteLatency, 100.5);
  EXPECT_DOUBLE_EQ(store.get(5, kSamples), 3.0);
  EXPECT_DOUBLE_EQ(store.get(5, kRemoteLatency), 100.5);
  EXPECT_TRUE(store.has(5));
  EXPECT_FALSE(store.has(4));
}

TEST(MetricStore, NodesListsTouchedOnly) {
  MetricStore store(2);
  store.add(3, kSamples, 1);
  store.add(7, kSamples, 1);
  EXPECT_EQ(store.nodes(), (std::vector<NodeId>{3, 7}));
}

TEST(MetricStore, MergeAccumulates) {
  MetricStore a(2), b(2);
  a.add(1, kSamples, 2);
  b.add(1, kSamples, 3);
  b.add(9, kNumaMismatch, 1);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get(1, kSamples), 5.0);
  EXPECT_DOUBLE_EQ(a.get(9, kNumaMismatch), 1.0);
}

TEST(Inclusive, SumsSubtree) {
  Cct cct;
  const simrt::FrameId frames[] = {1, 2};
  const NodeId leaf = cct.extend(kRootNode, frames);
  const NodeId mid = cct.node(leaf).parent;
  MetricStore store(1);
  store.add(leaf, kSamples, 4);
  store.add(mid, kSamples, 1);
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kSamples)[mid], 5.0);
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kSamples)[leaf], 4.0);
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kSamples)[kRootNode], 5.0);
}

TEST(Inclusive, BinNodesDoNotDoubleCount) {
  // A sample recorded at a variable node AND its bin node (the §5.2
  // synthetic-variable scheme) must count once in the variable's
  // inclusive value.
  Cct cct;
  const NodeId var = cct.child(kRootNode, NodeKind::kVariable, 1);
  const NodeId bin0 = cct.child(var, NodeKind::kBin, 0);
  const NodeId bin1 = cct.child(var, NodeKind::kBin, 1);
  MetricStore store(1);
  store.add(var, kMemorySamples, 2);   // two samples on the variable...
  store.add(bin0, kMemorySamples, 1);  // ...refined into two bins
  store.add(bin1, kMemorySamples, 1);
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kMemorySamples)[var], 2.0);
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kMemorySamples)[kRootNode], 2.0);
  // A query rooted AT a bin still answers for that bin.
  EXPECT_DOUBLE_EQ(inclusive(cct, store, kMemorySamples)[bin0], 1.0);
}

/// The recursive definition inclusive() implements in one pass: own
/// value plus every non-bin child's inclusive value.
double reference_inclusive(const std::vector<std::vector<NodeId>>& children,
                           const Cct& cct, const MetricStore& store,
                           NodeId node) {
  double total = store.get(node, kSamples);
  for (const NodeId child : children[node]) {
    if (cct.node(child).kind == NodeKind::kBin) continue;
    total += reference_inclusive(children, cct, store, child);
  }
  return total;
}

TEST(Inclusive, MatchesRecursiveReferenceOnRandomTrees) {
  constexpr NodeKind kKinds[] = {NodeKind::kFrame, NodeKind::kVariable,
                                 NodeKind::kBin};
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    Cct cct;
    MetricStore store(1);
    for (int i = 0; i < 300; ++i) {
      // Any existing node may get a child, so bins get children too.
      const auto parent = static_cast<NodeId>(rng() % cct.size());
      const NodeId node = cct.child(parent, kKinds[rng() % 3], rng() % 8);
      store.add(node, kSamples, rng() % 5);
    }
    std::vector<std::vector<NodeId>> children(cct.size());
    for (NodeId id = 1; id < cct.size(); ++id) {
      children[cct.node(id).parent].push_back(id);
    }
    const std::vector<double> totals = inclusive(cct, store, kSamples);
    ASSERT_EQ(totals.size(), cct.size());
    for (NodeId id = 0; id < cct.size(); ++id) {
      EXPECT_EQ(totals[id], reference_inclusive(children, cct, store, id))
          << "seed " << seed << " node " << id;
    }
  }
}

TEST(Lpi, Equation2Form) {
  // Eq. 2: accumulated sampled remote latency over sampled instructions.
  EXPECT_DOUBLE_EQ(lpi_numa(500.0, 1000.0), 0.5);
  EXPECT_DOUBLE_EQ(lpi_numa(500.0, 0.0), 0.0);
}

TEST(Lpi, ThresholdRuleOfThumb) {
  EXPECT_GT(lpi_numa(120.0, 1000.0), kLpiThreshold);   // warrants
  EXPECT_LT(lpi_numa(50.0, 1000.0), kLpiThreshold);    // does not
}

TEST(Lpi, Equation3Form) {
  // 10 sampled remote events of 200 cycles each, out of 20 sampled events;
  // hardware counted 10,000 qualifying events; 1,000,000 instructions.
  // E_remote ~= 10000 * 10/20 = 5000; lpi = 200 * 5000 / 1e6 = 1.0.
  EXPECT_DOUBLE_EQ(lpi_numa_pebs_ll(2000.0, 10.0, 20.0, 10000.0, 1e6), 1.0);
}

TEST(Lpi, Equation3DegenerateInputs) {
  EXPECT_DOUBLE_EQ(lpi_numa_pebs_ll(0, 0, 0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(lpi_numa_pebs_ll(100, 5, 10, 1000, 0), 0.0);
}

}  // namespace
}  // namespace numaprof::core
