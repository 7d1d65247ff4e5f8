// Property-based lockdown of the §7.2 profile reductions: the [min,max]
// BinStats merge, the MetricStore sum merge, and the multi-shard session
// merge. All inputs are generated from seeded support::Rng streams (no
// wall-clock entropy), so every run exercises the identical cases.
//
// Two kinds of properties:
//  - algebraic: commutativity, associativity, and empty-merge idempotence
//    of the reductions. Double sums are only associative when the addends
//    are exactly representable, so associativity cases use integer-valued
//    metrics; commutativity and identity hold bitwise for ANY doubles.
//  - equivalence: the parallel merge paths (MetricStore::merge_all, the
//    Analyzer's row-parallel fold, merge_profile_files with jobs > 1)
//    must produce BITWISE identical results to a plain in-order fold
//    (MetricStore::merge) or to the same call at jobs 1, for jobs in
//    {1, 2, 8}, even with arbitrary (non-integer) latencies.
//
// Also holds the regression test for the analyzer's domain-count guard: a
// per-thread store sized for the wrong machine must raise a typed
// ProfileError instead of being silently truncated into the merge.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/session.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace numaprof::core {
namespace {

namespace fs = std::filesystem;

// --- generators ------------------------------------------------------

/// Integer-valued double (exact under addition, any order).
double int_valued(support::Rng& rng) {
  return static_cast<double>(rng.next_below(1000));
}

/// Arbitrary positive double (not exactly representable sums).
double messy(support::Rng& rng) { return rng.next_double() * 997.0; }

BinStats random_bin(support::Rng& rng, bool integer_latency) {
  BinStats s;
  const simos::VAddr base = 0x1000 + rng.next_below(1 << 20);
  s.lo = base;
  s.hi = base + rng.next_below(1 << 16);
  s.count = rng.next_below(1 << 20);
  s.latency = integer_latency ? int_valued(rng) : messy(rng);
  return s;
}

MetricStore random_store(support::Rng& rng, std::uint32_t domains,
                         NodeId max_node, bool integer_values) {
  MetricStore store(domains);
  const std::size_t touches = 5 + rng.next_below(40);
  for (std::size_t t = 0; t < touches; ++t) {
    const NodeId node = static_cast<NodeId>(rng.next_below(max_node));
    const auto metric = static_cast<std::uint32_t>(
        rng.next_below(kFixedMetricCount + domains));
    store.add(node, metric,
              integer_values ? int_valued(rng) : messy(rng));
  }
  return store;
}

bool bitwise_equal(const BinStats& a, const BinStats& b) {
  return a.lo == b.lo && a.hi == b.hi && a.count == b.count &&
         a.latency == b.latency;  // exact, not approximate
}

/// Bitwise store comparison over the union of allocated rows.
void expect_stores_identical(const MetricStore& a, const MetricStore& b) {
  ASSERT_EQ(a.width(), b.width());
  const std::size_t rows = std::max(a.node_capacity(), b.node_capacity());
  for (NodeId node = 0; node < rows; ++node) {
    for (std::uint32_t m = 0; m < a.width(); ++m) {
      ASSERT_EQ(a.get(node, m), b.get(node, m))
          << "node " << node << " metric " << m;
    }
  }
}

/// A structurally valid multi-thread session with randomized measurements.
/// Per-thread data is disjoint by construction (as real shards are), and
/// latencies are arbitrary doubles — across-jobs equivalence must hold
/// because the addition ORDER matches, not because values are exact.
SessionData random_session(std::uint64_t seed, std::uint32_t threads) {
  support::Rng rng(seed);
  SessionData data;
  data.machine_name = "property-machine";
  data.domain_count = 3;
  data.core_count = 6;
  data.mechanism = pmu::Mechanism::kIbs;
  data.requested_mechanism = pmu::Mechanism::kIbs;
  data.sampling_period = 128;
  data.pebs_ll_events = rng.next_below(1 << 20);

  for (std::uint32_t f = 0; f < 6; ++f) {
    data.frames.push_back(simrt::FrameInfo{
        .name = "fn" + std::to_string(f),
        .file = "property.cpp",
        .line = 10 * f,
        .kind = simrt::FrameKind::kFunction});
  }
  // A small CCT: an allocation segment with frame chains under it.
  const NodeId alloc = data.cct.child(kRootNode, NodeKind::kAllocation, 0);
  std::vector<NodeId> leaves;
  for (std::uint32_t f = 0; f < 6; ++f) {
    const NodeId frame = data.cct.child(alloc, NodeKind::kFrame, f);
    leaves.push_back(data.cct.child(frame, NodeKind::kVariable, f));
  }
  for (std::uint32_t v = 0; v < 4; ++v) {
    Variable var;
    var.id = v;
    var.kind = VariableKind::kHeap;
    var.name = "var" + std::to_string(v);
    var.start = 0x10000 + 0x40000ull * v;
    var.page_count = 8;
    var.size = var.page_count * simos::kPageBytes;
    var.variable_node = leaves[v];
    data.variables.push_back(var);
  }

  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    ThreadTotals t;
    t.samples = rng.next_below(1 << 16);
    t.memory_samples = rng.next_below(1 << 14);
    t.match = rng.next_below(1 << 12);
    t.mismatch = rng.next_below(1 << 12);
    t.remote_latency = messy(rng);
    t.total_latency = t.remote_latency + messy(rng);
    t.l3_miss_samples = rng.next_below(1 << 10);
    t.remote_l3_miss_samples = rng.next_below(1 << 9);
    t.instructions = rng.next_below(1 << 20);
    t.memory_instructions = rng.next_below(1 << 18);
    t.per_domain.resize(data.domain_count);
    for (auto& d : t.per_domain) d = rng.next_below(1 << 12);
    data.totals.push_back(std::move(t));
    data.stores.push_back(random_store(
        rng, data.domain_count,
        static_cast<NodeId>(data.cct.size()), /*integer_values=*/false));

    const std::size_t bins = 1 + rng.next_below(6);
    for (std::size_t b = 0; b < bins; ++b) {
      const auto v =
          static_cast<VariableId>(rng.next_below(data.variables.size()));
      BinKey key{.context = static_cast<simrt::FrameId>(rng.next_below(6)),
                 .variable = v,
                 .bin = static_cast<std::uint32_t>(rng.next_below(5)),
                 .tid = tid};
      data.address_centric.insert(key, random_bin(rng, false));
    }
    data.first_touches.push_back(FirstTouchRecord{
        .variable = static_cast<VariableId>(
            rng.next_below(data.variables.size())),
        .tid = tid,
        .domain = static_cast<std::uint32_t>(
            rng.next_below(data.domain_count)),
        .node = leaves[tid % leaves.size()],
        .page = rng.next_below(64)});
  }
  return data;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string profile_bytes(const SessionData& data) {
  std::ostringstream os;
  ProfileWriter().write(data, os);
  return os.str();
}

// --- BinStats ([min,max] reduction) algebra --------------------------

TEST(MergeProperty, BinStatsMergeCommutes) {
  support::Rng rng(0xb1135701);
  for (int trial = 0; trial < 200; ++trial) {
    const BinStats a = random_bin(rng, false);
    const BinStats b = random_bin(rng, false);
    BinStats ab = a;
    ab.merge(b);
    BinStats ba = b;
    ba.merge(a);
    // min/max/count are order-free; the latency SUM commutes bitwise too
    // (IEEE addition is commutative, just not associative).
    ASSERT_TRUE(bitwise_equal(ab, ba)) << "trial " << trial;
  }
}

TEST(MergeProperty, BinStatsMergeAssociatesOnExactValues) {
  support::Rng rng(0xb1135702);
  for (int trial = 0; trial < 200; ++trial) {
    const BinStats a = random_bin(rng, true);
    const BinStats b = random_bin(rng, true);
    const BinStats c = random_bin(rng, true);
    BinStats left = a;   // (a + b) + c
    left.merge(b);
    left.merge(c);
    BinStats right = b;  // a + (b + c)
    right.merge(c);
    BinStats a_first = a;
    a_first.merge(right);
    ASSERT_TRUE(bitwise_equal(left, a_first)) << "trial " << trial;
  }
}

TEST(MergeProperty, EmptyBinStatsIsMergeIdentity) {
  support::Rng rng(0xb1135703);
  for (int trial = 0; trial < 100; ++trial) {
    const BinStats a = random_bin(rng, false);
    BinStats merged = a;
    merged.merge(BinStats{});  // default-constructed = never updated
    ASSERT_TRUE(bitwise_equal(merged, a));
    BinStats from_empty;
    from_empty.merge(a);
    ASSERT_TRUE(bitwise_equal(from_empty, a));
  }
}

// --- MetricStore merge algebra ---------------------------------------

TEST(MergeProperty, MetricStoreMergeCommutes) {
  support::Rng rng(0x57040001);
  for (int trial = 0; trial < 50; ++trial) {
    const MetricStore a = random_store(rng, 3, 40, false);
    const MetricStore b = random_store(rng, 3, 40, false);
    MetricStore ab = a;
    ab.merge(b);
    MetricStore ba = b;
    ba.merge(a);
    expect_stores_identical(ab, ba);
  }
}

TEST(MergeProperty, MetricStoreMergeAssociatesOnExactValues) {
  support::Rng rng(0x57040002);
  for (int trial = 0; trial < 50; ++trial) {
    const MetricStore a = random_store(rng, 3, 40, true);
    const MetricStore b = random_store(rng, 3, 40, true);
    const MetricStore c = random_store(rng, 3, 40, true);
    MetricStore left = a;
    left.merge(b);
    left.merge(c);
    MetricStore bc = b;
    bc.merge(c);
    MetricStore right = a;
    right.merge(bc);
    expect_stores_identical(left, right);
  }
}

TEST(MergeProperty, EmptyMetricStoreIsMergeIdentity) {
  support::Rng rng(0x57040003);
  const MetricStore empty(3);
  for (int trial = 0; trial < 50; ++trial) {
    const MetricStore a = random_store(rng, 3, 40, false);
    MetricStore merged = a;
    merged.merge(empty);
    expect_stores_identical(merged, a);
    MetricStore from_empty(3);
    from_empty.merge(a);
    expect_stores_identical(from_empty, a);
  }
}

// --- serial vs parallel bitwise equivalence --------------------------

TEST(MergeProperty, MergeAllMatchesSerialFoldBitwiseAcrossJobs) {
  support::Rng rng(0x57040004);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<MetricStore> parts;
    const std::size_t count = 2 + rng.next_below(15);
    for (std::size_t i = 0; i < count; ++i) {
      parts.push_back(random_store(rng, 3, 2000, false));
    }
    MetricStore serial(3);
    for (const MetricStore& p : parts) serial.merge(p);

    std::vector<const MetricStore*> pointers;
    for (const MetricStore& p : parts) pointers.push_back(&p);
    for (const unsigned jobs : {1u, 2u, 8u}) {
      support::ThreadPool pool(jobs);
      MetricStore parallel(3);
      parallel.merge_all(pointers, &pool);
      expect_stores_identical(parallel, serial);
    }
  }
}

TEST(MergeProperty, ShardFileMergeIsBitwiseIdenticalAcrossJobs) {
  const SessionData original = random_session(0x57040005, 9);
  const std::string dir = fresh_dir("numaprof_property_shards");
  const std::vector<std::string> paths = ProfileWriter().write_thread_shards(original, dir);
  ASSERT_EQ(paths.size(), 9u);

  PipelineOptions serial_options;
  serial_options.jobs = 1;
  const std::string reference =
      profile_bytes(merge_profile_files(paths, serial_options).data);
  for (const unsigned jobs : {2u, 8u}) {
    PipelineOptions options;
    options.jobs = jobs;
    const MergeResult merged = merge_profile_files(paths, options);
    EXPECT_EQ(merged.summary.files_merged, paths.size());
    EXPECT_EQ(profile_bytes(merged.data), reference)
        << "jobs=" << jobs << " diverged from the serial merge";
  }
}

TEST(MergeProperty, AnalyzerParallelMergeIsBitwiseIdenticalAcrossJobs) {
  const SessionData data = random_session(0x57040006, 9);
  const Analyzer serial(data);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    PipelineOptions parallel_options;
    parallel_options.jobs = jobs;
    const Analyzer parallel(data, parallel_options);
    expect_stores_identical(parallel.merged(), serial.merged());
    EXPECT_EQ(parallel.program().samples, serial.program().samples);
    EXPECT_EQ(parallel.program().remote_latency,
              serial.program().remote_latency);
  }
}

// --- regression: domain-count mismatch is a typed error --------------

TEST(MergeProperty, AnalyzerRejectsStoreWithMismatchedDomainCount) {
  SessionData data = random_session(0x57040007, 3);
  ASSERT_EQ(data.domain_count, 3u);
  // Thread 1's store claims a 2-domain machine: every per-domain column
  // would silently misalign if this merged.
  data.stores[1] = MetricStore(2);
  data.stores[1].add(1, kNumaMismatch, 7.0);
  try {
    const Analyzer analyzer(data);
    FAIL() << "mismatched store domain count must not merge silently";
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "stores");
    EXPECT_NE(std::string(e.what()).find("thread 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("domains"), std::string::npos);
  }
}

TEST(MergeProperty, AnalyzerAcceptsMatchingDomainCounts) {
  const SessionData data = random_session(0x57040008, 3);
  EXPECT_NO_THROW({
    const Analyzer analyzer(data);
    (void)analyzer;
  });
}

}  // namespace
}  // namespace numaprof::core
