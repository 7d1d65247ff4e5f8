#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "core/addrcentric.hpp"
#include "support/rng.hpp"

namespace numaprof::core {
namespace {

Variable make_var(VariableId id, std::uint64_t pages,
                  simos::VAddr start = 0x100000) {
  Variable v;
  v.id = id;
  v.name = std::string("v").append(std::to_string(id));
  v.start = start;
  v.size = pages * simos::kPageBytes;
  v.page_count = pages;
  return v;
}

TEST(AddressCentric, SmallVariablesGetOneBin) {
  AddressCentric ac(5);
  EXPECT_EQ(ac.bins_for(make_var(0, 5)), 1u);   // at threshold: single bin
  EXPECT_EQ(ac.bins_for(make_var(0, 6)), 5u);   // above: default bins (§5.2)
}

TEST(AddressCentric, CustomBinCount) {
  AddressCentric ac(20);
  EXPECT_EQ(ac.bins_for(make_var(0, 100)), 20u);
}

TEST(AddressCentric, BinOfPartitionsExtentEvenly) {
  AddressCentric ac(5);
  const Variable v = make_var(0, 10);
  const std::uint64_t extent = v.extent_bytes();
  EXPECT_EQ(ac.bin_of(v, v.start), 0u);
  EXPECT_EQ(ac.bin_of(v, v.start + extent / 5), 1u);
  EXPECT_EQ(ac.bin_of(v, v.start + extent - 1), 4u);
  // Out-of-range addresses clamp.
  EXPECT_EQ(ac.bin_of(v, v.start + extent + 100), 4u);
  EXPECT_EQ(ac.bin_of(v, 0), 0u);
}

TEST(AddressCentric, RecordUpdatesWholeProgramAndFrames) {
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  const simrt::FrameId stack[] = {7, 8};
  ac.record(stack, v, /*tid=*/2, v.start + 100, 50.0);

  const auto whole = ac.thread_ranges(v, kWholeProgram);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].tid, 2u);
  EXPECT_EQ(whole[0].count, 1u);
  // Every frame on the path has its own bounds (§5.2).
  EXPECT_EQ(ac.thread_ranges(v, 7).size(), 1u);
  EXPECT_EQ(ac.thread_ranges(v, 8).size(), 1u);
  EXPECT_TRUE(ac.thread_ranges(v, 99).empty());
}

TEST(AddressCentric, RangesNormalizedToExtent) {
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  const std::uint64_t extent = v.extent_bytes();
  ac.record({}, v, 0, v.start, 1.0);
  ac.record({}, v, 0, v.start + extent / 2, 1.0);
  const auto ranges = ac.thread_ranges(v, kWholeProgram);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_NEAR(ranges[0].lo, 0.0, 0.01);
  EXPECT_NEAR(ranges[0].hi, 0.5, 0.01);
}

TEST(AddressCentric, HotBinsSuppressColdOutliers) {
  // 90 accesses in the first fifth, 1 stray at the end: the reported range
  // must cover only the hot bin — the refinement §5.2 motivates.
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  const std::uint64_t extent = v.extent_bytes();
  for (int i = 0; i < 90; ++i) {
    ac.record({}, v, 0, v.start + i % (extent / 5), 1.0);
  }
  ac.record({}, v, 0, v.start + extent - 8, 1.0);
  const auto ranges = ac.thread_ranges(v, kWholeProgram, 0.9);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_LT(ranges[0].hi, 0.3);
  EXPECT_EQ(ranges[0].count, 91u);  // count still reflects everything
  // With hot_fraction = 1.0 the stray access re-enters the range.
  const auto full = ac.thread_ranges(v, kWholeProgram, 1.0);
  EXPECT_GT(full[0].hi, 0.9);
}

TEST(AddressCentric, PerThreadRangesAreIndependent) {
  AddressCentric ac(5);
  const Variable v = make_var(1, 20);
  const std::uint64_t extent = v.extent_bytes();
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    const auto lo = extent * tid / 4;
    const auto hi = extent * (tid + 1) / 4;
    for (std::uint64_t off = lo; off < hi; off += simos::kPageBytes) {
      ac.record({}, v, tid, v.start + off, 1.0);
    }
  }
  const auto ranges = ac.thread_ranges(v, kWholeProgram);
  ASSERT_EQ(ranges.size(), 4u);
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    EXPECT_EQ(ranges[tid].tid, tid);
    EXPECT_NEAR(ranges[tid].lo, tid / 4.0, 0.26);  // bin granularity
    EXPECT_LT(ranges[tid].lo, ranges[tid].hi + 0.01);
  }
  // Ascending blocks.
  EXPECT_LT(ranges[0].hi, ranges[3].lo + 0.5);
}

TEST(AddressCentric, MergedRangeIsMinMaxAcrossThreads) {
  // The custom [min,max] reduction of §7.2.
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  ac.record({}, v, 0, v.start + 100, 2.0);
  ac.record({}, v, 3, v.start + 9000, 5.0);
  const auto merged = ac.merged_range(v, kWholeProgram);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->lo, v.start + 100);
  EXPECT_EQ(merged->hi, v.start + 9000);
  EXPECT_EQ(merged->count, 2u);
  EXPECT_DOUBLE_EQ(merged->latency, 7.0);
  EXPECT_FALSE(ac.merged_range(make_var(9, 1), kWholeProgram).has_value());
}

TEST(AddressCentric, ContextLatencyAndRanking) {
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  const simrt::FrameId hot[] = {100};
  const simrt::FrameId cold[] = {200};
  for (int i = 0; i < 10; ++i) ac.record(hot, v, 0, v.start, 30.0);
  ac.record(cold, v, 0, v.start, 5.0);
  EXPECT_DOUBLE_EQ(ac.context_latency(v, 100), 300.0);
  EXPECT_DOUBLE_EQ(ac.context_latency(v, 200), 5.0);
  const auto contexts = ac.contexts_of(v);
  ASSERT_EQ(contexts.size(), 2u);
  EXPECT_EQ(contexts[0].first, 100u);  // hottest first
}

TEST(AddressCentric, RecursionDoesNotDoubleCount) {
  AddressCentric ac(5);
  const Variable v = make_var(1, 10);
  const simrt::FrameId stack[] = {7, 7, 7};  // recursive frame
  ac.record(stack, v, 0, v.start, 1.0);
  const auto ranges = ac.thread_ranges(v, 7);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].count, 1u);
}

TEST(AddressCentric, InsertAndForEachRoundTrip) {
  AddressCentric ac(5);
  BinKey key{.context = 1, .variable = 2, .bin = 3, .tid = 4};
  BinStats stats;
  stats.update(500, 10.0);
  ac.insert(key, stats);
  int seen = 0;
  ac.for_each([&](const BinKey& k, const BinStats& s) {
    ++seen;
    EXPECT_EQ(k, key);
    EXPECT_EQ(s.lo, 500u);
    EXPECT_EQ(s.count, 1u);
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(ac.entry_count(), 1u);
}

// --- the per-variable index against a whole-table reference ------------

/// Every query answered by scanning the whole table (for_each), the way
/// the queries worked before the per-variable index.
struct FullScan {
  const AddressCentric& ac;

  std::vector<std::pair<BinKey, BinStats>> of(const Variable& v,
                                              simrt::FrameId context) const {
    std::vector<std::pair<BinKey, BinStats>> out;
    ac.for_each([&](const BinKey& key, const BinStats& stats) {
      if (key.variable == v.id && key.context == context) {
        out.emplace_back(key, stats);
      }
    });
    return out;
  }

  std::vector<ThreadRange> thread_ranges(const Variable& v,
                                         simrt::FrameId context,
                                         double hot_fraction) const {
    std::map<simrt::ThreadId, std::vector<std::pair<std::uint32_t, BinStats>>>
        per_thread;
    for (const auto& [key, stats] : of(v, context)) {
      per_thread[key.tid].emplace_back(key.bin, stats);
    }
    const double extent = static_cast<double>(v.extent_bytes());
    std::vector<ThreadRange> result;
    for (auto& [tid, bins] : per_thread) {
      std::sort(bins.begin(), bins.end(), [](const auto& a, const auto& b) {
        return std::tie(b.second.count, a.first) <
               std::tie(a.second.count, b.first);
      });
      std::uint64_t total = 0;
      for (const auto& bin : bins) total += bin.second.count;
      ThreadRange range{.tid = tid};
      BinStats merged;
      std::uint64_t covered = 0;
      for (const auto& bin : bins) {
        merged.merge(bin.second);
        covered += bin.second.count;
        if (static_cast<double>(covered) >=
            hot_fraction * static_cast<double>(total)) {
          break;
        }
      }
      range.count = total;
      range.latency = merged.latency;
      if (extent > 0 && merged.count > 0 && merged.hi >= v.start) {
        range.lo = std::clamp(
            static_cast<double>(merged.lo - v.start) / extent, 0.0, 1.0);
        range.hi = std::clamp(
            static_cast<double>(merged.hi - v.start) / extent, 0.0, 1.0);
      }
      result.push_back(range);
    }
    return result;
  }

  std::vector<BinStats> bins(const Variable& v, simrt::FrameId context,
                             simrt::ThreadId tid) const {
    std::vector<BinStats> result(ac.bins_for(v));
    for (const auto& [key, stats] : of(v, context)) {
      if (key.tid == tid && key.bin < result.size()) result[key.bin] = stats;
    }
    return result;
  }

  std::optional<BinStats> merged_range(const Variable& v,
                                       simrt::FrameId context) const {
    const auto entries = of(v, context);
    if (entries.empty()) return std::nullopt;
    BinStats merged;
    for (const auto& entry : entries) merged.merge(entry.second);
    return merged;
  }

  double context_latency(const Variable& v, simrt::FrameId context) const {
    double total = 0.0;
    for (const auto& entry : of(v, context)) total += entry.second.latency;
    return total;
  }

  std::vector<std::pair<simrt::FrameId, double>> contexts_of(
      const Variable& v) const {
    std::map<simrt::FrameId, double> latencies;
    ac.for_each([&](const BinKey& key, const BinStats& stats) {
      if (key.variable == v.id && key.context != kWholeProgram) {
        latencies[key.context] += stats.latency;
      }
    });
    std::vector<std::pair<simrt::FrameId, double>> result(latencies.begin(),
                                                          latencies.end());
    std::sort(result.begin(), result.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return result;
  }
};

bool same(const BinStats& a, const BinStats& b) {
  return a.lo == b.lo && a.hi == b.hi && a.count == b.count &&
         a.latency == b.latency;
}

void expect_queries_match_full_scan(const AddressCentric& ac,
                                    const std::vector<Variable>& vars) {
  const FullScan scan{ac};
  const simrt::FrameId contexts[] = {kWholeProgram, 0, 1, 2, 3, 4};
  for (const Variable& v : vars) {
    for (const simrt::FrameId context : contexts) {
      for (const double hot : {0.5, 0.9, 1.0}) {
        const auto got = ac.thread_ranges(v, context, hot);
        const auto want = scan.thread_ranges(v, context, hot);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].tid, want[i].tid);
          EXPECT_EQ(got[i].lo, want[i].lo);
          EXPECT_EQ(got[i].hi, want[i].hi);
          EXPECT_EQ(got[i].count, want[i].count);
          EXPECT_EQ(got[i].latency, want[i].latency);
        }
      }
      for (simrt::ThreadId tid = 0; tid < 4; ++tid) {
        const auto got = ac.bins(v, context, tid);
        const auto want = scan.bins(v, context, tid);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
          EXPECT_TRUE(same(got[b], want[b])) << "bin " << b;
        }
      }
      const auto merged = ac.merged_range(v, context);
      const auto want_merged = scan.merged_range(v, context);
      ASSERT_EQ(merged.has_value(), want_merged.has_value());
      if (merged) {
        EXPECT_TRUE(same(*merged, *want_merged));
      }
      EXPECT_EQ(ac.context_latency(v, context),
                scan.context_latency(v, context));
    }
    EXPECT_EQ(ac.contexts_of(v), scan.contexts_of(v));

    std::vector<std::pair<BinKey, BinStats>> indexed;
    ac.for_each_of(v.id, [&](const BinKey& key, const BinStats& stats) {
      indexed.emplace_back(key, stats);
    });
    std::vector<std::pair<BinKey, BinStats>> scanned;
    for (const simrt::FrameId context : contexts) {
      for (const auto& entry : scan.of(v, context)) scanned.push_back(entry);
    }
    const auto by_key = [](const auto& a, const auto& b) {
      return std::tie(a.first.context, a.first.bin, a.first.tid) <
             std::tie(b.first.context, b.first.bin, b.first.tid);
    };
    std::sort(indexed.begin(), indexed.end(), by_key);
    std::sort(scanned.begin(), scanned.end(), by_key);
    ASSERT_EQ(indexed.size(), scanned.size());
    for (std::size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i].first, scanned[i].first);
      EXPECT_TRUE(same(indexed[i].second, scanned[i].second));
    }
  }
}

TEST(AddressCentric, IndexedQueriesMatchFullScan) {
  // Latencies are integer-valued (cycles), so sums are exact in any order.
  support::Rng rng(0xadd7e55);
  std::vector<Variable> vars;
  for (VariableId id = 0; id < 4; ++id) {
    vars.push_back(make_var(id, id == 0 ? 3 : 8 + 4 * id,
                            0x100000 + 0x1000000ull * id));
  }
  const auto access = [&](AddressCentric& ac) {
    const Variable& v = vars[rng.next_below(vars.size())];
    simrt::FrameId stack[3];
    const std::size_t depth = rng.next_below(4);
    for (std::size_t i = 0; i < depth; ++i) {
      stack[i] = static_cast<simrt::FrameId>(rng.next_below(5));
    }
    ac.record(std::span<const simrt::FrameId>(stack, depth), v,
              static_cast<simrt::ThreadId>(rng.next_below(4)),
              v.start + rng.next_below(v.extent_bytes()),
              static_cast<double>(rng.next_below(500)));
  };
  const auto raw = [&](AddressCentric& ac) {
    BinStats stats;
    const simos::VAddr lo = 0x100000 + rng.next_below(1 << 26);
    stats.lo = lo;
    stats.hi = lo + rng.next_below(1 << 14);
    stats.count = 1 + rng.next_below(50);
    stats.latency = static_cast<double>(rng.next_below(10000));
    ac.insert(BinKey{.context = rng.next_bool(0.3)
                                    ? kWholeProgram
                                    : static_cast<simrt::FrameId>(
                                          rng.next_below(5)),
                     .variable = static_cast<VariableId>(
                         rng.next_below(vars.size() + 1)),
                     .bin = static_cast<std::uint32_t>(rng.next_below(6)),
                     .tid = static_cast<simrt::ThreadId>(rng.next_below(4))},
              stats);
  };
  for (int trial = 0; trial < 20; ++trial) {
    AddressCentric a(5);
    AddressCentric b(5);
    for (int step = 0; step < 60; ++step) {
      switch (rng.next_below(6)) {
        case 0: access(a); break;
        case 1: access(b); break;
        case 2: raw(a); break;
        case 3: raw(b); break;
        case 4: a.merge_from(b); break;
        case 5: {
          // Copies carry their own index: keep mutating both sides.
          AddressCentric copy = a;
          access(copy);
          b = copy;
          break;
        }
      }
    }
    expect_queries_match_full_scan(a, vars);
    expect_queries_match_full_scan(b, vars);
  }
}

TEST(BinStats, UpdateAndMerge) {
  BinStats a;
  a.update(10, 1.0);
  a.update(30, 2.0);
  EXPECT_EQ(a.lo, 10u);
  EXPECT_EQ(a.hi, 30u);
  BinStats b;
  b.update(5, 4.0);
  a.merge(b);
  EXPECT_EQ(a.lo, 5u);
  EXPECT_EQ(a.hi, 30u);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.latency, 7.0);
}

// Parameterized: bin partitioning is exhaustive and ordered for any count.
class BinSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BinSweep, EveryAddressLandsInNondecreasingBins) {
  AddressCentric ac(GetParam());
  const Variable v = make_var(0, 16);
  std::uint32_t last = 0;
  for (std::uint64_t off = 0; off < v.extent_bytes(); off += 512) {
    const std::uint32_t bin = ac.bin_of(v, v.start + off);
    EXPECT_GE(bin, last);
    EXPECT_LT(bin, ac.bins_for(v));
    last = bin;
  }
  EXPECT_EQ(last, ac.bins_for(v) - 1);  // last bin reached
}

INSTANTIATE_TEST_SUITE_P(Bins, BinSweep, ::testing::Values(1u, 2u, 5u, 20u));

}  // namespace
}  // namespace numaprof::core
