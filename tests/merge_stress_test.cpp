// Concurrency stress tests for the parallel analysis pipeline. Suites are
// named PipelineStress* so the CI thread-sanitizer matrix entry (which runs
// ctest -R '...|Pipeline|...') exercises them under TSan: the interesting
// failure mode here is not a wrong sum but a data race in
// parallel_for_each's index claims or the merge's row partitioning.
//
// Everything is deterministic: adversarial inputs come from seeded
// support::Rng streams, and every parallel result is compared bitwise
// against the same computation at jobs 1 (or MetricStore::merge's plain
// fold) — repeatedly, so rare interleavings get more chances to go wrong
// under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/session.hpp"
#include "core/viewer.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace numaprof::core {
namespace {

namespace fs = std::filesystem;

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

/// A session whose per-thread shards have ADVERSARIAL sizes: completely
/// empty threads, single-sample threads, and one huge thread — the worst
/// case for a pre-partitioned index space, where stealing must rebalance.
SessionData adversarial_session(std::uint64_t seed) {
  // Thread t records touch_counts[t] metric touches (0 = empty shard).
  const std::vector<std::size_t> touch_counts = {0,    1, 5000, 0,
                                                 237, 1, 1024, 13};
  support::Rng rng(seed);
  SessionData data;
  data.machine_name = "stress-machine";
  data.domain_count = 4;
  data.core_count = 8;
  data.mechanism = pmu::Mechanism::kIbs;
  data.requested_mechanism = pmu::Mechanism::kIbs;
  data.sampling_period = 64;

  for (std::uint32_t f = 0; f < 4; ++f) {
    data.frames.push_back(simrt::FrameInfo{
        .name = "stress_fn" + std::to_string(f),
        .file = "stress.cpp",
        .line = 7 * f,
        .kind = simrt::FrameKind::kFunction});
  }
  const NodeId alloc = data.cct.child(kRootNode, NodeKind::kAllocation, 0);
  std::vector<NodeId> leaves;
  for (std::uint32_t f = 0; f < 4; ++f) {
    const NodeId frame = data.cct.child(alloc, NodeKind::kFrame, f);
    leaves.push_back(data.cct.child(frame, NodeKind::kVariable, f));
  }
  for (std::uint32_t v = 0; v < 3; ++v) {
    Variable var;
    var.id = v;
    var.kind = VariableKind::kHeap;
    var.name = "stress_var" + std::to_string(v);
    var.start = 0x40000 + 0x80000ull * v;
    var.page_count = 16;
    var.size = var.page_count * simos::kPageBytes;
    var.variable_node = leaves[v];
    data.variables.push_back(var);
  }

  for (std::uint32_t tid = 0; tid < touch_counts.size(); ++tid) {
    const std::size_t touches = touch_counts[tid];
    ThreadTotals t;
    t.per_domain.resize(data.domain_count);
    MetricStore store(data.domain_count);
    for (std::size_t i = 0; i < touches; ++i) {
      const NodeId node =
          static_cast<NodeId>(rng.next_below(data.cct.size()));
      const auto metric = static_cast<std::uint32_t>(
          rng.next_below(kFixedMetricCount + data.domain_count));
      store.add(node, metric, rng.next_double() * 131.0);
      t.samples += 1;
      t.memory_samples += rng.next_below(2);
      t.total_latency += rng.next_double() * 300.0;
      t.remote_latency += rng.next_double() * 150.0;
      t.per_domain[rng.next_below(data.domain_count)] += 1;
      if (i < 40) {  // bound addrcentric size; still adversarial mix
        BinKey key{
            .context = static_cast<simrt::FrameId>(rng.next_below(4)),
            .variable = static_cast<VariableId>(
                rng.next_below(data.variables.size())),
            .bin = static_cast<std::uint32_t>(rng.next_below(3)),
            .tid = tid};
        BinStats stats;
        stats.update(0x40000 + rng.next_below(1 << 18),
                     rng.next_double() * 100.0);
        data.address_centric.insert(key, stats);
      }
    }
    data.totals.push_back(std::move(t));
    data.stores.push_back(std::move(store));
  }
  return data;
}

std::string render_analysis(const SessionData& data, unsigned jobs) {
  PipelineOptions analyzer_options;
  analyzer_options.jobs = jobs;
  const Analyzer analyzer(data, analyzer_options);
  const Viewer viewer(analyzer);
  std::ostringstream os;
  os << viewer.program_summary() << viewer.data_centric_table(10).to_text()
     << viewer.code_centric_table(10).to_text()
     << viewer.domain_balance_table().to_text();
  return os.str();
}

// --- parallel_for_each under contention ------------------------------

TEST(PipelineStressPool, ForEachIndexRunsEveryIndexExactlyOnce) {
  for (int round = 0; round < 20; ++round) {
    const std::size_t count = 1 + 977 * static_cast<std::size_t>(round);
    std::vector<std::atomic<int>> hits(count);
    support::parallel_for_each(
        8, count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " round " << round;
    }
  }
}

TEST(PipelineStressPool, SmallestIndexExceptionWins) {
  const std::set<std::size_t> throwers = {3, 500, 1999};
  std::atomic<int> executed{0};
  try {
    support::parallel_for_each(8, 2000, [&](std::size_t i) {
      executed.fetch_add(1);
      if (throwers.count(i) != 0) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "exception must propagate";
  } catch (const std::runtime_error& e) {
    // Every index still runs, and the error surfaced is the one a serial
    // in-order loop would have hit first.
    EXPECT_STREQ(e.what(), "3");
    EXPECT_EQ(executed.load(), 2000);
  }
}

TEST(PipelineStressPool, SingleIndexRunsOnTheCallingThread) {
  std::thread::id ran_on;
  support::parallel_for_each(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(PipelineStressPool, OneJobStopsAtTheFirstThrowLikeTheLoop) {
  std::vector<std::size_t> ran;
  try {
    support::parallel_for_each(1, 10, [&](std::size_t i) {
      ran.push_back(i);
      if (i == 3 || i == 6) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "exception must propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(PipelineStressPool, NestedCallsRunEveryIndexExactlyOnce) {
  // A body that makes its own parallel calls must not deadlock: each
  // nested parallel_for_each and merge_all starts its own threads.
  support::Rng rng(0x57285506);
  std::vector<MetricStore> parts;
  for (int p = 0; p < 5; ++p) {
    MetricStore store(3);
    for (int i = 0; i < 300; ++i) {
      store.add(static_cast<NodeId>(rng.next_below(700)),
                static_cast<std::uint32_t>(rng.next_below(store.width())),
                rng.next_double() * 89.0);
    }
    parts.push_back(std::move(store));
  }
  std::vector<const MetricStore*> pointers;
  MetricStore serial(3);
  for (const MetricStore& p : parts) {
    pointers.push_back(&p);
    serial.merge(p);
  }

  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 97;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::vector<MetricStore> nested(kOuter, MetricStore(3));
  support::parallel_for_each(4, kOuter, [&](std::size_t outer) {
    support::parallel_for_each(4, kInner, [&](std::size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
    nested[outer].merge_all(pointers, 4);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "inner index " << i;
  }
  for (const MetricStore& merged : nested) {
    ASSERT_EQ(merged.node_capacity(), serial.node_capacity());
    for (NodeId node = 0; node < serial.node_capacity(); ++node) {
      for (std::uint32_t m = 0; m < serial.width(); ++m) {
        ASSERT_EQ(merged.get(node, m), serial.get(node, m));
      }
    }
  }
}

// --- adversarial shard merges ----------------------------------------

TEST(PipelineStressMerge, AdversarialShardsMergeIdenticallyAcrossJobs) {
  const SessionData original = adversarial_session(0x57285502);
  const std::string dir = fresh_dir("numaprof_stress_shards");
  const std::vector<std::string> paths = ProfileWriter().write_thread_shards(original, dir);
  ASSERT_EQ(paths.size(), 8u);

  PipelineOptions serial_options;
  serial_options.jobs = 1;
  const std::string reference =
      profile_bytes(merge_profile_files(paths, serial_options).data);
  ASSERT_FALSE(reference.empty());

  // Repeat the parallel merge: each run re-races shard loading and the
  // per-thread column fold; every run must reproduce the serial bytes.
  for (int round = 0; round < 8; ++round) {
    PipelineOptions options;
    options.jobs = 8;
    const MergeResult merged = merge_profile_files(paths, options);
    ASSERT_EQ(merged.summary.files_merged, paths.size());
    ASSERT_EQ(profile_bytes(merged.data), reference) << "round " << round;
  }
}

TEST(PipelineStressMerge, LenientParallelMergeSkipsDamageLikeSerial) {
  const SessionData original = adversarial_session(0x57285503);
  const std::string dir = fresh_dir("numaprof_stress_damaged");
  std::vector<std::string> paths = ProfileWriter().write_thread_shards(original, dir);
  // Truncate one shard mid-file: lenient merges must skip or diagnose it
  // identically whether the load happened serially or on a worker.
  {
    std::ifstream in(paths[2], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(paths[2], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 3));
  }

  PipelineOptions serial_options;
  serial_options.lenient = true;
  serial_options.jobs = 1;
  const MergeResult serial = merge_profile_files(paths, serial_options);
  const std::string reference = profile_bytes(serial.data);

  for (int round = 0; round < 4; ++round) {
    PipelineOptions options;
    options.lenient = true;
    options.jobs = 8;
    const MergeResult merged = merge_profile_files(paths, options);
    ASSERT_EQ(merged.summary.files_merged, serial.summary.files_merged);
    ASSERT_EQ(merged.summary.skipped.size(),
              serial.summary.skipped.size());
    ASSERT_EQ(merged.summary.diagnostics.size(),
              serial.summary.diagnostics.size());
    ASSERT_EQ(profile_bytes(merged.data), reference) << "round " << round;
  }
}

TEST(PipelineStressMerge, StrictParallelMergeNamesFirstDamagedPosition) {
  SessionData original = adversarial_session(0x57285507);
  // Thread 1 gets a dense store over a thousand extra nodes, so its
  // shard parses several times longer than any other.
  support::Rng rng(0x57285508);
  const NodeId variable = original.variables[0].variable_node;
  MetricStore& heavy = original.stores[1];
  for (std::uint64_t bin = 0; bin < 1000; ++bin) {
    const NodeId node = original.cct.child(variable, NodeKind::kBin, bin);
    for (std::uint32_t m = 0; m < heavy.width(); ++m) {
      heavy.add(node, m, rng.next_double() * 977.0);
    }
  }
  const std::string dir = fresh_dir("numaprof_stress_strict");
  const std::vector<std::string> paths =
      ProfileWriter().write_thread_shards(original, dir);
  ASSERT_EQ(paths.size(), 8u);
  // Shard 1 loses only its tail, so it fails LATE in its long parse;
  // shard 5 is empty, so it fails at once. A merge that surfaced the
  // first failure to FINISH would usually name shard 5; the
  // position-order rule always names shard 1.
  const auto truncate = [](const std::string& path, double keep) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(
                                static_cast<double>(bytes.size()) * keep));
  };
  truncate(paths[1], 0.95);
  truncate(paths[5], 0.0);

  for (const unsigned jobs : {1u, 4u, 8u}) {
    for (int round = 0; round < 8; ++round) {
      PipelineOptions options;
      options.jobs = jobs;
      try {
        merge_profile_files(paths, options);
        FAIL() << "strict merge must throw; jobs=" << jobs;
      } catch (const ProfileError& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(paths[1]), std::string::npos)
            << "jobs=" << jobs << " round " << round << ": " << message;
        EXPECT_EQ(message.find(paths[5]), std::string::npos)
            << "jobs=" << jobs << " round " << round << ": " << message;
      }
    }
  }
}

// --- parallel analyzer under repetition ------------------------------

TEST(PipelineStressAnalyzer, RepeatedParallelAnalysisMatchesSerialText) {
  const SessionData data = adversarial_session(0x57285504);
  const std::string serial = render_analysis(data, 1);
  ASSERT_FALSE(serial.empty());
  for (int round = 0; round < 6; ++round) {
    ASSERT_EQ(render_analysis(data, 8), serial) << "round " << round;
  }
}

}  // namespace
}  // namespace numaprof::core
