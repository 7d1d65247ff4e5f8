// Randomized (seeded, reproducible) property tests: allocator soundness
// under chaotic workloads, page-table/policy invariants, and profile
// parser robustness against corrupted input.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "apps/common.hpp"
#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "ingest/server.hpp"
#include "ingest/wal.hpp"
#include "lint/dataflow.hpp"
#include "lint/numalint.hpp"
#include "numasim/topology.hpp"
#include "simos/heap.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"

namespace numaprof {
namespace {

TEST(HeapFuzz, RandomAllocFreeKeepsInvariants) {
  simos::Heap heap(simos::kHeapBase, 512 * simos::kPageBytes);
  support::Rng rng(0xF00D);
  std::map<simos::VAddr, simos::HeapBlock> live;
  std::uint64_t expected_bytes = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.next_bool(0.55);
    if (do_alloc) {
      const std::uint64_t size = rng.next_in(1, 6 * simos::kPageBytes);
      simos::HeapBlock block;
      try {
        block = heap.allocate(size);
      } catch (const std::bad_alloc&) {
        continue;  // fragmentation/full: fine
      }
      // No overlap with any live block.
      for (const auto& [start, other] : live) {
        const bool disjoint =
            block.start + block.page_count * simos::kPageBytes <= start ||
            other.start + other.page_count * simos::kPageBytes <= block.start;
        ASSERT_TRUE(disjoint) << "overlap at step " << step;
      }
      live[block.start] = block;
      expected_bytes += block.page_count * simos::kPageBytes;
    } else {
      auto it = live.begin();
      std::advance(it, rng.next_below(live.size()));
      const auto block = heap.free(it->first);
      ASSERT_TRUE(block.has_value());
      expected_bytes -= block->page_count * simos::kPageBytes;
      live.erase(it);
    }
    ASSERT_EQ(heap.bytes_in_use(), expected_bytes);
    ASSERT_EQ(heap.live_blocks(), live.size());

    // Random interior lookups resolve to the right block.
    if (!live.empty() && step % 7 == 0) {
      auto it = live.begin();
      std::advance(it, rng.next_below(live.size()));
      const auto offset =
          rng.next_below(it->second.page_count * simos::kPageBytes);
      const auto found = heap.find(it->first + offset);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(found->id, it->second.id);
    }
  }
  // Drain and confirm the whole segment is reusable.
  for (const auto& [start, block] : live) heap.free(start);
  EXPECT_NO_THROW(heap.allocate(512 * simos::kPageBytes));
}

TEST(PageTableFuzz, PolicyHomesAreStableAndInRange) {
  support::Rng rng(0xBEEF);
  simos::PageTable table(8);
  struct Region {
    simos::PageId start;
    std::uint64_t pages;
  };
  std::vector<Region> regions;
  simos::PageId cursor = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t pages = rng.next_in(1, 64);
    simos::PolicySpec policy;
    switch (rng.next_below(4)) {
      case 0: policy = simos::PolicySpec::first_touch(); break;
      case 1: policy = simos::PolicySpec::interleave(); break;
      case 2:
        policy = simos::PolicySpec::bind(
            static_cast<numasim::DomainId>(rng.next_below(8)));
        break;
      default: policy = simos::PolicySpec::blockwise(); break;
    }
    table.register_region(cursor, pages, policy);
    regions.push_back({cursor, pages});
    cursor += pages + rng.next_below(4);  // gaps allowed
  }

  // Touch every page twice from random domains: homes are in range and
  // sticky.
  std::map<simos::PageId, numasim::DomainId> homes;
  for (const Region& region : regions) {
    for (simos::PageId p = region.start; p < region.start + region.pages;
         ++p) {
      const auto toucher =
          static_cast<numasim::DomainId>(rng.next_below(8));
      const auto home = table.home_of(p, toucher);
      ASSERT_LT(home, 8u);
      homes[p] = home;
    }
  }
  for (const auto& [page, home] : homes) {
    const auto again = table.home_of(
        page, static_cast<numasim::DomainId>(rng.next_below(8)));
    EXPECT_EQ(again, home) << "page " << page << " moved";
  }
}

/// Corrupt a serialized profile at many positions; the loader must throw
/// or return, never crash or hang.
TEST(ProfileIoFuzz, CorruptedInputNeverCrashes) {
  // Build a small real profile first.
  simrt::Machine m(numasim::test_machine(2, 2));
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 25;
  core::Profiler profiler(m, cfg);
  parallel_region(m, 2, "w", {},
                  [&](simrt::SimThread& t, std::uint32_t i) -> simrt::Task {
                    const simos::VAddr v = t.malloc(4096, "x");
                    for (int k = 0; k < 200; ++k) {
                      t.load(v + ((i + k) % 512) * 8);
                    }
                    co_return;
                  });
  std::stringstream out;
  core::ProfileWriter().write(profiler.snapshot(), out);
  const std::string good = out.str();

  support::Rng rng(0xC0FFEE);
  int threw = 0, loaded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    switch (trial % 3) {
      case 0:  // truncate
        bad.resize(rng.next_below(bad.size()));
        break;
      case 1: {  // flip a byte
        const auto pos = rng.next_below(bad.size());
        bad[pos] = static_cast<char>(rng.next_below(256));
        break;
      }
      default: {  // splice a random chunk out
        const auto pos = rng.next_below(bad.size());
        const auto len = rng.next_below(bad.size() - pos);
        bad.erase(pos, len);
        break;
      }
    }
    std::stringstream in(bad);
    try {
      const core::SessionData data = core::ProfileReader().read(in).data;
      ++loaded;  // corruption happened to keep the grammar valid
      (void)data;
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + loaded, 300);
  EXPECT_GT(threw, 100);  // most corruptions are detected
}

/// The fault injector's stream faults (truncation + bit flips) drive both
/// load modes over the same corrupted bytes. Strict must throw a typed
/// ProfileError or load; lenient must (almost) always return, and any
/// partial SessionData it returns must uphold the analyzer's invariants.
TEST(ProfileIoFuzz, FaultInjectedStreamsStrictAndLenient) {
  simrt::Machine m(numasim::test_machine(2, 2));
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 25;
  core::Profiler profiler(m, cfg);
  parallel_region(m, 2, "w", {},
                  [&](simrt::SimThread& t, std::uint32_t i) -> simrt::Task {
                    const simos::VAddr v = t.malloc(4096, "x");
                    for (int k = 0; k < 200; ++k) {
                      t.load(v + ((i + k) % 512) * 8);
                    }
                    co_return;
                  });
  std::stringstream out;
  core::ProfileWriter().write(profiler.snapshot(), out);
  const std::string good = out.str();

  int lenient_returned = 0, lenient_threw = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Alternate truncation and bit flips, all seeded through the plan.
    const std::string spec =
        trial % 2 == 0
            ? "seed=" + std::to_string(trial) + ";bitflip=8"
            : "seed=" + std::to_string(trial) + ";truncate=" +
                  std::to_string((trial * 977) % good.size());
    support::FaultPlan plan = support::FaultPlan::parse(spec);
    const std::string bad = plan.mutate_stream(good);

    // Strict: a typed error naming field and line, or a clean load.
    std::stringstream strict_in(bad);
    try {
      (void)core::ProfileReader().read(strict_in).data;
    } catch (const core::ProfileError& e) {
      EXPECT_FALSE(e.field().empty()) << spec;
    }

    // Lenient: returns partial data unless the header itself is destroyed.
    std::stringstream lenient_in(bad);
    try {
      const core::LoadResult result =
          core::ProfileReader(core::LoadOptions{.lenient = true}).read(lenient_in);
      ++lenient_returned;
      const core::SessionData& d = result.data;
      ASSERT_EQ(d.stores.size(), d.totals.size()) << spec;
      for (const core::ThreadTotals& t : d.totals) {
        ASSERT_EQ(t.per_domain.size(), d.domain_count) << spec;
      }
      for (const core::Variable& v : d.variables) {
        ASSERT_LT(v.variable_node, d.cct.size()) << spec;
      }
      for (const core::FirstTouchRecord& r : d.first_touches) {
        ASSERT_LT(r.node, d.cct.size()) << spec;
      }
      // The partial data must be analyzable end-to-end.
      const core::Analyzer analyzer(d);
      (void)analyzer.program();
    } catch (const core::ProfileError&) {
      ++lenient_threw;  // header (magic/version) was hit: not a profile
    }
  }
  EXPECT_EQ(lenient_returned + lenient_threw, 200);
  // Damage rarely lands on the first line; lenient mode recovers the rest.
  EXPECT_GT(lenient_returned, 150);
}

namespace {

/// Truncate, flip a byte, or duplicate a chunk of `bytes` — the three
/// shapes of damage a transport stream or log file actually suffers.
std::string mutate_bytes(std::string bytes, support::Rng& rng, int trial) {
  switch (trial % 3) {
    case 0:
      bytes.resize(rng.next_below(bytes.size()));
      break;
    case 1: {
      const auto pos = rng.next_below(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^
                                     (1u << rng.next_below(8)));
      break;
    }
    default: {  // duplicate a chunk (a retransmit landing twice)
      const auto pos = rng.next_below(bytes.size());
      const auto len = rng.next_below(bytes.size() - pos) + 1;
      bytes.insert(pos, bytes.substr(pos, len));
      break;
    }
  }
  return bytes;
}

}  // namespace

/// Frame decoder robustness: any mutation of a valid multi-frame stream
/// must decode to a mix of frames and counted damage — always making
/// forward progress (no hang), never crashing, and never "decoding" a
/// frame that was not in the original stream.
TEST(IngestFuzz, MutatedFrameStreamsNeverCrashOrStall) {
  std::string good;
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    ingest::Frame frame;
    frame.type = seq == 1 ? ingest::FrameType::kHello
                          : ingest::FrameType::kShard;
    frame.client = 3;
    frame.sequence = seq;
    frame.payload = "shard " + std::to_string(seq) +
                    std::string(seq * 7 % 64, '#');
    good += ingest::encode_frame(frame);
  }

  support::Rng rng(0xF7A3E);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string bad = mutate_bytes(good, rng, trial);
    std::size_t at = 0;
    int ok = 0, damaged = 0;
    while (at < bad.size()) {
      const ingest::DecodeResult result =
          ingest::decode_frame(std::string_view(bad).substr(at));
      if (result.status == ingest::DecodeStatus::kNeedMore) break;
      ASSERT_GT(result.consumed, 0u)
          << "trial " << trial << ": decoder made no progress at " << at;
      at += result.consumed;
      if (result.status == ingest::DecodeStatus::kOk) {
        ++ok;
        EXPECT_EQ(result.frame.client, 3u);
        EXPECT_GE(result.frame.sequence, 1u);
        EXPECT_LE(result.frame.sequence, 12u);
      } else {
        ++damaged;
      }
    }
    // A bit flip damages at most the frame it hits; a duplication only
    // repeats valid frames. Something must always be classified.
    EXPECT_GT(ok + damaged + (at < bad.size() ? 1 : 0), 0) << trial;

    // The server must absorb the same bytes without throwing.
    ingest::IngestServer server;
    server.ingest_stream(bad);
  }
}

/// WAL replay robustness: any mutation of a valid log must yield a clean
/// prefix of the original records plus a quantified torn tail, and
/// recovery must truncate to a log that then replays clean.
TEST(IngestFuzz, MutatedWalAlwaysRecoversToValidPrefix) {
  std::vector<ingest::WalRecord> records;
  std::string good;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    ingest::WalRecord record;
    record.type = seq == 1 ? ingest::WalRecordType::kHello
                           : ingest::WalRecordType::kShard;
    record.client = 1;
    record.sequence = seq;
    record.payload = "payload " + std::to_string(seq) +
                     std::string(seq * 11 % 48, '@');
    records.push_back(record);
    good += ingest::encode_wal_record(record, seq);
  }

  const auto dir = std::filesystem::temp_directory_path() / "numaprof_walfuzz";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "fuzz.wal").string();
  support::Rng rng(0x3A11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string bad = mutate_bytes(good, rng, trial);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    const ingest::WalReplay replay = ingest::replay_wal(path);
    ASSERT_EQ(replay.valid_bytes + replay.torn_bytes, bad.size()) << trial;
    ASSERT_LE(replay.records.size(), records.size()) << trial;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      ASSERT_EQ(replay.records[i].sequence, records[i].sequence)
          << "trial " << trial << ": record " << i
          << " is not a prefix of the original log";
      ASSERT_EQ(replay.records[i].payload, records[i].payload) << trial;
    }
    // Recovery truncates; the truncated log must replay clean.
    const ingest::WalReplay recovered = ingest::recover_wal(path);
    EXPECT_EQ(recovered.records.size(), replay.records.size()) << trial;
    const ingest::WalReplay again = ingest::replay_wal(path);
    EXPECT_EQ(again.torn_bytes, 0u) << trial;
    EXPECT_EQ(again.records.size(), replay.records.size()) << trial;
  }
  std::filesystem::remove_all(dir);
}

TEST(LintFuzz, MutatedSourcesNeverCrashTheDataflowEngine) {
  // The lexer -> IR -> summary -> cross-TU propagation chain must accept
  // arbitrary bytes: lint inputs are whatever the user points the tool
  // at. Start from a real antipattern TU so mutations explore the
  // interesting grammar neighborhood, not just noise.
  const std::string good = R"lint(
#include <cstdlib>
static double* big = nullptr;
double* make_grid(long n) { return (double*)malloc(n * 8); }
void fill(double* p, long n) {
  for (long i = 0; i < n; ++i) p[i] = 0.0;
}
void setup(long n) { big = make_grid(n); fill(big, n); }
void consume(long n) {
  #pragma omp parallel for schedule(static, 1'6)
  for (long i = 0; i < n; ++i) big[i] *= 2.0;
}
)lint";
  support::Rng rng(0xDA7AF70);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    switch (trial % 4) {
      case 0:  // truncate
        bad.resize(rng.next_below(bad.size()));
        break;
      case 1: {  // flip a byte
        const auto pos = rng.next_below(bad.size());
        bad[pos] = static_cast<char>(rng.next_below(256));
        break;
      }
      case 2: {  // splice a random chunk out
        const auto pos = rng.next_below(bad.size());
        bad.erase(pos, rng.next_below(bad.size() - pos));
        break;
      }
      default: {  // duplicate a random chunk (unbalances nesting)
        const auto pos = rng.next_below(bad.size());
        const auto len = rng.next_below(bad.size() - pos);
        bad.insert(pos, bad.substr(pos, len));
        break;
      }
    }
    // Per-file phase 1 (lex, IR, L1-L4), then whole-program propagation
    // over the mutant's IR paired with an intact TU's.
    lint::FilePhase1 phase1 = lint::lint_file_phase1(bad, "mutant.cpp");
    lint::FilePhase1 anchor = lint::lint_file_phase1(good, "anchor.cpp");
    const auto findings = lint::dataflow::propagate_and_check(
        {std::move(phase1.ir), std::move(anchor.ir)});
    for (const auto& f : findings) {
      ASSERT_FALSE(f.variable.empty());
      ASSERT_LT(static_cast<int>(f.kind), core::kLintKindCount);
    }
  }
}

}  // namespace
}  // namespace numaprof
