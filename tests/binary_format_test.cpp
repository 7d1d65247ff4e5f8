// The columnar binary profile format (src/core/format/, docs/format.md):
//
//  - the support::Arena bump allocator the zero-copy loader stages
//    decoded columns into;
//  - magic-byte autodetection (ProfileReader::detect / format::looks_binary);
//  - LOSSLESS ROUND-TRIP: text -> binary -> text is byte-identical for a
//    synthetic session exercising every section, all four paper case
//    studies, and all four matrix workload kernels;
//  - byte-DETERMINISM: equal sessions serialize to equal binary bytes,
//    and a binary round-trip reproduces the binary bytes;
//  - the MUTATION FUZZER: seeded bit flips, truncations, and section-table
//    corruption must produce typed ProfileErrors (strict) or a consistent
//    partial session (lenient) — never a crash, hang, or huge allocation
//    (the ASan/UBSan CI job runs this binary);
//  - lenient recovery semantics: damaged sections are dropped WHOLE with a
//    diagnostic, truncated files are clipped to their valid prefix, and
//    the quorum-checked merge skips unreadable binary shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common.hpp"
#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "core/analyzer.hpp"
#include "core/format/format.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "matrix_support.hpp"
#include "numasim/topology.hpp"
#include "support/arena.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace numaprof {
namespace {

namespace fs = std::filesystem;
namespace format = core::format;

// --- Arena ---------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndValueInitialized) {
  support::Arena arena(256);
  for (const std::size_t align : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    void* p = arena.allocate(24, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
  const std::span<std::uint64_t> column = arena.make_span<std::uint64_t>(50);
  ASSERT_EQ(column.size(), 50u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(column.data()) %
                alignof(std::uint64_t),
            0u);
  for (const std::uint64_t v : column) EXPECT_EQ(v, 0u);
}

TEST(Arena, GrowsPastItsChunkSizeAndTracksUsage) {
  support::Arena arena(64);
  EXPECT_EQ(arena.used_bytes(), 0u);
  // An allocation larger than the chunk still succeeds (dedicated chunk).
  const std::span<std::uint8_t> big = arena.make_span<std::uint8_t>(1000);
  ASSERT_EQ(big.size(), 1000u);
  big[999] = 42;  // writable end to end
  const std::size_t after_big = arena.used_bytes();
  EXPECT_GE(after_big, 1000u);
  // Many small allocations force chunk growth; earlier blocks stay valid.
  std::vector<std::span<std::uint32_t>> spans;
  for (int i = 0; i < 100; ++i) {
    spans.push_back(arena.make_span<std::uint32_t>(8));
    spans.back()[0] = static_cast<std::uint32_t>(i);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_GE(arena.reserved_bytes(), arena.used_bytes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)][0],
              static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(big[999], 42);
}

TEST(Arena, MoveTransfersOwnership) {
  support::Arena a(128);
  const std::span<std::uint64_t> kept = a.make_span<std::uint64_t>(4);
  kept[0] = 7;
  support::Arena b = std::move(a);
  EXPECT_EQ(kept[0], 7u);  // memory lives on in the moved-to arena
  const std::span<std::uint64_t> more = b.make_span<std::uint64_t>(4);
  EXPECT_EQ(more[0], 0u);
}

// --- Sessions under test -------------------------------------------------

/// A small profiled run plus hand-planted fields so EVERY section of the
/// format carries data: trace on, first touches on, degradations and
/// fault context planted, pebs_ll_events set.
core::SessionData full_session() {
  simrt::Machine m(numasim::test_machine(2, 2));
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 25;
  cfg.record_trace = true;
  core::Profiler profiler(m, cfg);
  parallel_region(m, 2, "w", {},
                  [&](simrt::SimThread& t, std::uint32_t i) -> simrt::Task {
                    const simos::VAddr v = t.malloc(4 * 4096, "x");
                    for (int k = 0; k < 300; ++k) {
                      t.store(v + ((i + k) % 2048) * 8);
                    }
                    co_return;
                  });
  core::SessionData data = profiler.snapshot();
  data.pebs_ll_events = 123;
  data.fault_context = "seed=9;bitflip=0";
  data.degradations.push_back(core::DegradationEvent{
      .kind = core::DegradationKind::kMechanismFallback,
      .mechanism = pmu::Mechanism::kPebs,
      .value = 777,
      .detail = "planted fallback detail, with % and spaces"});
  return data;
}

std::string text_bytes(const core::SessionData& data) {
  return core::ProfileWriter(ProfileFormat::kText).bytes(data);
}

std::string binary_bytes(const core::SessionData& data) {
  return core::ProfileWriter(ProfileFormat::kBinary).bytes(data);
}

/// text -> binary -> text must reproduce the text bytes exactly, and
/// binary -> load -> binary must reproduce the binary bytes exactly.
void expect_lossless(const core::SessionData& data, const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::string text1 = text_bytes(data);
  const std::string binary1 = binary_bytes(data);
  ASSERT_TRUE(format::looks_binary(binary1));
  ASSERT_FALSE(format::looks_binary(text1));

  const core::LoadResult loaded = core::ProfileReader().read(binary1);
  ASSERT_TRUE(loaded.complete) << "binary load incomplete";
  ASSERT_TRUE(loaded.diagnostics.empty());
  EXPECT_EQ(text_bytes(loaded.data), text1)
      << tag << ": text -> binary -> text is not byte-identical";
  EXPECT_EQ(binary_bytes(loaded.data), binary1)
      << tag << ": binary round-trip changed the binary bytes";
}

// --- Autodetection -------------------------------------------------------

TEST(BinaryFormat, DetectRequiresTheFullMagic) {
  const std::string binary = binary_bytes(full_session());
  EXPECT_EQ(core::ProfileReader::detect(binary), ProfileFormat::kBinary);
  EXPECT_EQ(core::ProfileReader::detect("numaprof-profile 3"),
            ProfileFormat::kText);
  EXPECT_EQ(core::ProfileReader::detect(""), ProfileFormat::kText);
  // A prefix shorter than the magic is not binary (the text loader owns
  // the error message for stubs).
  EXPECT_EQ(core::ProfileReader::detect(binary.substr(0, 7)),
            ProfileFormat::kText);
}

TEST(BinaryFormat, EveryReadEntryPointAutodetects) {
  const core::SessionData data = full_session();
  const std::string reference = text_bytes(data);
  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    SCOPED_TRACE(format == ProfileFormat::kBinary ? "binary" : "text");
    const core::ProfileWriter writer(format);
    // read(string_view)
    EXPECT_EQ(text_bytes(core::ProfileReader().read(writer.bytes(data)).data),
              reference);
    // read(istream)
    std::stringstream stream;
    writer.write(data, stream);
    EXPECT_EQ(text_bytes(core::ProfileReader().read(stream).data), reference);
    // read_file (binary path memory-maps)
    const fs::path path = fs::path(::testing::TempDir()) /
                          (format == ProfileFormat::kBinary
                               ? "autodetect.npb"
                               : "autodetect.prof");
    writer.write_file(data, path.string());
    EXPECT_EQ(text_bytes(core::ProfileReader().read_file(path.string()).data),
              reference);
  }
}

// --- Lossless round-trips ------------------------------------------------

TEST(BinaryFormat, RoundTripIsLosslessForAFullSyntheticSession) {
  const core::SessionData data = full_session();
  // Every section must actually have content for this lock to mean much.
  ASSERT_FALSE(data.frames.empty());
  ASSERT_GT(data.cct.size(), 1u);
  ASSERT_FALSE(data.variables.empty());
  ASSERT_FALSE(data.totals.empty());
  ASSERT_FALSE(data.stores.empty());
  ASSERT_FALSE(data.first_touches.empty());
  ASSERT_FALSE(data.trace.empty());
  ASSERT_FALSE(data.degradations.empty());
  expect_lossless(data, "full_session");
}

TEST(BinaryFormat, RoundTripIsLosslessForAnEmptySession) {
  const core::SessionData empty;
  expect_lossless(empty, "empty");
}

TEST(BinaryFormat, RoundTripIsLosslessForAllCaseStudies) {
  core::ProfilerConfig pc;
  pc.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  pc.event.period = 200;
  struct Case {
    std::string name;
    std::function<void(simrt::Machine&)> run;
  };
  const std::vector<Case> cases = {
      {"minilulesh",
       [](simrt::Machine& m) {
         apps::run_minilulesh(m, {.threads = 16,
                                  .pages_per_thread = 12,
                                  .timesteps = 6,
                                  .variant = apps::Variant::kBaseline});
       }},
      {"miniamg",
       [](simrt::Machine& m) {
         apps::run_miniamg(m, {.threads = 16,
                               .rows_per_thread = 1024,
                               .relax_sweeps = 5,
                               .variant = apps::Variant::kBaseline});
       }},
      {"miniblackscholes",
       [](simrt::Machine& m) {
         apps::run_miniblackscholes(m, {.threads = 16,
                                        .options_per_thread = 480,
                                        .iterations = 96,
                                        .variant = apps::Variant::kBaseline});
       }},
      {"miniumt",
       [](simrt::Machine& m) {
         apps::run_miniumt(m, {.threads = 16,
                               .angles = 32,
                               .sweeps = 4,
                               .variant = apps::Variant::kBaseline});
       }},
  };
  for (const Case& app : cases) {
    simrt::Machine m(numasim::amd_magny_cours());
    core::Profiler p(m, pc);
    app.run(m);
    expect_lossless(p.snapshot(), app.name);
  }
}

TEST(BinaryFormat, RoundTripIsLosslessForAllMatrixKernels) {
  for (const char* scenario : {"graph", "join", "kvcache", "orderbook"}) {
    const matrix::CellResult cell =
        matrix::run_cell(apps::scenario_by_name(scenario), "magny-cours",
                         simos::PolicySpec::first_touch(), /*fixed=*/false);
    expect_lossless(cell.data, scenario);
  }
}

TEST(BinaryFormat, WriterIsByteDeterministic) {
  const core::SessionData data = full_session();
  EXPECT_EQ(binary_bytes(data), binary_bytes(data));
  // Appended to a non-empty buffer, the profile keeps its own layout
  // (offsets inside it are relative to its first byte).
  std::string prefixed = "spool-header";
  prefixed += core::ProfileWriter(ProfileFormat::kBinary).bytes(data);
  EXPECT_EQ(prefixed.substr(std::strlen("spool-header")),
            binary_bytes(data));
}

// --- Strict errors -------------------------------------------------------

TEST(BinaryFormat, StrictErrorsNameSectionFieldAndByteOffset) {
  const std::string good = binary_bytes(full_session());

  // Header magic damage: not binary anymore, the text loader rejects it.
  {
    std::string bad = good;
    bad[0] = 'x';
    EXPECT_THROW(core::ProfileReader().read(bad).data, core::ProfileError);
  }
  // Version bump: typed error naming the version field.
  {
    std::string bad = good;
    bad[8] = 99;  // version is the u32 at offset 8; CRC must match too
    // Recompute nothing: the header CRC now mismatches, which is the
    // point — header damage is fatal in BOTH modes.
    try {
      core::ProfileReader().read(bad);
      FAIL() << "damaged header must throw";
    } catch (const core::ProfileError& e) {
      EXPECT_NE(e.field().find("header"), std::string::npos) << e.field();
    }
    EXPECT_THROW(
        core::ProfileReader(core::LoadOptions{.lenient = true}).read(bad),
        core::ProfileError);
  }
  // Payload damage: strict names "<section>/<field>" and the byte offset.
  {
    std::string bad = good;
    bad[bad.size() - 3] ^= 0x40;  // inside the last section's payload
    try {
      core::ProfileReader().read(bad);
      FAIL() << "corrupt payload must throw in strict mode";
    } catch (const core::ProfileError& e) {
      EXPECT_NE(e.field().find('/'), std::string::npos)
          << "field should be section-qualified: " << e.field();
    }
  }
}

// --- Lenient recovery ----------------------------------------------------

TEST(BinaryFormat, LenientLoadDropsTheDamagedSectionWhole) {
  const core::SessionData data = full_session();
  const std::string good = binary_bytes(data);
  // Find the frames section's payload via a distinctive frame name byte:
  // flip a byte in the middle of the file until exactly the frames
  // section is reported damaged; simplest deterministic choice — damage a
  // byte inside the first third (frames come early).
  std::string bad = good;
  bad[format::kHeaderBytes + format::kSectionCount * format::kTableEntryBytes +
      64] ^= 0x01;

  const core::LoadResult result =
      core::ProfileReader(core::LoadOptions{.lenient = true}).read(bad);
  EXPECT_FALSE(result.complete);
  ASSERT_FALSE(result.diagnostics.empty());
  // Whichever section took the hit, the rest of the session survives and
  // the partial data upholds the invariants the analyzer needs.
  const core::SessionData& d = result.data;
  EXPECT_EQ(d.stores.size(), d.totals.size());
  for (const core::ThreadTotals& t : d.totals) {
    EXPECT_EQ(t.per_domain.size(), d.domain_count);
  }
  const core::Analyzer analyzer(d);
  (void)analyzer.program();
}

TEST(BinaryFormat, LenientLoadClipsATruncatedFileToItsValidPrefix) {
  const core::SessionData data = full_session();
  const std::string good = binary_bytes(data);
  // Cut the last 5 bytes: the final section's payload is now out of
  // bounds and must be dropped; earlier sections still load.
  const std::string bad = good.substr(0, good.size() - 5);

  EXPECT_THROW(core::ProfileReader().read(bad).data, core::ProfileError);

  const core::LoadResult result =
      core::ProfileReader(core::LoadOptions{.lenient = true}).read(bad);
  EXPECT_FALSE(result.complete);
  ASSERT_FALSE(result.diagnostics.empty());
  // Early sections survived the clip.
  EXPECT_EQ(result.data.domain_count, data.domain_count);
  EXPECT_EQ(result.data.machine_name, data.machine_name);
  EXPECT_EQ(result.data.cct.size(), data.cct.size());
}

TEST(BinaryFormat, CorruptSectionTableIsFatalInBothModes) {
  const std::string good = binary_bytes(full_session());
  std::string bad = good;
  bad[format::kHeaderBytes + 3] ^= 0xFF;  // first table entry's id bytes
  EXPECT_THROW(core::ProfileReader().read(bad).data, core::ProfileError);
  EXPECT_THROW(
      core::ProfileReader(core::LoadOptions{.lenient = true}).read(bad),
      core::ProfileError);
}

TEST(BinaryFormat, HugeClaimedCountsAreRejectedBeforeAllocation) {
  // A tiny max_count makes the full session's CCT "too big": the loader
  // must reject the count instead of reserving for it.
  const std::string good = binary_bytes(full_session());
  core::LoadOptions options;
  options.max_count = 4;
  try {
    core::ProfileReader(options).read(good);
    FAIL() << "count above max_count must be rejected";
  } catch (const core::ProfileError& e) {
    EXPECT_NE(e.field().find('/'), std::string::npos) << e.field();
  }
  options.lenient = true;
  const core::LoadResult result = core::ProfileReader(options).read(good);
  EXPECT_FALSE(result.complete);
}

// --- The mutation fuzzer -------------------------------------------------

/// Seeded mutations over the binary bytes: bit flips, truncations, chunk
/// splices, and targeted header/section-table corruption. Strict loads
/// must either succeed or throw a typed ProfileError; lenient loads must
/// additionally return consistent partial data whenever they return at
/// all. Runs under the ASan/UBSan CI job, so any out-of-bounds read in
/// the zero-copy column paths is fatal here.
TEST(BinaryFormatFuzz, MutatedInputNeverCrashes) {
  const std::string good = binary_bytes(full_session());
  ASSERT_GT(good.size(), format::kHeaderBytes +
                             format::kSectionCount * format::kTableEntryBytes);

  support::Rng rng(0xB16F02);
  const std::size_t table_end =
      format::kHeaderBytes + format::kSectionCount * format::kTableEntryBytes;
  int strict_threw = 0, strict_loaded = 0, lenient_returned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = good;
    switch (trial % 4) {
      case 0:  // truncate anywhere, including inside the header
        bad.resize(rng.next_below(bad.size()));
        break;
      case 1: {  // flip one bit anywhere
        const std::size_t pos = rng.next_below(bad.size());
        bad[pos] = static_cast<char>(
            static_cast<unsigned char>(bad[pos]) ^
            (1u << rng.next_below(8)));
        break;
      }
      case 2: {  // corrupt the header / section table specifically
        const std::size_t pos = rng.next_below(table_end);
        bad[pos] = static_cast<char>(rng.next_below(256));
        break;
      }
      default: {  // splice a chunk out of the middle
        const std::size_t pos = rng.next_below(bad.size());
        const std::size_t len = rng.next_below(bad.size() - pos);
        bad.erase(pos, len);
        break;
      }
    }

    try {
      (void)core::ProfileReader().read(std::string_view(bad));
      ++strict_loaded;
    } catch (const core::ProfileError& e) {
      EXPECT_FALSE(e.field().empty()) << "trial " << trial;
      ++strict_threw;
    }

    try {
      const core::LoadResult result =
          core::ProfileReader(core::LoadOptions{.lenient = true})
              .read(std::string_view(bad));
      ++lenient_returned;
      const core::SessionData& d = result.data;
      ASSERT_EQ(d.stores.size(), d.totals.size()) << "trial " << trial;
      for (const core::ThreadTotals& t : d.totals) {
        ASSERT_EQ(t.per_domain.size(), d.domain_count) << "trial " << trial;
      }
      for (const core::Variable& v : d.variables) {
        ASSERT_LT(v.variable_node, d.cct.size()) << "trial " << trial;
      }
      for (const core::FirstTouchRecord& r : d.first_touches) {
        ASSERT_LT(r.node, d.cct.size()) << "trial " << trial;
      }
      const core::Analyzer analyzer(d);
      (void)analyzer.program();
    } catch (const core::ProfileError&) {
      // Header/table damage is fatal even leniently — fine.
    }
  }
  EXPECT_EQ(strict_threw + strict_loaded, 400);
  EXPECT_GT(strict_threw, 100);     // CRCs catch most mutations
  EXPECT_GT(lenient_returned, 50);  // payload damage is recoverable
}

/// Flipping any single byte of the section TABLE must never load
/// silently: the table CRC covers all of it.
TEST(BinaryFormatFuzz, EverySectionTableByteIsCovered) {
  const std::string good = binary_bytes(full_session());
  for (std::size_t pos = format::kHeaderBytes;
       pos <
       format::kHeaderBytes + format::kSectionCount * format::kTableEntryBytes;
       ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^ 0x10);
    EXPECT_THROW(core::ProfileReader().read(bad).data, core::ProfileError)
        << "table byte " << pos << " not covered by a checksum";
  }
}

// --- Quorum-checked merge over binary shards -----------------------------

TEST(BinaryFormat, MergeSkipsDamagedBinaryShardsAndChecksQuorum) {
  const core::SessionData data = full_session();
  const fs::path dir = fs::path(::testing::TempDir()) / "binary_shards";
  fs::remove_all(dir);
  const std::vector<std::string> paths =
      core::ProfileWriter(ProfileFormat::kBinary)
          .write_thread_shards(data, dir.string());
  ASSERT_GE(paths.size(), 2u);

  // Reference: merge the intact binary shards.
  PipelineOptions options;
  options.lenient = true;
  const core::MergeResult intact = core::merge_profile_files(paths, options);
  EXPECT_EQ(intact.summary.files_merged, paths.size());

  // Destroy one shard's header: it is skipped, the rest merge.
  {
    std::ofstream os(paths.back(), std::ios::binary | std::ios::trunc);
    os << "not a profile of either encoding";
  }
  const core::MergeResult merged = core::merge_profile_files(paths, options);
  EXPECT_EQ(merged.summary.files_merged, paths.size() - 1);
  ASSERT_EQ(merged.summary.skipped.size(), 1u);
  EXPECT_EQ(merged.summary.skipped.front().path, paths.back());

  // Quorum: with every shard but one destroyed, a 0.5 quorum fails even
  // leniently.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    std::ofstream os(paths[i], std::ios::binary | std::ios::trunc);
    os << "xx";
  }
  options.quorum = 0.5;
  if (paths.size() > 2) {
    EXPECT_THROW(core::merge_profile_files(paths, options),
                 core::ProfileError);
  }
}

// --- CCT edges: the text and binary loaders agree -----------------------

constexpr std::uint64_t kTwinKey = 0x00ed'0000'0000'00a1ULL;
constexpr std::uint64_t kOtherKey = 0x00ed'0000'0000'00a2ULL;
constexpr std::uint64_t kWideKey = kTwinKey | (std::uint64_t{1} << 60);

/// full_session() plus root children VAR kTwinKey and VAR `second`.
core::SessionData session_with_root_variables(std::uint64_t second) {
  core::SessionData data = full_session();
  data.cct.child(core::kRootNode, core::NodeKind::kVariable, kTwinKey);
  data.cct.child(core::kRootNode, core::NodeKind::kVariable, second);
  return data;
}

/// Rewrites every section CRC, the table CRC and the header CRC, so an
/// edited payload reaches its decoder instead of failing a checksum.
void reseal(std::string& bytes) {
  const auto put_u32_at = [&](std::size_t at, std::uint32_t v) {
    std::string le;
    support::put_u32(le, v);
    bytes.replace(at, 4, le);
  };
  const std::string_view view = bytes;
  for (std::size_t i = 0; i < format::kSectionCount; ++i) {
    const std::size_t entry =
        format::kHeaderBytes + i * format::kTableEntryBytes;
    const std::uint64_t offset = support::get_u64(view, entry + 8);
    const std::uint64_t length = support::get_u64(view, entry + 16);
    put_u32_at(entry + 4, support::crc32(view.substr(offset, length)));
  }
  put_u32_at(24, support::crc32(view.substr(
                     format::kHeaderBytes,
                     format::kSectionCount * format::kTableEntryBytes)));
  put_u32_at(28, support::crc32(view.substr(0, 28)));
}

/// Replaces the one occurrence of `from` in `bytes` with `to`.
void replace_once(std::string& bytes, const std::string& from,
                  const std::string& to) {
  const std::size_t at = bytes.find(from);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(from, at + 1), std::string::npos);
  bytes.replace(at, from.size(), to);
}

TEST(BinaryFormat, RepeatedCctSiblingIsRejectedByBothLoaders) {
  const core::SessionData data = session_with_root_variables(kOtherKey);
  const core::ProfileReader strict;
  const core::ProfileReader lenient(core::LoadOptions{.lenient = true});

  // Binary: the second VAR's key column entry becomes the first's, with
  // valid checksums, so only the CCT decoder can notice.
  std::string binary = binary_bytes(data);
  std::string twin_le;
  std::string other_le;
  support::put_u64(twin_le, kTwinKey);
  support::put_u64(other_le, kOtherKey);
  replace_once(binary, other_le, twin_le);
  reseal(binary);
  try {
    strict.read(binary);
    FAIL() << "a repeated sibling must throw in strict mode";
  } catch (const core::ProfileError& e) {
    EXPECT_EQ(e.field(), "cct/key");
    EXPECT_GT(e.line(), format::kHeaderBytes);  // a byte offset
    EXPECT_NE(std::string(e.what()).find("repeats a sibling"),
              std::string::npos)
        << e.what();
  }
  const core::LoadResult from_binary = lenient.read(binary);
  EXPECT_FALSE(from_binary.complete);
  ASSERT_FALSE(from_binary.diagnostics.empty());
  EXPECT_EQ(from_binary.diagnostics.front().field, "cct/key");
  EXPECT_EQ(from_binary.data.cct.size(), 1u);  // the section is dropped

  // Text: the same edit in the cct section's key field.
  std::string text = text_bytes(data);
  replace_once(text, " " + std::to_string(kOtherKey) + "\n",
               " " + std::to_string(kTwinKey) + "\n");
  EXPECT_THROW(strict.read(text), core::ProfileError);
  const core::LoadResult from_text = lenient.read(text);
  EXPECT_FALSE(from_text.complete);
  ASSERT_FALSE(from_text.diagnostics.empty());
  EXPECT_EQ(from_text.diagnostics.front().field, "cct node");
}

TEST(BinaryFormat, WideCctKeysLoadInBothEncodings) {
  // Keys that differ only above bit 55 are distinct children.
  const core::SessionData data = session_with_root_variables(kWideKey);
  ASSERT_EQ(data.cct.size(), full_session().cct.size() + 2);
  expect_lossless(data, "wide cct keys");
  const core::LoadResult from_text = core::ProfileReader().read(
      text_bytes(data));
  EXPECT_TRUE(from_text.complete);
  EXPECT_EQ(from_text.data.cct.size(), data.cct.size());
}

}  // namespace
}  // namespace numaprof
