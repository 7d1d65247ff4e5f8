// Golden-equivalence lock on the parallel analysis pipeline: the
// --jobs N output must be byte-identical to the jobs-1 output. For each
// of the four paper case studies (§8.1-8.4) this test:
//
//  1. renders the full viewer + advisor analysis with jobs=1 and jobs=4
//     and requires the TEXT to be byte-identical;
//  2. shards the session into per-thread measurement files, merges them
//     back with jobs=1 and jobs=4, and requires the re-serialized PROFILE
//     BYTES to equal each other AND the unsharded session's bytes (an
//     independent reference: no merge code produced it);
//  3. re-renders the advisor golden text through jobs=4 Analyzers and
//     compares it against the checked-in tests/golden/advisor_apps.txt —
//     the same golden the serial advisor test locks, so no new golden
//     files are introduced and serial/parallel cannot drift apart;
//  4. requires ProfileWriter::thread_shards to emit, in both encodings,
//     the bytes of the copy-and-blank shard construction kept here as
//     the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "core/advisor.hpp"
#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "core/viewer.hpp"
#include "numasim/topology.hpp"

namespace numaprof {
namespace {

namespace fs = std::filesystem;

core::ProfilerConfig profiler_config() {
  core::ProfilerConfig pc;
  pc.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  pc.event.period = 200;
  return pc;
}

struct CaseStudy {
  std::string name;
  std::function<core::SessionData()> run;
};

/// The four case-study apps with the same configurations the advisor
/// golden test profiles (baseline variants on amd_magny_cours).
std::vector<CaseStudy> case_studies() {
  return {
      {"minilulesh",
       [] {
         simrt::Machine m(numasim::amd_magny_cours());
         core::Profiler p(m, profiler_config());
         apps::run_minilulesh(m, {.threads = 16,
                                  .pages_per_thread = 12,
                                  .timesteps = 6,
                                  .variant = apps::Variant::kBaseline});
         return p.snapshot();
       }},
      {"miniamg",
       [] {
         simrt::Machine m(numasim::amd_magny_cours());
         core::Profiler p(m, profiler_config());
         apps::run_miniamg(m, {.threads = 16,
                               .rows_per_thread = 1024,
                               .relax_sweeps = 5,
                               .variant = apps::Variant::kBaseline});
         return p.snapshot();
       }},
      {"miniblackscholes",
       [] {
         simrt::Machine m(numasim::amd_magny_cours());
         core::Profiler p(m, profiler_config());
         apps::run_miniblackscholes(
             m, {.threads = 16,
                 .options_per_thread = 480,
                 .iterations = 96,
                 .variant = apps::Variant::kBaseline});
         return p.snapshot();
       }},
      {"miniumt",
       [] {
         simrt::Machine m(numasim::amd_magny_cours());
         core::Profiler p(m, profiler_config());
         apps::run_miniumt(m, {.threads = 16,
                               .angles = 32,
                               .sweeps = 4,
                               .variant = apps::Variant::kBaseline});
         return p.snapshot();
       }},
  };
}

/// Everything analyze_profile prints for a session: program summary,
/// health, the three tables, timeline, and advisor recommendations.
std::string render_full_analysis(const core::SessionData& data,
                                 unsigned jobs) {
  numaprof::PipelineOptions analyzer_options;
  analyzer_options.jobs = jobs;
  const core::Analyzer analyzer(data, analyzer_options);
  const core::Viewer viewer(analyzer);
  std::ostringstream os;
  os << viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) os << "-- collection health --\n" << health;
  os << "\n"
     << viewer.data_centric_table(10).to_text() << "\n"
     << viewer.code_centric_table(10).to_text() << "\n"
     << viewer.domain_balance_table().to_text() << "\n";
  const std::string timeline = viewer.trace_timeline();
  if (!timeline.empty()) os << timeline << "\n";
  const core::Advisor advisor(analyzer);
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    os << rec.variable_name << ": " << to_string(rec.action) << "\n  "
       << rec.rationale << "\n";
  }
  return os.str();
}

std::string profile_bytes(const core::SessionData& data) {
  std::ostringstream os;
  core::ProfileWriter().write(data, os);
  return os.str();
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// One advisor golden entry rendered through an Analyzer built with
/// `jobs` participants — the format of tests/golden/advisor_apps.txt.
std::string advise(const std::string& title, const core::SessionData& data,
                   unsigned jobs) {
  numaprof::PipelineOptions analyzer_options;
  analyzer_options.jobs = jobs;
  const core::Analyzer analyzer(data, analyzer_options);
  const core::Advisor advisor(analyzer);
  std::ostringstream os;
  os << "== " << title << " ==\n"
     << "warrants_optimization: "
     << (analyzer.program().warrants_optimization ? "yes" : "no") << "\n";
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    os << rec.variable_name << ": " << to_string(rec.action) << " ["
       << to_string(rec.guiding.kind) << "]\n";
  }
  return os.str();
}

TEST(GoldenEquiv, ParallelAnalysisTextMatchesSerialForAllCaseStudies) {
  for (const CaseStudy& app : case_studies()) {
    SCOPED_TRACE(app.name);
    const core::SessionData data = app.run();
    const std::string serial = render_full_analysis(data, 1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(render_full_analysis(data, 4), serial)
        << app.name << ": --jobs 4 output diverged from --jobs 1";
  }
}

TEST(GoldenEquiv, ParallelShardMergeBytesMatchSerialForAllCaseStudies) {
  // Parameterized over the shard encoding: text and binary measurement
  // files must merge back to the unsharded session, at every jobs value.
  for (const CaseStudy& app : case_studies()) {
    const core::SessionData data = app.run();
    const std::string unsharded = profile_bytes(data);
    for (const ProfileFormat format :
         {ProfileFormat::kText, ProfileFormat::kBinary}) {
      const bool binary = format == ProfileFormat::kBinary;
      const char* format_name = binary ? "binary" : "text";
      SCOPED_TRACE(app.name + std::string("/") + format_name);
      const std::string dir = fresh_dir("numaprof_equiv_" + app.name + "_" +
                                        format_name);
      const std::vector<std::string> paths =
          core::ProfileWriter(format).write_thread_shards(data, dir);
      ASSERT_FALSE(paths.empty());

      numaprof::PipelineOptions serial_options;
      serial_options.jobs = 1;
      const core::MergeResult serial =
          core::merge_profile_files(paths, serial_options);
      numaprof::PipelineOptions parallel_options;
      parallel_options.jobs = 4;
      const core::MergeResult parallel =
          core::merge_profile_files(paths, parallel_options);

      EXPECT_EQ(parallel.summary.files_merged, serial.summary.files_merged);
      EXPECT_EQ(profile_bytes(parallel.data), profile_bytes(serial.data))
          << app.name << ": merged profile bytes differ between jobs";
      EXPECT_EQ(profile_bytes(serial.data), unsharded)
          << app.name << ": jobs=1 merge diverged from the unsharded session";
      EXPECT_EQ(profile_bytes(parallel.data), unsharded)
          << app.name << ": jobs=4 merge diverged from the unsharded session";
    }
  }
}

TEST(GoldenEquiv, BinaryLoadedSessionAnalyzesIdenticallyForAllCaseStudies) {
  // The zero-copy binary load path must feed the analyzer the same data
  // the in-memory session holds: the full viewer + advisor text over the
  // reloaded session is byte-identical, at jobs=1 and jobs=4.
  for (const CaseStudy& app : case_studies()) {
    SCOPED_TRACE(app.name);
    const core::SessionData data = app.run();
    const std::string binary =
        core::ProfileWriter(ProfileFormat::kBinary).bytes(data);
    const core::LoadResult loaded = core::ProfileReader().read(binary);
    ASSERT_TRUE(loaded.complete);
    EXPECT_EQ(render_full_analysis(loaded.data, 1),
              render_full_analysis(data, 1))
        << app.name << ": binary round-trip changed the analysis";
    EXPECT_EQ(render_full_analysis(loaded.data, 4),
              render_full_analysis(data, 1))
        << app.name << ": binary round-trip + jobs=4 diverged";
  }
}

TEST(GoldenEquiv, ParallelAdvisorMatchesCheckedInGolden) {
  // Renders the SAME text the serial advisor golden test locks, but with
  // every Analyzer running the jobs=4 merge path. Comparing against the
  // checked-in golden (not a fresh serial render) means a regeneration
  // that only "works" in parallel cannot slip through.
  const std::string golden_path =
      NUMAPROF_SOURCE_DIR "/tests/golden/advisor_apps.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (regenerate with NUMAPROF_REGEN_GOLDEN=1)";
  std::ostringstream buffer;
  buffer << in.rdbuf();

  std::ostringstream rendered;
  for (const CaseStudy& app : case_studies()) {
    rendered << advise(app.name + " baseline", app.run(), 4);
  }
  EXPECT_EQ(rendered.str(), buffer.str())
      << "jobs=4 advisor output drifted from the serial golden";
}

/// The shard definition as numaprof first wrote it: copy the whole
/// session once per thread, blank every other thread's measurements and
/// records, and serialize the copy. ProfileWriter::thread_shards must
/// produce exactly these bytes without the copies.
std::vector<std::string> copy_and_blank_shards(const core::SessionData& data,
                                               ProfileFormat format) {
  const std::size_t threads = std::max<std::size_t>(data.totals.size(), 1);
  std::vector<std::string> shards;
  for (std::size_t tid = 0; tid < threads; ++tid) {
    core::SessionData shard = data;
    while (shard.stores.size() < shard.totals.size()) {
      shard.stores.emplace_back(shard.domain_count);
    }
    for (std::size_t t = 0; t < shard.totals.size(); ++t) {
      if (t == tid) continue;
      core::ThreadTotals zero;
      zero.per_domain.assign(shard.domain_count, 0);
      shard.totals[t] = std::move(zero);
      shard.stores[t] = core::MetricStore(shard.domain_count);
    }
    core::AddressCentric filtered;
    data.address_centric.for_each(
        [&](const core::BinKey& key, const core::BinStats& s) {
          if (key.tid == tid) filtered.insert(key, s);
        });
    shard.address_centric = std::move(filtered);
    std::erase_if(shard.first_touches,
                  [&](const core::FirstTouchRecord& r) { return r.tid != tid; });
    std::erase_if(shard.trace,
                  [&](const core::TraceEvent& e) { return e.tid != tid; });
    if (tid != 0) {
      shard.pebs_ll_events = 0;
      shard.degradations.clear();
    }
    shards.push_back(core::ProfileWriter(format).bytes(shard));
  }
  return shards;
}

/// A recorded session plus collection history: degradations, a fault
/// plan and a PEBS-LL event count, as a degraded run would carry them.
core::SessionData degraded_session() {
  core::SessionData data = case_studies().front().run();
  data.pebs_ll_events = 123456789;
  data.fault_context = "drop=0.5 seed=7";
  data.degradations.push_back(core::DegradationEvent{
      .kind = core::DegradationKind::kMechanismFallback,
      .mechanism = pmu::Mechanism::kSoftIbs,
      .value = 0,
      .detail = "ibs unavailable"});
  data.degradations.push_back(core::DegradationEvent{
      .kind = core::DegradationKind::kSampleFaults,
      .mechanism = pmu::Mechanism::kIbs,
      .value = 42,
      .detail = "dropped samples"});
  return data;
}

/// A session with program structure and address-centric records but no
/// thread totals: it still shards into one profile.
core::SessionData threadless_session() {
  core::SessionData data = case_studies().front().run();
  data.totals.clear();
  data.stores.clear();
  return data;
}

TEST(ProfileShards, MatchCopyAndBlankReference) {
  std::vector<std::pair<std::string, core::SessionData>> sessions;
  for (const CaseStudy& app : case_studies()) {
    sessions.emplace_back(app.name, app.run());
  }
  {
    simrt::Machine m(numasim::amd_magny_cours());
    core::ProfilerConfig config = profiler_config();
    config.record_trace = true;
    core::Profiler p(m, config);
    apps::run_minilulesh(m, {.threads = 8,
                             .pages_per_thread = 8,
                             .timesteps = 2,
                             .variant = apps::Variant::kBaseline});
    sessions.emplace_back("traced", p.snapshot());
    ASSERT_FALSE(sessions.back().second.trace.empty());
  }
  sessions.emplace_back("degraded", degraded_session());
  sessions.emplace_back("threadless", threadless_session());
  {
    // Fewer stores than threads, and records of threads past the last
    // shard (which no shard carries).
    core::SessionData ragged = case_studies().front().run();
    ASSERT_GT(ragged.totals.size(), 8u);
    ragged.totals.resize(8);
    ragged.stores.erase(ragged.stores.begin() + 4, ragged.stores.end());
    sessions.emplace_back("ragged", std::move(ragged));
  }

  for (const auto& [name, data] : sessions) {
    for (const ProfileFormat format :
         {ProfileFormat::kText, ProfileFormat::kBinary}) {
      SCOPED_TRACE(name + (format == ProfileFormat::kBinary ? "/binary"
                                                            : "/text"));
      const std::vector<std::string> shards =
          core::ProfileWriter(format).thread_shards(data);
      const std::vector<std::string> reference =
          copy_and_blank_shards(data, format);
      ASSERT_EQ(shards.size(), reference.size());
      for (std::size_t tid = 0; tid < shards.size(); ++tid) {
        EXPECT_TRUE(shards[tid] == reference[tid])
            << "shard " << tid << " differs from the reference";
      }
    }
  }
}

}  // namespace
}  // namespace numaprof
