#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "apps/common.hpp"
#include "core/advisor.hpp"
#include "core/export/export.hpp"
#include "core/metrics.hpp"
#include "core/profiler.hpp"
#include "core/report.hpp"
#include "core/viewer.hpp"
#include "numasim/topology.hpp"
#include "support/error.hpp"

namespace numaprof::core {
namespace {

namespace fs = std::filesystem;
using simrt::Machine;
using simrt::SimThread;
using simrt::Task;

SessionData make_session(bool with_trace) {
  Machine m(numasim::test_machine(4, 2));
  ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 15;
  cfg.record_trace = with_trace;
  Profiler profiler(m, cfg);
  simos::VAddr data = 0;
  const std::uint64_t elems = 8 * 6 * apps::kElemsPerPage;
  parallel_region(m, 1, "init", {m.frames().intern("main")},
                  [&](SimThread& t, std::uint32_t) -> Task {
                    data = t.malloc(elems * 8, "grid");
                    apps::store_lines(t, data, 0, elems);
                    co_return;
                  });
  parallel_region(m, 8, "work._omp", {m.frames().intern("main")},
                  [&](SimThread& t, std::uint32_t index) -> Task {
                    const apps::Slice s = apps::block_slice(elems, index, 8);
                    apps::load_lines(t, data, s.begin, s.end);
                    co_return;
                  });
  return profiler.snapshot();
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Report, WritesFullDirectoryTree) {
  const SessionData data = make_session(true);
  const Analyzer analyzer(data);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "numaprof_report_test";
  fs::remove_all(dir);

  const std::string main_file = write_report(analyzer, dir.string());
  EXPECT_TRUE(fs::exists(main_file));
  EXPECT_TRUE(fs::exists(dir / "data_centric.csv"));
  EXPECT_TRUE(fs::exists(dir / "code_centric.csv"));
  EXPECT_TRUE(fs::exists(dir / "domains.csv"));
  EXPECT_TRUE(fs::exists(dir / "timeline.txt"));  // trace recorded
  EXPECT_TRUE(fs::exists(dir / "var_grid" / "ranges.csv"));
  EXPECT_TRUE(fs::exists(dir / "var_grid" / "ranges.txt"));
  EXPECT_TRUE(fs::exists(dir / "var_grid" / "first_touch.txt"));
  EXPECT_TRUE(fs::exists(dir / "var_grid" / "data_sources.txt"));

  const std::string report = slurp(main_file);
  EXPECT_NE(report.find("lpi_NUMA"), std::string::npos);
  EXPECT_NE(report.find("recommendations"), std::string::npos);
  EXPECT_NE(report.find("grid"), std::string::npos);
  EXPECT_NE(report.find("first touch"), std::string::npos);

  const std::string csv = slurp(dir / "data_centric.csv");
  EXPECT_NE(csv.find("variable,kind"), std::string::npos);
  EXPECT_NE(csv.find("grid"), std::string::npos);
}

TEST(Report, NoTimelineWithoutTrace) {
  const SessionData data = make_session(false);
  const Analyzer analyzer(data);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "numaprof_report_notrace";
  fs::remove_all(dir);
  write_report(analyzer, dir.string());
  EXPECT_FALSE(fs::exists(dir / "timeline.txt"));
  EXPECT_TRUE(fs::exists(dir / "report.txt"));
}

TEST(Report, OverwritesExistingReport) {
  const SessionData data = make_session(false);
  const Analyzer analyzer(data);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "numaprof_report_twice";
  fs::remove_all(dir);
  write_report(analyzer, dir.string());
  EXPECT_NO_THROW(write_report(analyzer, dir.string()));
}

TEST(Report, UnwritableDirectoryThrows) {
  const SessionData data = make_session(false);
  const Analyzer analyzer(data);
  EXPECT_THROW(write_report(analyzer, "/proc/definitely/not/writable"),
               std::exception);
}

TEST(Report, WriteToFullDeviceThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const SessionData data = make_session(false);
  const Analyzer analyzer(data);
  const fs::path dir = fs::path(::testing::TempDir()) / "numaprof_report_full";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / "report.txt");
  try {
    write_report(analyzer, dir.string());
    ADD_FAILURE() << "a report written to a full device did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProfile);
    EXPECT_EQ(e.file(), (dir / "report.txt").string());
    EXPECT_NE(std::string(e.what()).find("cannot write report file"),
              std::string::npos);
  }
}

TEST(Report, VariableNamesSanitizedForFilesystem) {
  Machine m(numasim::test_machine(2, 2));
  ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 5;
  Profiler profiler(m, cfg);
  parallel_region(m, 1, "init", {},
                  [&](SimThread& t, std::uint32_t) -> Task {
                    const simos::VAddr v =
                        t.malloc(8 * simos::kPageBytes, "weird/name with *");
                    apps::store_lines(t, v, 0, 8 * apps::kElemsPerPage);
                    apps::load_lines(t, v, 0, 8 * apps::kElemsPerPage);
                    co_return;
                  });
  const SessionData data = profiler.snapshot();
  const Analyzer analyzer(data);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "numaprof_report_sanitize";
  fs::remove_all(dir);
  EXPECT_NO_THROW(write_report(analyzer, dir.string()));
  EXPECT_TRUE(fs::exists(dir / "var_weird_name_with__" / "ranges.csv"));
}

TEST(Report, DeepCallChainIsAnalyzedReportedAndExported) {
  // A well-formed profile whose call path is far deeper than a recursive
  // CCT walk survives: one memory sample on the leaf of a 250k-frame
  // chain under [ACCESS], then every consumer of the tree.
  constexpr std::size_t kDepth = 250'000;
  SessionData data = make_session(true);
  const auto access = data.cct.find_child(kRootNode, NodeKind::kAccess, 0);
  ASSERT_TRUE(access.has_value());
  const auto deep = static_cast<simrt::FrameId>(data.frames.size());
  data.frames.push_back(simrt::FrameInfo{.name = "deep", .file = "deep.c"});
  const std::vector<simrt::FrameId> chain(kDepth, deep);
  const NodeId leaf = data.cct.extend(*access, chain);
  MetricStore& store = data.stores.at(0);
  store.add(leaf, kSamples, 1);
  store.add(leaf, kMemorySamples, 1);
  store.add(leaf, kNumaMismatch, 1);
  store.add(leaf, kRemoteLatency, 1000);

  const Analyzer analyzer(data);
  const auto region = analyzer.find_region("deep");
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(data.cct.node(*region).parent, *access);
  EXPECT_DOUBLE_EQ(analyzer.region_lpi(*region).value_or(0.0), 1000.0);

  const Viewer viewer(analyzer);
  EXPECT_NE(viewer.cct_tree(kMemorySamples, kRootNode, 10, 0.0).find("deep"),
            std::string::npos);
  EXPECT_NE(viewer.code_centric_table(10).to_text().find("deep"),
            std::string::npos);
  (void)viewer.data_centric_table(10);
  (void)Advisor(analyzer).recommend_all(5);

  const fs::path dir = fs::path(::testing::TempDir()) / "numaprof_deep_chain";
  fs::remove_all(dir);
  EXPECT_TRUE(fs::exists(write_report(analyzer, dir.string())));
  fs::remove_all(dir);

  std::size_t deepest_stack = 0;
  for (const ExportArtifact& artifact :
       export_artifacts(analyzer, ExportKind::kAll)) {
    EXPECT_FALSE(artifact.bytes.empty()) << artifact.filename;
    if (!artifact.filename.ends_with(".collapsed.txt")) continue;
    std::istringstream lines(artifact.bytes);
    for (std::string line; std::getline(lines, line);) {
      deepest_stack = std::max<std::size_t>(
          deepest_stack, std::count(line.begin(), line.end(), ';'));
    }
  }
  EXPECT_EQ(deepest_stack, kDepth);  // [ACCESS];deep;...;deep
}

}  // namespace
}  // namespace numaprof::core
