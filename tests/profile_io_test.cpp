#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "numasim/topology.hpp"
#include "support/hash.hpp"

namespace numaprof::core {
namespace {

using simrt::Machine;
using simrt::SimThread;
using simrt::Task;

SessionData small_session(bool record_trace = false) {
  Machine m(numasim::test_machine(2, 2));
  ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 10;
  cfg.record_trace = record_trace;
  Profiler profiler(m, cfg);
  simos::VAddr data = 0;
  const auto main_f = m.frames().intern("main", "x c.c", 1);  // space in file
  parallel_region(m, 1, "init", {main_f},
                  [&](SimThread& t, std::uint32_t) -> Task {
                    data = t.malloc(8 * simos::kPageBytes, "weird name%");
                    for (std::uint64_t i = 0; i < 8 * simos::kPageBytes;
                         i += 64) {
                      t.store(data + i);
                    }
                    co_return;
                  });
  parallel_region(m, 4, "work", {main_f},
                  [&](SimThread& t, std::uint32_t index) -> Task {
                    for (std::uint64_t i = 0; i < 2048; ++i) {
                      t.load(data + ((index * 2048 + i) * 64) %
                                        (8 * simos::kPageBytes));
                      co_await t.tick();
                    }
                  });
  return profiler.snapshot();
}

TEST(EscapeField, RoundTripsSpecials) {
  for (const std::string raw :
       {"plain", "with space", "tab\there", "new\nline", "percent%sign",
        "", "%20", "\x01control"}) {
    EXPECT_EQ(unescape_field(escape_field(raw)), raw) << raw;
  }
}

TEST(EscapeField, EscapedFormIsOneToken) {
  const std::string escaped = escape_field("two words\nand lines");
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
}

TEST(ProfileIo, SaveLoadRoundTrip) {
  const SessionData original = small_session();
  std::stringstream stream;
  ProfileWriter().write(original, stream);
  const SessionData loaded = ProfileReader().read(stream).data;

  EXPECT_EQ(loaded.machine_name, original.machine_name);
  EXPECT_EQ(loaded.domain_count, original.domain_count);
  EXPECT_EQ(loaded.core_count, original.core_count);
  EXPECT_EQ(loaded.mechanism, original.mechanism);
  EXPECT_EQ(loaded.sampling_period, original.sampling_period);
  EXPECT_EQ(loaded.frames.size(), original.frames.size());
  EXPECT_EQ(loaded.cct.size(), original.cct.size());
  EXPECT_EQ(loaded.variables.size(), original.variables.size());
  EXPECT_EQ(loaded.totals.size(), original.totals.size());
  EXPECT_EQ(loaded.first_touches.size(), original.first_touches.size());
  EXPECT_EQ(loaded.address_centric.entry_count(),
            original.address_centric.entry_count());

  // Variable metadata round-trips exactly (including the awkward name).
  for (std::size_t i = 0; i < original.variables.size(); ++i) {
    EXPECT_EQ(loaded.variables[i].name, original.variables[i].name);
    EXPECT_EQ(loaded.variables[i].start, original.variables[i].start);
    EXPECT_EQ(loaded.variables[i].variable_node,
              original.variables[i].variable_node);
  }
}

TEST(ProfileIo, AnalysisOfLoadedProfileMatchesLive) {
  const SessionData original = small_session();
  std::stringstream stream;
  ProfileWriter().write(original, stream);
  const SessionData loaded = ProfileReader().read(stream).data;

  const Analyzer live(original);
  const Analyzer offline(loaded);
  EXPECT_EQ(live.program().samples, offline.program().samples);
  EXPECT_EQ(live.program().mismatch, offline.program().mismatch);
  EXPECT_DOUBLE_EQ(live.program().remote_latency,
                   offline.program().remote_latency);
  ASSERT_EQ(live.variables().size(), offline.variables().size());
  for (std::size_t i = 0; i < live.variables().size(); ++i) {
    EXPECT_EQ(live.variables()[i].name, offline.variables()[i].name);
    EXPECT_EQ(live.variables()[i].mismatch, offline.variables()[i].mismatch);
  }
}

TEST(ProfileIo, FileRoundTrip) {
  const SessionData original = small_session();
  const std::string path = ::testing::TempDir() + "/numaprof_test_profile.txt";
  ProfileWriter().write_file(original, path);
  const SessionData loaded = ProfileReader().read_file(path).data;
  EXPECT_EQ(loaded.cct.size(), original.cct.size());
}

TEST(ProfileIo, RejectsWrongMagicAndVersion) {
  std::stringstream bad1("not-a-profile 1\n");
  EXPECT_THROW(ProfileReader().read(bad1).data, std::runtime_error);
  std::stringstream bad2("numaprof-profile 999\n");
  EXPECT_THROW(ProfileReader().read(bad2).data, std::runtime_error);
}

TEST(ProfileIo, RejectsTruncatedInput) {
  const SessionData original = small_session();
  std::stringstream stream;
  ProfileWriter().write(original, stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(ProfileReader().read(truncated).data, std::runtime_error);
}

TEST(ProfileIo, MissingFileThrows) {
  EXPECT_THROW(ProfileReader().read_file("/nonexistent/profile.txt").data,
               std::runtime_error);
}

TEST(ProfileIo, RejectsOutOfRangeMechanismEnum) {
  std::stringstream in(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "sampling 99 100 0\n"
      "end\n");
  try {
    ProfileReader().read(in).data;
    FAIL() << "enum out of range must not be cast blindly";
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "mechanism");
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(ProfileIo, RejectsOutOfRangeFrameKind) {
  std::stringstream in(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "frames 1\n"
      "7 10 f file.c\n"
      "end\n");
  try {
    ProfileReader().read(in).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "frame kind");
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(ProfileIo, RejectsOutOfRangeCctAndVariableKinds) {
  std::stringstream cct_in(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "cct 2\n"
      "0 42 0\n"
      "end\n");
  try {
    ProfileReader().read(cct_in).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "cct kind");
  }
  std::stringstream var_in(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "variables 1\n"
      "200 0 8 1 0 0 1 name\n"
      "end\n");
  try {
    ProfileReader().read(var_in).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "var kind");
  }
}

TEST(ProfileIo, RejectsDanglingCrossReferences) {
  // A CCT parent that does not exist yet.
  std::stringstream bad_parent(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "cct 2\n"
      "900 1 0\n"
      "end\n");
  try {
    ProfileReader().read(bad_parent).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "cct parent");
  }
  // A variable anchored at a CCT node that was never created.
  std::stringstream bad_node(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "variables 1\n"
      "0 0 8 1 500 0 1 name\n"
      "end\n");
  try {
    ProfileReader().read(bad_node).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "var node");
  }
}

TEST(ProfileIo, BoundsHostileCountsBeforeReserving) {
  // A counts field far beyond both the limit and the stream size must be
  // rejected up front, not fed to reserve().
  std::stringstream in(
      "numaprof-profile 3\n"
      "machine 2 4 box\n"
      "frames 1099511627776\n"
      "end\n");
  try {
    ProfileReader().read(in).data;
    FAIL();
  } catch (const ProfileError& e) {
    EXPECT_EQ(e.field(), "frame count");
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos);
  }
}

TEST(ProfileIo, LenientLoadReturnsPartialDataWithDiagnostics) {
  const SessionData original = small_session();
  std::stringstream out;
  ProfileWriter().write(original, out);
  std::string text = out.str();
  // Sabotage the variables section header; everything else stays intact.
  const std::size_t pos = text.find("\nvariables ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\nvariables X");

  std::stringstream in(text);
  const LoadResult result = ProfileReader(LoadOptions{.lenient = true}).read(in);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.diagnostics.empty());
  // Sections before and after the damage survived.
  EXPECT_EQ(result.data.frames.size(), original.frames.size());
  EXPECT_EQ(result.data.cct.size(), original.cct.size());
  EXPECT_EQ(result.data.totals.size(), original.totals.size());
  EXPECT_EQ(result.data.stores.size(), result.data.totals.size());
  // The sabotaged section is what was lost.
  EXPECT_TRUE(result.data.variables.empty());

  // Strict mode refuses the same stream.
  std::stringstream strict_in(text);
  EXPECT_THROW(ProfileReader().read(strict_in).data, ProfileError);
}

TEST(ProfileIo, LenientLoadOfCleanStreamIsComplete) {
  const SessionData original = small_session();
  std::stringstream stream;
  ProfileWriter().write(original, stream);
  const LoadResult result =
      ProfileReader(LoadOptions{.lenient = true}).read(stream);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.data.cct.size(), original.cct.size());
}

TEST(ProfileIo, ProfileErrorCarriesFieldAndLine) {
  const ProfileError error("widget", 17, "looks wrong");
  EXPECT_EQ(error.field(), "widget");
  EXPECT_EQ(error.line(), 17u);
  const std::string what = error.what();
  EXPECT_NE(what.find("widget"), std::string::npos);
  EXPECT_NE(what.find("17"), std::string::npos);
  EXPECT_NE(what.find("looks wrong"), std::string::npos);
}

TEST(ProfileIo, AcceptsVersion2StreamsWithoutHealthSections) {
  // A v2 header (the previous format) with no requested/degradations
  // sections still loads; requested defaults to the collecting mechanism.
  std::stringstream in(
      "numaprof-profile 2\n"
      "machine 2 4 box\n"
      "sampling 5 100 0\n"
      "end\n");
  const SessionData data = ProfileReader().read(in).data;
  EXPECT_EQ(data.mechanism, pmu::Mechanism::kSoftIbs);
  EXPECT_EQ(data.requested_mechanism, pmu::Mechanism::kSoftIbs);
  EXPECT_TRUE(data.degradations.empty());
}

TEST(ProfileIo, TextNumbersMatchStreamFormatting) {
  // The reference is what a default-formatted std::ostream writes: "%.6g"
  // for doubles, plain decimal for integers.
  const std::vector<double> doubles = {
      0.0,      -0.0, 1e-05, 0.1, 100000.0, 1234567.0, 1e300,
      std::numeric_limits<double>::denorm_min()};
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  SessionData data;
  data.domain_count = 1;
  const NodeId node = data.cct.child(kRootNode, NodeKind::kFrame, kMax);
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    ThreadTotals t;
    t.samples = kMax;
    t.remote_latency = doubles[i];
    t.total_latency = doubles[i];
    t.per_domain = {kMax};
    data.totals.push_back(t);
    MetricStore store(data.domain_count);
    const std::vector<double> row(store.width(), doubles[i]);
    store.set_row(node, row);
    data.stores.push_back(std::move(store));
    data.address_centric.insert(
        BinKey{.tid = static_cast<simrt::ThreadId>(i)},
        BinStats{.lo = kMax, .hi = kMax, .count = kMax, .latency = doubles[i]});
  }

  std::ostringstream expected;
  expected << "cct 2\n"
           << kRootNode << " " << static_cast<int>(NodeKind::kFrame) << " "
           << kMax << "\n";
  expected << "variables 0\nthreads " << data.totals.size() << "\n";
  for (std::size_t i = 0; i < data.totals.size(); ++i) {
    const ThreadTotals& t = data.totals[i];
    expected << t.samples << " " << t.memory_samples << " " << t.match << " "
             << t.mismatch << " " << t.remote_latency << " "
             << t.total_latency << " " << t.l3_miss_samples << " "
             << t.remote_l3_miss_samples << " " << t.instructions << " "
             << t.memory_instructions << " " << t.per_domain[0] << "\n";
    const MetricStore& store = data.stores[i];
    expected << "metrics 1 " << store.width() << "\n" << node;
    for (std::uint32_t m = 0; m < store.width(); ++m) {
      expected << " " << store.get(node, m);
    }
    expected << "\n";
  }
  expected << "addrcentric " << doubles.size() << "\n";
  for (const auto& [key, s] : data.address_centric.sorted_entries()) {
    expected << key.context << " " << key.variable << " " << key.bin << " "
             << key.tid << " " << s.lo << " " << s.hi << " " << s.count << " "
             << s.latency << "\n";
  }

  const std::string text = ProfileWriter().bytes(data);
  EXPECT_NE(text.find(expected.str()), std::string::npos)
      << "writer:\n" << text << "\nstream reference:\n" << expected.str();
  // Six significant digits: a sum past 999999 is written rounded.
  EXPECT_NE(text.find(" 1.23457e+06 "), std::string::npos);
  EXPECT_NE(text.find(" 18446744073709551615 "), std::string::npos);
}

TEST(ProfileIo, WriteToFullDeviceThrows) {
  namespace fs = std::filesystem;
  const fs::path full = "/dev/full";
  if (!fs::exists(full)) GTEST_SKIP() << "no /dev/full on this system";
  const SessionData data = small_session();
  const auto expect_write_error = [](const std::function<void()>& write,
                                     const std::string& path) {
    try {
      write();
      ADD_FAILURE() << "writing " << path << " did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProfile);
      EXPECT_EQ(e.file(), path);
      EXPECT_EQ(std::string(e.what()).rfind("cannot write ", 0), 0u)
          << e.what();
    }
  };
  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    SCOPED_TRACE(format == ProfileFormat::kBinary ? "binary" : "text");
    const ProfileWriter writer(format);
    expect_write_error([&] { writer.write_file(data, full.string()); },
                       full.string());

    // A shard file that is the full device: the shard write fails too.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "numaprof_full_shards";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::create_symlink(full, dir / "thread_1.prof");
    expect_write_error(
        [&] { writer.write_thread_shards(data, dir.string()); },
        (dir / "thread_1.prof").string());
  }
}


// --- load outcomes of damaged inputs, pinned to a golden ---------------

/// `s` with every byte outside printable ASCII written as \xNN.
std::string printable(std::string_view s) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out.push_back(c);
    } else {
      out += "\\x";
      out.push_back(kHexDigits[u >> 4]);
      out.push_back(kHexDigits[u & 0xf]);
    }
  }
  return out;
}

/// Size and FNV-1a digest of `data` in the exact (binary) encoding.
std::string digest(const SessionData& data) {
  const std::string bytes = ProfileWriter(ProfileFormat::kBinary).bytes(data);
  std::ostringstream out;
  out << bytes.size() << ":" << std::hex << support::fnv1a64(bytes);
  return out.str();
}

/// Both load modes' outcomes: the strict error's field, line and message
/// (or the recovered data), then the lenient diagnostics, `complete` and
/// recovered data.
std::string load_outcome(
    const std::function<LoadResult(const ProfileReader&)>& load) {
  std::ostringstream out;
  for (const bool lenient : {false, true}) {
    out << (lenient ? "lenient: " : "strict: ");
    try {
      const LoadResult result =
          load(ProfileReader(LoadOptions{.lenient = lenient}));
      out << "complete=" << result.complete << " data="
          << digest(result.data) << "\n";
      for (const Diagnostic& d : result.diagnostics) {
        out << "  diagnostic line=" << d.line << " field=" << printable(d.field)
            << " " << printable(d.message) << "\n";
      }
    } catch (const ProfileError& e) {
      out << "error line=" << e.line() << " field=" << printable(e.field())
          << " " << printable(e.what()) << "\n";
    }
  }
  return out.str();
}

/// A fixed, deterministic set of damaged copies of `clean`, by name.
std::vector<std::pair<std::string, std::string>> damaged_copies(
    const std::string& clean) {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("clean", clean);
  out.emplace_back("empty", "");
  const std::size_t n = clean.size();
  for (const std::size_t at : std::set<std::size_t>{
           1, 7, 8, 31, 32, 100, n / 3, n / 2, n - 2, n - 1}) {
    out.emplace_back("truncate@" + std::to_string(at), clean.substr(0, at));
  }
  std::mt19937_64 rng(20);
  for (int i = 0; i < 12; ++i) {
    const std::size_t at = static_cast<std::size_t>(rng() % n);
    const int bit = static_cast<int>(rng() % 8);
    std::string flipped = clean;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
    out.emplace_back(
        "flip@" + std::to_string(at) + "." + std::to_string(bit), flipped);
  }
  std::string crlf, blank_lines;
  std::size_t line = 0;
  for (const char c : clean) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
    blank_lines.push_back(c);
    if (c == '\n' && ++line % 4 == 0) {
      blank_lines += line % 8 == 0 ? "\n" : " \t \n";
    }
  }
  out.emplace_back("crlf", crlf);
  out.emplace_back("no-final-newline",
                   clean.ends_with('\n') ? clean.substr(0, n - 1) : clean);
  out.emplace_back("blank-lines", "\n \t\n" + blank_lines);
  out.emplace_back("bytes-after-end", clean + "garbage after end\n\x01\x02");
  return out;
}

TEST(ProfileIo, LoadOutcomesMatchGolden) {
  const std::string golden_path =
      NUMAPROF_SOURCE_DIR "/tests/golden/load_outcomes.txt";
  const SessionData recorded = small_session(/*record_trace=*/true);
  std::ostringstream rendered;
  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    const char* name = format == ProfileFormat::kBinary ? "binary" : "text";
    const std::string path =
        ::testing::TempDir() + "/numaprof_load_outcome." + name;
    for (const auto& [change, bytes] :
         damaged_copies(ProfileWriter(format).bytes(recorded))) {
      const std::string outcome = load_outcome(
          [&](const ProfileReader& reader) { return reader.read(bytes); });
      rendered << "== " << name << " " << change << "\n" << outcome;
      // The same bytes from a file load the same way.
      std::ofstream(path, std::ios::binary) << bytes;
      EXPECT_EQ(load_outcome([&](const ProfileReader& reader) {
                  return reader.read_file(path);
                }),
                outcome)
          << name << " " << change;
    }
  }
  if (std::getenv("NUMAPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path, std::ios::binary) << rendered.str();
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (regenerate with NUMAPROF_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered.str(), golden.str())
      << "load outcomes drifted; if intentional, rerun with "
         "NUMAPROF_REGEN_GOLDEN=1";
}


TEST(ProfileIo, ReadStreamLoadsLikeReadBytes) {
  const SessionData recorded = small_session(/*record_trace=*/true);
  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    for (const auto& [change, bytes] :
         damaged_copies(ProfileWriter(format).bytes(recorded))) {
      EXPECT_EQ(load_outcome([&](const ProfileReader& reader) {
                  std::istringstream stream(bytes);
                  return reader.read(stream);
                }),
                load_outcome([&](const ProfileReader& reader) {
                  return reader.read(bytes);
                }))
          << change;
    }
  }
}

/// A FIFO at `path` whose writer thread writes `bytes` once a reader opens
/// it, then closes it. A FIFO can be read only once.
class FifoFeed {
 public:
  FifoFeed(std::string path, std::string bytes) : path_(std::move(path)) {
    std::filesystem::remove(path_);
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      throw std::runtime_error("mkfifo failed: " + path_);
    }
    writer_ = std::thread([this, bytes = std::move(bytes)] {
      std::ofstream(path_, std::ios::binary) << bytes;
    });
  }
  ~FifoFeed() {
    writer_.join();
    std::filesystem::remove(path_);
  }
  FifoFeed(const FifoFeed&) = delete;
  FifoFeed& operator=(const FifoFeed&) = delete;

 private:
  std::string path_;
  std::thread writer_;
};

TEST(ProfileIo, ReadFileFromFifo) {
  namespace fs = std::filesystem;
  const SessionData recorded = small_session(/*record_trace=*/true);
  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    SCOPED_TRACE(format == ProfileFormat::kBinary ? "binary" : "text");
    const fs::path dir = fs::path(::testing::TempDir()) / "numaprof_fifo";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const ProfileWriter writer(format);

    // A strict single-file load.
    const std::string file = (dir / "whole.prof").string();
    writer.write_file(recorded, file);
    const LoadResult from_file = ProfileReader().read_file(file);
    {
      const std::string fifo = (dir / "whole.fifo").string();
      const FifoFeed feed(fifo, writer.bytes(recorded));
      const LoadResult from_fifo = ProfileReader().read_file(fifo);
      EXPECT_EQ(from_fifo.format, format);
      EXPECT_TRUE(from_fifo.complete);
      EXPECT_EQ(digest(from_fifo.data), digest(from_file.data));
    }

    // A merge with one FIFO shard: the reference shard, then a later one.
    const std::vector<std::string> shards =
        writer.write_thread_shards(recorded, (dir / "shards").string());
    ASSERT_GE(shards.size(), 2u);
    const std::vector<std::string> shard_bytes = writer.thread_shards(recorded);
    for (const std::size_t fifo_at : {std::size_t{0}, std::size_t{1}}) {
      for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("fifo shard " + std::to_string(fifo_at) + ", jobs " +
                     std::to_string(jobs));
        const PipelineOptions options{.jobs = jobs};
        const MergeResult from_files = merge_profile_files(shards, options);
        std::vector<std::string> inputs = shards;
        inputs[fifo_at] = (dir / "shard.fifo").string();
        const FifoFeed feed(inputs[fifo_at], shard_bytes[fifo_at]);
        const MergeResult from_fifo = merge_profile_files(inputs, options);
        EXPECT_EQ(from_fifo.summary.files_merged, shards.size());
        EXPECT_TRUE(from_fifo.summary.skipped.empty());
        EXPECT_EQ(digest(from_fifo.data), digest(from_files.data));
      }
    }
  }
}

}  // namespace
}  // namespace numaprof::core
