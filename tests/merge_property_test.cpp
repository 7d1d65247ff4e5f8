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
//
// The SharedStructure* cases pin the merge's structure sharing (shards
// that repeat the reference shard's frames, CCT and variables skip
// decoding them): in text and binary, at jobs 1 and 4, the merge must
// behave exactly as if every shard were decoded in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/session.hpp"
#include "support/rng.hpp"

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

TEST(MergeProperty, MovedStoreMergeMatchesCopyMergeBitwise) {
  // The shard fold moves each loaded store in: rows the base lacks are
  // adopted, and must carry exactly the bits 0.0 + v gives (-0.0 -> 0.0).
  support::Rng rng(0x57040009);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int trial = 0; trial < 50; ++trial) {
    const MetricStore base = random_store(rng, 3, 40, false);
    MetricStore part = random_store(rng, 3, 60, false);
    std::vector<double> negative_zeros(part.width(), -0.0);
    part.set_row(static_cast<NodeId>(60 + trial), negative_zeros);
    MetricStore copied = base;
    copied.merge(part);
    MetricStore moved = base;
    moved.merge(MetricStore(part));
    ASSERT_EQ(moved.node_capacity(), copied.node_capacity());
    for (NodeId node = 0; node < copied.node_capacity(); ++node) {
      ASSERT_EQ(moved.has(node), copied.has(node)) << "node " << node;
      for (std::uint32_t m = 0; m < copied.width(); ++m) {
        ASSERT_EQ(bits(moved.get(node, m)), bits(copied.get(node, m)))
            << "node " << node << " metric " << m;
      }
    }
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
      MetricStore parallel(3);
      parallel.merge_all(pointers, jobs);
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

// --- structure sharing: every shard behaves as if decoded in full ------

constexpr ProfileFormat kFormats[] = {ProfileFormat::kText,
                                      ProfileFormat::kBinary};
constexpr unsigned kJobs[] = {1, 4};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::uint64_t le_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

/// Offset of the first payload byte of binary section `id` (the section
/// table follows the 32-byte header; entries are {u32 id, u32 crc, u64
/// offset, u64 length}).
std::size_t binary_section(const std::string& bytes, std::uint32_t id,
                           std::size_t* length) {
  const std::size_t count = static_cast<unsigned char>(bytes[12]);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t entry = 32 + 24 * i;
    if (static_cast<unsigned char>(bytes[entry]) == id) {
      *length = static_cast<std::size_t>(le_u64(bytes, entry + 16));
      return static_cast<std::size_t>(le_u64(bytes, entry + 8));
    }
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

/// Offset of the line `skip` lines after the text line starting `tag `.
std::size_t text_line(const std::string& bytes, const std::string& tag,
                      std::size_t skip) {
  std::size_t at = bytes.find("\n" + tag + " ") + 1;
  for (std::size_t i = 0; i < skip; ++i) at = bytes.find('\n', at) + 1;
  return at;
}

/// Flips one byte inside shard `path`'s `section` (text tag; binary
/// section id): a digit becomes a letter in text, a payload byte changes
/// (and so fails its CRC) in binary.
void flip_byte(const std::string& path, ProfileFormat format,
               const std::string& tag, std::uint32_t id) {
  std::string bytes = read_bytes(path);
  std::size_t at = 0;
  if (format == ProfileFormat::kText) {
    at = text_line(bytes, tag, 3);
  } else {
    std::size_t length = 0;
    at = binary_section(bytes, id, &length) + length / 2;
  }
  bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
  write_bytes(path, bytes);
}

std::string encoded(const SessionData& data, ProfileFormat format) {
  return ProfileWriter(format).bytes(data);
}

/// random_session() as a PEBS-LL run with a trace interleaving the
/// threads, so shard 0's header (which alone carries pebs_ll_events)
/// differs from every other shard's.
SessionData pebs_ll_session(std::uint64_t seed, std::uint32_t threads) {
  SessionData data = random_session(seed, threads);
  data.mechanism = pmu::Mechanism::kPebsLl;
  data.requested_mechanism = pmu::Mechanism::kPebsLl;
  data.pebs_ll_events = 123457;
  support::Rng rng(seed ^ 0x7ace);
  for (std::uint64_t i = 0; i < 8 * threads; ++i) {
    data.trace.push_back(TraceEvent{
        .time = 100 * i,
        .tid = static_cast<simrt::ThreadId>(rng.next_below(threads)),
        .variable = static_cast<VariableId>(rng.next_below(4)),
        .home_domain = static_cast<std::uint32_t>(rng.next_below(3)),
        .mismatch = rng.next_bool(0.5),
        .remote = rng.next_bool(0.5),
        .latency = static_cast<std::uint32_t>(rng.next_below(900))});
  }
  return data;
}

std::vector<std::string> write_shards(const SessionData& data,
                                      ProfileFormat format,
                                      const std::string& name) {
  return ProfileWriter(format).write_thread_shards(data, fresh_dir(name));
}

MergeResult merge_at(const std::vector<std::string>& paths, unsigned jobs,
                     bool lenient) {
  PipelineOptions options;
  options.jobs = jobs;
  options.lenient = lenient;
  return merge_profile_files(paths, options);
}

/// A merge summary as comparable strings.
struct Screening {
  std::vector<std::string> diagnostics;
  std::vector<std::string> skipped;
  std::size_t merged = 0;

  bool operator==(const Screening&) const = default;
};

Screening screening_of(const MergeSummary& summary) {
  Screening s;
  for (const Diagnostic& d : summary.diagnostics) {
    s.diagnostics.push_back(d.field + " @" + std::to_string(d.line) + ": " +
                            d.message);
  }
  for (const SkippedProfile& skip : summary.skipped) {
    s.skipped.push_back(skip.path + ": " + skip.reason);
  }
  s.merged = summary.files_merged;
  return s;
}

/// The lenient merge's screening done the way it was before structure
/// sharing: every shard decoded in full by ProfileReader::read_file and
/// screened in position order against the first loadable one.
Screening full_decode_screening(const std::vector<std::string>& paths) {
  const ProfileReader reader(LoadOptions{.lenient = true});
  Screening s;
  std::optional<SessionData> base;
  for (const std::string& path : paths) {
    LoadResult loaded;
    try {
      loaded = reader.read_file(path);
    } catch (const std::exception& e) {
      s.skipped.push_back(path + ": " + e.what());
      continue;
    }
    for (const Diagnostic& d : loaded.diagnostics) {
      s.diagnostics.push_back(path + ": " + d.field + " @" +
                              std::to_string(d.line) + ": " + d.message);
    }
    if (!base) {
      base = std::move(loaded.data);
      ++s.merged;
      continue;
    }
    const SessionData& other = loaded.data;
    const auto mismatch = [](const char* what, auto a, auto b) {
      return std::string(what) + " mismatch (" + std::to_string(a) + " vs " +
             std::to_string(b) + ")";
    };
    std::string reason;
    if (other.domain_count != base->domain_count) {
      reason = mismatch("domain count", base->domain_count,
                        other.domain_count);
    } else if (other.frames.size() != base->frames.size()) {
      reason = mismatch("frame count", base->frames.size(),
                        other.frames.size());
    } else if (other.cct.size() != base->cct.size()) {
      reason = mismatch("cct size", base->cct.size(), other.cct.size());
    } else if (other.variables.size() != base->variables.size()) {
      reason = mismatch("variable count", base->variables.size(),
                        other.variables.size());
    } else if (other.mechanism != base->mechanism) {
      reason = "mechanism mismatch (" +
               std::string(to_string(base->mechanism)) + " vs " +
               std::string(to_string(other.mechanism)) + ")";
    }
    if (reason.empty()) {
      ++s.merged;
    } else {
      s.skipped.push_back(path + ": " + reason);
    }
  }
  return s;
}

/// Strict mode: the merge throws the error ProfileReader::read_file
/// throws on `damaged`, with the same field and line.
void expect_strict_error_matches_read_file(
    const std::vector<std::string>& paths, const std::string& damaged) {
  std::string field;
  std::size_t line = 0;
  std::string message;
  try {
    ProfileReader().read_file(damaged);
    FAIL() << "damaged shard loaded strictly: " << damaged;
  } catch (const ProfileError& e) {
    field = e.field();
    line = e.line();
    message = e.what();
  }
  for (const unsigned jobs : kJobs) {
    try {
      merge_at(paths, jobs, /*lenient=*/false);
      ADD_FAILURE() << "strict merge accepted " << damaged;
    } catch (const ProfileError& e) {
      EXPECT_EQ(e.field(), field) << "jobs=" << jobs;
      EXPECT_EQ(e.line(), line) << "jobs=" << jobs;
      EXPECT_NE(std::string(e.what()).find(damaged + ": " + message),
                std::string::npos)
          << e.what();
    }
  }
}

/// Lenient mode: the screening equals the full decode's, and the merged
/// bytes are the same at every jobs value.
void expect_lenient_merge_matches_full_decode(
    const std::vector<std::string>& paths, ProfileFormat format) {
  const Screening expected = full_decode_screening(paths);
  std::string first;
  for (const unsigned jobs : kJobs) {
    const MergeResult merged = merge_at(paths, jobs, /*lenient=*/true);
    EXPECT_EQ(screening_of(merged.summary), expected) << "jobs=" << jobs;
    const std::string bytes = encoded(merged.data, format);
    if (first.empty()) first = bytes;
    EXPECT_EQ(bytes, first) << "jobs=" << jobs;
  }
}

TEST(MergeProperty, SharedStructurePebsLlMergeMatchesSnapshot) {
  const SessionData session = pebs_ll_session(0x57040101, 7);
  // The merge concatenates the shards' traces in thread order.
  SessionData expected = session;
  std::stable_sort(expected.trace.begin(), expected.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.tid < b.tid;
                   });
  for (const ProfileFormat format : kFormats) {
    const auto paths = write_shards(session, format, "numaprof_shared_pebs");
    ASSERT_EQ(paths.size(), 7u);
    ASSERT_NE(read_bytes(paths[0]).substr(0, 200),
              read_bytes(paths[1]).substr(0, 200));
    for (const unsigned jobs : kJobs) {
      const MergeResult merged = merge_at(paths, jobs, /*lenient=*/false);
      EXPECT_EQ(merged.summary.files_merged, paths.size());
      EXPECT_TRUE(merged.summary.diagnostics.empty());
      EXPECT_EQ(merged.data.pebs_ll_events, session.pebs_ll_events);
      EXPECT_EQ(encoded(merged.data, format), encoded(expected, format))
          << "format " << static_cast<int>(format) << " jobs=" << jobs;
    }
  }
}

TEST(MergeProperty, SharedStructureFlippedCctByteFailsLikeAFullDecode) {
  const SessionData session = random_session(0x57040102, 6);
  for (const ProfileFormat format : kFormats) {
    auto paths = write_shards(session, format, "numaprof_shared_flip");
    flip_byte(paths[2], format, "cct", 3);
    expect_strict_error_matches_read_file(paths, paths[2]);
    expect_lenient_merge_matches_full_decode(paths, format);
    EXPECT_EQ(full_decode_screening(paths).skipped.size(), 1u);
  }
}

TEST(MergeProperty, SharedStructureDifferentCctWithEqualCountsMerges) {
  const SessionData session = random_session(0x57040103, 6);
  // Same counts, one CCT key changed: the shard's structure bytes differ
  // from the reference's, so it decodes in full and merges as before
  // (the base's structure wins; the shard contributes its measurements).
  SessionData variant = session;
  Cct cct;
  for (NodeId id = 1; id < session.cct.size(); ++id) {
    const CctNode& n = session.cct.node(id);
    cct.child(n.parent, n.kind, id + 1 == session.cct.size() ? n.key + 1000
                                                             : n.key);
  }
  ASSERT_EQ(cct.size(), session.cct.size());
  variant.cct = cct;
  for (const ProfileFormat format : kFormats) {
    const auto clean = write_shards(session, format, "numaprof_shared_clean");
    auto paths = write_shards(session, format, "numaprof_shared_variant");
    const auto variant_paths =
        write_shards(variant, format, "numaprof_shared_variant_src");
    ASSERT_NE(read_bytes(variant_paths[3]), read_bytes(paths[3]));
    fs::copy_file(variant_paths[3], paths[3],
                  fs::copy_options::overwrite_existing);
    const std::string want =
        encoded(merge_at(clean, 1, /*lenient=*/false).data, format);
    for (const unsigned jobs : kJobs) {
      const MergeResult merged = merge_at(paths, jobs, /*lenient=*/false);
      EXPECT_EQ(merged.summary.files_merged, paths.size());
      EXPECT_EQ(encoded(merged.data, format), want) << "jobs=" << jobs;
    }
  }
}

TEST(MergeProperty, SharedStructureDamageAfterTheBlockReportsTheSameLine) {
  // Shard 3 repeats the reference's structure, then has a damaged
  // metrics row: the error's line (text) or byte offset (binary) must be
  // the one a full decode reports.
  const SessionData session = random_session(0x57040107, 6);
  for (const ProfileFormat format : kFormats) {
    auto paths = write_shards(session, format, "numaprof_shared_after");
    flip_byte(paths[3], format, "metrics", 6);
    expect_strict_error_matches_read_file(paths, paths[3]);
    expect_lenient_merge_matches_full_decode(paths, format);
    EXPECT_FALSE(full_decode_screening(paths).diagnostics.empty());
  }
}

TEST(MergeProperty, SharedStructureNodeIdsValidateAgainstTheReference) {
  // Shard 2 shares the reference's structure, but its metric row and
  // first touch name nodes past the end of the CCT: rejected exactly as
  // a full decode rejects them.
  SessionData session = random_session(0x57040108, 5);
  const auto past_end = static_cast<NodeId>(session.cct.size());
  session.stores[2].add(past_end, kNumaMismatch, 1.0);
  session.first_touches.push_back(FirstTouchRecord{
      .variable = 0, .tid = 2, .domain = 0, .node = past_end, .page = 7});
  for (const ProfileFormat format : kFormats) {
    const auto paths = write_shards(session, format, "numaprof_shared_nodes");
    expect_strict_error_matches_read_file(paths, paths[2]);
    expect_lenient_merge_matches_full_decode(paths, format);
    EXPECT_EQ(full_decode_screening(paths).diagnostics.size(), 2u);
  }
}

TEST(MergeProperty, SharedStructureRepeatedSectionDecodesInFull) {
  // A text shard that defines more structure after repeating the
  // reference's block is decoded in full, so its extra frame makes it
  // incompatible exactly as before.
  const SessionData session = random_session(0x57040104, 4);
  auto paths = write_shards(session, ProfileFormat::kText,
                            "numaprof_shared_repeat");
  std::string bytes = read_bytes(paths[1]);
  bytes.insert(text_line(bytes, "threads", 0), "frames 1\n0 7 extra x.cpp\n");
  write_bytes(paths[1], bytes);
  expect_lenient_merge_matches_full_decode(paths, ProfileFormat::kText);
  const Screening expected = full_decode_screening(paths);
  ASSERT_EQ(expected.skipped.size(), 1u);
  EXPECT_NE(expected.skipped[0].find("frame count mismatch"),
            std::string::npos);
  for (const unsigned jobs : kJobs) {
    EXPECT_THROW(merge_at(paths, jobs, /*lenient=*/false), ProfileError);
  }

  // Shard 0 itself defines more structure after its block, so it is no
  // reference: shard 3, which skipped its block, is decoded in full at
  // its fold and skipped for its smaller frame count.
  paths = write_shards(session, ProfileFormat::kText,
                       "numaprof_shared_repeat_zero");
  for (std::size_t i = 0; i < 3; ++i) {
    bytes = read_bytes(paths[i]);
    bytes.insert(text_line(bytes, "threads", 0), "frames 1\n0 7 extra x.cpp\n");
    write_bytes(paths[i], bytes);
  }
  expect_lenient_merge_matches_full_decode(paths, ProfileFormat::kText);
  ASSERT_EQ(full_decode_screening(paths).skipped.size(), 1u);
  EXPECT_NE(full_decode_screening(paths).skipped[0].find(paths[3]),
            std::string::npos);
}

TEST(MergeProperty, SharedStructureMixedEncodingsMatchAllBinary) {
  // Text shards decode to six-significant-digit values; converting each
  // to binary keeps exactly those values, so a mixed list must merge to
  // the same bytes as its all-binary conversion.
  const SessionData session = random_session(0x57040105, 6);
  const auto text = write_shards(session, ProfileFormat::kText,
                                 "numaprof_shared_mixed_text");
  const std::string dir = fresh_dir("numaprof_shared_mixed");
  for (const std::size_t first_binary : {0u, 1u}) {
    std::vector<std::string> mixed;
    std::vector<std::string> binary;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const SessionData data = ProfileReader().read_file(text[i]).data;
      const std::string as_binary =
          dir + "/b" + std::to_string(first_binary) + "_" + std::to_string(i);
      ProfileWriter(ProfileFormat::kBinary).write_file(data, as_binary);
      binary.push_back(as_binary);
      mixed.push_back(i % 2 == first_binary ? as_binary : text[i]);
    }
    const std::string want = encoded(merge_at(binary, 1, false).data,
                                     ProfileFormat::kBinary);
    for (const unsigned jobs : kJobs) {
      const MergeResult merged = merge_at(mixed, jobs, /*lenient=*/false);
      EXPECT_EQ(merged.summary.files_merged, mixed.size());
      EXPECT_EQ(encoded(merged.data, ProfileFormat::kBinary), want)
          << "first binary " << first_binary << " jobs=" << jobs;
    }
  }
}

TEST(MergeProperty, SharedStructureDamagedShardZeroLeavesNoReference) {
  // Shard 0 with diagnostics is no reference: every shard decodes in
  // full, and the merge screens exactly as before.
  const SessionData session = random_session(0x57040106, 6);
  for (const ProfileFormat format : kFormats) {
    auto paths = write_shards(session, format, "numaprof_shared_zero");
    flip_byte(paths[0], format, "metrics", 6);
    expect_strict_error_matches_read_file(paths, paths[0]);
    expect_lenient_merge_matches_full_decode(paths, format);
    EXPECT_FALSE(full_decode_screening(paths).diagnostics.empty());

    // The same CCT damage in every shard: each shard must report its own
    // diagnostics, so none may take its structure from shard 0.
    paths = write_shards(session, format, "numaprof_shared_zero_cct");
    for (const std::string& path : paths) flip_byte(path, format, "cct", 3);
    expect_strict_error_matches_read_file(paths, paths[0]);
    expect_lenient_merge_matches_full_decode(paths, format);
    EXPECT_EQ(full_decode_screening(paths).merged, paths.size());
  }
}

}  // namespace
}  // namespace numaprof::core
