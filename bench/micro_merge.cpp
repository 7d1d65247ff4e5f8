// micro_merge: scaling harness for the parallel profile merge (§7.2).
//
// Builds a synthetic 16-thread session with a large CCT (~20k nodes) and
// dense per-thread metric stores, writes one measurement shard per thread
// (ProfileWriter::write_thread_shards) in BOTH encodings, then times
// merge_profile_files at jobs in {1, 2, 4, 8} over each set of 16 shard
// files. Three claims are checked:
//
//  - EQUIVALENCE (always enforced): the re-serialized merged profile is
//    byte-identical at every jobs value, for both encodings;
//  - FORMAT AGREEMENT (always enforced): merging binary shards produces
//    the same session as merging text shards, byte for byte;
//  - SCALING (enforced only when the host has >= 4 hardware threads): the
//    4-job merge of text shards is at least 2x faster than the jobs-1
//    merge — the shard parses dominate and parallelize embarrassingly.
//
// Besides the human-readable table, each timing is emitted as a
// machine-readable line:
//   BENCH {"bench":"micro_merge","format":"text|binary","shards":16,
//          "jobs":N,"seconds":S,"speedup":X}
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/profile_io.hpp"
#include "core/session.hpp"
#include "support/rng.hpp"

namespace {

using namespace numaprof;

constexpr std::uint32_t kShards = 16;
constexpr std::uint32_t kTopFrames = 100;
constexpr std::uint32_t kNestedFrames = 199;  // ~20k access-path nodes

/// A 16-thread session whose merge cost is dominated by real work: a CCT
/// of ~20k nodes and per-thread stores touching most of them.
core::SessionData synthetic_session() {
  support::Rng rng(0x6d657267);  // "merg"
  core::SessionData data;
  data.machine_name = "micro-merge-machine";
  data.domain_count = 4;
  data.core_count = 16;
  data.mechanism = pmu::Mechanism::kIbs;
  data.requested_mechanism = pmu::Mechanism::kIbs;
  data.sampling_period = 100;

  const std::uint32_t frame_count = kTopFrames * (kNestedFrames + 1);
  for (std::uint32_t f = 0; f < frame_count; ++f) {
    data.frames.push_back(simrt::FrameInfo{
        .name = "merge_fn" + std::to_string(f),
        .file = "micro_merge.cpp",
        .line = f,
        .kind = simrt::FrameKind::kFunction});
  }
  const core::NodeId access =
      data.cct.child(core::kRootNode, core::NodeKind::kAccess, 0);
  std::vector<core::NodeId> nodes;
  for (std::uint32_t top = 0; top < kTopFrames; ++top) {
    const core::NodeId parent =
        data.cct.child(access, core::NodeKind::kFrame, top);
    nodes.push_back(parent);
    for (std::uint32_t nested = 0; nested < kNestedFrames; ++nested) {
      nodes.push_back(data.cct.child(
          parent, core::NodeKind::kFrame,
          kTopFrames + top * kNestedFrames + nested));
    }
  }

  const core::NodeId alloc =
      data.cct.child(core::kRootNode, core::NodeKind::kAllocation, 0);
  for (std::uint32_t v = 0; v < 8; ++v) {
    core::Variable var;
    var.id = v;
    var.kind = core::VariableKind::kHeap;
    var.name = "merge_var" + std::to_string(v);
    var.start = 0x100000 + 0x100000ull * v;
    var.page_count = 32;
    var.size = var.page_count * simos::kPageBytes;
    var.variable_node =
        data.cct.child(alloc, core::NodeKind::kVariable, v);
    data.variables.push_back(var);
  }

  for (std::uint32_t tid = 0; tid < kShards; ++tid) {
    core::ThreadTotals t;
    t.per_domain.resize(data.domain_count);
    core::MetricStore store(data.domain_count);
    for (const core::NodeId node : nodes) {
      store.add(node, core::kSamples,
                static_cast<double>(1 + rng.next_below(50)));
      store.add(node, core::kNumaMatch,
                static_cast<double>(rng.next_below(30)));
      store.add(node, core::kNumaMismatch,
                static_cast<double>(rng.next_below(20)));
      store.add(node, core::kRemoteLatency, rng.next_double() * 400.0);
      t.samples += 1;
      t.per_domain[rng.next_below(data.domain_count)] += 1;
    }
    t.total_latency = rng.next_double() * 1e6;
    t.remote_latency = t.total_latency * rng.next_double();
    data.totals.push_back(std::move(t));
    data.stores.push_back(std::move(store));

    for (std::uint32_t v = 0; v < 8; ++v) {
      core::BinKey key{.context = core::kWholeProgram,
                       .variable = v,
                       .bin = 0,
                       .tid = tid};
      core::BinStats stats;
      stats.update(data.variables[v].start + rng.next_below(1 << 16),
                   rng.next_double() * 200.0);
      data.address_centric.insert(key, stats);
    }
  }
  return data;
}

std::string profile_bytes(const core::SessionData& data) {
  return core::ProfileWriter().bytes(data);
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  bench::heading("micro_merge: parallel shard merge scaling (16 shards)");

  const core::SessionData session = synthetic_session();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::Comparison cmp;
  double text_speedup_at_4 = 0.0;
  double serial_seconds_by_format[2] = {0.0, 0.0};  // [text, binary]
  std::string text_merged_bytes;

  for (const ProfileFormat format :
       {ProfileFormat::kText, ProfileFormat::kBinary}) {
    const bool binary = format == ProfileFormat::kBinary;
    const char* format_name = binary ? "binary" : "text";
    const fs::path dir = fs::temp_directory_path() /
                         (std::string("numaprof_micro_merge_") + format_name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<std::string> paths =
        core::ProfileWriter(format).write_thread_shards(session,
                                                        dir.string());
    std::cout << format_name << " shards: " << paths.size()
              << ", cct nodes: " << session.cct.size() << "\n";

    std::string serial_bytes;
    double serial_seconds = 0.0;
    double speedup_at_4 = 0.0;
    bool identical = true;

    bench::subheading(std::string("merge wall-clock by jobs (") +
                      format_name + " shards)");
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      numaprof::PipelineOptions options;
      options.jobs = jobs;
      core::MergeResult merged;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {  // min of 3: ignore cold caches
        const double s = bench::time_seconds(
            [&] { merged = core::merge_profile_files(paths, options); });
        best = std::min(best, s);
      }
      const std::string bytes = profile_bytes(merged.data);
      if (jobs == 1) {
        serial_bytes = bytes;
        serial_seconds = best;
      } else if (bytes != serial_bytes) {
        identical = false;
      }
      const double speedup = serial_seconds / best;
      if (jobs == 4) speedup_at_4 = speedup;
      std::cout << "jobs=" << jobs << ": " << best << " s  (speedup "
                << speedup << "x)\n";
      std::cout << "BENCH {\"bench\":\"micro_merge\",\"format\":\""
                << format_name << "\",\"shards\":" << paths.size()
                << ",\"jobs\":" << jobs << ",\"seconds\":" << best
                << ",\"speedup\":" << speedup << "}\n";
    }
    fs::remove_all(dir);

    serial_seconds_by_format[binary ? 1 : 0] = serial_seconds;
    cmp.add(std::string("merged bytes across jobs (") + format_name + ")",
            "byte-identical", identical ? "identical" : "DIVERGED",
            identical);
    if (binary) {
      cmp.add("binary-shard merge == text-shard merge", "byte-identical",
              serial_bytes == text_merged_bytes ? "identical" : "DIVERGED",
              serial_bytes == text_merged_bytes);
    } else {
      text_merged_bytes = serial_bytes;
      text_speedup_at_4 = speedup_at_4;
    }
  }

  if (hw >= 4) {
    std::ostringstream measured;
    measured << text_speedup_at_4 << "x";
    cmp.add("merge speedup, 4 jobs / 16 text shards", ">= 2.0x",
            measured.str(), text_speedup_at_4 >= 2.0);
  } else {
    // Scaling is meaningless without hardware parallelism; equivalence
    // (above) is still fully checked.
    cmp.add("merge speedup, 4 jobs / 16 text shards", ">= 2.0x",
            "skipped (" + std::to_string(hw) + " hw thread(s))", true);
  }
  // The binary format's reason to exist: a serial merge is load-dominated,
  // so swapping the shard encoding alone must buy an order of magnitude.
  const double format_speedup =
      serial_seconds_by_format[1] > 0.0
          ? serial_seconds_by_format[0] / serial_seconds_by_format[1]
          : 0.0;
  std::ostringstream format_measured;
  format_measured << format_speedup << "x";
  std::cout << "BENCH {\"bench\":\"micro_merge\",\"format\":\"binary\","
            << "\"shards\":" << kShards
            << ",\"jobs\":1,\"speedup_vs_text\":" << format_speedup << "}\n";
  cmp.add("serial merge, binary shards vs text shards", ">= 10x",
          format_measured.str(), format_speedup >= 10.0);
  cmp.print();
  return cmp.all_hold() ? 0 : 1;
}
