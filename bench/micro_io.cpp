// micro_io: profile serialization throughput, text vs binary (ROADMAP 4).
//
// The binary format exists to make shard loads cheap (the text loader
// re-lexes ASCII and heap-allocates the CCT node-by-node), so this bench
// measures exactly that seam on two corpora: a large synthetic session
// (~20k CCT nodes, 16 dense per-thread stores, trace + first-touch +
// address-centric records so EVERY section is populated) and a recorded
// minilulesh case study. Four stages per corpus:
//   save       ProfileWriter::bytes, text vs binary
//   load/mem   ProfileReader::read over an in-memory string
//   load/file  ProfileReader::read_file — both encodings memory-mapped,
//              with the first (cold) iteration reported separately from
//              the min-of-N warm ones
//   validity   the Analyzer report rendered from every loaded copy must be
//              byte-identical to the in-memory session's report
// The headline gate: binary in-memory load is >= 10x faster than text on
// the synthetic corpus (where parsing dominates), and every validity
// comparison holds — otherwise exit 1 and the numbers are meaningless.
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"micro_io","corpus":C,"stage":"load","format":"binary",
//          "source":"mem","temp":"warm","bytes":B,"seconds":S,"mb_per_s":X}
// and the full record set is additionally written as one JSON document to
// BENCH_io.json (or argv[1] if given) for the perf trajectory.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilulesh.hpp"
#include "bench_common.hpp"
#include "core/profile_io.hpp"
#include "core/session.hpp"
#include "support/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace numaprof;

constexpr std::uint32_t kThreads = 16;
constexpr std::uint32_t kTopFrames = 100;
constexpr std::uint32_t kNestedFrames = 199;  // ~20k access-path nodes

/// A session big enough that serialization cost dominates, with every
/// optional section populated (trace, first touches, degradations,
/// address-centric bins) so no decoder path sits idle.
core::SessionData synthetic_session() {
  support::Rng rng(0x696f6273);  // "iobs"
  core::SessionData data;
  data.machine_name = "micro-io-machine";
  data.domain_count = 4;
  data.core_count = 16;
  data.mechanism = pmu::Mechanism::kIbs;
  data.requested_mechanism = pmu::Mechanism::kIbs;
  data.sampling_period = 100;
  data.pebs_ll_events = 123456;
  data.fault_context = "spec=micro_io seed=1";
  data.degradations.push_back(core::DegradationEvent{
      .kind = core::DegradationKind::kMechanismFallback,
      .mechanism = pmu::Mechanism::kIbs,
      .value = 7,
      .detail = "synthetic degradation for bench coverage"});

  const std::uint32_t frame_count = kTopFrames * (kNestedFrames + 1);
  for (std::uint32_t f = 0; f < frame_count; ++f) {
    data.frames.push_back(simrt::FrameInfo{
        .name = "io_fn" + std::to_string(f),
        .file = "micro_io.cpp",
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
    var.name = "io_var" + std::to_string(v);
    var.start = 0x100000 + 0x100000ull * v;
    var.page_count = 32;
    var.size = var.page_count * simos::kPageBytes;
    var.variable_node = data.cct.child(alloc, core::NodeKind::kVariable, v);
    data.variables.push_back(var);
  }

  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
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

      data.first_touches.push_back(core::FirstTouchRecord{
          .variable = v,
          .tid = tid,
          .domain =
              static_cast<std::uint32_t>(rng.next_below(data.domain_count)),
          .node = data.variables[v].variable_node,
          .page = rng.next_below(32)});
    }
    for (std::uint32_t e = 0; e < 512; ++e) {
      data.trace.push_back(core::TraceEvent{
          .time = 1000 + 17ull * (tid * 512 + e),
          .tid = tid,
          .variable = static_cast<core::VariableId>(rng.next_below(8)),
          .home_domain =
              static_cast<std::uint32_t>(rng.next_below(data.domain_count)),
          .mismatch = rng.next_below(3) == 0,
          .remote = rng.next_below(4) == 0,
          .latency = static_cast<std::uint32_t>(rng.next_below(400))});
    }
  }
  // One text round-trip canonicalizes every double to its text-quantized
  // value, so the validity gate can demand identical reports from BOTH
  // encodings (raw rng doubles would diverge under text's formatting).
  return core::ProfileReader().read(core::ProfileWriter().bytes(data)).data;
}

core::SessionData lulesh_session() {
  simrt::Machine m(numasim::amd_magny_cours());
  core::ProfilerConfig cfg = bench::ibs_config(200);
  cfg.record_trace = true;
  core::Profiler p(m, cfg);
  apps::run_minilulesh(m, {.threads = 16,
                           .pages_per_thread = 6,
                           .timesteps = 6,
                           .variant = apps::Variant::kBaseline});
  return p.snapshot();
}

/// Everything the viewer derives from a session — the "Analyzer report"
/// the validity gate compares across load paths.
std::string analyzer_report(const core::SessionData& data) {
  const core::Analyzer analyzer(data);
  const core::Viewer viewer(analyzer);
  std::ostringstream os;
  os << viewer.program_summary() << viewer.collection_health() << "\n"
     << viewer.data_centric_table(10).to_text() << "\n"
     << viewer.code_centric_table(10).to_text() << "\n"
     << viewer.domain_balance_table().to_text() << "\n"
     << viewer.trace_timeline();
  return os.str();
}

struct Record {
  std::string corpus;
  std::string stage;   // save | load
  std::string format;  // text | binary
  std::string source;  // mem | file
  std::string temp;    // warm | cold
  std::size_t bytes = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"micro_io\",\"corpus\":\"" << r.corpus
     << "\",\"stage\":\"" << r.stage << "\",\"format\":\"" << r.format
     << "\",\"source\":\"" << r.source << "\",\"temp\":\"" << r.temp
     << "\",\"bytes\":" << r.bytes << ",\"seconds\":" << r.seconds
     << ",\"mb_per_s\":" << r.mb_per_s << "}";
  return os.str();
}

/// Times `body` reps times (warm = min of reps after the first; for file
/// sources the first rep is also recorded as "cold"), prints BENCH lines.
Record run_timed(bench::BenchRecords& records, Record base, int reps,
                 const std::function<void()>& body) {
  double cold = 0.0;
  double warm = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const double s = bench::time_seconds(body);
    if (rep == 0) {
      cold = s;
    } else {
      warm = std::min(warm, s);
    }
  }
  if (reps == 1) warm = cold;
  if (base.source == "file") {
    Record cold_rec = base;
    cold_rec.temp = "cold";
    cold_rec.seconds = cold;
    cold_rec.mb_per_s =
        cold > 0.0 ? static_cast<double>(base.bytes) / cold / 1.0e6 : 0.0;
    records.add(bench_json(cold_rec));
  }
  base.temp = "warm";
  base.seconds = warm;
  base.mb_per_s =
      warm > 0.0 ? static_cast<double>(base.bytes) / warm / 1.0e6 : 0.0;
  std::cout << base.stage << " " << base.format << "/" << base.source
            << ": " << base.bytes << " bytes in " << warm << " s ("
            << base.mb_per_s << " MB/s)\n";
  records.add(bench_json(base));
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading("micro_io: profile save/load throughput, text vs binary");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_io.json";
  bench::BenchRecords records("micro_io");
  bench::Comparison cmp;

  struct Corpus {
    std::string name;
    core::SessionData data;
  };
  std::vector<Corpus> corpora;
  corpora.push_back({"synthetic20k", synthetic_session()});
  corpora.push_back({"minilulesh", lulesh_session()});

  const fs::path dir = fs::temp_directory_path() / "numaprof_micro_io";
  fs::remove_all(dir);
  fs::create_directories(dir);

  for (const Corpus& corpus : corpora) {
    bench::subheading(corpus.name);
    const std::string reference = analyzer_report(corpus.data);

    double load_seconds[2] = {0.0, 0.0};  // [text, binary], mem source
    for (const ProfileFormat format :
         {ProfileFormat::kText, ProfileFormat::kBinary}) {
      const bool binary = format == ProfileFormat::kBinary;
      const core::ProfileWriter writer(format);
      const std::string bytes = writer.bytes(corpus.data);
      const fs::path path =
          dir / (corpus.name + (binary ? ".npbf" : ".prof"));
      writer.write_file(corpus.data, path.string());

      Record base;
      base.corpus = corpus.name;
      base.format = binary ? "binary" : "text";
      base.bytes = bytes.size();

      // save: serialize to an in-memory string.
      base.stage = "save";
      base.source = "mem";
      run_timed(records, base, 5, [&] {
        if (writer.bytes(corpus.data).size() != bytes.size()) std::abort();
      });

      // load from memory: the merge/ingest hot path.
      base.stage = "load";
      core::LoadResult loaded;
      const Record mem = run_timed(records, base, 5, [&] {
        loaded = core::ProfileReader().read(bytes);
      });
      load_seconds[binary ? 1 : 0] = mem.seconds;
      cmp.add(corpus.name + ": " + base.format + " mem load report",
              "identical", analyzer_report(loaded.data) == reference
                               ? "identical"
                               : "DIVERGED",
              analyzer_report(loaded.data) == reference);

      // load from file (memory-mapped, either encoding), cold then warm.
      base.source = "file";
      core::LoadResult from_file;
      run_timed(records, base, 5, [&] {
        from_file = core::ProfileReader().read_file(path.string());
      });
      cmp.add(corpus.name + ": " + base.format + " file load report",
              "identical", analyzer_report(from_file.data) == reference
                               ? "identical"
                               : "DIVERGED",
              analyzer_report(from_file.data) == reference);
    }

    const double speedup =
        load_seconds[1] > 0.0 ? load_seconds[0] / load_seconds[1] : 0.0;
    std::ostringstream measured;
    measured << speedup << "x";
    std::cout << corpus.name << ": binary load speedup vs text = "
              << measured.str() << "\n";
    if (corpus.name == "synthetic20k") {
      // The acceptance gate: parsing dominates on the big corpus, so the
      // zero-copy load must beat the text lexer by an order of magnitude.
      cmp.add("binary vs text load speedup (synthetic20k)", ">= 10x",
              measured.str(), speedup >= 10.0);
    } else {
      cmp.add("binary vs text load speedup (" + corpus.name + ")",
              "> 1x (informational)", measured.str(), speedup > 1.0);
    }
  }
  fs::remove_all(dir);

  records.write(out_path);

  cmp.print();
  return cmp.all_hold() ? 0 : 1;
}
