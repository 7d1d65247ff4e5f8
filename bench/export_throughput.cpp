// export_throughput: exporter performance on the four case-study profiles.
//
// Records each paper case study (minilulesh, miniamg, miniblackscholes,
// miniumt) once, then times every exporter (Chrome trace JSON, collapsed
// stacks, speedscope JSON, HTML report) over the resulting Analyzer.
// Throughput is bytes-produced per second of export wall-clock; every
// artifact is also run through the bundled schema checker so a fast but
// malformed exporter cannot pass.
//
// Each case study's profile is also saved in both encodings and loaded
// back through ProfileReader (artifact "load:text" / "load:binary"), and
// the aggregate binary load must be >= 10x faster than text — the whole
// point of the binary format (ROADMAP 4).
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"export_throughput","app":A,"artifact":F,"bytes":B,
//          "seconds":S,"mb_per_s":X}
// and the full record set is additionally written as one JSON document to
// BENCH_export.json (or argv[1] if given) for the perf trajectory.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "bench_common.hpp"
#include "core/export/export.hpp"
#include "core/export/schema.hpp"
#include "core/profile_io.hpp"

namespace {

using namespace numaprof;

core::ProfilerConfig traced_ibs_config() {
  // Denser sampling than the golden tests use: exporter and loader
  // throughput should be measured where per-sample work dominates fixed
  // overheads, the regime fleet-scale shards live in.
  core::ProfilerConfig cfg = bench::ibs_config(50);
  cfg.record_trace = true;  // the trace timeline is part of the artifacts
  return cfg;
}

struct CaseStudy {
  const char* name;
  core::SessionData data;
};

std::vector<CaseStudy> record_case_studies() {
  std::vector<CaseStudy> studies;
  {
    simrt::Machine m(numasim::amd_magny_cours());
    core::Profiler p(m, traced_ibs_config());
    apps::run_minilulesh(m, {.threads = 16,
                             .pages_per_thread = 12,
                             .timesteps = 10,
                             .variant = apps::Variant::kBaseline});
    studies.push_back({"minilulesh", p.snapshot()});
  }
  {
    simrt::Machine m(numasim::amd_magny_cours());
    core::Profiler p(m, traced_ibs_config());
    apps::run_miniamg(m, {.threads = 16,
                          .rows_per_thread = 1536,
                          .relax_sweeps = 6,
                          .variant = apps::Variant::kBaseline});
    studies.push_back({"miniamg", p.snapshot()});
  }
  {
    simrt::Machine m(numasim::amd_magny_cours());
    core::Profiler p(m, traced_ibs_config());
    apps::run_miniblackscholes(m, {.threads = 16,
                                   .options_per_thread = 640,
                                   .iterations = 128,
                                   .variant = apps::Variant::kBaseline});
    studies.push_back({"miniblackscholes", p.snapshot()});
  }
  {
    simrt::Machine m(numasim::amd_magny_cours());
    core::Profiler p(m, traced_ibs_config());
    apps::run_miniumt(m, {.threads = 16,
                          .angles = 64,
                          .sweeps = 8,
                          .variant = apps::Variant::kBaseline});
    studies.push_back({"miniumt", p.snapshot()});
  }
  return studies;
}

struct Record {
  std::string app;
  std::string artifact;
  std::size_t bytes = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"export_throughput\",\"app\":\"" << r.app
     << "\",\"artifact\":\"" << r.artifact << "\",\"bytes\":" << r.bytes
     << ",\"seconds\":" << r.seconds << ",\"mb_per_s\":" << r.mb_per_s
     << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading(
      "export_throughput: exporter performance on the four case studies");

  namespace fs = std::filesystem;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_export.json";
  bench::BenchRecords records("export_throughput");
  bool all_valid = true;
  double load_seconds[2] = {0.0, 0.0};  // [text, binary], summed over apps
  const fs::path load_dir =
      fs::temp_directory_path() / "numaprof_export_throughput";
  fs::remove_all(load_dir);
  fs::create_directories(load_dir);

  for (CaseStudy& study : record_case_studies()) {
    bench::subheading(study.name);
    const core::Analyzer analyzer(study.data);
    core::ExportOptions options;
    options.basename = study.name;

    // One exporter at a time so a slow pane is attributable. Artifacts are
    // regenerated inside the timed region; min-of-3 ignores cold caches.
    std::vector<core::ExportArtifact> artifacts =
        core::export_artifacts(analyzer, core::ExportKind::kAll, options);
    for (const core::ExportArtifact& artifact : artifacts) {
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        const double s = bench::time_seconds([&] {
          // kFlamegraph yields both collapsed and speedscope artifacts;
          // compare against the one being timed.
          bool reproduced = false;
          for (const core::ExportArtifact& regenerated :
               core::export_artifacts(analyzer, artifact.kind, options)) {
            if (regenerated.filename == artifact.filename) {
              reproduced = regenerated.bytes == artifact.bytes;
            }
          }
          if (!reproduced) all_valid = false;  // exporter not deterministic
        });
        best = std::min(best, s);
      }
      const std::vector<std::string> problems =
          core::check_artifact(artifact.filename, artifact.bytes);
      if (!problems.empty()) {
        all_valid = false;
        std::cerr << artifact.filename << ": " << problems.front() << "\n";
      }
      Record record;
      record.app = study.name;
      record.artifact = artifact.filename;
      record.bytes = artifact.bytes.size();
      record.seconds = best;
      record.mb_per_s =
          best > 0.0
              ? static_cast<double>(artifact.bytes.size()) / best / 1.0e6
              : 0.0;
      std::cout << artifact.filename << ": " << record.bytes << " bytes in "
                << best << " s (" << record.mb_per_s << " MB/s)"
                << (problems.empty() ? "" : "  [SCHEMA INVALID]") << "\n";
      records.add(bench_json(record));
    }

    // Profile load, text vs binary: the exporters all sit downstream of a
    // ProfileReader in the record -> analyze pipeline, so the load is part
    // of the end-to-end throughput story.
    for (const ProfileFormat format :
         {ProfileFormat::kText, ProfileFormat::kBinary}) {
      const bool binary = format == ProfileFormat::kBinary;
      const fs::path path =
          load_dir / (std::string(study.name) + (binary ? ".npbf" : ".prof"));
      core::ProfileWriter(format).write_file(study.data, path.string());
      core::LoadResult loaded;
      double best = 1e100;
      for (int rep = 0; rep < 5; ++rep) {
        const double s = bench::time_seconds([&] {
          loaded = core::ProfileReader().read_file(path.string());
        });
        best = std::min(best, s);
      }
      if (loaded.data.thread_count() != study.data.thread_count()) {
        all_valid = false;
        std::cerr << study.name << ": reloaded profile lost threads\n";
      }
      load_seconds[binary ? 1 : 0] += best;
      Record record;
      record.app = study.name;
      record.artifact = binary ? "load:binary" : "load:text";
      record.bytes = fs::file_size(path);
      record.seconds = best;
      record.mb_per_s =
          best > 0.0 ? static_cast<double>(record.bytes) / best / 1.0e6
                     : 0.0;
      std::cout << record.artifact << ": " << record.bytes << " bytes in "
                << best << " s (" << record.mb_per_s << " MB/s)\n";
      records.add(bench_json(record));
    }
  }
  fs::remove_all(load_dir);

  records.write(out_path);

  bench::Comparison cmp;
  cmp.add("every artifact passes its schema check", "valid",
          all_valid ? "valid" : "INVALID", all_valid);
  cmp.add("record count", "4 apps x (4 artifacts + 2 loads) = 24",
          std::to_string(records.size()), records.size() == 24);
  const double load_speedup =
      load_seconds[1] > 0.0 ? load_seconds[0] / load_seconds[1] : 0.0;
  std::ostringstream measured;
  measured << load_speedup << "x";
  cmp.add("binary vs text profile load (4 apps aggregate)", ">= 10x",
          measured.str(), load_speedup >= 10.0);
  cmp.print();
  return cmp.all_hold() ? 0 : 1;
}
