// micro_lint: throughput of the numalint static pass.
//
// numalint is meant to run casually over whole source trees (pre-commit,
// CI), so lexing, per-TU recognition, and the production driver all have
// throughput budgets. Three stages are measured on synthesized trees of
// realistic fragments (both recognized idioms):
//   lex            raw tokens/bytes per second
//   lint           lint_source: per-TU L1-L4 + the interprocedural engine
//   driver         lint_paths over a file tree as --jobs scales 1,2,4,8
// Driver runs are validated: every jobs value must render byte-identical
// findings — otherwise the numbers are meaningless and the exit status
// is 1.
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"micro_lint","stage":"driver","config":"jobs=4",
//          "files":N,"bytes":B,"seconds":S,"mb_per_s":X,"findings":F}
// ("findings" is the token count for the lex stage).
// and the full record set is additionally written as one JSON document to
// BENCH_lint.json (or argv[1] if given) for the perf trajectory.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lint/lexer.hpp"
#include "lint/numalint.hpp"

namespace {

namespace fs = std::filesystem;
using namespace numaprof;

/// Synthesizes a translation unit with `blocks` repetitions of a
/// realistic workload fragment: a serially-initialized array, a parallel
/// consumer region, a per-thread counter, and a cross-function pointer
/// handoff (exercises the L1/L2 recognizers AND the dataflow summaries).
std::string synthesize(int blocks, int salt) {
  std::string src =
      "#include <omp.h>\n"
      "struct Slot { const char* name; double* addr; bool master; };\n";
  for (int b = 0; b < blocks; ++b) {
    const std::string id = std::to_string(salt * 1000 + b);
    src += "static double grid" + id + "[1 << 16];\n"
           "static int hits" + id + "[64];\n"
           "double* make" + id + "(long n) {\n"
           "  return (double*)malloc(n * sizeof(double));\n"
           "}\n"
           "void init" + id + "(double* p, long n) {\n"
           "  for (long i = 0; i < n; ++i) { grid" + id +
           "[i] = 0.0; p[i] = 0.0; }\n"
           "}\n"
           "void work" + id + "(double* p, long n) {\n"
           "  #pragma omp parallel for schedule(static)\n"
           "  for (long i = 0; i < n; ++i) {\n"
           "    int tid = omp_get_thread_num();\n"
           "    grid" + id + "[i] += p[i];\n"
           "    hits" + id + "[tid] += 1;\n"
           "  }\n"
           "}\n"
           "void run" + id + "(long n) {\n"
           "  double* p = make" + id + "(n);\n"
           "  init" + id + "(p, n);\n"
           "  work" + id + "(p, n);\n"
           "}\n";
  }
  return src;
}

/// DSL-idiom fragment: simulator workloads with policies and regions
/// (exercises the table/lambda/policy recognizer paths).
std::string synthesize_dsl(int blocks) {
  std::string src;
  for (int b = 0; b < blocks; ++b) {
    const std::string id = std::to_string(b);
    src += "void workload" + id +
           "(simrt::Machine& m, const Config& cfg) {\n"
           "  simos::PolicySpec policy" + id +
           " = simos::PolicySpec::interleave();\n"
           "  simos::VAddr data" + id + " = 0;\n"
           "  parallel_region(m, 1, \"init\", 0, [&](SimThread& t, "
           "uint32_t index) {\n"
           "    data" + id + " = t.malloc(cfg.elements * 8, \"data" + id +
           "\", policy" + id + ");\n"
           "    store_lines(t, data" + id + ", 0, cfg.elements);\n"
           "  });\n"
           "  parallel_region(m, cfg.threads, \"compute\", 0,\n"
           "                  [&](SimThread& t, uint32_t index) {\n"
           "    auto [lo, hi] = block_slice(cfg.elements, index, "
           "cfg.threads);\n"
           "    load_lines(t, data" + id + ", lo, hi);\n"
           "  });\n"
           "}\n";
  }
  return src;
}

struct Record {
  std::string stage;
  std::string config;
  std::size_t files = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
  std::size_t findings = 0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"micro_lint\",\"stage\":\"" << r.stage
     << "\",\"config\":\"" << r.config << "\",\"files\":" << r.files
     << ",\"bytes\":" << r.bytes << ",\"seconds\":" << r.seconds
     << ",\"mb_per_s\":" << r.mb_per_s << ",\"findings\":" << r.findings
     << "}";
  return os.str();
}

void run_stage(bench::BenchRecords& records, const std::string& stage,
               const std::string& config, std::size_t files,
               std::size_t bytes, int reps,
               const std::function<std::size_t()>& body) {
  double best = 1e100;
  std::size_t findings = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double s = bench::time_seconds([&] { findings = body(); });
    best = std::min(best, s);
  }
  Record r;
  r.stage = stage;
  r.config = config;
  r.files = files;
  r.bytes = bytes;
  r.seconds = best;
  r.mb_per_s = best > 0.0 ? static_cast<double>(bytes) / best / 1.0e6 : 0.0;
  r.findings = findings;
  std::cout << stage << " " << config << ": " << bytes << " bytes in "
            << best << " s (" << r.mb_per_s << " MB/s, " << findings
            << " findings)\n";
  records.add(bench_json(r));
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading("micro_lint: static pass throughput (lex/lint/driver)");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_lint.json";
  bench::BenchRecords records("micro_lint");
  bool all_valid = true;

  // --- lex + per-TU lint on in-memory TUs --------------------------------
  bench::subheading("single translation unit");
  for (const int blocks : {8, 64}) {
    const std::string src = synthesize(blocks, 0);
    run_stage(records, "lex", "blocks=" + std::to_string(blocks), 1,
              src.size(), 3, [&] { return lint::lex(src).tokens.size(); });
    run_stage(records, "lint", "omp,blocks=" + std::to_string(blocks), 1,
              src.size(), 3, [&] {
                return lint::lint_source(src, "bench.cpp").findings.size();
              });
  }
  {
    const std::string dsl = synthesize_dsl(64);
    run_stage(records, "lint", "dsl,blocks=64", 1, dsl.size(), 3, [&] {
      return lint::lint_source(dsl, "bench.cpp").findings.size();
    });
  }

  // --- the production driver over a file tree ----------------------------
  // 48 files x 8 fragments each: enough work that the pool matters, small
  // enough to iterate. Findings must be byte-identical for every jobs
  // value (the driver's core contract) or the timings are meaningless.
  bench::subheading("parallel driver (lint_paths)");
  const fs::path tree = fs::temp_directory_path() / "numaprof_lint_bench";
  fs::remove_all(tree);
  fs::create_directories(tree);
  constexpr int kTreeFiles = 48;
  std::size_t tree_bytes = 0;
  std::vector<std::string> paths;
  for (int f = 0; f < kTreeFiles; ++f) {
    const std::string body = synthesize(8, f);
    const fs::path p = tree / ("tu" + std::to_string(100 + f) + ".cpp");
    std::ofstream(p, std::ios::binary) << body;
    tree_bytes += body.size();
    paths.push_back(p.string());
  }
  std::string reference;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    std::string rendered;
    PipelineOptions options;
    options.jobs = jobs;
    run_stage(records, "driver", "jobs=" + std::to_string(jobs), kTreeFiles,
              tree_bytes, 3, [&] {
                const lint::LintResult r = lint::lint_paths(paths, options);
                rendered = lint::render_findings(r.findings);
                return r.findings.size();
              });
    if (reference.empty()) {
      reference = rendered;
    } else if (rendered != reference) {
      all_valid = false;
      std::cerr << "driver output drifted at jobs=" << jobs << "\n";
    }
  }

  fs::remove_all(tree);

  records.write(out_path);

  if (!all_valid) {
    std::cout << "VALIDITY FAILURE: driver output not identical\n";
    return 1;
  }
  return 0;
}
