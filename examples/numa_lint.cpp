// numa_lint: command-line front end for the static NUMA-antipattern
// analyzer (src/lint/). Scans C/C++ sources for the L1..L8 catalog —
// L1..L4 per translation unit, L5..L8 from the interprocedural dataflow
// engine — and prints findings with file/line/variable and a suggested
// fix drawn from the advisor's action vocabulary. Flags share their
// spelling with analyze_profile and go through support::run_cli.
//
//   numa_lint [flags] <file-or-dir>...
//   numa_lint --selftest
//
// Flags:
//   --jobs N          lint files in parallel; output is identical for every N
//   --format FMT      text (default) or json (one JSON object per finding)
//   --profile PATH    fuse findings with this profile's dynamic evidence
//   --telemetry T     also render the measurement-health pane from a JSONL
//                     trace (cross-checked against --profile when given)
//   --export KIND     json: fused findings as one JSON document (requires
//                     --profile); sarif: findings as SARIF 2.1.0 (no
//                     profile needed)
//   --baseline PATH   suppress the findings accepted by this baseline file;
//                     only NEW findings are reported and gate the exit code
//   --write-baseline PATH  write the current findings as a baseline and exit
//   --werror[=SEV]    fail (exit 1) only on findings of severity SEV or
//                     higher (note|warning|error; bare --werror = warning)
//   --cache DIR       incremental per-file cache keyed by content hash
//   --stats           print scan statistics
//
// Exit status: 0 = clean (or all findings below the --werror threshold /
// covered by the baseline), 1 = gating findings reported, 2 = usage or
// input error.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/numaprof.hpp"
#include "lint/baseline.hpp"
#include "lint/numalint.hpp"
#include "lint/sarif.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

// A deliberately buggy OpenMP-style translation unit exercising the lint
// catalog; --selftest checks the analyzer end to end with no input.
constexpr const char* kSelftestSource = R"lint(
#include <omp.h>

static double table[1 << 20];
static int hits[64];

void setup(double* data, long n) {
  for (long i = 0; i < n; ++i) table[i] = 0.0;  // serial first touch
}

void compute(long n) {
  double scratch[4096];
  for (long i = 0; i < 4096; ++i) scratch[i] = 1.0;
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) {
    int tid = omp_get_thread_num();
    table[i] += scratch[i % 4096];
    hits[tid] += 1;  // per-thread counters share cache lines
  }
}

void dsl_workload(SimThread& t, SimMachine& m, uint32_t threads) {
  PolicySpec policy = PolicySpec::interleave();
  auto grid = t.malloc(1024 * 8, "grid", policy);
  parallel_region(m, threads, "relax", 0, [&](SimThread& t, uint32_t index) {
    auto [b, e] = block_slice(1024, index, threads);
    store_lines(t, grid, b, e);  // block-local writes: interleave misuse
  });
}
)lint";

int gate_exit(const std::vector<core::StaticFinding>& findings,
              std::optional<lint::Severity> werror) {
  if (!werror) return findings.empty() ? 0 : 1;
  return lint::any_at_or_above(findings, *werror) ? 1 : 0;
}

void print_stats(std::ostream& os, const lint::LintResult& result,
                 std::size_t reported, std::size_t suppressed) {
  os << "scanned " << result.stats.files << " file"
     << (result.stats.files == 1 ? "" : "s") << ", " << result.stats.lines
     << " lines, " << result.stats.tokens << " tokens; " << reported
     << " finding" << (reported == 1 ? "" : "s");
  if (suppressed > 0) os << " (" << suppressed << " baselined)";
  os << "\n";
}

support::CliParser make_parser() {
  support::CliParser cli("numa_lint",
                         "static NUMA-antipattern analyzer (L1..L8)");
  cli.add_flag("--jobs", true, "lint files in parallel (identical output)",
               "N");
  cli.add_flag("--format", true, "output format: text (default) or json",
               "FMT");
  cli.add_flag("--profile", true,
               "fuse findings with this profile's dynamic evidence", "PATH");
  cli.add_flag("--telemetry", true,
               "JSONL telemetry trace: render the measurement-health pane",
               "PATH");
  cli.add_flag("--export", true,
               "json: fused findings (requires --profile); sarif: SARIF "
               "2.1.0 findings",
               "KIND");
  cli.add_flag("--baseline", true,
               "suppress findings accepted by this baseline file", "PATH");
  cli.add_flag("--write-baseline", true,
               "write the current findings as a baseline file and exit",
               "PATH");
  cli.add_optional_value_flag(
      "--werror",
      "exit 1 only on findings of at least this severity "
      "(note|warning|error; default warning)",
      "SEV");
  cli.add_flag("--cache", true,
               "incremental per-file cache directory (content-hash keyed)",
               "DIR");
  cli.add_flag("--stats", false, "print scan statistics");
  cli.add_flag("--selftest", false, "lint a built-in antipattern sample");
  return cli;
}

/// What --export asks for: json is the fused-findings document (needs
/// dynamic evidence); sarif is the static findings alone, for
/// code-scanning UIs and CI artifacts.
enum class Export { kNone, kFused, kSarif };

int run(const support::CliParser& cli) {
  const bool json =
      cli.choice("--format", {{"text", false}, {"json", true}}, false);
  const std::optional<lint::Severity> werror = lint::parse_werror(cli);
  const Export export_kind = cli.choice(
      "--export", {{"json", Export::kFused}, {"sarif", Export::kSarif}},
      Export::kNone);
  if (export_kind == Export::kFused && !cli.has("--profile")) {
    cli.fail(
        "--export json requires --profile (fused findings join static and "
        "dynamic evidence)");
  }
  if (cli.has("--selftest")) {
    const auto result = lint::lint_source(kSelftestSource, "selftest.cpp");
    std::cout << lint::render_findings(result.findings);
    print_stats(std::cout, result, result.findings.size(), 0);
    // The sample plants the antipatterns; finding none means the
    // analyzer is broken, so invert the exit convention here.
    if (result.findings.empty()) {
      std::cerr << "selftest FAILED: expected findings, got none\n";
      return 2;
    }
    std::cout << "selftest OK\n";
    return 0;
  }
  if (cli.positional().empty()) {
    cli.fail("expected files or directories to lint");
  }
  PipelineOptions options;
  options.jobs = cli.jobs_value();
  options.lint_paths = cli.positional();
  options.lint_cache_dir = cli.value("--cache").value_or("");
  const lint::LintResult result =
      lint::lint_paths(options.lint_paths, options);

  if (const auto out_path = cli.value("--write-baseline")) {
    std::ofstream out(*out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error(ErrorKind::kUsage, *out_path, "--write-baseline", 0,
                  "cannot write baseline file " + *out_path);
    }
    out << lint::render_baseline(lint::make_baseline(result.findings));
    std::cout << "baseline: accepted " << result.findings.size()
              << " finding" << (result.findings.size() == 1 ? "" : "s")
              << " into " << *out_path << "\n";
    return 0;
  }

  std::vector<core::StaticFinding> findings = result.findings;
  std::size_t suppressed = 0;
  if (const auto baseline_path = cli.value("--baseline")) {
    std::string error;
    const auto baseline = lint::load_baseline(*baseline_path, &error);
    if (!baseline) {
      throw Error(ErrorKind::kUsage, *baseline_path, "--baseline", 0, error);
    }
    findings =
        lint::apply_baseline(*baseline, std::move(findings), &suppressed);
  }

  if (export_kind == Export::kSarif) {
    // The SARIF document owns stdout; stats go to stderr.
    std::cout << lint::render_sarif(findings) << "\n";
    if (cli.has("--stats")) {
      print_stats(std::cerr, result, findings.size(), suppressed);
    }
    return gate_exit(findings, werror);
  }

  std::cout << (json ? lint::render_findings_json(findings)
                     : lint::render_findings(findings));
  if (cli.has("--stats")) {
    print_stats(std::cout, result, findings.size(), suppressed);
  }
  const int rc = gate_exit(findings, werror);

  if (const auto profile = cli.value("--profile")) {
    const Session data = core::ProfileReader().read_file(*profile).data;
    const Analyzer analyzer(data, options);
    const core::Advisor advisor(analyzer);
    const std::vector<core::FusedFinding> fused =
        core::fuse_findings(advisor, findings);
    if (export_kind == Export::kFused) {
      std::cout << core::render_fused_findings_json(fused);
    } else {
      std::cout << "\n" << core::render_fused_findings(fused);
    }
    if (const auto trace_path = cli.value("--telemetry")) {
      std::cout << render_health_pane(load_telemetry_trace_file(*trace_path),
                                      &data);
    }
  } else if (const auto trace_path = cli.value("--telemetry")) {
    std::cout << render_health_pane(load_telemetry_trace_file(*trace_path));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(
      make_parser(), argc, argv, run, 2,
      "exit status: 0 = clean (no finding at/above the gate), 1 = gating "
      "findings, 2 = usage/input error\n");
}
