// CLI: the hpcprof/hpcviewer analogue as a command-line tool.
//
// Loads a profile written by ProfileWriter (e.g. by record_app or the
// lulesh_analysis example) — text or binary, autodetected from magic
// bytes — and either prints the analysis to stdout or
// writes a full report directory. Flags, --help and errors go through
// support::run_cli (docs/api.md, "CLI flags").
//
// Usage:
//   analyze_profile [flags] <profile-file> [report-dir]
//   analyze_profile [flags] --merge <file>...
//   analyze_profile [flags] --diff <before> <after>
//   analyze_profile [flags] --selftest
//
// Flags (shared spelling with numa_lint):
//   --jobs N        parallelism of the offline pipeline; output is
//                   byte-identical for every N (docs/analyzer.md)
//   --format FMT    text (default) or json (machine-readable summary)
//   --profile PATH  the profile to analyze (same as the positional)
//   --telemetry T   JSONL trace from a --telemetry-interval run; renders
//                   the measurement-health pane cross-checked against the
//                   profile's degradation record (docs/api.md)
//   --lenient       recover from damaged profiles / skip unreadable shards
//   --lint SRC      fuse numalint static findings into the report
//   --export KIND   write visualization artifacts: trace (Perfetto JSON),
//                   flamegraph (collapsed + speedscope), html (the
//                   self-contained report), or all (docs/visualization.md)
//   --export-dir D  directory the artifacts go to (default: exports)
//   --flame-weight  flamegraph frame weight: mismatch, remote-latency
//                   (default), or lpi
#include <iostream>
#include <string>
#include <vector>

#include "apps/minilulesh.hpp"
#include "core/diff.hpp"
#include "core/export/writer_util.hpp"
#include "core/numaprof.hpp"
#include "core/report.hpp"
#include "lint/numalint.hpp"
#include "lint/sarif.hpp"
#include "numasim/topology.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

core::SessionData demo_session() {
  simrt::Machine machine(numasim::amd_magny_cours());
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.record_trace = true;
  core::Profiler profiler(machine, cfg);
  apps::run_minilulesh(machine, {.threads = 48,
                                 .pages_per_thread = 3,
                                 .timesteps = 8,
                                 .variant = apps::Variant::kBaseline});
  return profiler.snapshot();
}

/// `--format json`: the program summary + ranked variables as one JSON
/// object (stable keys; docs/api.md).
void print_analysis_json(const core::Analyzer& analyzer) {
  const core::ProgramSummary& p = analyzer.program();
  std::cout << "{\"samples\":" << p.samples
            << ",\"memory-samples\":" << p.memory_samples
            << ",\"match\":" << p.match << ",\"mismatch\":" << p.mismatch
            << ",\"remote-latency\":" << p.remote_latency
            << ",\"remote-latency-fraction\":" << p.remote_latency_fraction
            << ",\"domain-imbalance\":" << p.domain_imbalance
            << ",\"warrants-optimization\":"
            << (p.warrants_optimization ? "true" : "false");
  if (p.lpi) std::cout << ",\"lpi\":" << *p.lpi;
  std::cout << ",\"variables\":[";
  bool first = true;
  for (const core::VariableReport& r : analyzer.variables()) {
    if (!first) std::cout << ',';
    first = false;
    std::cout << "{\"name\":" << core::export_detail::json_quote(r.name)
              << ",\"samples\":" << r.samples << ",\"match\":" << r.match
              << ",\"mismatch\":" << r.mismatch
              << ",\"remote-latency-share\":" << r.remote_latency_share
              << "}";
  }
  std::cout << "]}\n";
}

/// What --export/--export-dir/--flame-weight asked for (kind unset when no
/// --export was given).
struct ExportRequest {
  std::optional<core::ExportKind> kind;
  std::string directory = "exports";
  core::ExportOptions options;
};

/// Writes the requested artifacts and reports where they went. Status goes
/// to stderr so `--format json` output stays a single parseable document.
void run_exports(const core::Analyzer& analyzer, const ExportRequest& request,
                 bool json) {
  if (!request.kind) return;
  std::ostream& log = json ? std::cerr : std::cout;
  for (const std::string& path : core::write_exports(
           analyzer, *request.kind, request.directory, request.options)) {
    log << "exported " << path << "\n";
  }
}

/// Lints `options.lint_paths` (when any), optionally renders the fused
/// pane, and returns the --werror gate: 1 when any finding reaches the
/// requested severity, else 0.
int run_lint_pane(const core::Advisor& advisor, const PipelineOptions& options,
                  bool render, std::optional<lint::Severity> werror) {
  if (options.lint_paths.empty()) return 0;
  const lint::LintResult linted =
      lint::lint_paths(options.lint_paths, options);
  if (render) {
    std::cout << "\n"
              << core::render_fused_findings(
                     core::fuse_findings(advisor, linted.findings));
  }
  return werror && lint::any_at_or_above(linted.findings, *werror) ? 1 : 0;
}

int print_analysis(const core::SessionData& data,
                   const PipelineOptions& options, bool json,
                   const std::string& telemetry_trace,
                   const ExportRequest& exports,
                   std::optional<lint::Severity> werror) {
  const core::Analyzer analyzer(data, options);
  run_exports(analyzer, exports, json);
  if (json) {
    print_analysis_json(analyzer);
    // The lint pane is text-only, but the --werror contract still gates.
    const core::Advisor advisor(analyzer);
    return run_lint_pane(advisor, options, /*render=*/false, werror);
  }
  const core::Viewer viewer(analyzer);
  std::cout << viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) {
    std::cout << "-- collection health --\n" << health;
  }
  if (!telemetry_trace.empty()) {
    const core::TelemetryTrace trace =
        core::load_telemetry_trace_file(telemetry_trace);
    std::cout << core::render_health_pane(trace, &data);
  }
  std::cout << "\n"
            << viewer.data_centric_table(10).to_text() << "\n"
            << viewer.code_centric_table(10).to_text() << "\n"
            << viewer.domain_balance_table().to_text() << "\n";
  const std::string timeline = viewer.trace_timeline();
  if (!timeline.empty()) std::cout << timeline << "\n";

  const core::Advisor advisor(analyzer);
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    std::cout << rec.variable_name << ": " << to_string(rec.action) << "\n  "
              << rec.rationale << "\n";
  }
  return run_lint_pane(advisor, options, /*render=*/true, werror);
}

support::CliParser make_parser() {
  support::CliParser cli(
      "analyze_profile",
      "offline analyzer/viewer for numaprof measurement files");
  cli.add_flag("--jobs", true, "pipeline parallelism (byte-identical output)",
               "N");
  cli.add_flag("--format", true, "output format: text (default) or json",
               "FMT");
  cli.add_flag("--profile", true, "profile file to analyze", "PATH");
  cli.add_flag("--telemetry", true,
               "JSONL telemetry trace: render the measurement-health pane",
               "PATH");
  cli.add_flag("--lenient", false, "recover from damaged profiles");
  cli.add_flag("--lint", true, "fuse numalint findings from this source",
               "SRC");
  cli.add_optional_value_flag(
      "--werror",
      "with --lint: exit 1 on findings of at least this severity "
      "(note|warning|error; default warning)",
      "SEV");
  cli.add_flag("--export", true,
               "write artifacts: " +
                   support::choice_list<core::ExportKind>(
                       core::kExportKindNames),
               "KIND");
  cli.add_flag("--export-dir", true,
               "directory for exported artifacts (default: exports)", "DIR");
  cli.add_flag("--flame-weight", true,
               "flamegraph weight: " + support::choice_list<core::FlameWeight>(
                                           core::kFlameWeightNames),
               "W");
  cli.add_flag("--merge", false, "merge per-thread measurement files");
  cli.add_flag("--diff", false, "compare two profiles (before after)");
  cli.add_flag("--selftest", false, "generate and analyze a demo profile");
  return cli;
}

int run(const support::CliParser& cli) {
  PipelineOptions options;
  options.jobs = cli.jobs_value();
  options.lenient = cli.has("--lenient");
  options.lint_paths = cli.values("--lint");
  const bool json =
      cli.choice("--format", {{"text", false}, {"json", true}}, false);
  const std::string telemetry = cli.value("--telemetry").value_or("");
  const std::optional<lint::Severity> werror = lint::parse_werror(cli);

  ExportRequest exports;
  exports.kind = cli.choice<core::ExportKind>("--export",
                                              core::kExportKindNames);
  exports.directory = cli.value("--export-dir").value_or("exports");
  exports.options.weight =
      cli.choice<core::FlameWeight>("--flame-weight", core::kFlameWeightNames)
          .value_or(exports.options.weight);

  std::vector<std::string> inputs = cli.positional();
  if (const auto profile = cli.value("--profile")) {
    inputs.insert(inputs.begin(), *profile);
  }

  if (cli.has("--selftest")) {
    return print_analysis(demo_session(), options, json, telemetry, exports,
                          werror);
  }
  if (cli.has("--diff")) {
    if (inputs.size() != 2) cli.fail("--diff expects <before> <after>");
    const core::ProfileReader reader;
    const core::SessionData before = reader.read_file(inputs[0]).data;
    const core::SessionData after = reader.read_file(inputs[1]).data;
    const core::Analyzer before_an(before, options);
    const core::Analyzer after_an(after, options);
    std::cout << core::render_diff(core::diff_profiles(before_an, after_an));
    return 0;
  }
  if (cli.has("--merge")) {
    if (inputs.empty()) cli.fail("--merge expects measurement files");
    const core::MergeResult merged = merge_profile_files(inputs, options);
    std::cout << "merged " << merged.summary.files_merged << " of "
              << merged.summary.files_total << " profile files\n";
    for (const core::SkippedProfile& skip : merged.summary.skipped) {
      std::cout << "  skipped " << skip.path << ": " << skip.reason << "\n";
    }
    for (const core::Diagnostic& d : merged.summary.diagnostics) {
      std::cout << "  diagnostic " << d.field << " (line " << d.line
                << "): " << d.message << "\n";
    }
    return print_analysis(merged.data, options, json, telemetry, exports,
                          werror);
  }
  if (inputs.empty() && !telemetry.empty()) {
    // Telemetry-only mode: render the health pane with no profile to
    // cross-check against.
    std::cout << core::render_health_pane(
        core::load_telemetry_trace_file(telemetry));
    return 0;
  }
  if (inputs.empty()) cli.fail("expected a profile file");

  const core::LoadResult loaded =
      core::ProfileReader(options).read_file(inputs[0]);
  for (const core::Diagnostic& d : loaded.diagnostics) {
    std::cout << "diagnostic: " << d.field << " (line " << d.line
              << "): " << d.message << "\n";
  }
  if (inputs.size() < 2) {
    return print_analysis(loaded.data, options, json, telemetry, exports,
                          werror);
  }
  const core::Analyzer analyzer(loaded.data, options);
  run_exports(analyzer, exports, json);
  const std::string main_file = core::write_report(analyzer, inputs[1]);
  std::cout << "report written; start at " << main_file << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(
      make_parser(), argc, argv, run, 1,
      "exit status: 0 = ok, 1 = analysis error (or, with --lint --werror, a "
      "lint finding at/above SEV), 2 = usage error\n");
}
