// numalint: a static NUMA-antipattern analyzer.
//
// Scans translation units with a lightweight lexer + declaration/loop/
// parallel-region recognizer (no libclang) for the antipattern catalog of
// docs/lint.md:
//   L1 serial-first-touch   arrays initialized by serial code but consumed
//                           inside parallel regions (the LULESH/AMG bug
//                           class of §8.1/§8.2)
//   L2 false-sharing-layout per-thread-written elements packed within one
//                           cache line
//   L3 stack-escape         stack arrays escaping into parallel regions
//                           (the §6 nodelist insight)
//   L4 interleave-misuse    interleaved allocation of arrays whose every
//                           parallel access is block-local (the §8.1
//                           POWER7 regression)
//
// Two source idioms are recognized: real OpenMP-style C/C++ (`#pragma omp
// parallel`, local arrays, malloc/new) and this repository's simulator
// workload DSL (`parallel_region`, `t.malloc(size, "name", policy)`,
// `store_lines`/`t.load`/`t.store`). Findings reuse the advisor's
// Action/PatternKind vocabulary so they fuse with dynamic profiles
// (core::fuse_findings).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/advisor.hpp"
#include "core/options.hpp"
#include "lint/dataflow.hpp"
#include "lint/sarif.hpp"
#include "support/cliflags.hpp"
#include "support/error.hpp"

namespace numaprof::lint {

/// A lint input failure (numaprof::Error with kind ErrorKind::kLint):
/// a named top-level path that does not exist or cannot be read. Files
/// discovered inside directories are still skipped silently — a partially
/// readable tree should not kill a lint sweep.
class LintError : public numaprof::Error {
 public:
  explicit LintError(const std::string& path)
      : Error(ErrorKind::kLint, path, "path", 0,
              "lint input error: cannot read " + path) {}
};

struct LintStats {
  std::uint64_t files = 0;
  std::uint64_t lines = 0;
  std::uint64_t tokens = 0;
};

struct LintResult {
  std::vector<core::StaticFinding> findings;
  LintStats stats;
};

/// Lints one in-memory translation unit. `file` is used for reporting.
/// Runs the per-TU L1-L4 recognizers AND the interprocedural engine over
/// this one file, so a program merged into a single TU reports the same
/// L5-L8 findings as the multi-file sweep. Never throws on malformed input.
LintResult lint_source(std::string_view source, std::string file);

/// Phase-1 artifact for one file: the local L1-L4 findings plus the
/// dataflow summary that phase 2 propagates across the whole program.
struct FilePhase1 {
  LintResult local;
  dataflow::FileSummary summary;
};

/// Phase 1 only (embarrassingly parallel, pure function of the source).
FilePhase1 lint_file_phase1(std::string_view source, std::string file);

/// True if `path` names a file numalint knows how to scan (.c/.cc/.cpp/
/// .cxx/.h/.hh/.hpp).
bool lintable_file(const std::string& path);

/// Lints files and directories (recursive, deterministic order). A named
/// top-level path that does not exist throws LintError; unreadable files
/// discovered inside directories are skipped. Files are linted on up to
/// `options.jobs` threads and folded in path order, so the result is
/// identical for every jobs value; no other field of `options` is read.
/// Findings are sorted by (file, line, variable, kind).
LintResult lint_paths(
    const std::vector<std::string>& paths,
    const numaprof::PipelineOptions& options = numaprof::PipelineOptions());

/// The `--werror[=SEV]` gate numa_lint and analyze_profile share: nullopt
/// without --werror; note, warning or error otherwise (a bare --werror
/// means warning). Any other value throws a usage Error (exit status 2)
/// that ends with `cli.usage()`.
std::optional<Severity> parse_werror(const support::CliParser& cli);

/// True when some finding's severity is at least `threshold`.
bool any_at_or_above(const std::vector<core::StaticFinding>& findings,
                     Severity threshold) noexcept;

/// Short L1..L4 code for a finding kind.
std::string_view kind_code(core::LintKind kind) noexcept;

/// Human-readable rendering of findings, one block per finding:
///   file:line [L1 serial-first-touch] variable
///       expected <pattern>, suggest <action> (declared at line N)
///       <message>
std::string render_findings(const std::vector<core::StaticFinding>& findings);

/// Machine-readable rendering (`--format json`): one JSON object per line
/// with file/line/decl-line/variable/kind/code/expected/suggested/message.
std::string render_findings_json(
    const std::vector<core::StaticFinding>& findings);

}  // namespace numaprof::lint
