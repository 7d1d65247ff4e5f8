#include "lint/sarif.hpp"

#include <sstream>

#include "core/export/writer_util.hpp"
#include "lint/numalint.hpp"

namespace numaprof::lint {

namespace {

using core::LintKind;
using core::export_detail::json_quote;

std::string_view rule_description(LintKind kind) noexcept {
  switch (kind) {
    case LintKind::kSerialFirstTouch:
      return "Array initialized by serial code but consumed inside a "
             "parallel region: first touch homes every page on the "
             "initializing thread's domain.";
    case LintKind::kFalseSharing:
      return "Per-thread-written elements packed within one cache line.";
    case LintKind::kStackEscape:
      return "Stack array escapes into a parallel region; its pages live "
             "on one thread's stack and cannot be re-homed.";
    case LintKind::kInterleaveMisuse:
      return "Interleaved allocation of an array whose parallel accesses "
             "are block-local forfeits natural block locality.";
    case LintKind::kCrossSerialInit:
      return "Serial first touch reached through a call chain or another "
             "translation unit feeds parallel consumers.";
    case LintKind::kScheduleMismatch:
      return "Parallel initialization and parallel consumption partition "
             "iterations differently, so the first-touch thread is not "
             "the consuming thread.";
    case LintKind::kAliasHiddenInit:
      return "First touch happens through a pointer alias or wrapper, "
             "invisible at the allocation site.";
    case LintKind::kReadMostly:
      return "Written once serially, then read across its whole extent by "
             "every thread: replication or interleaving candidate.";
  }
  return "";
}

}  // namespace

std::string_view to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

Severity severity_of(LintKind kind) noexcept {
  switch (kind) {
    case LintKind::kSerialFirstTouch:
    case LintKind::kCrossSerialInit:
    case LintKind::kAliasHiddenInit:
      return Severity::kError;
    case LintKind::kFalseSharing:
    case LintKind::kStackEscape:
    case LintKind::kInterleaveMisuse:
    case LintKind::kScheduleMismatch:
      return Severity::kWarning;
    case LintKind::kReadMostly:
      return Severity::kNote;
  }
  return Severity::kWarning;
}

std::string render_sarif(const std::vector<core::StaticFinding>& findings) {
  std::ostringstream os;
  os << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"numalint\",\"informationUri\":"
        "\"https://example.invalid/numaprof/docs/lint.md\","
        "\"rules\":[";
  for (int k = 0; k < core::kLintKindCount; ++k) {
    const auto kind = static_cast<LintKind>(k);
    if (k > 0) os << ',';
    os << "{\"id\":" << json_quote(kind_code(kind))
       << ",\"name\":" << json_quote(core::to_string(kind))
       << ",\"shortDescription\":{\"text\":"
       << json_quote(core::to_string(kind))
       << "},\"fullDescription\":{\"text\":"
       << json_quote(rule_description(kind))
       << "},\"defaultConfiguration\":{\"level\":"
       << json_quote(to_string(severity_of(kind))) << "}}";
  }
  os << "]}},\"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const core::StaticFinding& f = findings[i];
    if (i > 0) os << ',';
    os << "{\"ruleId\":" << json_quote(kind_code(f.kind))
       << ",\"ruleIndex\":" << static_cast<int>(f.kind)
       << ",\"level\":" << json_quote(to_string(severity_of(f.kind)))
       << ",\"message\":{\"text\":" << json_quote(f.message)
       << "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{"
          "\"uri\":"
       << json_quote(f.file)
       << "},\"region\":{\"startLine\":" << (f.line == 0 ? 1 : f.line)
       << "}}}],\"properties\":{\"variable\":" << json_quote(f.variable)
       << ",\"declLine\":" << f.decl_line
       << ",\"expected\":" << json_quote(core::to_string(f.expected))
       << ",\"suggested\":" << json_quote(core::to_string(f.suggested))
       << "}}";
  }
  os << "]}]}";
  return os.str();
}

}  // namespace numaprof::lint
