#include "core/export/export.hpp"

#include <filesystem>
#include <system_error>

#include "support/error.hpp"
#include "support/file.hpp"

namespace numaprof::core {

namespace {

/// The spelling of `value` in `names`, "unknown" when out of range.
template <typename T, std::size_t N>
std::string_view spelling(const std::array<std::pair<std::string_view, T>, N>&
                              names,
                          T value) noexcept {
  const auto i = static_cast<std::size_t>(value);
  return i < N ? names[i].first : "unknown";
}

template <typename T, std::size_t N>
std::optional<T> parse_spelling(
    const std::array<std::pair<std::string_view, T>, N>& names,
    std::string_view text) noexcept {
  for (const auto& [name, value] : names) {
    if (name == text) return value;
  }
  return std::nullopt;
}

}  // namespace

std::string_view to_string(ExportKind k) noexcept {
  return spelling(kExportKindNames, k);
}

std::optional<ExportKind> parse_export_kind(std::string_view text) noexcept {
  return parse_spelling(kExportKindNames, text);
}

std::string_view to_string(FlameWeight w) noexcept {
  return spelling(kFlameWeightNames, w);
}

std::optional<FlameWeight> parse_flame_weight(std::string_view text) noexcept {
  return parse_spelling(kFlameWeightNames, text);
}

std::vector<ExportArtifact> export_artifacts(const Analyzer& analyzer,
                                             ExportKind kind,
                                             const ExportOptions& options) {
  const bool all = kind == ExportKind::kAll;
  std::vector<ExportArtifact> artifacts;
  if (all || kind == ExportKind::kTraceJson) {
    artifacts.push_back({ExportKind::kTraceJson,
                         options.basename + ".trace.json",
                         export_trace_json(analyzer, options)});
  }
  if (all || kind == ExportKind::kFlamegraph) {
    artifacts.push_back({ExportKind::kFlamegraph,
                         options.basename + ".collapsed.txt",
                         export_collapsed_stacks(analyzer, options)});
    artifacts.push_back({ExportKind::kFlamegraph,
                         options.basename + ".speedscope.json",
                         export_speedscope(analyzer, options)});
  }
  if (all || kind == ExportKind::kHtml) {
    artifacts.push_back({ExportKind::kHtml,
                         options.basename + ".report.html",
                         export_html(analyzer, options)});
  }
  return artifacts;
}

std::vector<std::string> write_exports(const Analyzer& analyzer,
                                       ExportKind kind,
                                       const std::string& directory,
                                       const ExportOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    throw Error(ErrorKind::kExport, directory, "", 0,
                "cannot create export directory '" + directory +
                    "': " + ec.message());
  }
  std::vector<std::string> written;
  for (const ExportArtifact& artifact :
       export_artifacts(analyzer, kind, options)) {
    const std::string path =
        (fs::path(directory) / artifact.filename).string();
    support::write_file(path, artifact.bytes, ErrorKind::kExport,
                        "export artifact");
    written.push_back(path);
  }
  return written;
}

}  // namespace numaprof::core
