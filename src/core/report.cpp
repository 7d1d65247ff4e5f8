#include "core/report.hpp"

#include <filesystem>

#include "core/trace.hpp"
#include "support/file.hpp"

namespace numaprof::core {

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::string& contents) {
  support::write_file(path.string(), contents, ErrorKind::kProfile,
                      "report file");
}

/// File-system-safe variable name.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "unnamed" : out;
}

}  // namespace

std::string write_report(const Analyzer& analyzer,
                         const std::string& directory,
                         const ReportOptions& options) {
  const fs::path root(directory);
  fs::create_directories(root);
  const Viewer viewer(analyzer);
  const SessionData& data = analyzer.data();

  // Main report.
  std::string report = viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) {
    report += "\n== collection health ==\n" + health;
  }
  report += "\n== data-centric ranking ==\n";
  report += viewer.data_centric_table(options.table_rows).to_text();
  report += "\n== code-centric ranking ==\n";
  report += viewer.code_centric_table(options.table_rows).to_text();
  report += "\n== per-domain request balance ==\n";
  report += viewer.domain_balance_table().to_text();
  // (The request balance reflects sampled TRAFFIC; a numastat-style page
  // PLACEMENT histogram is available via
  // simos::PageTable::placement_histogram on a live machine.)
  report += "\n== program structure (augmented CCT) ==\n";
  report += viewer.cct_tree();
  const std::string timeline = viewer.trace_timeline(options.timeline_windows);
  if (!timeline.empty()) {
    report += "\n== time-varying behaviour ==\n" + timeline;
  }

  const Advisor advisor(analyzer);
  report += "\n== recommendations ==\n";
  for (const Recommendation& rec :
       advisor.recommend_all(options.top_variables)) {
    report += rec.variable_name + ": " + std::string(to_string(rec.action)) +
              "\n  " + rec.rationale + "\n";
    for (const FirstTouchSite& site : rec.first_touch_sites) {
      report += "  first touch: " + data.path_string(site.node) + "\n";
    }
  }
  write_file(root / "report.txt", report);

  // Machine-readable rankings.
  write_file(root / "data_centric.csv",
             viewer.data_centric_table(options.table_rows).to_csv());
  write_file(root / "code_centric.csv",
             viewer.code_centric_table(options.table_rows).to_csv());
  write_file(root / "domains.csv", viewer.domain_balance_table().to_csv());
  if (!timeline.empty()) write_file(root / "timeline.txt", timeline);

  // Per-variable detail directories.
  std::size_t emitted = 0;
  for (const VariableReport& var : analyzer.variables()) {
    if (emitted++ >= options.top_variables) break;
    const fs::path dir = root / ("var_" + sanitize(var.name));
    fs::create_directories(dir);
    write_file(dir / "ranges.csv",
               viewer.address_centric_table(var.id).to_csv());
    write_file(dir / "ranges.txt", viewer.address_centric_plot(var.id));
    write_file(dir / "first_touch.txt",
               viewer.first_touch_table(var.id).to_text());
    write_file(dir / "data_sources.txt",
               viewer.data_source_table(var.id).to_text());
  }

  return (root / "report.txt").string();
}

}  // namespace numaprof::core
