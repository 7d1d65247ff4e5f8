// Exportable observability (the consumer-surface layer on top of the
// viewer): deterministic exporters that render one analyzed profile into
// standard interactive visualization formats.
//
//  - Chrome trace-event / Perfetto JSON: the recorded trace as per-thread
//    timeline tracks plus counter tracks (mismatch fraction, remote
//    latency, per-domain access counts) and instant events for
//    DegradationEvents and first-touch faults, so measurement health lands
//    on the same timeline as application behaviour. Load in
//    ui.perfetto.dev or chrome://tracing.
//  - Collapsed-stack flamegraphs over the CCT's [ACCESS] subtree, frames
//    weighted by NUMA cost (M_r, remote latency, or lpi_NUMA), in both
//    Brendan-Gregg collapsed format (flamegraph.pl) and speedscope JSON.
//  - A self-contained HTML report: program summary, code/data/address-
//    centric panes (the [min,max] range plot as inline SVG), the trace
//    timeline, and the collection-health pane in ONE file with no external
//    asset references.
//
// Determinism contract (extends docs/analyzer.md): every exporter is a
// pure function of the Analyzer — no wall-clock timestamps, only virtual
// Cycles — so artifacts are byte-identical across repeated runs and for
// any PipelineOptions::jobs. Failures surface as numaprof::Error with
// kind ErrorKind::kExport.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"

namespace numaprof::core {

/// What to export. kAll expands to every artifact of the other kinds.
enum class ExportKind : std::uint8_t {
  kTraceJson,   // Chrome trace-event / Perfetto JSON ("trace")
  kFlamegraph,  // collapsed stacks + speedscope JSON ("flamegraph")
  kHtml,        // self-contained HTML report ("html")
  kAll,         // everything above ("all")
};

/// Number of ExportKind enumerators.
inline constexpr int kExportKindCount = 4;

/// The CLI spelling of every ExportKind, in enumerator order: the one
/// table behind to_string, parse_export_kind and the tools' --export.
inline constexpr std::array<std::pair<std::string_view, ExportKind>,
                            kExportKindCount>
    kExportKindNames{{{"trace", ExportKind::kTraceJson},
                      {"flamegraph", ExportKind::kFlamegraph},
                      {"html", ExportKind::kHtml},
                      {"all", ExportKind::kAll}}};

std::string_view to_string(ExportKind k) noexcept;

/// Parses the CLI spelling (trace | flamegraph | html | all); nullopt for
/// anything else — the CLIs reject that with their usage string.
std::optional<ExportKind> parse_export_kind(std::string_view text) noexcept;

/// Frame weight of the flamegraph exporters (§4's NUMA-cost choices).
enum class FlameWeight : std::uint8_t {
  kMismatch,       // M_r: sampled remote accesses ("mismatch")
  kRemoteLatency,  // l^s_NUMA: sampled remote latency ("remote-latency")
  kLpi,            // lpi_NUMA x 1000 per context ("lpi")
};

/// Number of FlameWeight enumerators.
inline constexpr int kFlameWeightCount = 3;

/// The CLI spelling of every FlameWeight, in enumerator order (the one
/// table behind to_string, parse_flame_weight and --flame-weight).
inline constexpr std::array<std::pair<std::string_view, FlameWeight>,
                            kFlameWeightCount>
    kFlameWeightNames{{{"mismatch", FlameWeight::kMismatch},
                       {"remote-latency", FlameWeight::kRemoteLatency},
                       {"lpi", FlameWeight::kLpi}}};

std::string_view to_string(FlameWeight w) noexcept;

/// Parses the CLI spelling (mismatch | remote-latency | lpi).
std::optional<FlameWeight> parse_flame_weight(std::string_view text) noexcept;

struct ExportOptions {
  /// Windows of the trace-derived counter tracks and the HTML timeline.
  std::uint32_t timeline_windows = 64;
  /// Flamegraph frame weight.
  FlameWeight weight = FlameWeight::kRemoteLatency;
  /// Variables that get an address-centric SVG pane in the HTML report.
  std::size_t top_variables = 3;
  /// Rows of the HTML ranking tables.
  std::size_t table_rows = 20;
  /// Artifact file-name stem (write_exports / export_artifacts).
  std::string basename = "numaprof";
};

/// One rendered artifact: a relative file name plus its full content.
struct ExportArtifact {
  ExportKind kind = ExportKind::kTraceJson;
  std::string filename;
  std::string bytes;
};

/// Chrome trace-event JSON (one self-contained object; load in
/// ui.perfetto.dev or chrome://tracing). Works without a recorded trace —
/// the counter and per-thread tracks are empty then, but degradation and
/// first-touch instants still render.
std::string export_trace_json(const Analyzer& analyzer,
                              const ExportOptions& options = {});

/// Brendan-Gregg collapsed stacks ("frame;frame;frame weight" lines) over
/// the [ACCESS] subtree; empty string when nothing was sampled.
std::string export_collapsed_stacks(const Analyzer& analyzer,
                                    const ExportOptions& options = {});

/// speedscope JSON (https://speedscope.app file format) of the same
/// weighted stacks.
std::string export_speedscope(const Analyzer& analyzer,
                              const ExportOptions& options = {});

/// The self-contained HTML report (single file, inline CSS/SVG only).
std::string export_html(const Analyzer& analyzer,
                        const ExportOptions& options = {});

/// Renders every artifact of `kind` (kAll = all four) in deterministic
/// order: trace JSON, collapsed stacks, speedscope, HTML.
std::vector<ExportArtifact> export_artifacts(const Analyzer& analyzer,
                                             ExportKind kind,
                                             const ExportOptions& options = {});

/// Writes the artifacts of `kind` into `directory` (created if missing,
/// files overwritten); returns the paths written, in artifact order.
/// Throws numaprof::Error (kind kExport) when the directory cannot be
/// created or a file cannot be written.
std::vector<std::string> write_exports(const Analyzer& analyzer,
                                       ExportKind kind,
                                       const std::string& directory,
                                       const ExportOptions& options = {});

}  // namespace numaprof::core
