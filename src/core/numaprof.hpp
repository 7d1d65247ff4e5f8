// numaprof.hpp — the supported public surface of the numaprof toolkit.
//
// External consumers include THIS header and nothing else; everything it
// exports lives in namespace numaprof (directly or via the aliases below).
// Any symbol reachable only through other headers is an internal detail
// and may change without notice. CI compiles a minimal consumer TU against
// this header alone (tests/api_surface_check.cpp) so the surface cannot
// silently regress.
//
// Stability notes (see docs/api.md for the full policy):
//   [stable]     covered by the deprecation policy — breaking changes ship
//                a deprecated shim for at least one release first;
//   [evolving]   may gain members/overloads in any release; existing
//                spellings keep compiling;
//   [deprecated] already shimmed; slated for removal.
#pragma once

#include "core/analyzer.hpp"
#include "core/export/export.hpp"
#include "core/export/schema.hpp"
#include "core/options.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "core/session.hpp"
#include "core/telemetry_stream.hpp"
#include "core/viewer.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace numaprof {

// --- Options & errors ------------------------------------------------
// PipelineOptions [stable]: the one option block consumed by both the
// shard merge and the analyzer fold (declared in core/options.hpp).
// Error / ErrorKind / format_error [stable]: the one exception base and
// the one CLI formatter (declared in support/error.hpp).

// --- Measurement (online, §7.1) --------------------------------------
/// Session [stable]: everything one profiled run produced — machine
/// shape, CCT, per-thread metric stores, degradation record. The profile
/// serialization round-trips this type.
using Session = core::SessionData;
/// Profiler [evolving]: the online collector; attach to a simulated
/// machine, run the workload, snapshot() a Session.
using Profiler = core::Profiler;
/// ProfilerConfig [evolving]: mechanism/first-touch/watchdog/telemetry
/// knobs for Profiler.
using ProfilerConfig = core::ProfilerConfig;

// --- Analysis (offline, §7.2) ----------------------------------------
/// Analyzer [stable]: merges a Session's per-thread stores and derives
/// the §4 metrics. Construct with PipelineOptions.
using Analyzer = core::Analyzer;
/// Viewer [evolving]: renders an Analyzer as the paper's report panes.
using Viewer = core::Viewer;
/// MergeResult [stable]: merged Session plus per-file accounting.
using MergeResult = core::MergeResult;

/// merge_profile_files [stable]: loads and merges per-thread measurement
/// files under a PipelineOptions policy (jobs, lenient, quorum).
using core::merge_profile_files;

// --- Profile I/O -----------------------------------------------------
/// ProfileFormat [stable]: which encoding a writer emits — kText (the
/// human-readable interchange format, doubles to six significant digits)
/// or kBinary (the exact, mmap-able columnar format, docs/format.md). Declared in core/options.hpp because
/// PipelineOptions carries it.
/// ProfileReader [stable]: loads a Session from a stream, buffer, or
/// file, autodetecting the encoding from magic bytes; binary files are
/// memory-mapped and loaded zero-copy.
using ProfileReader = core::ProfileReader;
/// ProfileWriter [stable]: byte-deterministic writer in the configured
/// ProfileFormat; also produces the per-thread measurement shards the
/// ingestion client streams.
using ProfileWriter = core::ProfileWriter;
/// LoadOptions / LoadResult / Diagnostic [stable]: strict-vs-lenient
/// policy and the (data, diagnostics, complete) result of a load.
using LoadOptions = core::LoadOptions;
using LoadResult = core::LoadResult;
using Diagnostic = core::Diagnostic;
/// ProfileError [stable]: typed parse error naming the offending field
/// and line (text) or byte offset (binary).
using ProfileError = core::ProfileError;

// --- Live telemetry --------------------------------------------------
/// TelemetryHub / TelemetryRing / TelemetrySnapshot [evolving]: the
/// lock-free self-observability layer every measurement component
/// publishes into (support/telemetry.hpp).
using Telemetry = support::TelemetryHub;
using TelemetryConfig = support::TelemetryConfig;
using TelemetrySnapshot = support::TelemetrySnapshot;
using TelemetryCounter = support::TelemetryCounter;
using TelemetryEvent = support::TelemetryEvent;
using TelemetryEventKind = support::TelemetryEventKind;
/// TelemetryStreamer [evolving]: machine observer emitting periodic
/// snapshots as live status lines and/or a JSONL trace.
using TelemetryStreamer = core::TelemetryStreamer;
/// TelemetryTrace [evolving]: a reloaded JSONL trace; render_health_pane
/// cross-checks it against a Session's degradation record.
using TelemetryTrace = core::TelemetryTrace;
using core::format_status_line;
using core::load_telemetry_trace;
using core::load_telemetry_trace_file;
using core::render_health_pane;
using core::write_snapshot_jsonl;

// --- Exporters (core/export/) ----------------------------------------
/// ExportKind / FlameWeight / ExportOptions / ExportArtifact [evolving]:
/// deterministic artifact exporters — Chrome trace-event / Perfetto JSON,
/// collapsed-stack + speedscope flamegraphs, and the self-contained HTML
/// report. All pure functions of the Analyzer (byte-identical for any
/// --jobs value); failures throw Error with ErrorKind::kExport.
using ExportKind = core::ExportKind;
using FlameWeight = core::FlameWeight;
using ExportOptions = core::ExportOptions;
using ExportArtifact = core::ExportArtifact;
using core::export_artifacts;
using core::export_collapsed_stacks;
using core::export_html;
using core::export_speedscope;
using core::export_trace_json;
using core::parse_export_kind;
using core::parse_flame_weight;
using core::write_exports;

/// JsonNode / parse_json / check_* [evolving]: the bundled artifact
/// validators (core/export/schema.hpp) used by the tests and the
/// export_check CLI to vet every emitted artifact.
using JsonNode = core::JsonNode;
using core::check_artifact;
using core::check_collapsed_stacks;
using core::check_html_report;
using core::check_speedscope_json;
using core::check_trace_json;
using core::json_well_formed;
using core::parse_json;

}  // namespace numaprof
