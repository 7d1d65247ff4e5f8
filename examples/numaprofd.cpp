// CLI: numaprofd — the crash-safe ingestion daemon.
//
// Recorder clients (record_app --daemon-spool) stream their per-thread
// measurement shards as framed, checksummed transport bytes; numaprofd
// replays those streams, journals every accepted shard to a write-ahead
// log BEFORE acknowledging it, folds everything through the analyzer's
// quorum-checked merge, and writes the merged profile and/or the text
// analysis report. Kill it at any instant — including halfway through a
// WAL write — and a restart recovers the log (truncating the torn tail),
// re-ingests the streams (duplicates are absorbed idempotently), and
// produces byte-identical outputs.
//
// Usage:
//   numaprofd [flags] <stream-file>...
//
// Flags:
//   --wal PATH        write-ahead log (default: numaprofd.wal); an
//                     existing log is recovered, not overwritten
//   --out PATH        write the merged profile here
//   --out-format FMT  encoding for --out: text (default) | binary
//   --report PATH     write the text analysis report here
//   --spool DIR       spool directory for the analyzer merge
//                     (default: <wal>.spool)
//   --jobs N          merge parallelism (byte-identical output)
//   --quorum F        minimum fraction of shards that must merge (0..1)
//   --strict          fail on the first damaged shard (default: lenient)
//   --crash-after N   fault injection: die mid-write after N WAL appends
//   --telemetry-out PATH  append mechanism-less JSONL telemetry snapshots
//                     (one after each ingested stream, one after the
//                     merge) for `numa_top --follow PATH` to tail
//
// Set NUMAPROF_FAULTS (see docs/robustness.md) to exercise the daemon
// side under injected failures (disk-full WAL appends).
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/numaprof.hpp"
#include "ingest/server.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

support::CliParser make_parser() {
  support::CliParser cli(
      "numaprofd",
      "crash-safe ingestion daemon: WAL-backed shard ingest and merge; "
      "operands: <stream-file>...");
  cli.add_flag("--wal", true, "write-ahead log path (recovered if present)",
               "PATH");
  cli.add_flag("--out", true, "write the merged profile here", "PATH");
  cli.add_flag("--out-format", true,
               "encoding for --out: text (default) | binary", "FMT");
  cli.add_flag("--report", true, "write the text analysis report here",
               "PATH");
  cli.add_flag("--spool", true, "merge spool directory (default <wal>.spool)",
               "DIR");
  cli.add_flag("--jobs", true, "merge parallelism (byte-identical output)",
               "N");
  cli.add_flag("--quorum", true, "minimum merge quorum fraction (0..1)", "F");
  cli.add_flag("--strict", false, "fail on the first damaged shard");
  cli.add_flag("--crash-after", true,
               "fault injection: die mid-write after N WAL appends", "N");
  cli.add_flag("--telemetry-out", true,
               "append JSONL telemetry snapshots here (numa_top --follow)",
               "PATH");
  return cli;
}

/// --quorum: a fully read number in [0, 1]; `fallback` when absent.
double quorum_value(const support::CliParser& cli, double fallback) {
  const auto text = cli.value("--quorum");
  if (!text) return fallback;
  double quorum = 0.0;
  const char* const end = text->data() + text->size();
  const auto [stop, ec] = std::from_chars(text->data(), end, quorum);
  if (ec != std::errc() || stop != end || !(quorum >= 0.0 && quorum <= 1.0)) {
    cli.fail("--quorum expects a fraction in [0, 1]");
  }
  return quorum;
}

std::string read_stream_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorKind::kIngest, path, "stream", 0,
                "cannot open client stream: " + path);
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

/// The same report panes analyze_profile prints, written to a file so a
/// recovered run can be diffed byte-for-byte against an uninterrupted one.
void write_report(const core::SessionData& data,
                  const PipelineOptions& options, const std::string& path) {
  const core::Analyzer analyzer(data, options);
  const core::Viewer viewer(analyzer);
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw Error(ErrorKind::kIngest, path, "report", 0,
                "cannot open report for writing: " + path);
  }
  os << viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) os << "-- collection health --\n" << health;
  os << "\n"
     << viewer.data_centric_table(10).to_text() << "\n"
     << viewer.code_centric_table(10).to_text() << "\n"
     << viewer.domain_balance_table().to_text() << "\n";
  const core::Advisor advisor(analyzer);
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    os << rec.variable_name << ": " << to_string(rec.action) << "\n  "
       << rec.rationale << "\n";
  }
}

int run(const support::CliParser& cli) {
  if (cli.positional().empty()) {
    cli.fail("expected at least one <stream-file>");
  }
  PipelineOptions pipeline;
  pipeline.jobs = cli.jobs_value(1);
  pipeline.lenient = !cli.has("--strict");
  pipeline.format = cli.choice(
      "--out-format",
      {{"text", ProfileFormat::kText}, {"binary", ProfileFormat::kBinary}},
      pipeline.format);
  pipeline.quorum = quorum_value(cli, pipeline.quorum);

  support::FaultPlan& faults = support::global_fault_plan();
  ingest::ServerOptions options;
  options.wal_path = cli.value("--wal").value_or("numaprofd.wal");
  if (faults.enabled()) options.faults = &faults;
  options.crash_after_appends = cli.unsigned_value("--crash-after", 0);

  // Telemetry spool for `numa_top --follow`: the server publishes its
  // ingest counters/events into the hub, and we fold one snapshot per
  // ingested stream (plus one after the merge) into an appendable JSONL
  // file. Snapshot "time" is the 1-based fold number — the daemon has
  // no virtual clock.
  Telemetry hub;
  std::ofstream telemetry_out;
  const auto telemetry_path = cli.value("--telemetry-out");
  if (telemetry_path) {
    telemetry_out.open(*telemetry_path, std::ios::app);
    if (!telemetry_out) {
      throw Error(ErrorKind::kTelemetry, *telemetry_path, "telemetry", 0,
                  "cannot open telemetry spool for writing: " +
                      *telemetry_path);
    }
    options.telemetry = &hub;
  }
  std::uint64_t folds = 0;
  const auto publish_snapshot = [&] {
    if (!telemetry_path) return;
    core::write_snapshot_jsonl(hub.snapshot(++folds), telemetry_out);
    telemetry_out.flush();
  };

  ingest::IngestServer server(options);

  const ingest::ServerStats recovered = server.stats();
  if (recovered.wal_records_replayed > 0 || recovered.wal_torn_bytes > 0) {
    std::cerr << "numaprofd: recovered " << recovered.wal_records_replayed
              << " record(s) from " << options.wal_path;
    if (recovered.wal_torn_bytes > 0) {
      std::cerr << ", truncated " << recovered.wal_torn_bytes
                << " torn byte(s) (" << server.wal_stop_reason() << ")";
    }
    std::cerr << "\n";
  }

  for (const std::string& path : cli.positional()) {
    server.ingest_stream(read_stream_file(path));
    publish_snapshot();
  }

  const std::string spool =
      cli.value("--spool").value_or(options.wal_path + ".spool");
  const core::MergeResult merged = server.merge(spool, pipeline);
  publish_snapshot();

  const ingest::ServerStats stats = server.stats();
  std::cout << "ingested " << stats.frames_accepted << " shard(s) from "
            << server.client_summaries().size() << " client(s) ("
            << stats.frames_duplicate << " duplicate(s), "
            << stats.corrupt_regions << " corrupt region(s), "
            << stats.clients_evicted << " eviction(s), "
            << stats.wal_rejections << " WAL rejection(s))\n";
  std::cout << "merged " << merged.summary.files_merged << " of "
            << merged.summary.files_total << " shard(s)";
  if (!merged.summary.skipped.empty()) {
    std::cout << "; skipped " << merged.summary.skipped.size();
  }
  std::cout << "\n";

  if (const auto out = cli.value("--out")) {
    core::ProfileWriter(pipeline).write_file(merged.data, *out);
    std::cout << "wrote merged profile -> " << *out << "\n";
  }
  if (const auto report = cli.value("--report")) {
    write_report(merged.data, pipeline, *report);
    std::cout << "wrote analysis report -> " << *report << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(make_parser(), argc, argv, run);
}
