// CLI: the hpcrun analogue — run a case-study workload under a chosen
// sampling mechanism and write the measurement file for analyze_profile.
//
// Usage:
//   record_app [flags] <app> <variant> <mechanism> <out-file>
//     app:       lulesh | amg | blackscholes | umt | fig1
//     variant:   baseline | blockwise | interleave | aos | parallel-init
//     mechanism: ibs | mrk | pebs | dear | pebs-ll | soft-ibs | spe
//
// Flags:
//   --trace                   record the per-sample trace
//   --format FMT              profile encoding for the out-file, shards,
//                             and the daemon stream: text (default, the
//                             human-readable interchange format) or binary
//                             (the exact, mmap-able columnar format,
//                             docs/format.md)
//   --shards DIR              also write per-thread measurement files
//                             (hpcrun style) for analyze_profile --merge
//   --telemetry-interval N    stream a live measurement-health status line
//                             every N retired instructions while the
//                             workload runs (per-mechanism sample/drop
//                             counters, running M_l/M_r)
//   --telemetry PATH          write the telemetry stream as a JSONL trace;
//                             analyze_profile --telemetry PATH renders it
//   --export KIND             also export visualization artifacts from the
//                             fresh run: trace | flamegraph | html | all
//                             (the trace timeline needs --trace)
//   --export-dir DIR          where those artifacts go (default: exports)
//   --daemon WAL              stream the per-thread shards through an
//                             in-process ingestion daemon (retry/backoff
//                             client into a WAL-backed server journaling
//                             to WAL) and report what was delivered
//   --daemon-spool FILE       write the framed client stream to FILE for
//                             a separate numaprofd process to replay
//   --client-id N             client id stamped on every frame (default 1)
//   --top                     paint a live numa_top monitor to stderr, one
//                             frame per telemetry snapshot, in place of
//                             the status lines (the JSONL trace is still
//                             written; the recorded profile is
//                             byte-identical with or without it); the
//                             interval defaults to 100000 with --top
//   --top-size WxH            monitor frame size (default: tty size, else
//                             80x24)
//
// Set NUMAPROF_FAULTS (see docs/robustness.md) to exercise the run under
// injected failures: mechanism init failures degrade along the fallback
// chain, sample faults are counted, and both the profile and the live
// telemetry stream record it all.
//
// Example (the full §8.1 pipeline on the command line):
//   record_app --telemetry before.jsonl lulesh baseline ibs before.prof
//   analyze_profile --telemetry before.jsonl before.prof   # diagnosis
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "monitor/term.hpp"

#include "apps/distributions.hpp"
#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "core/numaprof.hpp"
#include "ingest/server.hpp"
#include "numasim/topology.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

/// The seven mechanisms in enumerator order: the <mechanism> operand is
/// one's pmu::spec_name, the name NUMAPROF_FAULTS uses too.
std::vector<pmu::Mechanism> all_mechanisms() {
  std::vector<pmu::Mechanism> all;
  for (int i = 0; i < pmu::kMechanismCount; ++i) {
    all.push_back(static_cast<pmu::Mechanism>(i));
  }
  return all;
}

std::optional<pmu::Mechanism> parse_mechanism(std::string_view name) {
  for (const pmu::Mechanism m : all_mechanisms()) {
    if (pmu::spec_name(m) == name) return m;
  }
  return std::nullopt;
}

std::string mechanism_list() {
  std::string list;
  for (const pmu::Mechanism m : all_mechanisms()) {
    if (!list.empty()) list += " | ";
    list += pmu::spec_name(m);
  }
  return list;
}

const std::map<std::string, apps::Variant> kVariants = {
    {"baseline", apps::Variant::kBaseline},
    {"blockwise", apps::Variant::kBlockwise},
    {"interleave", apps::Variant::kInterleave},
    {"aos", apps::Variant::kAosRegroup},
    {"parallel-init", apps::Variant::kParallelInit}};

support::CliParser make_parser() {
  support::CliParser cli(
      "record_app",
      "run a case-study workload under a sampling mechanism; "
      "operands: <app> <variant> <mechanism> <out-file>",
      "  app:       lulesh | amg | blackscholes | umt | fig1\n"
      "  variant:   baseline | blockwise | interleave | aos | "
      "parallel-init\n"
      "  mechanism: " + mechanism_list() + "\n");
  cli.add_flag("--trace", false, "record the per-sample trace");
  cli.add_flag("--format", true,
               "profile encoding for out-file, shards, and the daemon "
               "stream: text | binary (default text)",
               "FMT");
  cli.add_flag("--shards", true, "also write per-thread shards into DIR",
               "DIR");
  cli.add_flag("--telemetry-interval", true,
               "stream a live health status line every N instructions", "N");
  cli.add_flag("--telemetry", true, "write the telemetry JSONL trace here",
               "PATH");
  cli.add_flag("--export", true,
               "also export artifacts: " +
                   support::choice_list<ExportKind>(core::kExportKindNames),
               "KIND");
  cli.add_flag("--export-dir", true,
               "directory for exported artifacts (default: exports)", "DIR");
  cli.add_flag("--daemon", true,
               "stream shards through an in-process daemon journaling to WAL",
               "WAL");
  cli.add_flag("--daemon-spool", true,
               "write the framed client stream here for numaprofd", "FILE");
  cli.add_flag("--client-id", true,
               "client id stamped on every frame (default 1)", "N");
  cli.add_flag("--top", false,
               "paint a live numa_top monitor to stderr, one frame per "
               "telemetry snapshot");
  cli.add_flag("--top-size", true,
               "monitor frame size (default: tty size or 80x24)", "WxH");
  return cli;
}

void run_workload(simrt::Machine& machine, const std::string& app,
                  apps::Variant variant) {
  if (app == "lulesh") {
    apps::run_minilulesh(machine, {.threads = 48,
                                   .pages_per_thread = 4,
                                   .timesteps = 12,
                                   .variant = variant});
  } else if (app == "amg") {
    apps::run_miniamg(machine, {.threads = 48,
                                .rows_per_thread = 1024,
                                .nnz_per_row = 4,
                                .relax_sweeps = 5,
                                .matvec_sweeps = 1,
                                .variant = variant});
  } else if (app == "blackscholes") {
    apps::BlackscholesConfig bs;
    bs.threads = 48;
    bs.variant = variant;
    apps::run_miniblackscholes(machine, bs);
  } else if (app == "umt") {
    apps::run_miniumt(machine, {.threads = 32,
                                .groups = 64,
                                .corners = 32,
                                .angles = 128,
                                .sweeps = 8,
                                .variant = variant});
  } else {
    apps::run_distribution(
        machine, {.threads = 48,
                  .pages_per_thread = 4,
                  .sweeps = 4,
                  .distribution = apps::Distribution::kCentralized});
  }
}

int run(const support::CliParser& cli) {
  const std::vector<std::string>& operands = cli.positional();
  if (operands.size() != 4) {
    cli.fail("expected <app> <variant> <mechanism> <out-file>");
  }
  const std::string& app = operands[0];
  const auto variant_it = kVariants.find(operands[1]);
  const std::optional<pmu::Mechanism> mechanism = parse_mechanism(operands[2]);
  if (variant_it == kVariants.end()) {
    cli.fail("unknown variant: " + operands[1]);
  }
  if (!mechanism) {
    cli.fail("unknown mechanism: " + operands[2]);
  }
  if (app != "lulesh" && app != "amg" && app != "blackscholes" &&
      app != "umt" && app != "fig1") {
    cli.fail("unknown app: " + app);
  }
  const std::string& out = operands[3];
  const ProfileFormat format = cli.choice(
      "--format",
      {{"text", ProfileFormat::kText}, {"binary", ProfileFormat::kBinary}},
      ProfileFormat::kText);
  const std::optional<ExportKind> export_kind =
      cli.choice<ExportKind>("--export", core::kExportKindNames);

  // MRK belongs on the POWER7 preset, everything else on the AMD box —
  // mirroring Table 1's mechanism/host pairing.
  const bool on_power7 = *mechanism == pmu::Mechanism::kMrk;
  simrt::Machine machine(on_power7 ? numasim::power7()
                                   : numasim::amd_magny_cours());

  // Live telemetry: the hub every measurement component publishes into,
  // and the streamer that periodically folds it into status lines and/or
  // the JSONL trace.
  Telemetry hub;
  machine.set_telemetry(&hub);
  std::ofstream jsonl;
  const auto trace_path = cli.value("--telemetry");
  if (trace_path) {
    jsonl.open(*trace_path);
    if (!jsonl) {
      throw Error(ErrorKind::kTelemetry, *trace_path, "telemetry", 0,
                  "cannot open telemetry trace for writing: " + *trace_path);
    }
  }

  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(*mechanism);
  // These runs are seconds long, not hours: sample densely enough that
  // every mechanism populates the profile. Latency-threshold samplers
  // (DEAR, PEBS-LL) see few qualifying events on cache-friendly apps, so
  // they get the densest setting.
  const bool event_filtered =
      pmu::capabilities_of(*mechanism).event_filtered;
  cfg.event.period = std::min<std::uint64_t>(cfg.event.period,
                                             event_filtered ? 50 : 500);
  cfg.event.min_sample_gap =
      std::min<numasim::Cycles>(cfg.event.min_sample_gap, 20'000);
  cfg.record_trace = cli.has("--trace");
  cfg.telemetry = &hub;
  core::Profiler profiler(machine, cfg);

  // Live monitor: with --top, every snapshot the streamer emits also
  // feeds the model and paints a frame to stderr, in place of the status
  // lines. The streamer is the hub's only reader (a hub snapshot drains
  // the per-ring event queues).
  const bool topping = cli.has("--top");
  monitor::TermSize top_size = monitor::detect_term_size(STDERR_FILENO);
  if (const auto text = cli.value("--top-size")) {
    const auto parsed = monitor::parse_term_size(*text);
    if (!parsed) cli.fail("--top-size expects WxH, e.g. 80x24");
    top_size = *parsed;
  }
  const bool top_ansi = ::isatty(STDERR_FILENO) != 0;
  monitor::MonitorModel top_model;
  top_model.set_mechanism(profiler.sampler().mechanism());
  std::size_t top_frames = 0;

  TelemetryStreamer::Config stream_cfg;
  stream_cfg.interval_instructions =
      cli.unsigned_value("--telemetry-interval", topping ? 100000 : 0);
  stream_cfg.status = cli.has("--telemetry-interval") && !topping
                          ? &std::cerr
                          : nullptr;
  stream_cfg.jsonl = trace_path ? &jsonl : nullptr;
  stream_cfg.mechanism = profiler.sampler().mechanism();
  if (topping) {
    stream_cfg.sink = [&](const support::TelemetrySnapshot& snapshot) {
      top_model.feed(snapshot);
      std::cerr << monitor::paint_frame(top_model, top_size, top_ansi,
                                        ++top_frames)
                << std::flush;
    };
  }
  TelemetryStreamer streamer(hub, stream_cfg);
  const bool streaming = stream_cfg.status != nullptr ||
                         stream_cfg.jsonl != nullptr || topping;
  if (streaming) machine.add_observer(streamer);
  const unsigned client_id_raw = cli.unsigned_value("--client-id", 1);
  const auto client_id =
      static_cast<std::uint32_t>(client_id_raw == 0 ? 1 : client_id_raw);

  run_workload(machine, app, variant_it->second);

  if (streaming) {
    streamer.flush(machine.elapsed());
    machine.remove_observer(streamer);
  }
  if (topping && top_ansi) std::cerr << monitor::ansi_leave() << std::flush;
  const core::SessionData data = profiler.snapshot();
  const ProfileWriter writer(format);
  writer.write_file(data, out);
  std::cout << "recorded " << app << "/" << operands[1] << " under "
            << to_string(data.mechanism) << " -> " << out << "\n";
  if (data.degraded()) {
    std::cout << "collection degraded (" << data.degradations.size()
              << " event(s)); see the report's collection health section\n";
  }
  if (const auto shard_dir = cli.value("--shards")) {
    const auto paths = writer.write_thread_shards(data, *shard_dir);
    std::cout << "wrote " << paths.size() << " per-thread shards to "
              << *shard_dir << "\n";
  }
  if (const auto wal = cli.value("--daemon")) {
    support::FaultPlan& faults = support::global_fault_plan();
    ingest::ServerOptions server_options;
    server_options.wal_path = *wal;
    if (faults.enabled()) server_options.faults = &faults;
    server_options.telemetry = &hub;
    ingest::IngestServer server(server_options);
    ingest::LoopbackTransport loop(server);
    ingest::ClientOptions client_options;
    client_options.client_id = client_id;
    client_options.shard_format = format;
    if (faults.enabled()) client_options.faults = &faults;
    ingest::IngestClient client(loop, client_options);
    const ingest::SendReport sent = client.send_session(data);
    std::cout << "daemon ingest: " << sent.shards_delivered << " of "
              << sent.shards_total << " shard(s) acknowledged in "
              << sent.frames_sent << " frame(s) (" << sent.retries
              << " retransmit(s), " << sent.busy_deferrals
              << " busy deferral(s)) -> " << *wal << "\n";
    if (!sent.complete) {
      std::cout << "daemon ingest degraded: " << sent.give_up_reason << "\n";
    }
  }
  if (const auto spool = cli.value("--daemon-spool")) {
    support::FaultPlan& faults = support::global_fault_plan();
    const std::vector<std::string> shards = writer.thread_shards(data);
    const std::string stream = ingest::encode_client_stream(
        shards, client_id, faults.enabled() ? &faults : nullptr);
    std::ofstream os(*spool, std::ios::binary);
    if (!os.write(stream.data(),
                  static_cast<std::streamsize>(stream.size()))) {
      throw Error(ErrorKind::kIngest, *spool, "spool", 0,
                  "cannot write client stream: " + *spool);
    }
    std::cout << "spooled " << stream.size() << " stream byte(s) ("
              << shards.size() << " shard(s)) -> " << *spool << "\n";
  }
  if (trace_path) {
    std::cout << "wrote telemetry trace (" << streamer.snapshots_emitted()
              << " snapshot(s)) to " << *trace_path << "\n";
  }
  if (export_kind) {
    const Analyzer analyzer(data);
    for (const std::string& path :
         write_exports(analyzer, *export_kind,
                       cli.value("--export-dir").value_or("exports"))) {
      std::cout << "exported " << path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(make_parser(), argc, argv, run);
}
