// monitor_refresh: numa_top frame pipeline throughput (observability).
//
// A live monitor pays three costs per refresh: parsing the telemetry
// stream (replay / --follow mode), folding a snapshot into the frame
// model, and rendering the visible screen. This bench records one
// deterministic minilulesh telemetry trace through the real
// TelemetryStreamer, then times each stage separately:
//   parse     load_telemetry_trace over the JSONL bytes        (MB/s)
//   refresh   feed + render per snapshot, home screen          (frames/s)
//   screens   render all five screens on the fully-fed model   (frames/s)
// with refresh and screens measured at both 80x24 and 120x40.
//
// Validity gates: the trace must hold enough snapshots to be worth
// timing, every rendered frame must be exactly `height` lines carrying
// the numa_top title, and the full refresh frame stream must be
// byte-identical across two runs (the determinism the golden lock in
// tests/monitor_test.cpp depends on) — otherwise [SHAPE MISMATCH] and
// exit 1, and the numbers are meaningless.
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"monitor_refresh","stage":"refresh","size":"80x24",
//          "items":N,"bytes":B,"seconds":S,"rate_per_s":X,"mb_per_s":Y}
// and the record set is additionally written as one JSON document to
// BENCH_monitor.json (or argv[1] if given) for the perf trajectory.
#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilulesh.hpp"
#include "bench_common.hpp"
#include "core/telemetry_stream.hpp"
#include "monitor/model.hpp"
#include "numasim/topology.hpp"
#include "simrt/machine.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace numaprof;
using monitor::Key;
using monitor::MonitorModel;
using monitor::Screen;

// Larger than the in-test recording (tests/monitor_test.cpp) so the
// timed loops see a realistic session: ~tens of streamed intervals.
constexpr std::uint32_t kThreads = 16;
constexpr std::uint32_t kPagesPerThread = 4;
constexpr std::uint32_t kTimesteps = 8;
constexpr std::uint64_t kStreamInterval = 2000;

/// One deterministic minilulesh session streamed to JSONL — the same
/// recipe the monitor golden tests record, scaled up.
std::string record_jsonl() {
  simrt::Machine machine(numasim::test_machine(2, 4));
  support::TelemetryHub hub;
  machine.set_telemetry(&hub);

  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 50;
  cfg.event.min_sample_gap = 10'000;
  cfg.telemetry = &hub;
  core::Profiler profiler(machine, cfg);

  std::ostringstream jsonl;
  core::TelemetryStreamer::Config stream_cfg;
  stream_cfg.interval_instructions = kStreamInterval;
  stream_cfg.jsonl = &jsonl;
  stream_cfg.mechanism = profiler.sampler().mechanism();
  core::TelemetryStreamer streamer(hub, stream_cfg);
  machine.add_observer(streamer);

  apps::run_minilulesh(machine, {.threads = kThreads,
                                 .pages_per_thread = kPagesPerThread,
                                 .timesteps = kTimesteps,
                                 .variant = apps::Variant::kBaseline});

  streamer.flush(machine.elapsed());
  machine.remove_observer(streamer);
  return jsonl.str();
}

struct Record {
  std::string stage;  // parse | refresh | screens
  std::string size;   // "-" for parse, else "WxH"
  std::size_t items = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;
  double rate_per_s = 0.0;
  double mb_per_s = 0.0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"monitor_refresh\",\"stage\":\"" << r.stage
     << "\",\"size\":\"" << r.size << "\",\"items\":" << r.items
     << ",\"bytes\":" << r.bytes << ",\"seconds\":" << r.seconds
     << ",\"rate_per_s\":" << r.rate_per_s << ",\"mb_per_s\":" << r.mb_per_s
     << "}";
  return os.str();
}

/// Min-of-reps timing; fills in the rates and prints the BENCH line.
void run_timed(bench::BenchRecords& records, Record rec, int reps,
               const std::function<void()>& body) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    best = std::min(best, bench::time_seconds(body));
  }
  rec.seconds = best;
  rec.rate_per_s =
      best > 0.0 ? static_cast<double>(rec.items) / best : 0.0;
  rec.mb_per_s =
      best > 0.0 ? static_cast<double>(rec.bytes) / best / 1.0e6 : 0.0;
  std::cout << rec.stage << " " << rec.size << ": " << rec.items
            << " items in " << best << " s (" << rec.rate_per_s
            << " /s)\n";
  records.add(bench_json(rec));
}

MonitorModel fresh_model(const core::TelemetryTrace& trace) {
  MonitorModel model;
  if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
  return model;
}

/// One full live pass: feed every snapshot, render after each. Returns
/// the concatenated frames (the determinism gate compares two of these).
std::string refresh_pass(const core::TelemetryTrace& trace,
                         std::size_t width, std::size_t height) {
  MonitorModel model = fresh_model(trace);
  std::string frames;
  for (const support::TelemetrySnapshot& snap : trace.snapshots) {
    model.feed(snap);
    frames += model.render(width, height);
  }
  return frames;
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading("monitor_refresh: numa_top parse/feed/render throughput");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_monitor.json";
  bench::BenchRecords records("monitor_refresh");
  bench::Comparison cmp;

  const std::string jsonl = record_jsonl();
  std::cout << "trace: " << jsonl.size() << " bytes of JSONL\n";

  // parse: the replay/--follow hot path.
  core::TelemetryTrace trace;
  {
    std::istringstream is(jsonl);
    trace = core::load_telemetry_trace(is);
  }
  {
    Record rec;
    rec.stage = "parse";
    rec.size = "-";
    rec.items = trace.snapshots.size();
    rec.bytes = jsonl.size();
    run_timed(records, rec, 5, [&] {
      std::istringstream is(jsonl);
      trace = core::load_telemetry_trace(is);
    });
  }
  std::ostringstream snap_count;
  snap_count << trace.snapshots.size();
  cmp.add("streamed snapshots in the trace", ">= 8", snap_count.str(),
          trace.snapshots.size() >= 8);
  if (trace.snapshots.empty()) {
    cmp.print();
    return 1;
  }

  const std::pair<std::size_t, std::size_t> sizes[] = {{80, 24}, {120, 40}};
  for (const auto& [width, height] : sizes) {
    const std::string size_str =
        std::to_string(width) + "x" + std::to_string(height);

    // refresh: the live loop — fold a snapshot, repaint the home screen.
    Record rec;
    rec.size = size_str;
    rec.stage = "refresh";
    rec.items = trace.snapshots.size();
    run_timed(records, rec, 5,
              [&] { refresh_pass(trace, width, height); });

    // Determinism and frame-shape gates on the bytes just timed.
    const std::string frames = refresh_pass(trace, width, height);
    cmp.add("refresh " + size_str + " run-to-run bytes", "identical",
            frames == refresh_pass(trace, width, height) ? "identical"
                                                         : "DIVERGED",
            frames == refresh_pass(trace, width, height));
    const std::size_t lines = static_cast<std::size_t>(
        std::count(frames.begin(), frames.end(), '\n'));
    std::ostringstream want_lines, got_lines;
    want_lines << trace.snapshots.size() * height;
    got_lines << lines;
    cmp.add("refresh " + size_str + " frame lines", want_lines.str(),
            got_lines.str(), lines == trace.snapshots.size() * height);
    cmp.add("refresh " + size_str + " title", "numa_top - IBS",
            frames.find("numa_top - IBS") != std::string::npos
                ? "numa_top - IBS"
                : "MISSING",
            frames.find("numa_top - IBS") != std::string::npos);

    // screens: render every pane of the fully-fed model (what a user
    // cycling t/d/p/v/enter pays per keystroke).
    MonitorModel model = fresh_model(trace);
    for (const support::TelemetrySnapshot& snap : trace.snapshots) {
      model.feed(snap);
    }
    const Key tour[] = {Key::kThreads, Key::kDomains, Key::kPages,
                        Key::kVars, Key::kEnter};
    constexpr int kTourPasses = 40;
    rec.stage = "screens";
    rec.items = kTourPasses * (sizeof(tour) / sizeof(tour[0]));
    run_timed(records, rec, 5, [&] {
      for (int pass = 0; pass < kTourPasses; ++pass) {
        for (const Key key : tour) {
          if (key == Key::kEnter) model.apply_key(Key::kThreads);
          model.apply_key(key);
          model.render(width, height);
        }
      }
    });
  }

  records.write(out_path);

  cmp.print();
  return cmp.all_hold() ? 0 : 1;
}
