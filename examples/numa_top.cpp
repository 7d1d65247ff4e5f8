// CLI: numa_top — the numatop analogue for this tool's telemetry streams.
//
// A continuously refreshing terminal monitor over TelemetrySnapshot
// streams: a summary bar, sortable per-thread and per-domain tables
// (RMA/LMA, remote latency, mismatch fraction), hot-page / hot-variable
// panes, and drill-down from a thread to its hottest call paths.
//
// Usage:
//   numa_top [flags] <trace.jsonl>
//
// Modes (pick one):
//   (default)            load the trace, show one frame of its final state
//   --replay             re-render every snapshot in order; with a tty the
//                        screen repaints in place and the keyboard works,
//                        otherwise plain `== frame N ==` blocks are printed
//   --follow PATH        tail a growing JSONL file (a still-recording
//                        `record_app --telemetry` run or a numaprofd
//                        --telemetry-out spool); no trace operand
//   --script FILE        scripted-frames mode: drive the monitor from a
//                        deterministic feed/key/resize/frame script and
//                        print the exact frames (golden-lockable; see
//                        docs/visualization.md)
//
// Flags:
//   --size WxH           frame size (default: the tty size, else 80x24)
//   --delay-ms N         --replay: pause between frames (default 0)
//   --idle-exit-ms N     --follow: exit after N ms with no new snapshot
//                        (default 0: keep tailing until 'q' or EOF+kill)
//
// Keys (tty modes): up/down (or k/j) select, enter drill into the selected
// thread's call paths, b back, t/d/p/v switch screens, s cycle the sort
// column, r reverse it, q quit.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/telemetry_stream.hpp"
#include "monitor/frame.hpp"
#include "monitor/script.hpp"
#include "monitor/term.hpp"
#include "support/cliflags.hpp"
#include "support/error.hpp"

using namespace numaprof;
using namespace numaprof::monitor;

namespace {

support::CliParser make_parser() {
  support::CliParser cli(
      "numa_top",
      "live terminal monitor over telemetry snapshot streams; "
      "operand: <trace.jsonl> (not with --follow)");
  cli.add_flag("--script", true,
               "scripted-frames mode: render frames per FILE's commands",
               "FILE");
  cli.add_flag("--replay", false, "re-render every snapshot in order");
  cli.add_flag("--follow", true, "tail a growing JSONL telemetry file",
               "PATH");
  cli.add_flag("--size", true, "frame size (default: tty size or 80x24)",
               "WxH");
  cli.add_flag("--delay-ms", true,
               "--replay: pause between frames (default 0)", "N");
  cli.add_flag("--idle-exit-ms", true,
               "--follow: exit after N ms without a new snapshot", "N");
  return cli;
}

TermSize frame_size(const support::CliParser& cli) {
  const auto text = cli.value("--size");
  if (!text) return detect_term_size(STDOUT_FILENO);
  const auto size = parse_term_size(*text);
  if (!size) cli.fail("--size expects WxH, e.g. 80x24");
  return *size;
}

int run_scripted(const support::CliParser& cli, const std::string& path) {
  const std::string script_path = *cli.value("--script");
  std::ifstream script(script_path);
  if (!script) {
    throw Error(ErrorKind::kMonitor, script_path, "script", 0,
                "cannot open script: " + script_path);
  }
  const core::TelemetryTrace trace =
      core::load_telemetry_trace_file(path);
  MonitorModel model;
  if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
  ScriptOptions options;
  const TermSize size = frame_size(cli);
  options.width = size.width;
  options.height = size.height;
  options.file = script_path;
  const ScriptResult result =
      run_script(model, trace.snapshots, script, options);
  std::cout << result.frames;
  return 0;
}

int run_replay(const support::CliParser& cli, const std::string& path) {
  const core::TelemetryTrace trace =
      core::load_telemetry_trace_file(path);
  MonitorModel model;
  if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
  const TermSize size = frame_size(cli);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  const unsigned delay_ms = cli.unsigned_value("--delay-ms", 0);
  RawTerminal raw(tty ? STDIN_FILENO : -1);
  std::size_t frames = 0;
  for (const support::TelemetrySnapshot& snapshot : trace.snapshots) {
    model.feed(snapshot);
    std::cout << paint_frame(model, size, tty, ++frames) << std::flush;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(delay_ms);
    do {
      if (tty) {
        const Key key = poll_key(STDIN_FILENO, 10);
        if (key != Key::kNone) {
          model.apply_key(key);
          std::cout << paint_frame(model, size, tty, ++frames) << std::flush;
        }
        if (model.quit_requested()) break;
      }
    } while (std::chrono::steady_clock::now() < deadline);
    if (model.quit_requested()) break;
  }
  // Leave the last frame up on a tty until quit, so a finished replay is
  // still inspectable.
  while (tty && !model.quit_requested()) {
    const Key key = poll_key(STDIN_FILENO, 50);
    if (key != Key::kNone) {
      model.apply_key(key);
      std::cout << paint_frame(model, size, tty, ++frames) << std::flush;
    }
  }
  if (tty) std::cout << ansi_leave() << std::flush;
  return 0;
}

int run_follow(const support::CliParser& cli) {
  const std::string path = *cli.value("--follow");
  std::ifstream in(path);
  if (!in) {
    throw Error(ErrorKind::kTelemetry, path, "follow", 0,
                "cannot open telemetry file: " + path);
  }
  const TermSize size = frame_size(cli);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  const unsigned idle_exit_ms = cli.unsigned_value("--idle-exit-ms", 0);
  RawTerminal raw(tty ? STDIN_FILENO : -1);
  core::TelemetryTrace trace;
  MonitorModel model;
  bool mechanism_set = false;
  std::size_t lineno = 0;
  std::size_t frames = 0;
  std::string line;  // the writer may end it in a later read
  std::string chunk;
  auto last_progress = std::chrono::steady_clock::now();
  while (!model.quit_requested()) {
    bool advanced = false;
    while (std::getline(in, chunk)) {
      line += chunk;
      if (in.eof()) break;  // no '\n' yet: hold the tail for the next read
      const bool snapshot =
          core::append_trace_line(trace, line, ++lineno, path);
      line.clear();
      if (snapshot) {
        if (!mechanism_set && trace.has_mechanism) {
          model.set_mechanism(trace.mechanism);
          mechanism_set = true;
        }
        model.feed(trace.snapshots.back());
        std::cout << paint_frame(model, size, tty, ++frames) << std::flush;
        advanced = true;
      }
    }
    in.clear();  // EOF for now; the writer may still append
    if (advanced) {
      last_progress = std::chrono::steady_clock::now();
    } else if (idle_exit_ms > 0 &&
               std::chrono::steady_clock::now() - last_progress >=
                   std::chrono::milliseconds(idle_exit_ms)) {
      break;
    }
    if (tty) {
      const Key key = poll_key(STDIN_FILENO, 50);
      if (key != Key::kNone) {
        model.apply_key(key);
        std::cout << paint_frame(model, size, tty, ++frames) << std::flush;
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (tty && frames > 0) std::cout << ansi_leave() << std::flush;
  return 0;
}

int run(const support::CliParser& cli) {
  const std::vector<std::string>& operands = cli.positional();
  if (cli.has("--follow")) {
    if (!operands.empty()) cli.fail("--follow takes no trace operand");
    if (cli.has("--script") || cli.has("--replay")) {
      cli.fail("--follow excludes --script/--replay");
    }
    return run_follow(cli);
  }
  if (operands.size() != 1) {
    cli.fail("expected exactly one <trace.jsonl> operand");
  }
  if (cli.has("--script")) {
    if (cli.has("--replay")) cli.fail("--script excludes --replay");
    return run_scripted(cli, operands[0]);
  }
  if (cli.has("--replay")) return run_replay(cli, operands[0]);

  // Default: one frame of the trace's final state.
  const core::TelemetryTrace trace =
      core::load_telemetry_trace_file(operands[0]);
  MonitorModel model;
  if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
  for (const support::TelemetrySnapshot& snapshot : trace.snapshots) {
    model.feed(snapshot);
  }
  const TermSize size = frame_size(cli);
  std::cout << model.render(size.width, size.height);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(make_parser(), argc, argv, run);
}
