// The numa_top monitor (src/monitor/): frame primitives, key decoding,
// the pure MonitorModel's screen/sort/drill semantics, scripted-frames
// error reporting, and the golden lock — two case-study traces recorded
// in-test, driven through the shared keystroke script at two terminal
// sizes, byte-identical across runs and against the checked-in frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/miniamg.hpp"
#include "apps/minilulesh.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "core/telemetry_stream.hpp"
#include "monitor/frame.hpp"
#include "monitor/model.hpp"
#include "monitor/script.hpp"
#include "monitor/term.hpp"
#include "numasim/topology.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace numaprof::monitor {
namespace {

using support::HotCounter;
using support::TelemetryCounter;
using support::TelemetryHub;
using support::TelemetrySnapshot;
using support::ThreadTelemetry;

TEST(MonitorFrame, FitLineClipsAndTrims) {
  EXPECT_EQ(fit_line("hello", 10), "hello");
  EXPECT_EQ(fit_line("hello", 3), "hel");
  EXPECT_EQ(fit_line("pad   ", 10), "pad");
  EXPECT_EQ(fit_line("cut at c  ", 8), "cut at c");
  EXPECT_EQ(fit_line("", 4), "");
}

TEST(MonitorFrame, RenderFrameIsExactlyHeightLines) {
  const std::string frame = render_frame({"a", "bb"}, 4, 4);
  EXPECT_EQ(frame, "a\nbb\n\n\n");
  // Extra lines are dropped, long lines clipped.
  EXPECT_EQ(render_frame({"abcdef", "x", "y"}, 3, 2), "abc\nx\n");
  EXPECT_EQ(rule(4), "----");
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_left("wide", 2), "wide");
}

TEST(MonitorKeys, NamesRoundTripAndDecode) {
  for (const char* name :
       {"up", "down", "enter", "back", "quit", "t", "d", "p", "v", "s",
        "r"}) {
    Key key = Key::kNone;
    ASSERT_TRUE(key_from_name(name, key)) << name;
    EXPECT_EQ(to_string(key), name);
  }
  Key key = Key::kNone;
  EXPECT_FALSE(key_from_name("bogus", key));

  EXPECT_EQ(decode_key_bytes("\x1b[A"), Key::kUp);
  EXPECT_EQ(decode_key_bytes("\x1b[B"), Key::kDown);
  EXPECT_EQ(decode_key_bytes("k"), Key::kUp);
  EXPECT_EQ(decode_key_bytes("j"), Key::kDown);
  EXPECT_EQ(decode_key_bytes("q"), Key::kQuit);
  EXPECT_EQ(decode_key_bytes("\r"), Key::kEnter);
  EXPECT_EQ(decode_key_bytes("\x7f"), Key::kBack);
  EXPECT_EQ(decode_key_bytes("\x1b"), Key::kNone);
  EXPECT_EQ(decode_key_bytes("z"), Key::kNone);
  EXPECT_EQ(decode_key_bytes(""), Key::kNone);
}

/// A two-thread, two-domain snapshot with enough signal to exercise
/// every screen.
TelemetrySnapshot model_snapshot() {
  TelemetryHub hub;
  hub.set_domain_count(2);
  support::TelemetryRing& r1 = hub.ring(1);
  r1.add(TelemetryCounter::kSamples, 100);
  r1.add(TelemetryCounter::kMemorySamples, 90);
  r1.add(TelemetryCounter::kMatchSamples, 60);
  r1.add(TelemetryCounter::kMismatchSamples, 30);
  r1.add(TelemetryCounter::kRemoteLatencyCycles, 3000);
  r1.add(TelemetryCounter::kInstructions, 9000);
  r1.add_domain_sample(0, false);
  r1.add_domain_sample(1, true);
  r1.add_hot(support::HotTableKind::kPages, 0x40, 1, true);
  r1.add_hot(support::HotTableKind::kVariables, 2, 1, true, "mesh[]");
  r1.add_hot(support::HotTableKind::kPaths, 5, 0, true, "main>step>calc");
  support::TelemetryRing& r2 = hub.ring(2);
  r2.add(TelemetryCounter::kSamples, 40);
  r2.add(TelemetryCounter::kMemorySamples, 35);
  r2.add(TelemetryCounter::kMatchSamples, 30);
  r2.add(TelemetryCounter::kMismatchSamples, 5);
  r2.add_hot(support::HotTableKind::kPaths, 9, 0, false, "main>init");
  return hub.snapshot(10000);
}

TEST(MonitorTerm, ParseTermSizeTakesDigitsXDigits) {
  const auto size = parse_term_size("120x40");
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(size->width, 120u);
  EXPECT_EQ(size->height, 40u);
  for (const char* bad : {"", "80", "80x", "x24", "0x24", "80x0", "80X24",
                          "+80x24", "-1x24", " 80x24", "80x 24", "80x24 ",
                          "80x24x", "99999999999999999999x24"}) {
    EXPECT_FALSE(parse_term_size(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(MonitorTerm, PaintFrameHeadsPlainFramesAndEntersAnsiOnce) {
  const MonitorModel model;
  const std::string frame = model.render(30, 5);
  EXPECT_EQ(paint_frame(model, {30, 5}, false, 7),
            "== frame 7 (30x5) ==\n" + frame);
  EXPECT_EQ(paint_frame(model, {30, 5}, true, 1),
            std::string(ansi_enter()) + ansi_frame(frame));
  EXPECT_EQ(paint_frame(model, {30, 5}, true, 2), ansi_frame(frame));
}

TEST(MonitorModel, RenderBeforeFirstSnapshotIsAWaitScreen) {
  MonitorModel model;
  const std::string frame = model.render(40, 5);
  EXPECT_NE(frame.find("waiting for telemetry"), std::string::npos) << frame;
  // Exactly 5 lines regardless of content.
  EXPECT_EQ(std::count(frame.begin(), frame.end(), '\n'), 5);
}

TEST(MonitorModel, ThreadsScreenSortsByRmaAndDrillsDown) {
  MonitorModel model;
  model.set_mechanism(pmu::Mechanism::kIbs);
  model.feed(model_snapshot());

  const std::string home = model.render(100, 24);
  EXPECT_NE(home.find("[threads]"), std::string::npos) << home;
  EXPECT_NE(home.find("RMAv"), std::string::npos) << home;  // sort marker
  // Default sort: RMA descending, so tid 1 (RMA 30) outranks tid 2.
  EXPECT_LT(home.find("> "), home.find("30"));

  // Enter on the top row drills into tid 1's call paths.
  model.apply_key(Key::kEnter);
  EXPECT_EQ(model.state().screen, Screen::kPaths);
  EXPECT_EQ(model.state().drill_tid, 1u);
  const std::string paths = model.render(100, 24);
  EXPECT_NE(paths.find("[call paths tid 1]"), std::string::npos) << paths;
  EXPECT_NE(paths.find("main>step>calc"), std::string::npos) << paths;
  EXPECT_EQ(paths.find("main>init"), std::string::npos) << paths;

  model.apply_key(Key::kBack);
  EXPECT_EQ(model.state().screen, Screen::kThreads);

  // Reversing the sort puts tid 2 on top; enter then drills into tid 2.
  model.apply_key(Key::kReverse);
  model.apply_key(Key::kEnter);
  EXPECT_EQ(model.state().drill_tid, 2u);
  EXPECT_NE(model.render(100, 24).find("main>init"), std::string::npos);
}

TEST(MonitorModel, SelectionClampsAndSortCyclesPerScreen) {
  MonitorModel model;
  model.feed(model_snapshot());

  model.apply_key(Key::kUp);  // already at the top: clamps
  EXPECT_EQ(model.state().selected, 0u);
  model.apply_key(Key::kDown);
  EXPECT_EQ(model.state().selected, 1u);
  model.apply_key(Key::kDown);  // two rows only: clamps at the last
  EXPECT_EQ(model.state().selected, 1u);

  const std::size_t threads_idx =
      static_cast<std::size_t>(Screen::kThreads);
  const std::size_t before = model.state().sort_col[threads_idx];
  model.apply_key(Key::kSortNext);
  EXPECT_EQ(model.state().sort_col[threads_idx], before + 1);

  // Each screen keeps its own sort state; switching screens resets the
  // selection but not the sort.
  model.apply_key(Key::kDomains);
  EXPECT_EQ(model.state().screen, Screen::kDomains);
  EXPECT_EQ(model.state().selected, 0u);
  EXPECT_EQ(model.state().sort_col[threads_idx], before + 1);
  EXPECT_FALSE(
      model.state().sort_desc[static_cast<std::size_t>(Screen::kDomains)]);

  model.apply_key(Key::kQuit);
  EXPECT_TRUE(model.quit_requested());
}

TEST(MonitorModel, HotScreensShowDomainsPagesAndVariables) {
  MonitorModel model;
  model.feed(model_snapshot());

  model.apply_key(Key::kDomains);
  const std::string domains = model.render(100, 24);
  EXPECT_NE(domains.find("TOPPAGE"), std::string::npos) << domains;
  EXPECT_NE(domains.find("0x40"), std::string::npos) << domains;

  model.apply_key(Key::kPages);
  const std::string pages = model.render(100, 24);
  EXPECT_NE(pages.find("[hot pages]"), std::string::npos) << pages;
  EXPECT_NE(pages.find("0x40"), std::string::npos) << pages;

  model.apply_key(Key::kVars);
  const std::string vars = model.render(100, 24);
  EXPECT_NE(vars.find("mesh[]"), std::string::npos) << vars;
}

TEST(MonitorModel, SummaryRatesGuardZeroElapsedIntervals) {
  TelemetryHub hub;
  hub.ring(0).add(TelemetryCounter::kSamples, 100);
  const TelemetrySnapshot first = hub.snapshot(1000);
  hub.ring(0).add(TelemetryCounter::kSamples, 50);
  const TelemetrySnapshot moved = hub.snapshot(3000);

  MonitorModel model;
  model.feed(first);
  model.feed(moved);
  const std::string rated = model.render(120, 10);
  EXPECT_NE(rated.find("samples 150 (+50 25.0/kc)"), std::string::npos)
      << rated;

  // Same-timestamp snapshot (a flush right after an emit): delta without
  // a rate, never inf/nan.
  hub.ring(0).add(TelemetryCounter::kSamples, 7);
  TelemetrySnapshot frozen = hub.snapshot(3000);
  model.feed(frozen);
  const std::string guarded = model.render(120, 10);
  EXPECT_NE(guarded.find("samples 157 (+7)"), std::string::npos) << guarded;
  EXPECT_EQ(guarded.find("inf"), std::string::npos) << guarded;
  EXPECT_EQ(guarded.find("nan"), std::string::npos) << guarded;
}

TEST(MonitorScript, ErrorsNameTheScriptLine) {
  const auto expect_script_error = [](const std::string& text,
                                      std::size_t line,
                                      const std::string& needle) {
    MonitorModel model;
    const std::vector<TelemetrySnapshot> snapshots(1);
    std::istringstream script(text);
    ScriptOptions options;
    options.file = "drive.script";
    try {
      run_script(model, snapshots, script, options);
      FAIL() << "expected a script error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMonitor);
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_EQ(e.file(), "drive.script");
      const std::string want = "line " + std::to_string(line);
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_script_error("frame\nwarp 9\n", 2, "unknown command");
  expect_script_error("# comment\n\nkey sideways\n", 3, "unknown key");
  expect_script_error("key\n", 1, "requires a name");
  expect_script_error("feed 0\n", 1, "positive integer");
  expect_script_error("feed 2\n", 1, "past end of trace");
  expect_script_error("resize 80\n", 1, "two positive integers");
  expect_script_error("frame now\n", 1, "trailing token");
}

TEST(MonitorScript, FeedKeyResizeFrameDriveTheModel) {
  MonitorModel model;
  std::vector<TelemetrySnapshot> snapshots;
  snapshots.push_back(model_snapshot());
  snapshots.push_back(model_snapshot());
  std::istringstream script(
      "feed          # one snapshot\n"
      "frame\n"
      "resize 20 4\n"
      "key d\n"
      "feed 1\n"
      "frame\n");
  ScriptOptions options;
  options.width = 30;
  options.height = 5;
  const ScriptResult result =
      run_script(model, snapshots, script, options);
  EXPECT_EQ(result.frame_count, 2u);
  EXPECT_EQ(model.snapshots_fed(), 2u);
  EXPECT_EQ(model.state().screen, Screen::kDomains);
  EXPECT_NE(result.frames.find("== frame 1 (30x5) =="), std::string::npos)
      << result.frames;
  EXPECT_NE(result.frames.find("== frame 2 (20x4) =="), std::string::npos)
      << result.frames;
}

// ---------------------------------------------------------------------------
// The golden lock: record two case-study traces in-test (deterministic
// simulator, deterministic streamer), drive them through the shared
// keystroke script at two terminal sizes, and compare byte-for-byte
// against the checked-in frames. Regenerate deliberately with
// NUMAPROF_REGEN_GOLDEN=1 and review the diff.

core::TelemetryTrace record_trace(const std::string& app) {
  simrt::Machine machine(numasim::test_machine(2, 4));
  TelemetryHub hub;
  machine.set_telemetry(&hub);

  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 50;
  cfg.event.min_sample_gap = 10'000;
  cfg.telemetry = &hub;
  core::Profiler profiler(machine, cfg);

  std::ostringstream jsonl;
  core::TelemetryStreamer::Config stream_cfg;
  stream_cfg.interval_instructions = 5000;
  stream_cfg.jsonl = &jsonl;
  stream_cfg.mechanism = profiler.sampler().mechanism();
  core::TelemetryStreamer streamer(hub, stream_cfg);
  machine.add_observer(streamer);

  if (app == "lulesh") {
    apps::run_minilulesh(machine, {.threads = 8,
                                   .pages_per_thread = 2,
                                   .timesteps = 4,
                                   .variant = apps::Variant::kBaseline});
  } else {
    apps::run_miniamg(machine, {.threads = 8,
                                .rows_per_thread = 128,
                                .nnz_per_row = 4,
                                .relax_sweeps = 2,
                                .matvec_sweeps = 1,
                                .variant = apps::Variant::kBaseline});
  }

  streamer.flush(machine.elapsed());
  machine.remove_observer(streamer);

  std::istringstream is(jsonl.str());
  return core::load_telemetry_trace(is);
}

std::string drive_frames(const core::TelemetryTrace& trace,
                         std::size_t width, std::size_t height) {
  const std::string script_path =
      NUMAPROF_SOURCE_DIR "/tests/golden/monitor/drive.script";
  std::ifstream script(script_path);
  EXPECT_TRUE(script) << "missing " << script_path;
  MonitorModel model;
  if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
  ScriptOptions options;
  options.width = width;
  options.height = height;
  options.file = script_path;
  return run_script(model, trace.snapshots, script, options).frames;
}

class MonitorGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(MonitorGolden, ScriptedFramesMatchCheckedInBytes) {
  const std::string app = GetParam();
  const core::TelemetryTrace trace = record_trace(app);
  ASSERT_GE(trace.snapshots.size(), 3u)
      << "the drive script feeds 3 snapshots";

  for (const auto& [width, height] :
       {std::pair<std::size_t, std::size_t>{80, 24}, {120, 40}}) {
    const std::string frames = drive_frames(trace, width, height);
    // Determinism first: a second run over the same trace must produce
    // the same bytes before they are worth locking.
    EXPECT_EQ(frames, drive_frames(trace, width, height));

    const std::string golden_path =
        std::string(NUMAPROF_SOURCE_DIR "/tests/golden/monitor/") + app +
        "_" + std::to_string(width) + "x" + std::to_string(height) + ".txt";
    if (std::getenv("NUMAPROF_REGEN_GOLDEN") != nullptr) {
      std::ofstream out(golden_path, std::ios::binary);
      out << frames;
      continue;
    }
    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << golden_path
                    << " (regenerate with NUMAPROF_REGEN_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(frames, want.str()) << golden_path;
  }
  if (std::getenv("NUMAPROF_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regenerated monitor goldens for " << app;
  }
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, MonitorGolden,
                         ::testing::Values("lulesh", "amg"));

// record_app --top in miniature: one TelemetryStreamer, the hub's only
// reader, feeds both the JSONL trace and, with `with_top`, the monitor
// sink, which paints one frame per snapshot it is handed.
struct LiveRun {
  std::string profile;
  std::string jsonl;
  std::string frames;
  std::uint64_t snapshots = 0;
  std::size_t painted = 0;
};

LiveRun record_live(bool with_top) {
  simrt::Machine machine(numasim::test_machine(2, 2));
  TelemetryHub hub;
  machine.set_telemetry(&hub);
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 50;
  cfg.telemetry = &hub;
  core::Profiler profiler(machine, cfg);

  LiveRun run;
  std::ostringstream jsonl;
  MonitorModel model;
  model.set_mechanism(pmu::Mechanism::kIbs);
  core::TelemetryStreamer::Config stream_cfg;
  stream_cfg.interval_instructions = 5000;
  stream_cfg.jsonl = &jsonl;
  if (with_top) {
    stream_cfg.sink = [&](const TelemetrySnapshot& snapshot) {
      model.feed(snapshot);
      run.frames += paint_frame(model, {60, 12}, false, ++run.painted);
    };
  }
  core::TelemetryStreamer streamer(hub, stream_cfg);
  machine.add_observer(streamer);
  apps::run_minilulesh(machine, {.threads = 4,
                                 .pages_per_thread = 2,
                                 .timesteps = 2,
                                 .variant = apps::Variant::kBaseline});
  streamer.flush(machine.elapsed());
  streamer.flush(machine.elapsed());  // flush-once: second is a no-op
  machine.remove_observer(streamer);
  run.snapshots = streamer.snapshots_emitted();
  run.jsonl = jsonl.str();
  std::ostringstream profile;
  core::ProfileWriter(ProfileFormat::kText)
      .write(profiler.snapshot(), profile);
  run.profile = profile.str();
  return run;
}

// Attaching the monitor sink must leave the recorded profile and the
// JSONL trace untouched.
TEST(MonitorLive, AttachedMonitorDoesNotPerturbTheProfile) {
  const LiveRun with = record_live(true);
  const LiveRun without = record_live(false);
  EXPECT_EQ(with.profile, without.profile)
      << "the monitor sink must be read-only with respect to the profile";
  EXPECT_EQ(with.jsonl, without.jsonl);
  EXPECT_EQ(without.painted, 0u);
  EXPECT_NE(with.frames.find("== frame 1 (60x12) =="), std::string::npos);
  EXPECT_NE(with.frames.find("numa_top - IBS"), std::string::npos)
      << with.frames;
}

// record_app --top and --telemetry-interval run on one clock: the monitor
// paints one frame per streamer snapshot, and exactly what paint_frame
// replays over the reloaded trace (numa_top --replay).
TEST(MonitorLive, PaintsOnTheTelemetryStreamersClock) {
  const LiveRun with = record_live(true);
  EXPECT_GT(with.snapshots, 2u);
  EXPECT_EQ(with.painted, with.snapshots);

  std::istringstream reload(with.jsonl);
  const core::TelemetryTrace trace = core::load_telemetry_trace(reload);
  ASSERT_EQ(trace.snapshots.size(), with.snapshots);
  MonitorModel replay;
  replay.set_mechanism(trace.mechanism);
  std::string replayed;
  std::size_t n = 0;
  for (const TelemetrySnapshot& snapshot : trace.snapshots) {
    replay.feed(snapshot);
    replayed += paint_frame(replay, {60, 12}, false, ++n);
  }
  EXPECT_EQ(with.frames, replayed);
}

}  // namespace
}  // namespace numaprof::monitor
