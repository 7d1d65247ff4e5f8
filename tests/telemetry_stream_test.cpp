// The telemetry sinks (core/telemetry_stream.hpp): JSONL round-trip
// fidelity, strict parse errors (numaprof::Error, kind kTelemetry, line
// numbers), the golden byte-identical "measurement health" pane, the
// degradation cross-check, and the TelemetryStreamer end to end against a
// live profiler run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/export/schema.hpp"
#include "core/profiler.hpp"
#include "core/telemetry_stream.hpp"
#include "numasim/topology.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace numaprof::core {
namespace {

using support::TelemetryCounter;
using support::TelemetryEvent;
using support::TelemetryEventKind;
using support::TelemetryHub;
using support::TelemetrySnapshot;

TelemetrySnapshot sample_snapshot() {
  TelemetryHub hub;
  hub.set_domain_count(2);
  support::TelemetryRing& r0 = hub.ring(0);
  r0.add(TelemetryCounter::kSamples, 100);
  r0.add(TelemetryCounter::kMemorySamples, 80);
  r0.add(TelemetryCounter::kDroppedSamples, 5);
  r0.add(TelemetryCounter::kMatchSamples, 60);
  r0.add(TelemetryCounter::kMismatchSamples, 20);
  r0.add_domain_sample(0, false);
  r0.add_domain_sample(1, true);
  support::TelemetryRing& r2 = hub.ring(2);
  r2.add(TelemetryCounter::kInstructions, 5000);
  TelemetryEvent event;
  event.kind = TelemetryEventKind::kMechanismFallback;
  event.tid = 0;
  event.time = 7;
  event.value = 5;
  event.set_detail("ibs -> soft-ibs \"quoted\"\n");
  r0.publish(event);
  return hub.snapshot(1234);
}

TEST(TelemetryJsonl, RoundTripsSnapshotAndEvents) {
  const TelemetrySnapshot snap = sample_snapshot();
  std::ostringstream os;
  write_snapshot_jsonl(snap, pmu::Mechanism::kSoftIbs, os);

  std::istringstream is(os.str());
  const TelemetryTrace trace = load_telemetry_trace(is);
  EXPECT_TRUE(trace.has_mechanism);
  EXPECT_EQ(trace.mechanism, pmu::Mechanism::kSoftIbs);
  ASSERT_EQ(trace.snapshots.size(), 1u);
  const TelemetrySnapshot& loaded = trace.snapshots[0];
  EXPECT_EQ(loaded.sequence, snap.sequence);
  EXPECT_EQ(loaded.time, 1234u);
  EXPECT_EQ(loaded.totals, snap.totals);
  EXPECT_EQ(loaded.domain_match, snap.domain_match);
  EXPECT_EQ(loaded.domain_mismatch, snap.domain_mismatch);
  ASSERT_EQ(loaded.threads.size(), 2u);
  EXPECT_EQ(loaded.threads[0].tid, 0u);
  EXPECT_EQ(loaded.threads[0].counters, snap.threads[0].counters);
  EXPECT_EQ(loaded.threads[1].tid, 2u);
  EXPECT_EQ(loaded.threads[1].counter(TelemetryCounter::kInstructions),
            5000u);

  // Events ride as separate lines; escaping survives the round trip.
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, TelemetryEventKind::kMechanismFallback);
  EXPECT_EQ(trace.events[0].time, 7u);
  EXPECT_EQ(trace.events[0].value, 5u);
  EXPECT_EQ(trace.events[0].detail_view(), "ibs -> soft-ibs \"quoted\"\n");
}

TEST(TelemetryJsonl, StatusLineSummarizesSnapshot) {
  const std::string line =
      format_status_line(sample_snapshot(), pmu::Mechanism::kIbs);
  EXPECT_NE(line.find("[telemetry #1 t=1234] IBS"), std::string::npos) << line;
  EXPECT_NE(line.find("samples=100"), std::string::npos) << line;
  EXPECT_NE(line.find("drop=4.8%"), std::string::npos) << line;
  EXPECT_NE(line.find("M_l/M_r=60/20"), std::string::npos) << line;
  EXPECT_NE(line.find("events=1"), std::string::npos) << line;
}

TEST(TelemetryJsonl, MalformedLinesThrowTelemetryErrors) {
  const auto expect_parse_error = [](const std::string& text,
                                     const std::string& needle) {
    std::istringstream is(text);
    try {
      load_telemetry_trace(is);
      FAIL() << "expected a parse error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTelemetry);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_parse_error("{\"type\":\"snapshot\"", "line 1");
  expect_parse_error("\n{broken", "line 2");
  expect_parse_error("[1,2,3]", "must be a JSON object");
  expect_parse_error("{\"t\":1}", "require a string \"type\"");
  expect_parse_error("{\"type\":\"event\",\"t\":1}",
                     "require a string \"kind\"");
  expect_parse_error("{\"type\":\"event\",\"kind\":\"bogus\"}",
                     "unknown event kind");
  expect_parse_error("{\"type\":\"snapshot\",\"t\":-4}", "non-negative");
  expect_parse_error("{\"type\":\"snapshot\",\"mechanism\":\"x86\"}",
                     "unknown mechanism");
}

TEST(TelemetryJsonl, ToleratesUnknownKeysAndLineTypes) {
  std::istringstream is(
      "{\"type\":\"future-record\",\"x\":1}\n"
      "\n"
      "{\"type\":\"snapshot\",\"seq\":3,\"t\":9,\"totals\":"
      "{\"samples\":4,\"never-heard-of-it\":7},\"new-key\":[1,2]}\n");
  const TelemetryTrace trace = load_telemetry_trace(is);
  EXPECT_FALSE(trace.has_mechanism);
  ASSERT_EQ(trace.snapshots.size(), 1u);
  EXPECT_EQ(trace.snapshots[0].sequence, 3u);
  EXPECT_EQ(trace.snapshots[0].total(TelemetryCounter::kSamples), 4u);
  EXPECT_TRUE(trace.events.empty());
}

TEST(TelemetryJsonl, MissingFileThrowsWithPath) {
  try {
    load_telemetry_trace_file("/nonexistent/telemetry.jsonl");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTelemetry);
    EXPECT_EQ(e.file(), "/nonexistent/telemetry.jsonl");
  }
}

TEST(TelemetryTraceFixture, FinalSnapshotIsLastInFileOrder) {
  const TelemetryTrace empty;
  EXPECT_EQ(empty.final_snapshot().time, 0u);
  EXPECT_TRUE(empty.final_snapshot().threads.empty());

  const TelemetryTrace trace = load_telemetry_trace_file(
      NUMAPROF_SOURCE_DIR "/tests/golden/telemetry_trace.jsonl");
  ASSERT_EQ(trace.snapshots.size(), 2u);
  EXPECT_EQ(trace.events.size(), 5u);
  EXPECT_EQ(trace.final_snapshot().time, 240000u);
  EXPECT_EQ(trace.final_snapshot().total(TelemetryCounter::kSamples), 1280u);
}

/// A profile whose degradation record agrees with the fixture trace:
/// one unavailable probe, one fallback, one retune, and sample faults.
SessionData matching_profile() {
  SessionData data;
  data.mechanism = pmu::Mechanism::kSoftIbs;
  DegradationEvent event;
  event.kind = DegradationKind::kMechanismUnavailable;
  event.mechanism = pmu::Mechanism::kIbs;
  data.degradations.push_back(event);
  event.kind = DegradationKind::kMechanismFallback;
  event.mechanism = pmu::Mechanism::kSoftIbs;
  data.degradations.push_back(event);
  event.kind = DegradationKind::kPeriodRetuneStarvation;
  event.value = 4096;
  data.degradations.push_back(event);
  event.kind = DegradationKind::kSampleFaults;
  event.value = 66;
  data.degradations.push_back(event);
  return data;
}

// The golden lock: the health pane (with and without the profile
// cross-check) must render byte-identically from the fixed fixture
// trace. Regenerate deliberately with NUMAPROF_REGEN_GOLDEN=1 and review
// the diff.
TEST(TelemetryHealthPane, GoldenRendering) {
  const TelemetryTrace trace = load_telemetry_trace_file(
      NUMAPROF_SOURCE_DIR "/tests/golden/telemetry_trace.jsonl");
  const SessionData profile = matching_profile();
  const std::string rendered = render_health_pane(trace) + "\n" +
                               render_health_pane(trace, &profile);

  const std::string golden_path =
      NUMAPROF_SOURCE_DIR "/tests/golden/telemetry_health.txt";
  if (std::getenv("NUMAPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << rendered;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (regenerate with NUMAPROF_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(rendered, want.str());
}

TEST(TelemetryHealthPane, DeduplicatesRepeatedIdenticalEvents) {
  // A watchdog that retunes the same way N times renders one row with an
  // "(xN)" suffix; the heading still reports the raw event count.
  TelemetryTrace trace;
  TelemetryEvent retune;
  retune.kind = TelemetryEventKind::kPeriodRetune;
  retune.tid = 1;
  retune.time = 500;
  retune.value = 2048;
  retune.set_detail("period 4096 -> 2048");
  trace.events.push_back(retune);
  trace.events.push_back(retune);
  trace.events.push_back(retune);
  TelemetryEvent start;
  start.kind = TelemetryEventKind::kThreadStart;
  start.tid = 3;
  start.time = 90;
  trace.events.push_back(start);

  const std::string pane = render_health_pane(trace);
  EXPECT_NE(pane.find("events (4):"), std::string::npos) << pane;
  EXPECT_EQ(pane.find("period 4096 -> 2048"),
            pane.rfind("period 4096 -> 2048"))
      << pane;
  EXPECT_NE(pane.find("period 4096 -> 2048 (x3)"), std::string::npos) << pane;
  EXPECT_NE(pane.find("[thread-start] t=90 tid=3"), std::string::npos) << pane;
  EXPECT_EQ(pane.find("tid=3 (x"), std::string::npos) << pane;

  // Events differing in any field (here: time) stay separate rows.
  TelemetryEvent later = retune;
  later.time = 900;
  trace.events.push_back(later);
  const std::string split = render_health_pane(trace);
  EXPECT_NE(split.find("t=900"), std::string::npos) << split;
  EXPECT_NE(split.find("(x3)"), std::string::npos) << split;
}

TEST(TelemetryHealthPane, CrossCheckFlagsDisagreement) {
  const TelemetryTrace trace = load_telemetry_trace_file(
      NUMAPROF_SOURCE_DIR "/tests/golden/telemetry_trace.jsonl");
  SessionData profile = matching_profile();
  const std::string agree = render_health_pane(trace, &profile);
  EXPECT_NE(agree.find("mechanism-fallback: telemetry 1, profile 1 [ok]"),
            std::string::npos)
      << agree;
  EXPECT_NE(agree.find("verdict: telemetry stream and profile degradations "
                       "agree"),
            std::string::npos)
      << agree;

  // Remove the fallback record: the pane must call out the mismatch.
  profile.degradations.erase(profile.degradations.begin() + 1);
  const std::string disagree = render_health_pane(trace, &profile);
  EXPECT_NE(disagree.find("mechanism-fallback: telemetry 1, profile 0 [!]"),
            std::string::npos)
      << disagree;
  EXPECT_NE(disagree.find("MISMATCH"), std::string::npos) << disagree;
}

// End to end: a profiler run with a live hub attached streams status
// lines and a JSONL trace whose reload cross-checks cleanly against the
// profile it was recorded with.
TEST(TelemetryStreamerTest, StreamsLiveRunAndCrossChecksCleanly) {
  simrt::Machine machine(numasim::test_machine(2, 2));
  TelemetryHub hub;
  machine.set_telemetry(&hub);

  ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 10;
  cfg.telemetry = &hub;
  Profiler profiler(machine, cfg);

  std::ostringstream status;
  std::ostringstream jsonl;
  TelemetryStreamer::Config stream_cfg;
  stream_cfg.interval_instructions = 500;
  stream_cfg.status = &status;
  stream_cfg.jsonl = &jsonl;
  stream_cfg.mechanism = profiler.sampler().mechanism();
  TelemetryStreamer streamer(hub, stream_cfg);
  machine.add_observer(streamer);

  simos::VAddr data = 0;
  parallel_region(machine, 1, "init", {},
                  [&](simrt::SimThread& t, std::uint32_t) -> simrt::Task {
                    data = t.malloc(4 * simos::kPageBytes, "shared");
                    for (std::uint64_t i = 0; i < 4 * simos::kPageBytes;
                         i += 64) {
                      t.store(data + i);
                    }
                    co_return;
                  });
  parallel_region(machine, 4, "work", {},
                  [&](simrt::SimThread& t, std::uint32_t index) -> simrt::Task {
                    for (std::uint64_t i = 0; i < 512; ++i) {
                      t.load(data + ((index * 512 + i) * 64) %
                                        (4 * simos::kPageBytes));
                      co_await t.tick();
                    }
                  });

  streamer.flush(machine.elapsed());
  machine.remove_observer(streamer);
  const SessionData profile = profiler.snapshot();

  EXPECT_GE(streamer.snapshots_emitted(), 2u);
  EXPECT_NE(status.str().find("[telemetry #1"), std::string::npos);

  std::istringstream is(jsonl.str());
  const TelemetryTrace trace = load_telemetry_trace(is);
  EXPECT_EQ(trace.snapshots.size(), streamer.snapshots_emitted());
  const TelemetrySnapshot& last = trace.final_snapshot();
  EXPECT_GT(last.total(TelemetryCounter::kSamples), 0u);
  EXPECT_GT(last.total(TelemetryCounter::kInstructions), 0u);
  EXPECT_GT(last.total(TelemetryCounter::kFirstTouchTraps), 0u);
  EXPECT_GT(last.total(TelemetryCounter::kHeapRegistrations), 0u);
  // The live M_l/M_r mirror the profile's program totals exactly.
  EXPECT_EQ(last.total(TelemetryCounter::kMatchSamples) +
                last.total(TelemetryCounter::kMismatchSamples),
            last.total(TelemetryCounter::kMemorySamples));
  // Five threads ran (init + 4 workers observed as tids).
  EXPECT_GE(last.threads.size(), 4u);

  const std::string pane = render_health_pane(trace, &profile);
  EXPECT_NE(pane.find("verdict: telemetry stream and profile degradations "
                      "agree"),
            std::string::npos)
      << pane;
}

// Satellite: the status line's interval rate columns. With a previous
// snapshot the samples column carries "(+delta rate/kc)" and mem a bare
// "(+delta)"; a zero-length interval (same timestamp) keeps the delta but
// must never divide by zero into inf/nan.
TEST(TelemetryJsonl, StatusLineCarriesIntervalRates) {
  TelemetryHub hub;
  hub.ring(0).add(TelemetryCounter::kSamples, 100);
  hub.ring(0).add(TelemetryCounter::kMemorySamples, 40);
  const TelemetrySnapshot first = hub.snapshot(1000);
  hub.ring(0).add(TelemetryCounter::kSamples, 50);
  hub.ring(0).add(TelemetryCounter::kMemorySamples, 10);
  const TelemetrySnapshot second = hub.snapshot(3000);

  const std::string line =
      format_status_line(second, pmu::Mechanism::kIbs, &first);
  EXPECT_NE(line.find("samples=150 (+50 25.0/kc)"), std::string::npos)
      << line;
  EXPECT_NE(line.find("mem=50 (+10)"), std::string::npos) << line;

  // Without a previous snapshot the 3-arg overload matches the 2-arg one.
  EXPECT_EQ(format_status_line(second, pmu::Mechanism::kIbs, nullptr),
            format_status_line(second, pmu::Mechanism::kIbs));
}

TEST(TelemetryJsonl, StatusLineZeroElapsedIntervalOmitsRate) {
  TelemetryHub hub;
  hub.ring(0).add(TelemetryCounter::kSamples, 100);
  const TelemetrySnapshot first = hub.snapshot(5000);
  hub.ring(0).add(TelemetryCounter::kSamples, 7);
  // Same timestamp: exactly what a flush right after a periodic emit
  // produces.
  const TelemetrySnapshot second = hub.snapshot(5000);

  const std::string line =
      format_status_line(second, pmu::Mechanism::kIbs, &first);
  EXPECT_NE(line.find("samples=107 (+7)"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("/kc"), std::string::npos) << line;

  // Time moving backwards (clock skew across merged streams) is treated
  // the same as zero-elapsed.
  TelemetrySnapshot earlier = second;
  earlier.time = 4000;
  const std::string skew =
      format_status_line(earlier, pmu::Mechanism::kIbs, &first);
  EXPECT_EQ(skew.find("inf"), std::string::npos) << skew;
  EXPECT_EQ(skew.find("/kc"), std::string::npos) << skew;
}

// Satellite: the live status-line event echo collapses identical repeats
// into "(xN)" exactly like the health pane.
TEST(TelemetryJsonl, FormatEventLinesDeduplicatesRepeats) {
  std::vector<TelemetryEvent> events;
  TelemetryEvent retune;
  retune.kind = TelemetryEventKind::kPeriodRetune;
  retune.tid = 2;
  retune.time = 100;
  retune.value = 1024;
  retune.set_detail("period 2048 -> 1024");
  events.push_back(retune);
  events.push_back(retune);
  events.push_back(retune);
  TelemetryEvent start;
  start.kind = TelemetryEventKind::kThreadStart;
  start.tid = 9;
  start.time = 5;
  events.push_back(start);

  const std::vector<std::string> lines = format_event_lines(events);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("period 2048 -> 1024 (x3)"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("tid=9"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[1].find("(x"), std::string::npos) << lines[1];
}

TEST(TelemetryJsonl, StreamerEchoesDedupedEventsBelowStatusLine) {
  TelemetryHub hub;
  TelemetryEvent degraded;
  degraded.kind = TelemetryEventKind::kIngestDegraded;
  degraded.tid = 1;
  degraded.time = 50;
  degraded.value = 1;
  degraded.set_detail("wal append failed");
  hub.ring(1).publish(degraded);
  hub.ring(1).publish(degraded);

  std::ostringstream status;
  TelemetryStreamer::Config cfg;
  cfg.status = &status;
  TelemetryStreamer streamer(hub, cfg);
  streamer.flush(60);

  const std::string text = status.str();
  EXPECT_NE(text.find("[telemetry #1"), std::string::npos) << text;
  EXPECT_NE(text.find("(x2)"), std::string::npos) << text;
}

// Satellite: flush emits the final partial interval exactly once.
TEST(TelemetryStreamerTest, DoubleFlushEmitsFinalIntervalOnce) {
  TelemetryHub hub;
  hub.ring(0).add(TelemetryCounter::kSamples, 3);
  std::ostringstream jsonl;
  TelemetryStreamer::Config cfg;
  cfg.jsonl = &jsonl;
  TelemetryStreamer streamer(hub, cfg);

  streamer.flush(100);
  EXPECT_EQ(streamer.snapshots_emitted(), 1u);
  streamer.flush(100);
  streamer.flush(200);  // still nothing accumulated since the last emit
  EXPECT_EQ(streamer.snapshots_emitted(), 1u);

  std::istringstream is(jsonl.str());
  EXPECT_EQ(load_telemetry_trace(is).snapshots.size(), 1u);

  // New activity (observed instructions) re-arms the flush.
  hub.ring(0).add(TelemetryCounter::kSamples, 1);
  simrt::Machine machine(numasim::test_machine(2, 2));
  machine.add_observer(streamer);
  parallel_region(machine, 1, "tick", {},
                  [&](simrt::SimThread& t, std::uint32_t) -> simrt::Task {
                    t.exec(10);  // below the interval: no periodic emit
                    co_return;
                  });
  machine.remove_observer(streamer);
  streamer.flush(machine.elapsed());
  EXPECT_EQ(streamer.snapshots_emitted(), 2u);
}

TEST(TelemetryStreamerTest, FlushOnIntervalBoundaryIsNoOp) {
  // When the run ends exactly on an interval boundary the periodic emit
  // already reported everything; the defensive flush must not duplicate
  // the final snapshot.
  TelemetryHub hub;
  std::ostringstream jsonl;
  TelemetryStreamer::Config cfg;
  cfg.interval_instructions = 10;
  cfg.jsonl = &jsonl;
  TelemetryStreamer streamer(hub, cfg);

  simrt::Machine machine(numasim::test_machine(2, 2));
  machine.add_observer(streamer);
  parallel_region(machine, 1, "work", {},
                  [&](simrt::SimThread& t, std::uint32_t) -> simrt::Task {
                    t.exec(40);  // lands exactly on an interval boundary
                    co_return;
                  });
  machine.remove_observer(streamer);
  const std::uint64_t periodic = streamer.snapshots_emitted();
  ASSERT_GT(periodic, 0u);

  streamer.flush(machine.elapsed());
  const std::uint64_t after = streamer.snapshots_emitted();
  EXPECT_TRUE(after == periodic || after == periodic + 1);
  streamer.flush(machine.elapsed());
  EXPECT_EQ(streamer.snapshots_emitted(), after);
}

// Schema v2: per-domain hot-page/hot-variable rows and per-thread hot
// call paths survive the JSONL round trip.
TEST(TelemetryJsonl, HotCountersRoundTrip) {
  TelemetryHub hub;
  support::TelemetryRing& ring = hub.ring(3);
  for (int i = 0; i < 5; ++i) {
    ring.add_hot(support::HotTableKind::kPages, 0x40, 1, i % 2 == 0);
  }
  ring.add_hot(support::HotTableKind::kVariables, 7, 0, true, "matrix[]");
  ring.add_hot(support::HotTableKind::kPaths, 12, 0, false,
               "main>solve>relax");
  const TelemetrySnapshot snap = hub.snapshot(999);
  ASSERT_EQ(snap.hot_pages.size(), 1u);
  ASSERT_EQ(snap.hot_vars.size(), 1u);
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].hot_paths.size(), 1u);

  std::ostringstream os;
  write_snapshot_jsonl(snap, pmu::Mechanism::kPebs, os);
  EXPECT_NE(os.str().find("\"v\":2"), std::string::npos);
  std::istringstream is(os.str());
  const TelemetryTrace trace = load_telemetry_trace(is);
  ASSERT_EQ(trace.snapshots.size(), 1u);
  const TelemetrySnapshot& loaded = trace.snapshots[0];
  EXPECT_EQ(loaded.hot_pages, snap.hot_pages);
  EXPECT_EQ(loaded.hot_vars, snap.hot_vars);
  ASSERT_EQ(loaded.threads.size(), 1u);
  EXPECT_EQ(loaded.threads[0].hot_paths, snap.threads[0].hot_paths);
  EXPECT_EQ(loaded.hot_vars[0].label, "matrix[]");
  EXPECT_EQ(loaded.threads[0].hot_paths[0].label, "main>solve>relax");
}

// Labels holding CR and a raw control byte are escaped on the way out and
// read back byte-exact; the JSONL line stays one valid JSON document.
TEST(TelemetryJsonl, ControlCharLabelsRoundTripByteExact) {
  const std::string label = "var\r\x01" "end";
  TelemetryHub hub;
  hub.ring(0).add_hot(support::HotTableKind::kVariables, 7, 0, true, label);
  const TelemetrySnapshot snap = hub.snapshot(5);
  ASSERT_EQ(snap.hot_vars.size(), 1u);
  ASSERT_EQ(snap.hot_vars[0].label, label);

  std::ostringstream os;
  write_snapshot_jsonl(snap, os);
  const std::string line = os.str().substr(0, os.str().find('\n'));
  EXPECT_EQ(line.find('\r'), std::string::npos) << line;
  const std::vector<std::string> problems = json_well_formed(line);
  EXPECT_TRUE(problems.empty()) << problems.front();
  std::istringstream is(os.str());
  const TelemetryTrace trace = load_telemetry_trace(is);
  ASSERT_EQ(trace.snapshots.size(), 1u);
  ASSERT_EQ(trace.snapshots[0].hot_vars.size(), 1u);
  EXPECT_EQ(trace.snapshots[0].hot_vars[0].label, label);
}

// The reader is the shared core::parse_json: standard JSON per line, with
// failures still reported as kTelemetry errors naming the line.
TEST(TelemetryJsonl, LinesFollowTheSharedJsonGrammar) {
  TelemetryTrace trace;
  // CR (a CRLF file read line by line) is whitespace; \b and \f decode.
  EXPECT_TRUE(append_trace_line(
      trace, "{\"type\":\"snapshot\",\"seq\":1,\"t\":2}\r", 1));
  EXPECT_FALSE(append_trace_line(
      trace,
      "{\"type\":\"event\",\"kind\":\"thread-start\",\"detail\":\"a\\bb\\f\"}",
      2));
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].detail_view(), "a\bb\f");
  for (const std::string bad :
       {"{\"type\":\"snapshot\",\"t\":+5}", "{\"type\":\"snapshot\",\"t\":1.}",
        "{\"type\":\"snapshot\",\"label\":\"a\x01\"}"}) {
    try {
      append_trace_line(trace, bad, 9);
      FAIL() << "expected a parse error for: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTelemetry);
      EXPECT_EQ(e.line(), 9u);
    }
  }
}

// Every malformed hot-* shape names the 1-based line, both in
// the message and in the structured line() accessor.
TEST(TelemetryJsonl, MalformedHotShapesNameTheLine) {
  const auto expect_error_on_line = [](const std::string& text,
                                       std::size_t line,
                                       const std::string& needle) {
    std::istringstream is(text);
    try {
      load_telemetry_trace(is);
      FAIL() << "expected a parse error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTelemetry);
      EXPECT_EQ(e.line(), line) << e.what();
      const std::string want = "line " + std::to_string(line);
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error_on_line(
      "{\"type\":\"snapshot\",\"t\":1,\"hot-pages\":7}\n", 1, "array");
  expect_error_on_line(
      "\n{\"type\":\"snapshot\",\"t\":1,\"hot-vars\":{\"k\":1}}\n", 2,
      "array");
  expect_error_on_line(
      "{\"type\":\"snapshot\",\"t\":1,\"hot-pages\":[4]}\n", 1, "object");
  expect_error_on_line(
      "{\"type\":\"snapshot\",\"t\":1,\"hot-vars\":[{\"label\":3}]}\n", 1,
      "string");
  expect_error_on_line(
      "{\"type\":\"snapshot\",\"t\":1,\"threads\":[{\"tid\":0,"
      "\"hot-paths\":\"x\"}]}\n",
      1, "array");
  expect_error_on_line(
      "{\"type\":\"snapshot\",\"t\":1,\"hot-pages\":[{\"count\":-1}]}\n", 1,
      "non-negative");
}

TEST(TelemetryJsonl, AppendTraceLineReportsSnapshotAdds) {
  TelemetryTrace trace;
  EXPECT_FALSE(append_trace_line(trace, "", 1));
  EXPECT_FALSE(append_trace_line(
      trace, "{\"type\":\"event\",\"kind\":\"thread-start\",\"t\":1}", 2));
  EXPECT_TRUE(append_trace_line(
      trace, "{\"type\":\"snapshot\",\"seq\":1,\"t\":10}", 3));
  EXPECT_FALSE(
      append_trace_line(trace, "{\"type\":\"future-thing\"}", 4));
  EXPECT_EQ(trace.snapshots.size(), 1u);
  EXPECT_EQ(trace.events.size(), 1u);

  try {
    append_trace_line(trace, "{broken", 41, "spool.jsonl");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTelemetry);
    EXPECT_EQ(e.line(), 41u);
    EXPECT_NE(std::string(e.what()).find("line 41"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace numaprof::core
