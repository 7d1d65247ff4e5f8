// Chrome trace-event / Perfetto JSON exporter.
//
// One JSON object with a "traceEvents" array, one event per line (stable,
// diffable). Timestamps are virtual Cycles written as the trace format's
// ts field — the timeline is exact relative to the run; the absolute unit
// shown by the viewer is nominal. DegradationEvents and first-touch
// records carry no timestamp in the profile, so their instant events are
// placed at ORDINAL positions (trace begin + record index); their args
// carry the payload.
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/export/export.hpp"
#include "core/export/writer_util.hpp"
#include "core/trace.hpp"
#include "pmu/config.hpp"
#include "support/table.hpp"

namespace numaprof::core {
namespace {

using export_detail::json_escape;
using support::format_fixed;

constexpr int kPid = 0;

/// Severity bucket of a mismatch fraction, named like the ASCII timeline's
/// glyph legend so the two renderings agree.
std::string_view severity_name(double fraction) noexcept {
  if (fraction < 0.25) return "local";
  if (fraction < 0.75) return "mixed";
  return "remote-heavy";
}

struct ThreadWindow {
  std::uint64_t samples = 0;
  std::uint64_t mismatches = 0;
};

void metadata_event(std::ostringstream& os, bool& first, std::uint64_t tid,
                    std::string_view kind, std::string_view args_body) {
  os << (first ? "" : ",\n") << "  {\"ph\":\"M\",\"pid\":" << kPid
     << ",\"tid\":" << tid << ",\"name\":\"" << kind << "\",\"args\":{"
     << args_body << "}}";
  first = false;
}

}  // namespace

std::string export_trace_json(const Analyzer& analyzer,
                              const ExportOptions& options) {
  const SessionData& data = analyzer.data();
  const std::uint64_t threads = data.thread_count();
  const std::uint64_t phases_tid = threads;      // synthetic phase track
  const std::uint64_t health_tid = threads + 1;  // synthetic health track
  const std::uint32_t count =
      options.timeline_windows == 0 ? 1 : options.timeline_windows;

  std::ostringstream os;
  os << "{\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{"
     << "\"machine\":\"" << json_escape(data.machine_name) << "\","
     << "\"mechanism\":\"" << pmu::to_string(data.mechanism) << "\","
     << "\"requestedMechanism\":\""
     << pmu::to_string(data.requested_mechanism) << "\","
     << "\"samplingPeriod\":" << data.sampling_period << ","
     << "\"threads\":" << threads << ","
     << "\"timeUnit\":\"virtual cycles\","
     << "\"instantTimestamps\":\"ordinal\"},\n\"traceEvents\":[\n";
  bool first = true;

  metadata_event(os, first, 0, "process_name",
                 "\"name\":\"numaprof " + json_escape(data.machine_name) +
                     " (" + std::string(pmu::to_string(data.mechanism)) +
                     ")\"");
  for (std::uint64_t tid = 0; tid < threads; ++tid) {
    metadata_event(os, first, tid, "thread_name",
                   "\"name\":\"thread " + std::to_string(tid) + "\"");
    metadata_event(os, first, tid, "thread_sort_index",
                   "\"sort_index\":" + std::to_string(tid));
  }
  metadata_event(os, first, phases_tid, "thread_name",
                 "\"name\":\"phases\"");
  metadata_event(os, first, phases_tid, "thread_sort_index",
                 "\"sort_index\":" + std::to_string(phases_tid));
  metadata_event(os, first, health_tid, "thread_name",
                 "\"name\":\"collection health\"");
  metadata_event(os, first, health_tid, "thread_sort_index",
                 "\"sort_index\":" + std::to_string(health_tid));

  TraceAnalysis analysis(data.trace);
  const numasim::Cycles begin = analysis.begin();
  if (!analysis.empty()) {
    const std::vector<TraceWindow> windows = analysis.windows(count);

    // Per-thread and per-domain window stats (TraceWindow aggregates over
    // all threads; the timeline tracks need the split).
    std::vector<std::vector<ThreadWindow>> per_thread(
        threads, std::vector<ThreadWindow>(count));
    std::vector<std::vector<std::uint64_t>> per_domain(
        count, std::vector<std::uint64_t>(data.domain_count, 0));
    for (const TraceEvent& e : data.trace) {
      const std::uint32_t index = analysis.window_index(e.time, count);
      if (e.tid < threads) {
        ThreadWindow& tw = per_thread[e.tid][index];
        ++tw.samples;
        tw.mismatches += e.mismatch ? 1 : 0;
      }
      if (e.home_domain < data.domain_count) {
        ++per_domain[index][e.home_domain];
      }
    }

    for (std::uint32_t w = 0; w < count; ++w) {
      const TraceWindow& window = windows[w];
      os << ",\n  {\"ph\":\"C\",\"pid\":" << kPid
         << ",\"tid\":0,\"ts\":" << window.begin
         << ",\"name\":\"mismatch fraction\",\"args\":{\"fraction\":"
         << format_fixed(window.mismatch_fraction(), 4) << "}}";
      os << ",\n  {\"ph\":\"C\",\"pid\":" << kPid
         << ",\"tid\":0,\"ts\":" << window.begin
         << ",\"name\":\"remote latency\",\"args\":{\"cycles\":"
         << format_fixed(window.remote_latency, 0) << "}}";
      os << ",\n  {\"ph\":\"C\",\"pid\":" << kPid
         << ",\"tid\":0,\"ts\":" << window.begin
         << ",\"name\":\"domain accesses\",\"args\":{";
      for (std::uint32_t dom = 0; dom < data.domain_count; ++dom) {
        os << (dom == 0 ? "" : ",") << "\"N" << dom
           << "\":" << per_domain[w][dom];
      }
      os << "}}";
      for (std::uint64_t tid = 0; tid < threads; ++tid) {
        const ThreadWindow& tw = per_thread[tid][w];
        if (tw.samples == 0) continue;
        const double fraction = static_cast<double>(tw.mismatches) /
                                static_cast<double>(tw.samples);
        os << ",\n  {\"ph\":\"X\",\"pid\":" << kPid << ",\"tid\":" << tid
           << ",\"ts\":" << window.begin
           << ",\"dur\":" << (window.end - window.begin) << ",\"name\":\""
           << severity_name(fraction) << "\",\"args\":{\"samples\":"
           << tw.samples << ",\"mismatches\":" << tw.mismatches
           << ",\"fraction\":" << format_fixed(fraction, 4) << "}}";
      }
    }

    for (const TracePhase& phase : analysis.phases(count)) {
      os << ",\n  {\"ph\":\"X\",\"pid\":" << kPid
         << ",\"tid\":" << phases_tid << ",\"ts\":" << phase.begin
         << ",\"dur\":" << (phase.end - phase.begin) << ",\"name\":\""
         << (phase.remote_heavy ? "remote-heavy phase" : "local phase")
         << "\",\"args\":{\"samples\":" << phase.samples << "}}";
    }
  }

  // Instant events at ordinal positions (the records carry no timestamp).
  std::uint64_t ordinal = 0;
  for (const DegradationEvent& e : data.degradations) {
    os << ",\n  {\"ph\":\"i\",\"pid\":" << kPid << ",\"tid\":" << health_tid
       << ",\"ts\":" << (begin + ordinal++) << ",\"s\":\"t\",\"name\":\"["
       << to_string(e.kind) << "] " << pmu::to_string(e.mechanism)
       << "\",\"args\":{\"value\":" << e.value << ",\"detail\":\""
       << json_escape(e.detail) << "\"}}";
  }
  ordinal = 0;
  for (const FirstTouchRecord& touch : data.first_touches) {
    const std::string variable =
        touch.variable < data.variables.size()
            ? data.variables[touch.variable].name
            : "variable " + std::to_string(touch.variable);
    os << ",\n  {\"ph\":\"i\",\"pid\":" << kPid << ",\"tid\":" << touch.tid
       << ",\"ts\":" << (begin + ordinal++) << ",\"s\":\"t\","
       << "\"name\":\"first touch " << json_escape(variable)
       << "\",\"args\":{\"domain\":" << touch.domain
       << ",\"page\":" << touch.page << "}}";
  }

  os << "\n]\n}\n";
  return os.str();
}

}  // namespace numaprof::core
