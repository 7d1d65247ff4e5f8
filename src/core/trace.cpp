#include "core/trace.hpp"

#include <algorithm>
#include <functional>

namespace numaprof::core {

TraceAnalysis::TraceAnalysis(const std::vector<TraceEvent>& events)
    : events_(&events) {
  for (const TraceEvent& e : events) {
    if (begin_ == 0 || e.time < begin_) begin_ = e.time;
    end_ = std::max(end_, e.time);
  }
}

std::vector<TraceWindow> TraceAnalysis::bucket(
    std::uint32_t count,
    const std::function<bool(const TraceEvent&)>& filter) const {
  if (count == 0) count = 1;
  std::vector<TraceWindow> windows(count);
  const numasim::Cycles span = end_ > begin_ ? end_ - begin_ : 1;
  for (std::uint32_t w = 0; w < count; ++w) {
    windows[w].begin = begin_ + span * w / count;
    windows[w].end = begin_ + span * (w + 1) / count;
  }
  for (const TraceEvent& e : *events_) {
    if (!filter(e)) continue;
    TraceWindow& window = windows[window_index(e.time, count)];
    ++window.samples;
    window.mismatches += e.mismatch;
    window.total_latency += e.latency;
    if (e.remote) window.remote_latency += e.latency;
  }
  return windows;
}

std::uint32_t TraceAnalysis::window_index(numasim::Cycles time,
                                          std::uint32_t count) const noexcept {
  const numasim::Cycles span = end_ > begin_ ? end_ - begin_ : 1;
  const auto index = static_cast<std::uint32_t>(
      static_cast<unsigned __int128>(time - begin_) * count / (span + 1));
  return std::min(index, count - 1);
}

std::vector<TraceWindow> TraceAnalysis::windows(std::uint32_t count) const {
  return bucket(count, [](const TraceEvent&) { return true; });
}

std::vector<TraceWindow> TraceAnalysis::windows_for(
    VariableId variable, std::uint32_t count) const {
  return bucket(count, [variable](const TraceEvent& e) {
    return e.variable == variable;
  });
}

std::vector<TracePhase> TraceAnalysis::phases(std::uint32_t window_count,
                                              double threshold) const {
  std::vector<TracePhase> result;
  for (const TraceWindow& window : windows(window_count)) {
    const bool heavy =
        window.samples > 0 && window.mismatch_fraction() > threshold;
    if (!result.empty() &&
        (window.samples == 0 || result.back().remote_heavy == heavy)) {
      // Extend the current phase (sample-less windows are neutral).
      result.back().end = window.end;
      result.back().samples += window.samples;
      continue;
    }
    if (window.samples == 0 && result.empty()) continue;
    result.push_back(TracePhase{.begin = window.begin,
                                .end = window.end,
                                .remote_heavy = heavy,
                                .samples = window.samples});
  }
  return result;
}

std::string TraceAnalysis::timeline(std::uint32_t window_count) const {
  std::string line;
  line.reserve(window_count);
  for (const TraceWindow& window : windows(window_count)) {
    if (window.samples == 0) {
      line.push_back(' ');
    } else {
      const double f = window.mismatch_fraction();
      line.push_back(f < 0.25 ? '.' : f < 0.5 ? '-' : f < 0.75 ? '+' : '#');
    }
  }
  return line;
}

}  // namespace numaprof::core
