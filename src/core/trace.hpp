// Trace-based measurement: time-varying NUMA behaviour (§10 future work
// item 3, implemented here as an extension).
//
// Profiles aggregate over the whole run; a trace keeps each memory
// sample's virtual timestamp so analysis can show HOW NUMA behaviour
// evolves — e.g. a local serial-initialization phase followed by a
// remote-heavy parallel phase, or a fix shifting the steady state. The
// recorder stores compact per-sample events; TraceAnalysis buckets them
// into fixed time windows and segments the run into phases.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/datacentric.hpp"
#include "numasim/types.hpp"

namespace numaprof::core {

/// One traced memory sample (compact; no call path — the profile already
/// has aggregated paths, the trace adds the time axis).
struct TraceEvent {
  numasim::Cycles time = 0;
  simrt::ThreadId tid = 0;
  VariableId variable = 0;
  std::uint32_t home_domain = 0;
  bool mismatch = false;       // move_pages-based M_r classification
  bool remote = false;         // data-source-based (latency) classification
  std::uint32_t latency = 0;   // 0 when the mechanism reports none
};

/// Statistics of one time window.
struct TraceWindow {
  numasim::Cycles begin = 0;
  numasim::Cycles end = 0;
  std::uint64_t samples = 0;
  std::uint64_t mismatches = 0;
  double remote_latency = 0.0;
  double total_latency = 0.0;

  double mismatch_fraction() const noexcept {
    return samples ? static_cast<double>(mismatches) /
                         static_cast<double>(samples)
                   : 0.0;
  }
};

/// A contiguous run of windows with homogeneous NUMA behaviour.
struct TracePhase {
  numasim::Cycles begin = 0;
  numasim::Cycles end = 0;
  bool remote_heavy = false;  // mismatch fraction above the threshold
  std::uint64_t samples = 0;
};

class TraceAnalysis {
 public:
  /// `events` must be available for the analysis' lifetime.
  explicit TraceAnalysis(const std::vector<TraceEvent>& events);

  bool empty() const noexcept { return events_->empty(); }
  numasim::Cycles begin() const noexcept { return begin_; }
  numasim::Cycles end() const noexcept { return end_; }

  /// Buckets the run into `count` equal windows of virtual time.
  std::vector<TraceWindow> windows(std::uint32_t count) const;

  /// Windows restricted to one variable's samples.
  std::vector<TraceWindow> windows_for(VariableId variable,
                                       std::uint32_t count) const;

  /// Merges consecutive windows into phases: a window is remote-heavy when
  /// its mismatch fraction exceeds `threshold`. Windows without samples
  /// extend the current phase.
  std::vector<TracePhase> phases(std::uint32_t window_count,
                                 double threshold = 0.5) const;

  /// ASCII timeline: one character per window encoding the mismatch
  /// fraction (' ' none, '.' <25%, '-' <50%, '+' <75%, '#' >=75%).
  std::string timeline(std::uint32_t window_count = 64) const;

  /// Index of the window holding virtual time `time` when the run is cut
  /// into `count` (>= 1) equal windows. Every per-window view (windows(),
  /// the trace export's per-thread and per-domain tracks) uses it, so
  /// their windows line up exactly.
  std::uint32_t window_index(numasim::Cycles time,
                             std::uint32_t count) const noexcept;

 private:
  std::vector<TraceWindow> bucket(
      std::uint32_t count,
      const std::function<bool(const TraceEvent&)>& filter) const;

  const std::vector<TraceEvent>* events_;
  numasim::Cycles begin_ = 0;
  numasim::Cycles end_ = 0;
};

}  // namespace numaprof::core
