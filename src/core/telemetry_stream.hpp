// Sinks for the live telemetry layer (support/telemetry.hpp).
//
// Two renderings of the same TelemetrySnapshot stream:
//   - a human-readable status line (`--telemetry-interval` on the profiler
//     examples prints one per interval while the workload runs);
//   - a machine-readable JSONL trace: one `snapshot` object per interval
//     plus one `event` object per discrete occurrence, in publication
//     order. `analyze_profile --telemetry <trace>` reloads the trace and
//     renders the "measurement health" pane, cross-checking the streamed
//     events against the DegradationEvents recorded in the merged profile.
// The JSONL schema is documented in docs/api.md; keys reuse the stable
// kebab-case names of support::to_string(TelemetryCounter/EventKind).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "pmu/sample.hpp"
#include "simrt/events.hpp"
#include "support/telemetry.hpp"

namespace numaprof::core {

/// One reloaded `--telemetry` trace: every snapshot and every event in
/// file order, plus the mechanism named by the stream.
struct TelemetryTrace {
  pmu::Mechanism mechanism = pmu::Mechanism::kIbs;
  bool has_mechanism = false;
  std::vector<support::TelemetrySnapshot> snapshots;
  std::vector<support::TelemetryEvent> events;

  /// The cumulative state at end of run (zero snapshot if the trace is
  /// empty).
  const support::TelemetrySnapshot& final_snapshot() const;
};

/// One-line live health summary:
///   `[telemetry #3 t=24000] ibs threads=4 samples=1204 mem=881 ...`
/// With `previous` (the preceding snapshot of the same stream), the
/// samples/mem columns also carry interval deltas and a per-kilocycle
/// rate: `samples=1204 (+402 3.4/kc) mem=881 (+210)`. A zero-length
/// interval (same timestamp, e.g. a flush right after a periodic emit)
/// prints the delta but omits the rate — never `inf`/`nan`.
std::string format_status_line(const support::TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism);
std::string format_status_line(const support::TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism,
                               const support::TelemetrySnapshot* previous);

/// The health pane's event log body: one "  [kind] t=... tid=..." line per
/// distinct event, with identical repeats collapsed into "(xN)". Shared by
/// render_health_pane and the live status-line sink so a stalled client
/// re-publishing the same event cannot scroll the terminal.
std::vector<std::string> format_event_lines(
    const std::vector<support::TelemetryEvent>& events);

/// Appends one `snapshot` JSONL object (schema v2: per-domain hot-page /
/// hot-variable rows and per-thread hot call paths ride along), then one
/// `event` object per event drained into this snapshot. The overload
/// without a mechanism omits the "mechanism" key (used by sinks that do
/// not know it, e.g. numaprofd --telemetry-out).
void write_snapshot_jsonl(const support::TelemetrySnapshot& snapshot,
                          pmu::Mechanism mechanism, std::ostream& os);
void write_snapshot_jsonl(const support::TelemetrySnapshot& snapshot,
                          std::ostream& os);

/// Parses a JSONL trace written by write_snapshot_jsonl. Unknown keys are
/// ignored (forward compatibility); malformed lines throw numaprof::Error
/// with kind kTelemetry naming the 1-based line.
TelemetryTrace load_telemetry_trace(std::istream& is);
TelemetryTrace load_telemetry_trace_file(const std::string& path);

/// Parses ONE trace line (1-based `lineno` for error messages) into
/// `trace`, the incremental unit behind load_telemetry_trace and
/// `numa_top --follow` (which tails a growing JSONL file). Returns true
/// when the line added a snapshot, false for events / blank / unknown
/// line types.
bool append_trace_line(TelemetryTrace& trace, std::string_view line,
                       std::size_t lineno, const std::string& file = {});

/// The "-- measurement health --" pane: end-of-run totals, drop fractions,
/// per-domain M_l/M_r, the event log, and — when `profile` is non-null —
/// a cross-check of streamed events against the profile's recorded
/// DegradationEvents. Deterministic: byte-identical output for identical
/// inputs.
std::string render_health_pane(const TelemetryTrace& trace,
                               const SessionData* profile = nullptr);

/// Machine observer that emits a telemetry snapshot every
/// `interval_instructions` retired instructions, memory accesses included
/// (virtual time advances only inside the simulator, so instruction count
/// is the natural interval unit). Attach alongside the profiler; call
/// flush() after run() for the final partial interval. A hub snapshot
/// drains the per-ring event queues, so the streamer must be the hub's
/// only reader: every consumer of a run's telemetry (status lines, JSONL
/// trace, `record_app --top`) hangs off this one clock.
class TelemetryStreamer final : public simrt::MachineObserver {
 public:
  struct Config {
    std::uint64_t interval_instructions = 100000;
    /// Live status lines (nullptr: none).
    std::ostream* status = nullptr;
    /// JSONL trace (nullptr: none), flushed after every snapshot so a
    /// tail of the file sees each one as it is emitted.
    std::ostream* jsonl = nullptr;
    pmu::Mechanism mechanism = pmu::Mechanism::kIbs;
    /// Called with every emitted snapshot, after the other sinks (empty:
    /// none). `record_app --top` paints its monitor here.
    std::function<void(const support::TelemetrySnapshot&)> sink;
  };

  TelemetryStreamer(support::TelemetryHub& hub, Config config)
      : hub_(&hub), config_(config) {}

  void on_exec(const simrt::SimThread& thread, std::uint64_t count) override;
  void on_access(const simrt::SimThread& thread,
                 const simrt::AccessEvent& event) override;

  /// Emits the final partial interval exactly once: a flush with nothing
  /// accumulated since the last emit (including a second flush in a row)
  /// is a no-op, so shutdown paths may flush defensively without
  /// duplicating the final snapshot.
  void flush(std::uint64_t time);

  std::uint64_t snapshots_emitted() const noexcept { return emitted_; }

 private:
  void emit(std::uint64_t time);

  support::TelemetryHub* hub_;
  Config config_;
  std::uint64_t since_emit_ = 0;
  std::uint64_t last_time_ = 0;
  std::uint64_t emitted_ = 0;
  /// Previous emitted snapshot, for the status line's rate columns.
  support::TelemetrySnapshot previous_;
  bool has_previous_ = false;
};

}  // namespace numaprof::core
