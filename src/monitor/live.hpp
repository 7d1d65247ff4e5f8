// LiveTop: the in-process live renderer behind `record_app --top`.
//
// A simrt::MachineObserver that, every `interval_instructions` retired
// instructions (memory accesses included: the TelemetryStreamer's clock),
// pulls one snapshot from the TelemetryHub, feeds the pure MonitorModel,
// and paints a frame to `out` — ANSI repaint-in-place when `ansi` is set
// (a real terminal), plain `== frame N ==`-delimited frames otherwise
// (pipes, CI logs).
//
// The observer is strictly pull-only: it reads the hub the samplers
// already publish into and writes to its own stream, so attaching it
// cannot perturb the recorded profile. A TelemetryHub snapshot drains
// per-ring event queues (single-consumer), so LiveTop must not share a
// hub with a TelemetryStreamer — record_app rejects that combination.
#pragma once

#include <cstdint>
#include <ostream>

#include "monitor/model.hpp"
#include "simrt/events.hpp"
#include "support/telemetry.hpp"

namespace numaprof::monitor {

class LiveTop final : public simrt::MachineObserver {
 public:
  struct Config {
    std::uint64_t interval_instructions = 100000;
    std::size_t width = 80;
    std::size_t height = 24;
    bool ansi = false;             // repaint in place vs. framed plain text
    std::ostream* out = nullptr;   // required
    pmu::Mechanism mechanism = pmu::Mechanism::kIbs;
  };

  LiveTop(support::TelemetryHub& hub, Config config)
      : hub_(&hub), config_(config) {
    model_.set_mechanism(config.mechanism);
  }

  void on_exec(const simrt::SimThread& thread, std::uint64_t count) override;
  void on_access(const simrt::SimThread& thread,
                 const simrt::AccessEvent& event) override;

  /// Paints the final partial interval exactly once; a second flush in a
  /// row (or one landing on an interval boundary) is a no-op.
  void flush(std::uint64_t time);

  std::uint64_t frames_painted() const noexcept { return painted_; }
  const MonitorModel& model() const noexcept { return model_; }

 private:
  void retire(const simrt::SimThread& thread, std::uint64_t count);
  void paint(std::uint64_t time);

  support::TelemetryHub* hub_;
  Config config_;
  MonitorModel model_;
  std::uint64_t since_paint_ = 0;
  std::uint64_t last_time_ = 0;
  std::uint64_t painted_ = 0;
};

}  // namespace numaprof::monitor
