// Sampling watchdog: detects sample starvation and runaway overhead.
//
// A misconfigured period (or an injected fault regime that eats samples)
// leaves a run with either no data or crushing overhead. Production
// profilers guard against both by watching the sample rate and retuning
// the period online; this watchdog reproduces that: every check_interval
// instructions of the machine's retired-instruction stream (a deadline the
// machine counts down, so the watchdog runs only at its checks) it
//   - halves the period after a window of instructions with zero emitted
//     samples (starvation — the mechanism is configured too coarse, or
//     faults are suppressing its output), and
//   - doubles the period when samples-per-instruction exceeds a ceiling
//     (runaway overhead — the mechanism fires too often to be a profiler).
// Every retune is recorded so SessionData can report HOW the data was
// collected.
#pragma once

#include <cstdint>
#include <vector>

#include "pmu/sampler.hpp"

namespace numaprof::pmu {

struct WatchdogConfig {
  /// Instructions between rate checks.
  std::uint64_t check_interval = 20'000;
  /// Zero new samples over this many instructions → starvation retune.
  std::uint64_t starvation_window = 100'000;
  /// Samples per instruction above this → overhead retune.
  double max_sample_rate = 0.05;
  std::uint64_t min_period = 16;
  std::uint64_t max_period = 1ull << 30;
};

/// One period retune performed by the watchdog.
struct WatchdogEvent {
  numasim::Cycles time = 0;          // thread virtual time at the check
  std::uint64_t instructions = 0;    // instructions observed so far
  std::uint64_t old_period = 0;
  std::uint64_t new_period = 0;
  bool starvation = false;  // true: starvation halving; false: overhead doubling
};

class SamplingWatchdog final : public simrt::MachineObserver {
 public:
  explicit SamplingWatchdog(Sampler& sampler, WatchdogConfig config = {});

  /// Every retired instruction, machine-wide, first called after
  /// check_interval of them.
  simrt::Interest interest() const override;
  /// A check: `counted` instructions retired since the last one.
  simrt::NextCall on_count(const simrt::SimThread& thread,
                           std::uint64_t counted,
                           const simrt::AccessEvent* access) override;

  const std::vector<WatchdogEvent>& events() const noexcept {
    return events_;
  }

  /// Streams every retune as a kPeriodRetune telemetry event (published to
  /// the ring of the thread whose instruction crossed the check boundary).
  void set_telemetry(support::TelemetryHub* hub) noexcept {
    telemetry_ = hub;
  }

 private:
  /// `tid`: the thread whose instruction reached the check.
  void check(numasim::Cycles now, simrt::ThreadId tid);
  void publish_retune(numasim::Cycles now, simrt::ThreadId tid,
                      std::uint64_t old_period, std::uint64_t new_period,
                      bool starvation);

  Sampler* sampler_;
  WatchdogConfig config_;
  std::uint64_t instructions_ = 0;
  std::uint64_t samples_at_check_ = 0;
  std::uint64_t instr_at_check_ = 0;
  std::uint64_t instr_at_last_sample_ = 0;
  std::vector<WatchdogEvent> events_;
  support::TelemetryHub* telemetry_ = nullptr;
};

}  // namespace numaprof::pmu
