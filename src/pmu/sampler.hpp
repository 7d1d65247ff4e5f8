// Sampler: the one sampling trigger of the seven address-sampling
// mechanisms.
//
// A sampler observes the machine's instruction/access stream and delivers
// Samples to a sink (the profiler). Every mechanism triggers the same way:
// it counts qualifying events down and fires at zero. What differs is
// read from the mechanism's capabilities_of row (pmu/config.cpp): which
// events count (all instructions, every access, L3 misses, slow loads),
// how the period reloads (jittered, fixed, rate-limited), whether a
// software stub runs on every access, and whether the IP skids. Jitter
// models hardware randomizing low period bits to keep sampling of regular
// loops unbiased — §3 requires "uniformly sampled" accesses.
//
// As on real hardware, the counting costs the sampler nothing: it declares
// its events as its machine Interest, the machine counts them down inline
// per thread, and the sampler runs only when a countdown expires. It asks
// for a call on every event only where the mechanism does per-event work:
// the Soft-IBS stub, and a PEBS sample waiting for its skid context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "pmu/config.hpp"
#include "pmu/sample.hpp"
#include "simrt/events.hpp"
#include "simrt/thread.hpp"
#include "support/rng.hpp"

namespace numaprof::support {
class FaultPlan;
class TelemetryHub;
}

namespace numaprof::pmu {

using SampleSink = std::function<void(const Sample&)>;

class Sampler final : public simrt::MachineObserver {
 public:
  explicit Sampler(EventConfig config);

  /// Per thread: every instruction for IBS, PEBS and SPE; every access
  /// for Soft-IBS; L3 misses for MRK; slow loads for DEAR and PEBS-LL.
  simrt::Interest interest() const override;
  /// The countdown ran out: primes the thread's countdown on its first
  /// counted event, runs the Soft-IBS stub, emits a deferred PEBS sample,
  /// and emits a sample at each fire point among the `counted` events (an
  /// exec batch may straddle several). Returns the events to the next fire
  /// (quiet until MRK's rate-limit gap ends), or 1 while a call per event
  /// is needed.
  simrt::NextCall on_count(const simrt::SimThread& thread,
                           std::uint64_t counted,
                           const simrt::AccessEvent* access) override;
  /// Emits a PEBS sample still waiting for its skid context.
  void on_thread_finish(const simrt::SimThread& thread) override;

  Mechanism mechanism() const noexcept { return config_.mechanism; }
  const EventConfig& config() const noexcept { return config_; }
  const Capabilities& capabilities() const noexcept { return caps_; }

  void set_sink(SampleSink sink) { sink_ = std::move(sink); }

  /// Routes emitted samples through `plan` (drop / corrupt / latency
  /// spike). Pass nullptr to disable. The plan must outlive the sampler.
  void set_fault_plan(support::FaultPlan* plan) noexcept { faults_ = plan; }

  /// Publishes per-thread sample/drop/corruption counters into `hub` as
  /// they happen (support/telemetry.hpp). Pass nullptr to disable. The hub
  /// must outlive the sampler.
  void set_telemetry(support::TelemetryHub* hub) noexcept {
    telemetry_ = hub;
  }

  /// Live period retune (the sampling watchdog's knob). Takes effect at
  /// each thread's next countdown reload.
  void set_period(std::uint64_t period) noexcept {
    config_.period = period == 0 ? 1 : period;
  }
  /// Declares, before the run, that set_period may be called mid-run (the
  /// watchdog does): MRK's rate-limit gap is then checked at every fire
  /// instead of skipped, so a retune lands at the same reload.
  void expect_retunes() noexcept { retunable_ = true; }

  std::uint64_t samples_emitted() const noexcept { return emitted_; }
  /// Memory samples only (excludes sampled non-memory instructions).
  std::uint64_t memory_samples() const noexcept { return memory_samples_; }
  /// Samples suppressed / mangled by the fault plan.
  std::uint64_t dropped_samples() const noexcept { return dropped_; }
  std::uint64_t corrupted_samples() const noexcept { return corrupted_; }

 private:
  /// Per-thread sampling state, grown on demand.
  struct ThreadState {
    std::uint64_t countdown = 0;
    numasim::Cycles last_sample_time = 0;
    bool primed = false;
  };
  /// The thread's state, its countdown primed on its first counted event.
  ThreadState& primed_state(simrt::ThreadId tid);

  /// The next countdown: the period, jittered when the row says so.
  std::uint64_t reload();

  /// An access at a fire point: applies MRK's rate limit and emits a
  /// memory sample.
  void sample_access(const simrt::SimThread& thread, ThreadState& st,
                     const simrt::AccessEvent& event);

  /// Builds the mechanism-appropriate Sample for a memory access, honoring
  /// this mechanism's capability mask (latency/data-source stripping).
  Sample make_memory_sample(const simrt::AccessEvent& event) const;

  /// Builds a sample of a non-memory instruction (IBS/PEBS/SPE sample
  /// those too; they count toward I^s in Eq. 2).
  Sample make_instruction_sample(const simrt::SimThread& thread) const;

  /// PEBS's off-by-1 IP on a memory sample: corrected by per-sample
  /// previous-instruction analysis, or left to skid onto the context of
  /// the thread's next instruction.
  void deliver_skidded(const simrt::SimThread& thread, Sample sample);
  /// Emits the thread's deferred PEBS sample in the *current* context.
  void flush_pending(const simrt::SimThread& thread);

  void emit(Sample sample);

  EventConfig config_;
  Capabilities caps_;
  /// PEBS without skid correction: memory samples wait for the next
  /// instruction's context.
  bool defers_skid_;
  SampleSink sink_;
  std::vector<ThreadState> states_;
  std::vector<std::optional<Sample>> pending_;  // per thread (PEBS skid)
  support::Rng jitter_;
  bool retunable_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t memory_samples_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  support::FaultPlan* faults_ = nullptr;
  support::TelemetryHub* telemetry_ = nullptr;
};

/// Constructs the sampler for `config.mechanism`.
std::unique_ptr<Sampler> make_sampler(EventConfig config);

/// Outcome of probing the fallback chain for a usable mechanism.
struct MechanismFallback {
  std::unique_ptr<Sampler> sampler;  // never null
  Mechanism requested;
  Mechanism used;
  /// Mechanisms whose availability probe failed, in the order tried.
  std::vector<Mechanism> unavailable;
  bool degraded() const noexcept { return requested != used; }
};

/// Walks fallback_chain(config.mechanism) against `plan`'s init-failure
/// faults and constructs the first mechanism that probes available. When a
/// fallback mechanism is chosen its mini() event configuration is used
/// (the requested config's event/period pairing is mechanism-specific),
/// preserving the caller's jitter seed. Soft-IBS terminates the chain, so
/// this always yields a sampler.
MechanismFallback make_sampler_with_fallback(const EventConfig& config,
                                             support::FaultPlan& plan);

}  // namespace numaprof::pmu
