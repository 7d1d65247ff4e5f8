// The online profiler (hpcrun analogue, §7.1).
//
// Profiler wires a sampling mechanism to a simulated machine and performs
// the three tasks of §7.1: (1) configure the PMU (the chosen Sampler),
// (2) attribute address samples to code and data in the augmented CCT, and
// (3) accumulate NUMA metrics (M_l, M_r, per-domain counts, latency, and
// address-centric summaries). It also implements the §6 first-touch
// pinpointing protocol via allocation wrappers + page protection + the
// simulated SIGSEGV handler.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "pmu/sampler.hpp"
#include "pmu/watchdog.hpp"
#include "simrt/machine.hpp"
#include "support/env.hpp"

namespace numaprof::support {
class FaultPlan;
class TelemetryHub;
enum class TelemetryEventKind : std::uint8_t;
}

namespace numaprof::core {

struct ProfilerConfig {
  pmu::EventConfig event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  /// Protect new heap blocks and trap first touches (§6).
  bool track_first_touch = true;
  /// Bins per large variable; 0 = read NUMAPROF_BINS (default 5), §5.2.
  std::uint32_t address_bins = 0;
  /// Record a per-sample trace for time-varying analysis (core/trace.hpp).
  bool record_trace = false;
  /// Trace events kept at most (oldest runs are never dropped — recording
  /// simply stops at the cap, which keeps memory bounded like hpcrun's
  /// trace buffers).
  std::size_t trace_capacity = 1 << 20;
  /// Attach the sampling watchdog (period retuning on starvation/runaway
  /// overhead). Off by default: retunes change sample counts, which would
  /// perturb runs that expect an exact configured period.
  bool enable_watchdog = false;
  pmu::WatchdogConfig watchdog;
  /// Fault plan consulted for init failures and per-sample faults.
  /// nullptr = the process-global plan (configured via NUMAPROF_FAULTS).
  support::FaultPlan* faults = nullptr;
  /// Live telemetry hub (support/telemetry.hpp): the sampler, watchdog,
  /// first-touch trapper, and heap tracker publish their health counters
  /// and events into it as they happen. nullptr = no telemetry. The hub
  /// must outlive the profiler.
  support::TelemetryHub* telemetry = nullptr;

  static std::uint32_t resolve_bins(std::uint32_t requested) {
    if (requested != 0) return requested;
    return static_cast<std::uint32_t>(
        support::env_int_or("NUMAPROF_BINS", 5, 1));
  }
};

class Profiler final : public simrt::MachineObserver {
 public:
  /// Attaches to `machine` immediately; profiling is active until stop()
  /// or destruction. The machine must outlive the profiler.
  Profiler(simrt::Machine& machine, ProfilerConfig config);
  ~Profiler() override;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void stop();  // detach observers; finalizes instruction counters
  bool running() const noexcept { return running_; }

  // --- Component access (live views) ---
  Cct& cct() noexcept { return cct_; }
  const Cct& cct() const noexcept { return cct_; }
  VariableRegistry& variables() noexcept { return registry_; }
  const VariableRegistry& variables() const noexcept { return registry_; }
  const AddressCentric& address_centric() const noexcept { return addr_; }
  const pmu::Sampler& sampler() const noexcept { return *sampler_; }
  /// How collection degraded so far (fallbacks at construction; watchdog
  /// retunes and sample-fault counts are appended at snapshot()).
  const std::vector<DegradationEvent>& degradations() const noexcept {
    return degradations_;
  }
  pmu::Mechanism requested_mechanism() const noexcept {
    return requested_mechanism_;
  }
  const std::vector<FirstTouchRecord>& first_touches() const noexcept {
    return first_touches_;
  }
  const std::vector<TraceEvent>& trace() const noexcept { return trace_; }
  const ThreadTotals& totals(simrt::ThreadId tid) const {
    return totals_.at(tid);
  }
  std::size_t thread_count() const noexcept { return totals_.size(); }

  /// Snapshots everything into a SessionData for offline analysis,
  /// serialization, and viewing. Implicitly stop()s a running profiler so
  /// instruction counters are final.
  SessionData snapshot();

  // --- MachineObserver (allocation wrappers, §6) ---
  void on_alloc(const simrt::AllocEvent& event) override;
  void on_free(const simrt::FreeEvent& event) override;

 private:
  void on_sample(const pmu::Sample& sample);
  void on_fault(const simrt::FaultEvent& fault);
  void publish_telemetry_event(support::TelemetryEventKind kind,
                               std::uint64_t value, std::string_view detail);
  /// Rendered tail of the call path under `leaf`, cached per CCT node so
  /// the hot-path telemetry table costs one map lookup per sample.
  std::string_view hot_path_label(NodeId leaf,
                                  std::span<const simrt::FrameId> stack);
  MetricStore& store_of(simrt::ThreadId tid);
  ThreadTotals& totals_of(simrt::ThreadId tid);
  void record_at(MetricStore& store, NodeId node, bool mismatch, bool remote,
                 const pmu::Sample& sample, std::uint32_t home_domain);

  simrt::Machine& machine_;
  ProfilerConfig config_;
  std::unique_ptr<pmu::Sampler> sampler_;
  std::unique_ptr<pmu::SamplingWatchdog> watchdog_;
  pmu::Mechanism requested_mechanism_;
  std::vector<DegradationEvent> degradations_;
  Cct cct_;
  VariableRegistry registry_;
  AddressCentric addr_;
  std::vector<MetricStore> stores_;       // per thread
  std::vector<ThreadTotals> totals_;      // per thread
  std::vector<FirstTouchRecord> first_touches_;
  std::vector<TraceEvent> trace_;
  std::unordered_map<NodeId, std::string> hot_path_labels_;
  NodeId access_dummy_;
  NodeId first_touch_dummy_;
  bool running_ = false;
};

}  // namespace numaprof::core
