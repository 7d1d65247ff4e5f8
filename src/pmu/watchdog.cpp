#include "pmu/watchdog.hpp"

#include <algorithm>
#include <string>

#include "simrt/thread.hpp"
#include "support/telemetry.hpp"

namespace numaprof::pmu {

SamplingWatchdog::SamplingWatchdog(Sampler& sampler, WatchdogConfig config)
    : sampler_(&sampler), config_(config) {
  sampler_->expect_retunes();
}

simrt::Interest SamplingWatchdog::interest() const {
  simrt::Interest interest;
  interest.counts = simrt::Counts::kInstructions;
  interest.first = config_.check_interval;
  return interest;
}

simrt::NextCall SamplingWatchdog::on_count(
    const simrt::SimThread& thread, std::uint64_t counted,
    const simrt::AccessEvent* /*access*/) {
  instructions_ += counted;
  check(thread.now(), thread.tid());
  return config_.check_interval;
}

void SamplingWatchdog::check(numasim::Cycles now, simrt::ThreadId tid) {
  const std::uint64_t samples = sampler_->samples_emitted();
  if (samples > samples_at_check_) {
    instr_at_last_sample_ = instructions_;
  }

  const std::uint64_t period = sampler_->config().period;
  if (instructions_ - instr_at_last_sample_ >= config_.starvation_window) {
    // Starvation: the mechanism (or the faults eating its output) is not
    // producing data. Sample more aggressively.
    const std::uint64_t retuned =
        std::max(config_.min_period, period / 2);
    if (retuned != period) {
      sampler_->set_period(retuned);
      events_.push_back(WatchdogEvent{.time = now,
                                      .instructions = instructions_,
                                      .old_period = period,
                                      .new_period = retuned,
                                      .starvation = true});
      publish_retune(now, tid, period, retuned, true);
    }
    instr_at_last_sample_ = instructions_;  // restart the window
  } else if (instructions_ > instr_at_check_) {
    const double rate =
        static_cast<double>(samples - samples_at_check_) /
        static_cast<double>(instructions_ - instr_at_check_);
    if (rate > config_.max_sample_rate) {
      // Runaway overhead: back off before the profiler becomes the
      // workload (the Table 2 failure mode).
      const std::uint64_t retuned =
          std::min(config_.max_period, std::max<std::uint64_t>(period, 1) * 2);
      if (retuned != period) {
        sampler_->set_period(retuned);
        events_.push_back(WatchdogEvent{.time = now,
                                        .instructions = instructions_,
                                        .old_period = period,
                                        .new_period = retuned,
                                        .starvation = false});
        publish_retune(now, tid, period, retuned, false);
      }
    }
  }

  samples_at_check_ = samples;
  instr_at_check_ = instructions_;
}

void SamplingWatchdog::publish_retune(numasim::Cycles now,
                                      simrt::ThreadId tid,
                                      std::uint64_t old_period,
                                      std::uint64_t new_period,
                                      bool starvation) {
  if (telemetry_ == nullptr) return;
  support::TelemetryEvent event;
  event.kind = support::TelemetryEventKind::kPeriodRetune;
  event.tid = tid;
  event.time = now;
  event.value = new_period;
  event.set_detail("period " + std::to_string(old_period) + " -> " +
                   std::to_string(new_period) +
                   (starvation ? " (starvation)" : " (overhead)"));
  telemetry_->ring(tid).publish(event);
}

}  // namespace numaprof::pmu
