#include "pmu/sampler.hpp"

#include <stdexcept>

#include "support/faultinject.hpp"
#include "support/telemetry.hpp"

namespace numaprof::pmu {

namespace {

/// Deterministic host busy-work modeling instrumentation/analysis cost.
/// Returns a value so the loop cannot be optimized away.
std::uint64_t busy_work(std::uint32_t iterations) noexcept {
  volatile std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < iterations; ++i) acc = acc + i;
  return acc;
}

}  // namespace

Sampler::Sampler(EventConfig config)
    : config_(std::move(config)),
      caps_(capabilities_of(config_.mechanism)),
      defers_skid_(!caps_.precise_ip && !config_.pebs_skid_correction),
      jitter_(config_.seed) {}

Sampler::ThreadState& Sampler::primed_state(simrt::ThreadId tid) {
  if (tid >= states_.size()) states_.resize(tid + 1);
  ThreadState& st = states_[tid];
  if (!st.primed) {
    st.countdown = reload();
    st.primed = true;
  }
  return st;
}

std::uint64_t Sampler::reload() {
  const std::uint64_t base = config_.period == 0 ? 1 : config_.period;
  if (caps_.reload != Reload::kJittered) return base;
  const std::uint64_t spread = base / 8;
  if (spread == 0) return base;
  return base - spread + jitter_.next_below(2 * spread + 1);
}

simrt::Interest Sampler::interest() const {
  simrt::Interest interest;
  interest.counts = simrt::Counts::kAccesses;
  interest.per_thread = true;
  if (caps_.samples_all_instructions) {
    interest.counts = simrt::Counts::kInstructions;
    return interest;
  }
  switch (caps_.filter) {
    case AccessFilter::kAll: break;
    case AccessFilter::kL3Miss:
      interest.counts = simrt::Counts::kL3Misses;
      break;
    case AccessFilter::kSlowLoad:
      interest.counts = simrt::Counts::kSlowLoads;
      interest.latency_threshold = config_.latency_threshold;
      break;
  }
  return interest;
}

simrt::NextCall Sampler::on_count(
    const simrt::SimThread& thread, std::uint64_t counted,
    const simrt::AccessEvent* access) {
  // Soft-IBS's instrumentation stub runs on EVERY memory access (the
  // engine "instruments every memory access instruction", §3); its cost
  // is real host work and dominates Soft-IBS's Table 2 overhead.
  if (caps_.software_instrumentation) {
    busy_work(config_.instrumentation_work);
  }
  if (defers_skid_) flush_pending(thread);
  ThreadState& st = primed_state(thread.tid());

  if (access == nullptr) {
    // A batch of non-memory instructions may straddle several fire
    // points; each yields an instruction sample (I^s in Eq. 2). Instruction
    // samples are never deferred: the skid only matters for an access.
    while (counted >= st.countdown) {
      counted -= st.countdown;
      emit(make_instruction_sample(thread));
      st.countdown = reload();
    }
    st.countdown -= counted;
  } else if (counted < st.countdown) {
    st.countdown -= counted;
  } else {
    st.countdown = reload();
    sample_access(thread, st, *access);
  }

  const bool skid_waits = defers_skid_ && thread.tid() < pending_.size() &&
                          pending_[thread.tid()].has_value();
  if (caps_.software_instrumentation || skid_waits) return 1;
  // Inside MRK's gap every fire would be refused: the machine need not
  // call until it ends. A fire keeps reloading the same period there, so
  // only a mid-run retune (expect_retunes) needs the calls.
  const bool gapped = caps_.reload == Reload::kRateLimited &&
                      config_.min_sample_gap != 0 && !retunable_ &&
                      st.last_sample_time != 0;
  return {st.countdown,
          gapped ? st.last_sample_time + config_.min_sample_gap : 0};
}

void Sampler::sample_access(const simrt::SimThread& thread, ThreadState& st,
                            const simrt::AccessEvent& event) {
  if (caps_.reload == Reload::kRateLimited) {
    // POWER7 will not mark again until the gap has elapsed, which is what
    // caps MRK below 100 samples/s/thread.
    if (config_.min_sample_gap != 0 && st.last_sample_time != 0 &&
        event.time - st.last_sample_time < config_.min_sample_gap) {
      return;
    }
    st.last_sample_time = event.time;
  }
  if (caps_.precise_ip) {
    emit(make_memory_sample(event));
  } else {
    deliver_skidded(thread, make_memory_sample(event));
  }
}

void Sampler::on_thread_finish(const simrt::SimThread& thread) {
  if (defers_skid_) flush_pending(thread);
}

void Sampler::deliver_skidded(const simrt::SimThread& thread, Sample sample) {
  if (!defers_skid_) {
    // The profiler compensates for the off-by-1 IP with online binary
    // analysis identifying the previous instruction — real work per
    // sample, and the reason PEBS shows the second-highest overhead in
    // Table 2.
    busy_work(config_.skid_correction_work);
    sample.ip_precise = true;
    emit(std::move(sample));
    return;
  }
  // Uncorrected: hardware reports the *next* instruction's IP, so the
  // sample's context is whatever executes next. Hold it until then.
  if (thread.tid() >= pending_.size()) pending_.resize(thread.tid() + 1);
  pending_[thread.tid()] = std::move(sample);
}

void Sampler::flush_pending(const simrt::SimThread& thread) {
  if (thread.tid() >= pending_.size()) return;
  auto& slot = pending_[thread.tid()];
  if (!slot) return;
  Sample sample = std::move(*slot);
  slot.reset();
  // Attribution uses the context of the FOLLOWING instruction: the skid.
  const auto stack = thread.call_stack();
  sample.stack.assign(stack.begin(), stack.end());
  sample.leaf_frame = thread.leaf_frame();
  sample.ip_precise = false;
  emit(std::move(sample));
}

Sample Sampler::make_memory_sample(const simrt::AccessEvent& event) const {
  Sample s;
  s.mechanism = config_.mechanism;
  s.tid = event.tid;
  s.core = event.core;
  s.is_memory = true;
  s.addr = event.addr;
  s.is_write = event.is_write;
  if (caps_.reports_latency) s.latency = event.latency;
  if (caps_.reports_data_source) s.data_source = event.source;
  s.l3_miss = event.l3_miss;
  s.time = event.time;
  s.op_index = event.op_index;
  s.leaf_frame = event.leaf_frame;
  s.stack.assign(event.stack.begin(), event.stack.end());
  s.ip_precise = caps_.precise_ip;
  return s;
}

Sample Sampler::make_instruction_sample(const simrt::SimThread& thread) const {
  Sample s;
  s.mechanism = config_.mechanism;
  s.tid = thread.tid();
  s.core = thread.core();
  s.is_memory = false;
  s.time = thread.now();
  s.op_index = thread.instructions();
  s.leaf_frame = thread.leaf_frame();
  const auto stack = thread.call_stack();
  s.stack.assign(stack.begin(), stack.end());
  s.ip_precise = caps_.precise_ip;
  return s;
}

void Sampler::emit(Sample sample) {
  support::TelemetryRing* ring =
      telemetry_ != nullptr ? &telemetry_->ring(sample.tid) : nullptr;
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->drop_sample()) {
      ++dropped_;
      if (ring != nullptr) {
        ring->add(support::TelemetryCounter::kDroppedSamples);
      }
      return;
    }
    if (sample.is_memory && faults_->corrupt_sample()) {
      sample.addr = faults_->scramble(sample.addr);
      ++corrupted_;
      if (ring != nullptr) {
        ring->add(support::TelemetryCounter::kCorruptedSamples);
      }
    }
    if (sample.latency) {
      if (const auto spike = faults_->latency_outlier()) {
        *sample.latency += static_cast<numasim::Cycles>(*spike);
      }
    }
  }
  ++emitted_;
  if (sample.is_memory) ++memory_samples_;
  if (ring != nullptr) {
    ring->add(support::TelemetryCounter::kSamples);
    if (sample.is_memory) {
      ring->add(support::TelemetryCounter::kMemorySamples);
    }
  }
  if (sink_) sink_(sample);
}

std::unique_ptr<Sampler> make_sampler(EventConfig config) {
  if (static_cast<int>(config.mechanism) >= kMechanismCount) {
    throw std::invalid_argument("unknown sampling mechanism");
  }
  return std::make_unique<Sampler>(std::move(config));
}

MechanismFallback make_sampler_with_fallback(const EventConfig& config,
                                             support::FaultPlan& plan) {
  MechanismFallback result;
  result.requested = config.mechanism;
  result.used = config.mechanism;
  for (const Mechanism m : fallback_chain(config.mechanism)) {
    if (!mechanism_available(m, plan)) {
      result.unavailable.push_back(m);
      continue;
    }
    EventConfig chosen = config;
    if (m != config.mechanism) {
      // The requested event/period pairing is meaningless on a different
      // mechanism; fall back to that mechanism's mini() preset but keep
      // the caller's jitter seed for reproducibility.
      chosen = EventConfig::mini(m);
      chosen.seed = config.seed;
    }
    result.used = m;
    result.sampler = make_sampler(chosen);
    result.sampler->set_fault_plan(plan.enabled() ? &plan : nullptr);
    return result;
  }
  // Unreachable: Soft-IBS always probes available. Guard anyway so a
  // future chain edit cannot return a null sampler.
  throw std::runtime_error("no sampling mechanism available");
}

}  // namespace numaprof::pmu
