#include "core/profiler.hpp"

#include "simos/numa_api.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry.hpp"

namespace numaprof::core {

Profiler::Profiler(simrt::Machine& machine, ProfilerConfig config)
    : machine_(machine),
      config_(config),
      requested_mechanism_(config.event.mechanism),
      registry_(cct_, machine.memory()),
      addr_(ProfilerConfig::resolve_bins(config.address_bins)) {
  access_dummy_ = cct_.child(kRootNode, NodeKind::kAccess, 0);
  first_touch_dummy_ = cct_.child(kRootNode, NodeKind::kFirstTouch, 0);
  if (config_.telemetry != nullptr) {
    config_.telemetry->set_domain_count(machine.topology().domain_count);
  }

  support::FaultPlan& plan =
      config_.faults ? *config_.faults : support::global_fault_plan();
  pmu::MechanismFallback fb =
      pmu::make_sampler_with_fallback(config_.event, plan);
  sampler_ = std::move(fb.sampler);
  for (const pmu::Mechanism m : fb.unavailable) {
    degradations_.push_back(DegradationEvent{
        .kind = DegradationKind::kMechanismUnavailable,
        .mechanism = m,
        .value = 0,
        .detail = std::string(pmu::to_string(m)) +
                  " failed its availability probe"});
    publish_telemetry_event(support::TelemetryEventKind::kMechanismUnavailable,
                            static_cast<std::uint64_t>(m),
                            degradations_.back().detail);
  }
  if (fb.degraded()) {
    degradations_.push_back(DegradationEvent{
        .kind = DegradationKind::kMechanismFallback,
        .mechanism = fb.used,
        .value = 0,
        .detail = "requested " + std::string(pmu::to_string(fb.requested)) +
                  ", collecting with " + std::string(pmu::to_string(fb.used))});
    publish_telemetry_event(support::TelemetryEventKind::kMechanismFallback,
                            static_cast<std::uint64_t>(fb.used),
                            degradations_.back().detail);
  }

  sampler_->set_sink([this](const pmu::Sample& s) { on_sample(s); });
  sampler_->set_telemetry(config_.telemetry);
  machine_.add_observer(*sampler_);
  if (config_.enable_watchdog) {
    watchdog_ = std::make_unique<pmu::SamplingWatchdog>(*sampler_,
                                                        config_.watchdog);
    watchdog_->set_telemetry(config_.telemetry);
    machine_.add_observer(*watchdog_);
  }
  machine_.add_observer(*this);
  if (config_.track_first_touch) {
    machine_.set_protect_on_alloc(true);
    machine_.set_fault_handler(
        [this](const simrt::FaultEvent& f) { on_fault(f); });
  }
  running_ = true;
}

Profiler::~Profiler() {
  if (running_) stop();
}

void Profiler::stop() {
  if (!running_) return;
  sampler_events_ = machine_.counted(*sampler_);
  machine_.remove_observer(*sampler_);
  if (watchdog_) machine_.remove_observer(*watchdog_);
  machine_.remove_observer(*this);
  if (config_.track_first_touch) {
    machine_.set_protect_on_alloc(false);
    machine_.set_fault_handler({});
  }
  // Read the "conventional PMU counters": absolute instruction and memory
  // access counts per thread (the I and I_MEM of Eq. 1).
  for (simrt::ThreadId tid = 0; tid < machine_.thread_count(); ++tid) {
    ThreadTotals& t = totals_of(tid);
    const simrt::SimThread& thread = machine_.thread(tid);
    t.instructions = thread.instructions();
    t.memory_instructions = thread.memory_accesses();
  }
  running_ = false;
}

MetricStore& Profiler::store_of(simrt::ThreadId tid) {
  while (stores_.size() <= tid) {
    stores_.emplace_back(machine_.topology().domain_count);
  }
  return stores_[tid];
}

ThreadTotals& Profiler::totals_of(simrt::ThreadId tid) {
  while (totals_.size() <= tid) {
    ThreadTotals t;
    t.per_domain.assign(machine_.topology().domain_count, 0);
    totals_.push_back(std::move(t));
  }
  return totals_[tid];
}

void Profiler::on_alloc(const simrt::AllocEvent& event) {
  registry_.on_alloc(event);
  if (config_.telemetry != nullptr) {
    config_.telemetry->ring(event.tid).add(
        support::TelemetryCounter::kHeapRegistrations);
  }
}

void Profiler::on_free(const simrt::FreeEvent& event) {
  registry_.on_free(event);
  if (config_.telemetry != nullptr) {
    config_.telemetry->ring(event.tid).add(
        support::TelemetryCounter::kHeapFrees);
  }
}

void Profiler::publish_telemetry_event(support::TelemetryEventKind kind,
                                       std::uint64_t value,
                                       std::string_view detail) {
  if (config_.telemetry == nullptr) return;
  support::TelemetryEvent event;
  event.kind = kind;
  event.tid = 0;
  event.time = machine_.elapsed();
  event.value = value;
  event.set_detail(detail);
  config_.telemetry->ring(0).publish(event);
}

void Profiler::record_at(MetricStore& store, NodeId node, bool mismatch,
                         bool remote, const pmu::Sample& sample,
                         std::uint32_t home_domain) {
  store.add(node, kSamples, 1);
  store.add(node, kMemorySamples, 1);
  store.add(node, mismatch ? kNumaMismatch : kNumaMatch, 1);
  store.add(node, domain_metric(home_domain), 1);
  if (sample.latency) {
    const auto latency = static_cast<double>(*sample.latency);
    store.add(node, kTotalLatency, latency);
    if (remote) store.add(node, kRemoteLatency, latency);
  }
  if (sample.l3_miss) {
    store.add(node, kL3MissSamples, 1);
    if (mismatch) store.add(node, kRemoteL3MissSamples, 1);
  }
  if (sample.data_source) {
    store.add(node, source_metric(*sample.data_source), 1);
  }
}

void Profiler::on_sample(const pmu::Sample& sample) {
  MetricStore& store = store_of(sample.tid);
  ThreadTotals& totals = totals_of(sample.tid);
  ++totals.samples;

  // Code-centric attribution: the sample's call path under [ACCESS].
  const NodeId code_leaf = cct_.extend(access_dummy_, sample.stack);
  if (!sample.is_memory) {
    // A sampled non-memory instruction (IBS/PEBS): contributes to I^s only.
    store.add(code_leaf, kSamples, 1);
    return;
  }
  ++totals.memory_samples;

  // Domain classification (§4.1): move_pages for the data's domain,
  // numa_node_of_cpu for the sampling CPU's domain.
  const auto home = simos::domain_of_addr(machine_.memory().page_table(),
                                          sample.addr);
  const numasim::DomainId thread_domain =
      simos::numa_node_of_cpu(machine_.topology(), sample.core);
  const numasim::DomainId home_domain = home.value_or(thread_domain);
  const bool mismatch = home_domain != thread_domain;
  // Latency remoteness prefers the PMU data source when present: a sample
  // served from a private cache is NOT remote traffic even if move_pages
  // says the page lives elsewhere (the §4.1 bias the latency metrics fix).
  const bool remote = sample.data_source
                          ? numasim::is_remote(*sample.data_source)
                          : mismatch;

  record_at(store, code_leaf, mismatch, remote, sample, home_domain);

  // Data-centric attribution: variable node + its address-range bin node
  // (bins are synthetic variables, §5.2).
  const VariableId vid = registry_.resolve(sample.addr);
  const Variable& var = registry_.variable(vid);
  record_at(store, var.variable_node, mismatch, remote, sample, home_domain);
  if (addr_.bins_for(var) > 1) {
    const NodeId bin_node = cct_.child(var.variable_node, NodeKind::kBin,
                                       addr_.bin_of(var, sample.addr));
    record_at(store, bin_node, mismatch, remote, sample, home_domain);
  }

  // Whole-program totals.
  mismatch ? ++totals.mismatch : ++totals.match;
  totals.per_domain[home_domain] += 1;
  if (config_.telemetry != nullptr) {
    support::TelemetryRing& ring = config_.telemetry->ring(sample.tid);
    ring.add(mismatch ? support::TelemetryCounter::kMismatchSamples
                      : support::TelemetryCounter::kMatchSamples);
    ring.add_domain_sample(home_domain, mismatch);
    if (sample.latency) {
      ring.add(support::TelemetryCounter::kLatencyCycles, *sample.latency);
      if (mismatch) {
        ring.add(support::TelemetryCounter::kRemoteLatencyCycles,
                 *sample.latency);
      }
    }
    // Bounded top-K hot tables behind the numa_top panes: the touched
    // page and variable per home domain, and this thread's call path.
    ring.add_hot(support::HotTableKind::kPages, simos::page_of(sample.addr),
                 home_domain, mismatch);
    ring.add_hot(support::HotTableKind::kVariables, vid, home_domain,
                 mismatch, var.name);
    // Paths are per-thread, not per-domain: domain 0 keeps each leaf in
    // one slot.
    ring.add_hot(support::HotTableKind::kPaths, code_leaf, 0, mismatch,
                 hot_path_label(code_leaf, sample.stack));
  }
  if (sample.latency) {
    const auto latency = static_cast<double>(*sample.latency);
    totals.total_latency += latency;
    if (remote) totals.remote_latency += latency;
  }
  if (sample.l3_miss) {
    ++totals.l3_miss_samples;
    if (mismatch) ++totals.remote_l3_miss_samples;
  }

  // Address-centric attribution (§5.2).
  addr_.record(sample.stack, var, sample.tid, sample.addr,
               sample.latency ? static_cast<double>(*sample.latency) : 0.0);

  // Optional trace event (time-varying analysis, core/trace.hpp).
  if (config_.record_trace && trace_.size() < config_.trace_capacity) {
    trace_.push_back(TraceEvent{
        .time = sample.time,
        .tid = sample.tid,
        .variable = vid,
        .home_domain = home_domain,
        .mismatch = mismatch,
        .remote = remote,
        .latency = static_cast<std::uint32_t>(sample.latency.value_or(0))});
  }
}

void Profiler::on_fault(const simrt::FaultEvent& fault) {
  // The simulated SIGSEGV handler of §6: code-centric attribution from the
  // signal context, data-centric from the faulting address, then restore
  // permissions so the access can retry.
  auto& page_table = machine_.memory().page_table();
  const simos::PageId page = simos::page_of(fault.addr);
  page_table.unprotect(page);

  const VariableId vid = registry_.resolve(fault.addr);
  const NodeId leaf = cct_.extend(first_touch_dummy_, fault.stack);
  const NodeId node = cct_.child(leaf, NodeKind::kVariable, vid);

  MetricStore& store = store_of(fault.tid);
  store.add(node, kFirstTouches, 1);
  store.add(registry_.variable(vid).variable_node, kFirstTouches, 1);

  const numasim::DomainId touch_domain =
      simos::numa_node_of_cpu(machine_.topology(), fault.core);
  first_touches_.push_back(FirstTouchRecord{.variable = vid,
                                            .tid = fault.tid,
                                            .domain = touch_domain,
                                            .node = node,
                                            .page = page});
  if (config_.telemetry != nullptr) {
    support::TelemetryRing& ring = config_.telemetry->ring(fault.tid);
    ring.add(support::TelemetryCounter::kFirstTouchTraps);
    // First touch fixes the page's home domain — seed the hot tables so
    // numa_top shows the page/variable before any samples land on it.
    ring.add_hot(support::HotTableKind::kPages, page, touch_domain, false);
    ring.add_hot(support::HotTableKind::kVariables, vid, touch_domain, false,
                 registry_.variable(vid).name);
  }
}

std::string_view Profiler::hot_path_label(
    NodeId leaf, std::span<const simrt::FrameId> stack) {
  const auto cached = hot_path_labels_.find(leaf);
  if (cached != hot_path_labels_.end()) return cached->second;
  // The last three frames identify the path tightly enough for a terminal
  // column; a ".." prefix marks truncation.
  constexpr std::size_t kTailFrames = 3;
  std::string label;
  if (stack.size() > kTailFrames) label = "..";
  const std::size_t first =
      stack.size() > kTailFrames ? stack.size() - kTailFrames : 0;
  for (std::size_t i = first; i < stack.size(); ++i) {
    if (!label.empty()) label += '>';
    label += machine_.frames().info(stack[i]).name;
  }
  if (label.empty()) label = "(no stack)";
  return hot_path_labels_.emplace(leaf, std::move(label)).first->second;
}

SessionData Profiler::snapshot() {
  if (running_) stop();
  SessionData data;
  data.machine_name = machine_.topology().name;
  data.domain_count = machine_.topology().domain_count;
  data.core_count = machine_.topology().core_count();
  data.mechanism = sampler_->mechanism();
  data.requested_mechanism = requested_mechanism_;
  data.sampling_period = sampler_->config().period;
  data.degradations = degradations_;
  if (watchdog_) {
    for (const pmu::WatchdogEvent& e : watchdog_->events()) {
      data.degradations.push_back(DegradationEvent{
          .kind = e.starvation ? DegradationKind::kPeriodRetuneStarvation
                               : DegradationKind::kPeriodRetuneOverhead,
          .mechanism = sampler_->mechanism(),
          .value = e.new_period,
          .detail = "period " + std::to_string(e.old_period) + " -> " +
                    std::to_string(e.new_period) + " after " +
                    std::to_string(e.instructions) + " instructions"});
    }
  }
  if (sampler_->dropped_samples() + sampler_->corrupted_samples() > 0) {
    data.degradations.push_back(DegradationEvent{
        .kind = DegradationKind::kSampleFaults,
        .mechanism = sampler_->mechanism(),
        .value = sampler_->dropped_samples() + sampler_->corrupted_samples(),
        .detail = std::to_string(sampler_->dropped_samples()) +
                  " samples dropped, " +
                  std::to_string(sampler_->corrupted_samples()) +
                  " corrupted by fault injection"});
  }

  const auto& frames = machine_.frames();
  data.frames.reserve(frames.size());
  for (simrt::FrameId f = 0; f < frames.size(); ++f) {
    data.frames.push_back(frames.info(f));
  }
  data.cct = cct_;
  data.variables = registry_.all();
  data.stores = stores_;
  data.totals = totals_;
  data.address_centric = addr_;
  data.first_touches = first_touches_;
  data.trace = trace_;
  if (sampler_->mechanism() == pmu::Mechanism::kPebsLl) {
    data.pebs_ll_events = sampler_events_;
  }
  const support::FaultPlan& plan =
      config_.faults ? *config_.faults : support::global_fault_plan();
  if (plan.enabled()) {
    // Stamp every degradation with the plan that provoked it: the report
    // alone (spec + RNG seed) is enough to reproduce the failure.
    const std::string suffix = plan.context_suffix();
    for (DegradationEvent& e : data.degradations) e.detail += suffix;
    data.fault_context = plan.describe();
  }
  return data;
}

}  // namespace numaprof::core
