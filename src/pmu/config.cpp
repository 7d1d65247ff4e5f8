#include "pmu/config.hpp"

#include <algorithm>
#include <cctype>

#include "support/faultinject.hpp"

namespace numaprof::pmu {

std::string_view to_string(Mechanism m) noexcept {
  switch (m) {
    case Mechanism::kIbs: return "IBS";
    case Mechanism::kMrk: return "MRK";
    case Mechanism::kPebs: return "PEBS";
    case Mechanism::kDear: return "DEAR";
    case Mechanism::kPebsLl: return "PEBS-LL";
    case Mechanism::kSoftIbs: return "Soft-IBS";
    case Mechanism::kSpe: return "SPE";
  }
  return "unknown";
}

Capabilities capabilities_of(Mechanism m) noexcept {
  // One row per mechanism. The sampling trigger (pmu/sampler.cpp) reads
  // `samples_all_instructions`, `software_instrumentation`, `precise_ip`,
  // `filter` and `reload`; the rest says what a sample carries.
  switch (m) {
    case Mechanism::kIbs:
      // Tags every N-th instruction of any kind; reports latency, data
      // source, precise IP (§3, §10).
      return {.samples_all_instructions = true,
              .reports_latency = true,
              .reports_data_source = true,
              .precise_ip = true};
    case Mechanism::kMrk:
      // Marked-event sampling: only instructions causing the marked event
      // (here PM_MRK_FROM_L3MISS); no latency in the analysis the paper
      // runs; hardware-rate-limited below 100 samples/s/thread (§8
      // footnote 2).
      return {.precise_ip = true,
              .event_filtered = true,
              .filter = AccessFilter::kL3Miss,
              .reload = Reload::kRateLimited};
    case Mechanism::kPebs:
      // INST_RETIRED:ANY_P samples every instruction kind but the reported
      // IP is the *next* instruction (off-by-1, §8).
      return {.samples_all_instructions = true, .precise_ip = false};
    case Mechanism::kDear:
      // Loads with latency above a threshold; latency reported, but no
      // NUMA data-source events (§10).
      return {.reports_latency = true,
              .precise_ip = true,
              .event_filtered = true,
              .filter = AccessFilter::kSlowLoad};
    case Mechanism::kPebsLl:
      // Load-latency extension: latency + data source on qualifying loads.
      return {.reports_latency = true,
              .reports_data_source = true,
              .precise_ip = true,
              .event_filtered = true,
              .filter = AccessFilter::kSlowLoad};
    case Mechanism::kSoftIbs:
      // Instrumentation sees every access and decimates it exactly;
      // effective address + IP only.
      return {.precise_ip = true,
              .software_instrumentation = true,
              .reload = Reload::kFixed};
    case Mechanism::kSpe:
      // ARM SPE samples every N-th micro-op of any kind at a FIXED
      // architectural interval (no period randomization; it relies on
      // collision detection instead); sampled memory ops carry total
      // latency, a data-source packet, and a precise PC
      // (arXiv:2410.01514 §2).
      return {.samples_all_instructions = true,
              .reports_latency = true,
              .reports_data_source = true,
              .precise_ip = true,
              .reload = Reload::kFixed};
  }
  return {};
}

EventConfig EventConfig::table1(Mechanism m) {
  EventConfig c;
  c.mechanism = m;
  switch (m) {
    case Mechanism::kIbs:
      c.event_name = "IBS op";
      c.period = 64 * 1024;  // 64K instructions
      break;
    case Mechanism::kMrk:
      c.event_name = "PM_MRK_FROM_L3MISS";
      c.period = 1;
      // "less than 100 samples/second per thread" at the fastest
      // user-controllable rate: gap >= cycles/sec / 100.
      c.min_sample_gap = static_cast<numasim::Cycles>(kCyclesPerSecond / 100);
      break;
    case Mechanism::kPebs:
      c.event_name = "INST_RETIRED:ANY_P";
      c.period = 1'000'000;
      break;
    case Mechanism::kDear:
      c.event_name = "DATA_EAR_CACHE_LAT4";
      c.period = 20'000;
      c.latency_threshold = 4;
      break;
    case Mechanism::kPebsLl:
      c.event_name = "LATENCY_ABOVE_THRESHOLD";
      c.period = 500'000;
      c.latency_threshold = 32;
      break;
    case Mechanism::kSoftIbs:
      c.event_name = "memory accesses";
      c.period = 10'000'000;
      break;
    case Mechanism::kSpe:
      // PMSIRR.INTERVAL is a fixed op count; SPE relies on collision
      // detection rather than period jitter.
      c.event_name = "SPE ops (PMSIRR interval)";
      c.period = 32 * 1024;
      break;
  }
  return c;
}

EventConfig EventConfig::mini(Mechanism m) {
  EventConfig c = table1(m);
  // Scaled periods keep the paper's RATE ordering: Soft-IBS instruments
  // every access; PEBS pays per-sample correction; IBS samples all
  // instruction kinds at the highest hardware rate; DEAR/PEBS-LL sample
  // events at a moderate rate; MRK is hardware rate limited.
  switch (m) {
    case Mechanism::kIbs: c.period = 1'000; break;
    case Mechanism::kMrk: c.min_sample_gap = 20'000; break;
    case Mechanism::kPebs: c.period = 10'000; break;
    case Mechanism::kDear: c.period = 2'000; break;
    case Mechanism::kPebsLl: c.period = 2'000; break;
    case Mechanism::kSoftIbs: c.period = 5'000; break;
    case Mechanism::kSpe: c.period = 1'200; break;
  }
  return c;
}

std::string spec_name(Mechanism m) {
  std::string name(to_string(m));
  std::transform(name.begin(), name.end(), name.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return name;
}

std::vector<Mechanism> fallback_chain(Mechanism requested) {
  // SPE sits right after IBS: it matches IBS's capability profile
  // (all-instruction sampling + latency + data source + precise IP), so it
  // is the richest substitute when IBS hardware is absent.
  static constexpr Mechanism kOrder[] = {
      Mechanism::kIbs,  Mechanism::kSpe,  Mechanism::kPebsLl,
      Mechanism::kPebs, Mechanism::kMrk,  Mechanism::kDear,
      Mechanism::kSoftIbs};
  std::vector<Mechanism> chain{requested};
  for (const Mechanism m : kOrder) {
    if (m != requested) chain.push_back(m);
  }
  return chain;
}

bool mechanism_available(Mechanism m, const support::FaultPlan& plan) {
  // Soft-IBS is pure software instrumentation: no PMU, no permissions, no
  // model-specific registers — it cannot fail to initialize.
  if (m == Mechanism::kSoftIbs) return true;
  return !plan.fails_init(spec_name(m));
}

}  // namespace numaprof::pmu
