// Address-sampling mechanisms and the samples they produce (§3).
//
// The paper identifies five hardware mechanisms (IBS, MRK, PEBS, DEAR,
// PEBS-LL) plus its own software fallback (Soft-IBS); ARM SPE is the
// seventh. They differ in capabilities: which events they count, how
// the sampling period reloads, whether latency and NUMA data source are
// reported, and whether the instruction pointer is precise. Capabilities
// drives both the one sampling trigger (pmu/sampler.hpp) and which
// derived metrics the profiler can compute (e.g. lpi_NUMA needs latency:
// IBS Eq. 2, PEBS-LL Eq. 3).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "numasim/types.hpp"
#include "simos/types.hpp"
#include "simrt/events.hpp"
#include "simrt/frame.hpp"

namespace numaprof::pmu {

enum class Mechanism : std::uint8_t {
  kIbs,      // AMD instruction-based sampling
  kMrk,      // IBM POWER marked-event sampling
  kPebs,     // Intel precise event-based sampling (INST_RETIRED)
  kDear,     // Itanium data event address registers
  kPebsLl,   // PEBS with load-latency extension
  kSoftIbs,  // software instrumentation (the paper's LLVM-based fallback)
  kSpe,      // ARM statistical profiling extension (fixed-interval op
             // sampling with latency annotations, arXiv:2410.01514)
};

/// Number of Mechanism enumerators (deserializers validate against this).
inline constexpr int kMechanismCount = 7;

std::string_view to_string(Mechanism m) noexcept;

/// Which memory accesses a mechanism's countdown counts.
enum class AccessFilter : std::uint8_t {
  kAll,       // every access
  kL3Miss,    // L3 misses only: MRK's marked event
  kSlowLoad,  // loads with latency >= latency_threshold (DEAR, PEBS-LL)
};

/// How a mechanism's countdown is reloaded when it fires.
enum class Reload : std::uint8_t {
  kJittered,     // period +/-12.5%: hardware randomizes low period bits
  kFixed,        // the exact period
  kRateLimited,  // the exact period, and a fire within min_sample_gap
                 // cycles of the thread's last sample is dropped (MRK)
};

/// What a mechanism can report and how it triggers. Mirrors the taxonomy
/// of §3 and §10.
struct Capabilities {
  bool samples_all_instructions = false;  // non-memory ops too (I^s, Eq. 2)
  bool reports_latency = false;           // needed for lpi_NUMA
  bool reports_data_source = false;       // local/remote classification
  bool precise_ip = true;                 // PEBS has an off-by-1 skid
  bool event_filtered = false;            // only specific events (MRK, DEAR)
  bool software_instrumentation = false;  // per-access stub (Soft-IBS)
  AccessFilter filter = AccessFilter::kAll;
  Reload reload = Reload::kJittered;
};

Capabilities capabilities_of(Mechanism m) noexcept;

/// One address sample delivered to the profiler.
struct Sample {
  Mechanism mechanism = Mechanism::kIbs;
  simrt::ThreadId tid = 0;
  numasim::CoreId core = 0;        // sampling CPU (maps to domain, §4.1)
  bool is_memory = false;          // false: a sampled non-memory instruction
  simos::VAddr addr = 0;           // effective address (is_memory only)
  bool is_write = false;
  std::optional<numasim::Cycles> latency;          // per capabilities
  std::optional<numasim::DataSource> data_source;  // per capabilities
  bool l3_miss = false;
  numasim::Cycles time = 0;
  std::uint64_t op_index = 0;
  simrt::FrameId leaf_frame = simrt::kInvalidFrame;
  std::vector<simrt::FrameId> stack;  // call path at sample (root..leaf)
  bool ip_precise = true;  // false: stack reflects the *following* op (PEBS
                           // skid, uncorrected)
};

}  // namespace numaprof::pmu
