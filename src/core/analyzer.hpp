// The offline analyzer (hpcprof analogue, §7.2).
//
// Merges per-thread profiles (sum reduction for counts and latency; the
// custom [min,max] reduction for address ranges lives in AddressCentric)
// and computes the derived metrics of §4: M_l/M_r ratios, per-domain
// request balance, and lpi_NUMA via Eq. 2 (IBS-style) or Eq. 3
// (PEBS-LL-style) depending on the mechanism's capabilities.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "core/session.hpp"

namespace numaprof::core {

struct ProgramSummary {
  std::uint64_t samples = 0;          // I^s
  std::uint64_t memory_samples = 0;
  std::uint64_t match = 0;            // M_l
  std::uint64_t mismatch = 0;         // M_r
  double remote_latency = 0.0;        // l^s_NUMA
  double total_latency = 0.0;
  std::uint64_t l3_miss_samples = 0;
  std::uint64_t remote_l3_miss_samples = 0;
  std::vector<std::uint64_t> per_domain;
  std::uint64_t instructions = 0;     // absolute I
  std::uint64_t memory_instructions = 0;

  /// lpi_NUMA (cycles/instruction); nullopt when the mechanism reports no
  /// latency (MRK, PEBS, Soft-IBS).
  std::optional<double> lpi;
  /// Fraction of sampled latency caused by remote accesses (the "74.2% of
  /// the total latency is caused by remote NUMA domain accesses" figure).
  double remote_latency_fraction = 0.0;
  /// Fraction of sampled L3 misses that were remote (the MRK-view "66% of
  /// L3 cache misses access remote memory" figure).
  double remote_l3_fraction = 0.0;
  /// max/mean of per-domain request counts (§4.1 balance check).
  double domain_imbalance = 1.0;
  /// The §4.2 rule of thumb: lpi above 0.1 warrants optimization.
  bool warrants_optimization = false;

  /// Eq. 1's three-factor decomposition of lpi_NUMA:
  ///   lpi = (l_NUMA / I_NUMA) x (I_NUMA / I_MEM) x (I_MEM / I)
  /// i.e. average latency per remote access, remote fraction of memory
  /// accesses, and memory fraction of the instruction stream. Estimated
  /// from samples (first two factors) and the conventional counters (the
  /// third). All zero when the mechanism reports no latency.
  double avg_remote_latency = 0.0;   // l_NUMA / I_NUMA (cycles)
  double remote_access_fraction = 0.0;  // I_NUMA / I_MEM
  double memory_fraction = 0.0;         // I_MEM / I
};

struct VariableReport {
  VariableId id = 0;
  std::string name;
  VariableKind kind = VariableKind::kUnknown;
  std::uint64_t samples = 0;          // memory samples on this variable
  std::uint64_t match = 0;
  std::uint64_t mismatch = 0;
  double remote_latency = 0.0;
  double total_latency = 0.0;
  std::vector<std::uint64_t> per_domain;
  /// Share of the program's sampled remote latency (the "z accounts for
  /// 11.3% of the total latency caused by remote accesses" figure).
  double remote_latency_share = 0.0;
  /// Share of the program's M_r.
  double mismatch_share = 0.0;
  /// Share of the program's sampled L3 misses that hit this variable.
  double l3_share = 0.0;
  /// Per-variable lpi: sampled remote latency / sampled accesses on the
  /// variable (the "heap variables have an lpi_NUMA of 11.7" figure).
  std::optional<double> lpi;
  std::uint64_t first_touch_pages = 0;
  /// All accesses funneled to one domain? (the "all accesses to z come
  /// from NUMA domain 0" diagnosis — NUMA_NODE0 == M_l + M_r).
  std::optional<std::uint32_t> single_home_domain;
};

class Analyzer {
 public:
  /// Merges the session's per-thread stores (§7.2) and derives the §4
  /// metrics. Throws ProfileError if any store's domain count disagrees
  /// with the session's machine — merging mismatched widths would silently
  /// misattribute every per-domain column. Only `options.jobs` is
  /// consumed at this stage.
  explicit Analyzer(const SessionData& data,
                    const PipelineOptions& options = {});

  const ProgramSummary& program() const noexcept { return program_; }

  /// All variables with samples, by descending remote-latency share (or
  /// mismatch share when the mechanism has no latency).
  const std::vector<VariableReport>& variables() const noexcept {
    return reports_;
  }
  /// Report for one variable (zeroed report if unsampled).
  VariableReport report(VariableId id) const;

  /// Aggregate share of remote latency (or of M_r without latency) by
  /// variable kind — the "heap-allocated variables account for 61.8% of
  /// total memory latency caused by remote accesses" figures.
  double kind_remote_share(VariableKind kind) const;

  /// Sum-merged metric store over all threads (§7.2).
  const MetricStore& merged() const noexcept { return merged_; }

  /// lpi_NUMA of one CODE REGION: the CCT subtree rooted at `node`
  /// (inclusive sampled remote latency over inclusive sampled
  /// instructions) — "this metric can be computed for the whole program or
  /// any code region" (§4.2). nullopt when the mechanism reports no
  /// latency or the region has no samples.
  std::optional<double> region_lpi(NodeId node) const;

  /// Finds the [ACCESS]-subtree node of the first frame with this name
  /// (e.g. a parallel region), for region_lpi queries.
  std::optional<NodeId> find_region(std::string_view frame_name) const;

  const SessionData& data() const noexcept { return *data_; }

 private:
  void validate_stores() const;
  void merge_stores(const PipelineOptions& options);
  void build_program_summary();
  void build_variable_reports();

  const SessionData* data_;
  MetricStore merged_;
  ProgramSummary program_;
  std::vector<VariableReport> reports_;
};

}  // namespace numaprof::core
