// NUMA metrics (§4) and per-(node, thread) metric storage.
//
// Fixed metrics follow the paper's viewer columns: NUMA_MATCH (M_l),
// NUMA_MISMATCH (M_r), sampled-latency totals, sample counts; per-domain
// access counts (NUMA_NODE<k>) are appended dynamically based on the
// machine's domain count. Derived metrics (lpi_NUMA, Eqs. 1-3) are computed
// from these by free functions so any view can evaluate them over any
// context.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cct.hpp"
#include "numasim/types.hpp"

namespace numaprof::core {

/// Fixed metric slots. Per-domain slots follow these, one per NUMA domain.
enum Metric : std::uint32_t {
  kNumaMatch = 0,       // M_l: sampled accesses to the local domain
  kNumaMismatch,        // M_r: sampled accesses to a remote domain
  kSamples,             // I^s: all sampled instructions (memory or not)
  kMemorySamples,       // sampled memory accesses
  kRemoteLatency,       // l^s_NUMA: summed latency of sampled remote accesses
  kTotalLatency,        // summed latency of all sampled accesses
  kL3MissSamples,       // sampled accesses that missed L3 (MRK's event)
  kRemoteL3MissSamples, // ... of those, how many were remote
  kFirstTouches,        // first-touch faults attributed here
  // Data-source breakdown (available when the mechanism reports data
  // sources — IBS and PEBS-LL; §8.3 uses these to identify where buffer's
  // accesses were served from). One slot per numasim::DataSource value.
  kSourceL1,
  kSourceL2,
  kSourceLocalL3,
  kSourceRemoteL3,
  kSourceLocalDram,
  kSourceRemoteDram,
  kFixedMetricCount,
};

/// Metric slot for a data source value.
constexpr std::uint32_t source_metric(numasim::DataSource s) noexcept {
  return kSourceL1 + static_cast<std::uint32_t>(s);
}

/// Human-readable metric names; `domain_count` extends with NUMA_NODE<k>.
std::vector<std::string> metric_names(std::uint32_t domain_count);

/// Index of the NUMA_NODE<domain> slot.
constexpr std::uint32_t domain_metric(std::uint32_t domain) noexcept {
  return kFixedMetricCount + domain;
}

/// Dense per-node metric vectors for ONE thread's profile (hpcrun keeps
/// per-thread profiles; the analyzer merges them, §7.2).
class MetricStore {
 public:
  explicit MetricStore(std::uint32_t domain_count)
      : width_(kFixedMetricCount + domain_count) {}

  std::uint32_t width() const noexcept { return width_; }

  /// NUMA domains this store was sized for (width minus the fixed slots).
  std::uint32_t domain_count() const noexcept {
    return width_ - kFixedMetricCount;
  }

  void add(NodeId node, std::uint32_t metric, double value);
  double get(NodeId node, std::uint32_t metric) const;

  /// Bulk row access for the columnar (de)serializers: `row` is the dense
  /// width()-wide metric vector of `node` (empty span when the node has no
  /// recorded metrics), and set_row() installs one wholesale — the binary
  /// loader feeds decoded metric columns straight in, bypassing the
  /// per-cell add() path. `values.size()` must equal width().
  std::span<const double> row(NodeId node) const;
  void set_row(NodeId node, std::span<const double> values);
  bool has(NodeId node) const { return node < values_.size() && !values_[node].empty(); }

  /// One past the highest node slot allocated (rows may be empty).
  std::size_t node_capacity() const noexcept { return values_.size(); }

  /// Nodes with any recorded metric.
  std::vector<NodeId> nodes() const;

  /// Accumulates `other` into this store (the sum half of the §7.2 merge).
  void merge(const MetricStore& other);
  /// The same sums, adopting `other`'s rows where this store has none
  /// (each adopted value gets the `+ 0.0` the sum would have given it).
  void merge(MetricStore&& other);

  /// Folds every store in `parts` into this one, parallelized across
  /// chunks of node ROWS on `jobs` threads: each row's metric values are
  /// summed over `parts` in vector order, exactly the per-element addition
  /// order of calling merge() on each part sequentially — so the result is
  /// bitwise identical to the serial fold for ANY jobs value.
  void merge_all(const std::vector<const MetricStore*>& parts,
                 unsigned jobs);

 private:
  std::uint32_t width_;
  // Indexed by NodeId; empty inner vector = untouched node. NodeIds are
  // dense and shared across threads (one Cct per profiling session).
  std::vector<std::vector<double>> values_;
};

/// Inclusive metric of every node, indexed by NodeId: `metric` summed
/// over the node's subtree, without the subtrees of its kBin children.
std::vector<double> inclusive(const Cct& cct, const MetricStore& store,
                              std::uint32_t metric);

/// lpi_NUMA over a context (Eq. 2, the IBS form): accumulated sampled
/// remote latency divided by sampled instruction count in that context.
/// Returns 0 when no samples landed there.
double lpi_numa(double remote_latency, double sampled_instructions) noexcept;

/// lpi_NUMA via Eq. 3 (the PEBS-LL form): average latency per sampled
/// remote event, scaled by the absolute qualifying-event count estimate and
/// divided by the absolute instruction count.
double lpi_numa_pebs_ll(double sampled_remote_latency,
                        double sampled_remote_events,
                        double sampled_total_events,
                        double absolute_event_count,
                        double absolute_instructions) noexcept;

/// The paper's severity rule of thumb: lpi_NUMA above 0.1 cycles per
/// instruction warrants NUMA optimization (§4.2).
inline constexpr double kLpiThreshold = 0.1;

}  // namespace numaprof::core
