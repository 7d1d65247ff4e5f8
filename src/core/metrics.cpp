#include "core/metrics.hpp"

#include <algorithm>

#include "support/parallel.hpp"

namespace numaprof::core {

std::vector<std::string> metric_names(std::uint32_t domain_count) {
  std::vector<std::string> names = {
      "NUMA_MATCH",    "NUMA_MISMATCH",  "SAMPLES",
      "MEM_SAMPLES",   "REMOTE_LATENCY", "TOTAL_LATENCY",
      "L3MISS",        "REMOTE_L3MISS",  "FIRST_TOUCH",
      "SRC_L1",        "SRC_L2",         "SRC_LOCAL_L3",
      "SRC_REMOTE_L3", "SRC_LOCAL_DRAM", "SRC_REMOTE_DRAM",
  };
  for (std::uint32_t d = 0; d < domain_count; ++d) {
    names.push_back("NUMA_NODE" + std::to_string(d));
  }
  return names;
}

void MetricStore::add(NodeId node, std::uint32_t metric, double value) {
  // size_t arithmetic: node + 1 must not wrap when node == max NodeId.
  if (node >= values_.size()) {
    values_.resize(static_cast<std::size_t>(node) + 1);
  }
  auto& row = values_[node];
  if (row.empty()) row.resize(width_, 0.0);
  row[metric] += value;
}

double MetricStore::get(NodeId node, std::uint32_t metric) const {
  if (node >= values_.size() || values_[node].empty()) return 0.0;
  return values_[node][metric];
}

std::span<const double> MetricStore::row(NodeId node) const {
  if (node >= values_.size() || values_[node].empty()) return {};
  return values_[node];
}

void MetricStore::set_row(NodeId node, std::span<const double> values) {
  if (node >= values_.size()) {
    values_.resize(static_cast<std::size_t>(node) + 1);
  }
  values_[node].assign(values.begin(), values.end());
}

std::vector<NodeId> MetricStore::nodes() const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < values_.size(); ++id) {
    if (!values_[id].empty()) result.push_back(id);
  }
  return result;
}

void MetricStore::merge(const MetricStore& other) {
  if (other.values_.size() > values_.size()) {
    values_.resize(other.values_.size());
  }
  for (NodeId id = 0; id < other.values_.size(); ++id) {
    if (other.values_[id].empty()) continue;
    auto& row = values_[id];
    if (row.empty()) row.resize(width_, 0.0);
    for (std::uint32_t m = 0; m < width_ && m < other.width_; ++m) {
      row[m] += other.values_[id][m];
    }
  }
}

void MetricStore::merge(MetricStore&& other) {
  if (other.values_.size() > values_.size()) {
    values_.resize(other.values_.size());
  }
  for (NodeId id = 0; id < other.values_.size(); ++id) {
    std::vector<double>& row = values_[id];
    if (row.empty() && other.values_[id].size() == width_) {
      row.swap(other.values_[id]);
      for (double& v : row) v += 0.0;  // as 0.0 + v: -0.0 becomes 0.0
    }
  }
  merge(other);  // the rows both stores have
}

void MetricStore::merge_all(const std::vector<const MetricStore*>& parts,
                            unsigned jobs) {
  std::size_t rows = values_.size();
  for (const MetricStore* part : parts) {
    rows = std::max(rows, part->values_.size());
  }
  values_.resize(rows);
  constexpr std::size_t kChunk = 256;
  support::parallel_for_each(
      jobs, (rows + kChunk - 1) / kChunk, [&](std::size_t chunk) {
        const std::size_t end = std::min(rows, (chunk + 1) * kChunk);
        for (std::size_t id = chunk * kChunk; id < end; ++id) {
          auto& row = values_[id];
          for (const MetricStore* part : parts) {
            if (id >= part->values_.size() || part->values_[id].empty()) {
              continue;
            }
            if (row.empty()) row.resize(width_, 0.0);
            const auto& source = part->values_[id];
            const std::uint32_t width = std::min(width_, part->width_);
            for (std::uint32_t m = 0; m < width; ++m) row[m] += source[m];
          }
        }
      });
}

std::vector<double> inclusive(const Cct& cct, const MetricStore& store,
                              std::uint32_t metric) {
  // A child's id is larger than its parent's, so one backward pass over
  // the ids finishes every subtree before adding it to its parent. Bin
  // nodes REFINE their parent variable's attribution (each sample is
  // recorded at both the variable node and its bin, §5.2), so adding them
  // would double-count; they still total their own subtree.
  std::vector<double> totals(cct.size(), 0.0);
  for (auto id = static_cast<NodeId>(totals.size()); id-- > 0;) {
    totals[id] += store.get(id, metric);
    const CctNode& n = cct.node(id);
    if (id != kRootNode && n.kind != NodeKind::kBin) {
      totals[n.parent] += totals[id];
    }
  }
  return totals;
}

double lpi_numa(double remote_latency, double sampled_instructions) noexcept {
  if (sampled_instructions <= 0.0) return 0.0;
  return remote_latency / sampled_instructions;
}

double lpi_numa_pebs_ll(double sampled_remote_latency,
                        double sampled_remote_events,
                        double sampled_total_events,
                        double absolute_event_count,
                        double absolute_instructions) noexcept {
  if (sampled_remote_events <= 0.0 || sampled_total_events <= 0.0 ||
      absolute_instructions <= 0.0) {
    return 0.0;
  }
  // Average latency per sampled remote event (l^s / E^s)...
  const double mean_remote_latency =
      sampled_remote_latency / sampled_remote_events;
  // ...times the absolute remote event estimate: the free-running counter
  // gives total qualifying events; the sampled remote fraction apportions.
  const double remote_fraction = sampled_remote_events / sampled_total_events;
  const double absolute_remote_events = absolute_event_count * remote_fraction;
  return mean_remote_latency * absolute_remote_events / absolute_instructions;
}

}  // namespace numaprof::core
