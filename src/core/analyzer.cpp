#include "core/analyzer.hpp"

#include <algorithm>

#include "core/profile_io.hpp"
#include "pmu/config.hpp"
#include "support/stats.hpp"

namespace numaprof::core {

Analyzer::Analyzer(const SessionData& data, const PipelineOptions& options)
    : data_(&data), merged_(data.domain_count) {
  validate_stores();
  merge_stores(options);
  build_program_summary();
  build_variable_reports();
}

void Analyzer::validate_stores() const {
  for (std::size_t tid = 0; tid < data_->stores.size(); ++tid) {
    const std::uint32_t domains = data_->stores[tid].domain_count();
    if (domains != data_->domain_count) {
      throw ProfileError(
          "stores", 0,
          "thread " + std::to_string(tid) + " metric store covers " +
              std::to_string(domains) + " domains but the session has " +
              std::to_string(data_->domain_count));
    }
  }
}

void Analyzer::merge_stores(const PipelineOptions& options) {
  std::vector<const MetricStore*> parts;
  parts.reserve(data_->stores.size());
  for (const MetricStore& store : data_->stores) parts.push_back(&store);
  merged_.merge_all(parts, options.jobs);
}

void Analyzer::build_program_summary() {
  ProgramSummary& p = program_;
  p.per_domain.assign(data_->domain_count, 0);
  for (const ThreadTotals& t : data_->totals) {
    p.samples += t.samples;
    p.memory_samples += t.memory_samples;
    p.match += t.match;
    p.mismatch += t.mismatch;
    p.remote_latency += t.remote_latency;
    p.total_latency += t.total_latency;
    p.l3_miss_samples += t.l3_miss_samples;
    p.remote_l3_miss_samples += t.remote_l3_miss_samples;
    p.instructions += t.instructions;
    p.memory_instructions += t.memory_instructions;
    for (std::size_t d = 0; d < t.per_domain.size() && d < p.per_domain.size();
         ++d) {
      p.per_domain[d] += t.per_domain[d];
    }
  }

  const pmu::Capabilities caps = pmu::capabilities_of(data_->mechanism);
  if (caps.reports_latency) {
    if (data_->mechanism == pmu::Mechanism::kPebsLl) {
      // Eq. 3: event-sampling mechanisms scale by the absolute qualifying-
      // event count and the conventional instruction counter.
      double remote_samples = 0.0;
      for (const ThreadTotals& t : data_->totals) {
        remote_samples += static_cast<double>(t.mismatch);
      }
      p.lpi = lpi_numa_pebs_ll(
          p.remote_latency, remote_samples,
          static_cast<double>(p.memory_samples),
          static_cast<double>(data_->pebs_ll_events),
          static_cast<double>(p.instructions));
    } else {
      // Eq. 2: instruction-sampling mechanisms divide accumulated sampled
      // remote latency by the number of sampled instructions.
      p.lpi = lpi_numa(p.remote_latency, static_cast<double>(p.samples));
    }
    p.warrants_optimization = *p.lpi > kLpiThreshold;
  }

  if (p.total_latency > 0.0) {
    p.remote_latency_fraction = p.remote_latency / p.total_latency;
  }
  // Eq. 1 decomposition: sampled remote accesses estimate I_NUMA, sampled
  // memory accesses estimate I_MEM (both within the sample population);
  // the absolute counters supply I_MEM / I.
  if (p.mismatch > 0) {
    p.avg_remote_latency =
        p.remote_latency / static_cast<double>(p.mismatch);
  }
  if (p.memory_samples > 0) {
    p.remote_access_fraction = static_cast<double>(p.mismatch) /
                               static_cast<double>(p.memory_samples);
  }
  if (p.instructions > 0) {
    p.memory_fraction = static_cast<double>(p.memory_instructions) /
                        static_cast<double>(p.instructions);
  }
  if (p.l3_miss_samples > 0) {
    p.remote_l3_fraction = static_cast<double>(p.remote_l3_miss_samples) /
                           static_cast<double>(p.l3_miss_samples);
  }
  p.domain_imbalance = support::imbalance(p.per_domain);
  if (!p.lpi) {
    // Without latency, fall back to the M_r share as the severity signal:
    // "unless M_r << M_l ... the code region may suffer" (§4.1).
    const std::uint64_t accesses = p.match + p.mismatch;
    p.warrants_optimization =
        accesses > 0 &&
        static_cast<double>(p.mismatch) > 0.3 * static_cast<double>(accesses);
  }
}

void Analyzer::build_variable_reports() {
  reports_.clear();
  for (const Variable& var : data_->variables) {
    VariableReport r = report(var.id);
    if (r.samples == 0 && r.first_touch_pages == 0) continue;
    reports_.push_back(std::move(r));
  }
  const bool have_latency = program_.remote_latency > 0.0;
  std::sort(reports_.begin(), reports_.end(),
            [have_latency](const VariableReport& a, const VariableReport& b) {
              if (have_latency &&
                  a.remote_latency_share != b.remote_latency_share) {
                return a.remote_latency_share > b.remote_latency_share;
              }
              return a.mismatch > b.mismatch;
            });
}

VariableReport Analyzer::report(VariableId id) const {
  const Variable& var = data_->variables.at(id);
  const NodeId node = var.variable_node;

  VariableReport r;
  r.id = id;
  r.name = var.name;
  r.kind = var.kind;
  r.samples = static_cast<std::uint64_t>(merged_.get(node, kMemorySamples));
  r.match = static_cast<std::uint64_t>(merged_.get(node, kNumaMatch));
  r.mismatch = static_cast<std::uint64_t>(merged_.get(node, kNumaMismatch));
  r.remote_latency = merged_.get(node, kRemoteLatency);
  r.total_latency = merged_.get(node, kTotalLatency);
  r.per_domain.resize(data_->domain_count);
  for (std::uint32_t d = 0; d < data_->domain_count; ++d) {
    r.per_domain[d] =
        static_cast<std::uint64_t>(merged_.get(node, domain_metric(d)));
  }
  if (program_.remote_latency > 0.0) {
    r.remote_latency_share = r.remote_latency / program_.remote_latency;
  }
  if (program_.mismatch > 0) {
    r.mismatch_share = static_cast<double>(r.mismatch) /
                       static_cast<double>(program_.mismatch);
  }
  if (program_.l3_miss_samples > 0) {
    r.l3_share = merged_.get(node, kL3MissSamples) /
                 static_cast<double>(program_.l3_miss_samples);
  }
  if (pmu::capabilities_of(data_->mechanism).reports_latency &&
      r.samples > 0) {
    r.lpi = lpi_numa(r.remote_latency, static_cast<double>(r.samples));
  }
  r.first_touch_pages =
      static_cast<std::uint64_t>(merged_.get(node, kFirstTouches));

  // Single-home detection: NUMA_NODE<d> == M_l + M_r for exactly one d.
  const std::uint64_t accesses = r.match + r.mismatch;
  if (accesses > 0) {
    for (std::uint32_t d = 0; d < data_->domain_count; ++d) {
      if (r.per_domain[d] == accesses) {
        r.single_home_domain = d;
        break;
      }
    }
  }
  return r;
}

std::optional<double> Analyzer::region_lpi(NodeId node) const {
  if (!pmu::capabilities_of(data_->mechanism).reports_latency) {
    return std::nullopt;
  }
  const double samples = inclusive(data_->cct, merged_, kSamples).at(node);
  if (samples <= 0.0) return std::nullopt;
  return inclusive(data_->cct, merged_, kRemoteLatency)[node] / samples;
}

std::optional<NodeId> Analyzer::find_region(std::string_view frame_name) const {
  const auto access =
      data_->cct.find_child(kRootNode, NodeKind::kAccess, 0);
  if (!access) return std::nullopt;
  std::optional<NodeId> found;
  data_->cct.visit(*access, [&](NodeId id) {
    if (found) return;
    const CctNode& n = data_->cct.node(id);
    if (n.kind != NodeKind::kFrame) return;
    const auto frame = static_cast<simrt::FrameId>(n.key);
    if (frame < data_->frames.size() &&
        data_->frames[frame].name == frame_name) {
      found = id;
    }
  });
  return found;
}

double Analyzer::kind_remote_share(VariableKind kind) const {
  const bool have_latency = program_.remote_latency > 0.0;
  double share = 0.0;
  for (const VariableReport& r : reports_) {
    if (r.kind != kind) continue;
    share += have_latency
                 ? r.remote_latency_share
                 : (program_.mismatch > 0 ? r.mismatch_share : 0.0);
  }
  return share;
}

}  // namespace numaprof::core
