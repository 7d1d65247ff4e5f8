#include "core/viewer.hpp"

#include <algorithm>
#include <sstream>

#include "core/export/writer_util.hpp"
#include "pmu/config.hpp"

namespace numaprof::core {

namespace {

using support::format_count;
using support::format_fixed;
using support::format_percent;

std::string lpi_cell(const std::optional<double>& lpi) {
  return lpi ? format_fixed(*lpi, 3) : "n/a";
}

}  // namespace

std::string Viewer::program_summary() const {
  const ProgramSummary& p = analyzer_->program();
  const SessionData& d = analyzer_->data();
  std::ostringstream os;
  os << "=== NUMA profile: " << d.machine_name << " ===\n"
     << "mechanism: " << pmu::to_string(d.mechanism);
  if (d.requested_mechanism != d.mechanism) {
    // Label the data with how it was ACTUALLY collected, not how the run
    // was configured — a fallback changes what the metrics mean.
    os << " (requested " << pmu::to_string(d.requested_mechanism)
       << ", degraded)";
  }
  os << "  period: " << d.sampling_period
     << "  threads: " << d.thread_count() << "\n"
     << "instructions (I): " << format_count(p.instructions)
     << "  memory (I_MEM): " << format_count(p.memory_instructions)
     << "  sampled (I^s): " << format_count(p.samples) << "\n"
     << "M_l (NUMA_MATCH): " << format_count(p.match)
     << "  M_r (NUMA_MISMATCH): " << format_count(p.mismatch) << "\n";
  if (p.total_latency > 0.0) {
    os << "sampled latency: " << format_fixed(p.total_latency, 0)
       << " cycles, remote fraction: "
       << format_percent(p.remote_latency_fraction) << "\n";
  }
  if (p.l3_miss_samples > 0) {
    os << "L3-miss samples: " << format_count(p.l3_miss_samples)
       << ", remote: " << format_percent(p.remote_l3_fraction) << "\n";
  }
  os << "domain imbalance (max/mean requests): "
     << format_fixed(p.domain_imbalance, 2) << "\n";
  if (p.lpi) {
    // Eq. 1's three factors.
    os << "lpi decomposition (Eq. 1): " << format_fixed(p.avg_remote_latency, 1)
       << " cyc/remote x " << format_percent(p.remote_access_fraction)
       << " remote x " << format_percent(p.memory_fraction)
       << " memory/insn\n";
  }
  os << "lpi_NUMA: " << lpi_cell(p.lpi);
  if (p.lpi) {
    os << " cycles/insn (threshold " << format_fixed(kLpiThreshold, 1)
       << ") -> "
       << (p.warrants_optimization ? "WARRANTS NUMA optimization"
                                   : "NUMA optimization NOT worthwhile");
  } else {
    os << " (mechanism reports no latency) -> "
       << (p.warrants_optimization
               ? "high M_r share suggests NUMA problems"
               : "M_r share low; likely no NUMA problem");
  }
  os << "\n";
  return os.str();
}

std::string Viewer::collection_health() const {
  const SessionData& d = analyzer_->data();
  if (!d.degraded()) return {};
  std::ostringstream os;
  if (d.requested_mechanism != d.mechanism) {
    os << "requested " << pmu::to_string(d.requested_mechanism)
       << ", collected with " << pmu::to_string(d.mechanism) << "\n";
  }
  if (!d.fault_context.empty()) {
    os << "active fault plan: " << d.fault_context << "\n";
  }
  // Identical events collapse into one row with a repeat count: a retry
  // loop that degrades the same way 50 times is one fact about the run,
  // not 50 rows drowning out the rest of the pane.
  std::size_t skipped_files = 0;
  std::vector<std::pair<const DegradationEvent*, std::size_t>> rows;
  for (const DegradationEvent& e : d.degradations) {
    if (e.kind == DegradationKind::kProfileFileSkipped) ++skipped_files;
    const auto same = [&e](const auto& row) {
      const DegradationEvent& seen = *row.first;
      return seen.kind == e.kind && seen.mechanism == e.mechanism &&
             seen.value == e.value && seen.detail == e.detail;
    };
    if (auto it = std::find_if(rows.begin(), rows.end(), same);
        it != rows.end()) {
      ++it->second;
    } else {
      rows.emplace_back(&e, 1);
    }
  }
  // Ingest-side degradations have no PMU mechanism to name; their rows
  // skip it instead of blaming whatever mechanism the struct defaulted to.
  const auto from_ingest = [](DegradationKind k) {
    return k == DegradationKind::kIngestShardMissing ||
           k == DegradationKind::kIngestShardCorrupt ||
           k == DegradationKind::kIngestClientEvicted ||
           k == DegradationKind::kIngestWalDegraded;
  };
  for (const auto& [event, repeats] : rows) {
    os << "[" << to_string(event->kind) << "]";
    if (!from_ingest(event->kind)) {
      os << " " << pmu::to_string(event->mechanism);
      if (event->value != 0) os << " (" << event->value << ")";
    }
    os << ": " << event->detail;
    if (repeats > 1) os << " (x" << repeats << ")";
    os << "\n";
  }
  if (skipped_files > 0) {
    os << skipped_files
       << " per-thread profile file(s) skipped during the merge; metrics "
          "are computed from the remaining files\n";
  }
  return os.str();
}

support::Table Viewer::data_centric_table(std::size_t top_n) const {
  const SessionData& d = analyzer_->data();
  std::vector<std::string> header = {"variable",  "kind",    "samples",
                                     "M_l",       "M_r",     "rem.lat%",
                                     "M_r%",      "lpi",     "home"};
  for (std::uint32_t dom = 0; dom < d.domain_count; ++dom) {
    header.push_back(std::string("N").append(std::to_string(dom)));
  }
  support::Table table(std::move(header));
  std::size_t emitted = 0;
  for (const VariableReport& r : analyzer_->variables()) {
    if (emitted++ >= top_n) break;
    std::vector<std::string> row = {
        r.name,
        std::string(to_string(r.kind)),
        format_count(r.samples),
        format_count(r.match),
        format_count(r.mismatch),
        format_percent(r.remote_latency_share),
        format_percent(r.mismatch_share),
        lpi_cell(r.lpi),
        r.single_home_domain ? "domain " + std::to_string(*r.single_home_domain)
                             : "spread",
    };
    for (std::uint32_t dom = 0; dom < d.domain_count; ++dom) {
      row.push_back(format_count(r.per_domain[dom]));
    }
    table.add_row(std::move(row));
  }
  return table;
}

support::Table Viewer::code_centric_table(std::size_t top_n) const {
  const SessionData& d = analyzer_->data();
  const MetricStore& merged = analyzer_->merged();

  struct Row {
    NodeId node;
    double remote_latency;
    double mismatch;
    double samples;
  };
  std::vector<Row> rows;
  const auto access = d.cct.find_child(kRootNode, NodeKind::kAccess, 0);
  if (access) {
    d.cct.visit(*access, [&](NodeId id) {
      if (d.cct.node(id).kind != NodeKind::kFrame) return;
      const double samples = merged.get(id, kMemorySamples);
      if (samples <= 0) return;
      rows.push_back(Row{.node = id,
                         .remote_latency = merged.get(id, kRemoteLatency),
                         .mismatch = merged.get(id, kNumaMismatch),
                         .samples = samples});
    });
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.remote_latency != b.remote_latency)
      return a.remote_latency > b.remote_latency;
    return a.mismatch > b.mismatch;
  });

  support::Table table({"call path", "samples", "M_l", "M_r", "rem.latency",
                        "lpi"});
  for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const Row& r = rows[i];
    const double match = merged.get(r.node, kNumaMatch);
    const double sampled = merged.get(r.node, kSamples);
    table.add_row({
        d.path_string(r.node),
        format_count(static_cast<std::uint64_t>(r.samples)),
        format_count(static_cast<std::uint64_t>(match)),
        format_count(static_cast<std::uint64_t>(r.mismatch)),
        format_fixed(r.remote_latency, 0),
        sampled > 0 ? format_fixed(r.remote_latency / sampled, 3) : "n/a",
    });
  }
  return table;
}

support::Table Viewer::address_centric_table(VariableId variable,
                                             simrt::FrameId context) const {
  const SessionData& d = analyzer_->data();
  const Variable& var = d.variables.at(variable);
  support::Table table({"thread", "lo", "hi", "samples", "latency"});
  for (const ThreadRange& range :
       d.address_centric.thread_ranges(var, context)) {
    table.add_row({std::to_string(range.tid), format_fixed(range.lo, 4),
                   format_fixed(range.hi, 4), format_count(range.count),
                   format_fixed(range.latency, 0)});
  }
  return table;
}

std::string Viewer::address_centric_plot(VariableId variable,
                                         simrt::FrameId context,
                                         std::uint32_t width) const {
  const SessionData& d = analyzer_->data();
  const Variable& var = d.variables.at(variable);
  const auto ranges = d.address_centric.thread_ranges(var, context);

  std::ostringstream os;
  os << "address-centric view: " << var.name << " ("
     << to_string(var.kind) << ", " << var.page_count << " pages)"
     << "  context: " << d.frame_name(context) << "\n"
     << "normalized address range [0,1], one row per thread\n";
  for (const ThreadRange& r : ranges) {
    auto lo_col = static_cast<std::uint32_t>(r.lo * (width - 1));
    auto hi_col = static_cast<std::uint32_t>(r.hi * (width - 1));
    lo_col = std::min(lo_col, width - 1);
    hi_col = std::min(std::max(hi_col, lo_col), width - 1);
    std::string bar(width, '.');
    for (std::uint32_t c = lo_col; c <= hi_col; ++c) bar[c] = '#';
    os << "t" << (r.tid < 10 ? "  " : r.tid < 100 ? " " : "") << r.tid << " |"
       << bar << "| [" << format_fixed(r.lo, 2) << ","
       << format_fixed(r.hi, 2) << "] n=" << r.count << "\n";
  }
  return os.str();
}

support::Table Viewer::first_touch_table(VariableId variable) const {
  const SessionData& d = analyzer_->data();
  support::Table table({"first-touch call path", "pages", "threads",
                        "domains"});
  for (const FirstTouchSite& site : d.first_touch_sites(variable)) {
    std::string threads;
    for (const auto tid : site.threads) {
      if (!threads.empty()) threads += ",";
      threads += std::to_string(tid);
      if (threads.size() > 24) {
        threads += ",...";
        break;
      }
    }
    std::string domains;
    for (const auto dom : site.domains) {
      if (!domains.empty()) domains += ",";
      domains += std::to_string(dom);
    }
    table.add_row({d.path_string(site.node), format_count(site.pages),
                   threads, domains});
  }
  return table;
}

support::Table Viewer::domain_balance_table() const {
  const ProgramSummary& p = analyzer_->program();
  support::Table table({"domain", "sampled requests", "share"});
  std::uint64_t total = 0;
  for (const auto v : p.per_domain) total += v;
  for (std::size_t dom = 0; dom < p.per_domain.size(); ++dom) {
    table.add_row({std::to_string(dom), format_count(p.per_domain[dom]),
                   total ? format_percent(static_cast<double>(p.per_domain[dom]) /
                                          static_cast<double>(total))
                         : "0%"});
  }
  return table;
}

support::Table Viewer::data_source_table(VariableId variable) const {
  const SessionData& d = analyzer_->data();
  const MetricStore& merged = analyzer_->merged();
  const NodeId node = d.variables.at(variable).variable_node;

  support::Table table({"data source", "sampled accesses", "share"});
  double total = 0.0;
  for (int s = 0; s < 6; ++s) {
    total += merged.get(node, kSourceL1 + s);
  }
  for (int s = 0; s < 6; ++s) {
    const auto source = static_cast<numasim::DataSource>(s);
    const double count = merged.get(node, source_metric(source));
    table.add_row({std::string(numasim::to_string(source)),
                   format_count(static_cast<std::uint64_t>(count)),
                   total > 0 ? format_percent(count / total) : "n/a"});
  }
  return table;
}

std::string Viewer::cct_tree(std::uint32_t metric, NodeId root,
                             std::size_t max_depth, double min_share) const {
  const SessionData& d = analyzer_->data();
  const MetricStore& merged = analyzer_->merged();
  const auto names = metric_names(d.domain_count);
  std::ostringstream os;
  os << "CCT (inclusive " << names.at(metric) << ")\n";
  const std::vector<double> totals = inclusive(d.cct, merged, metric);
  const double total = totals.at(root);
  if (total <= 0.0) {
    os << "  (no samples)\n";
    return os.str();
  }

  struct Entry {
    NodeId node;
    std::size_t depth;
  };
  // Explicit stack for pre-order traversal with sorted children.
  std::vector<Entry> stack = {{root, 0}};
  while (!stack.empty()) {
    const Entry entry = stack.back();
    stack.pop_back();
    const double value = totals[entry.node];
    if (value < min_share * total) continue;
    os << std::string(entry.depth * 2, ' ') << d.node_label(entry.node)
       << "  " << format_fixed(value, 0) << " ("
       << format_percent(value / total) << ")\n";
    if (entry.depth + 1 > max_depth) continue;
    const auto kids = d.cct.children(entry.node);
    std::vector<NodeId> children(kids.begin(), kids.end());
    std::sort(children.begin(), children.end(), [&](NodeId a, NodeId b) {
      return totals[a] < totals[b];
    });  // ascending: stack pops largest first
    for (const NodeId child : children) {
      stack.push_back({child, entry.depth + 1});
    }
  }
  return os.str();
}

std::string Viewer::trace_timeline(std::uint32_t windows) const {
  const SessionData& d = analyzer_->data();
  if (d.trace.empty()) return {};
  const TraceAnalysis analysis(d.trace);
  std::ostringstream os;
  os << "trace timeline (" << windows
     << " windows, char = M_r share: ' '<none '.'<25% '-'<50% '+'<75% "
        "'#'>=75%)\n|"
     << analysis.timeline(windows) << "|\n";
  return os.str();
}

std::string render_fused_findings(const std::vector<FusedFinding>& fused) {
  std::ostringstream os;
  os << "-- fused findings (static lint x dynamic profile) --\n";
  if (fused.empty()) {
    os << "none\n";
    return os.str();
  }
  for (const FusedFinding& f : fused) {
    os << "[" << to_string(f.confidence) << "] " << f.variable << ": "
       << to_string(f.action);
    if (f.confidence == FusionConfidence::kConfirmed) {
      os << (f.patterns_agree ? " (patterns agree)" : " (patterns disagree)");
    }
    os << "\n  " << f.rationale << "\n";
    for (const StaticFinding& s : f.static_evidence) {
      os << "  static: " << s.file << ":" << s.line << " ["
         << to_string(s.kind) << "] expects " << to_string(s.expected)
         << ", suggests " << to_string(s.suggested) << "\n";
    }
    if (f.dynamic_evidence.has_value()) {
      os << "  dynamic: observed " << to_string(f.dynamic_evidence->guiding.kind)
         << " across " << f.dynamic_evidence->guiding.threads << " thread"
         << (f.dynamic_evidence->guiding.threads == 1 ? "" : "s")
         << (f.severity_warrants ? "" : ", below severity threshold") << "\n";
    }
  }
  return os.str();
}

std::string render_fused_findings_json(
    const std::vector<FusedFinding>& fused) {
  std::ostringstream os;
  os << "{\"fused\":[";
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const FusedFinding& f = fused[i];
    os << (i == 0 ? "" : ",") << "\n{\"variable\":\""
       << export_detail::json_escape(f.variable) << "\",\"confidence\":\""
       << to_string(f.confidence) << "\",\"action\":\"" << to_string(f.action)
       << "\",\"severity-warrants\":" << (f.severity_warrants ? "true" : "false")
       << ",\"patterns-agree\":" << (f.patterns_agree ? "true" : "false")
       << ",\"rationale\":\"" << export_detail::json_escape(f.rationale)
       << "\",\"static-evidence\":[";
    for (std::size_t s = 0; s < f.static_evidence.size(); ++s) {
      const StaticFinding& evidence = f.static_evidence[s];
      os << (s == 0 ? "" : ",") << "{\"file\":\""
         << export_detail::json_escape(evidence.file)
         << "\",\"line\":" << evidence.line << ",\"kind\":\""
         << to_string(evidence.kind) << "\",\"expected\":\""
         << to_string(evidence.expected) << "\",\"suggested\":\""
         << to_string(evidence.suggested) << "\"}";
    }
    os << "]";
    if (f.dynamic_evidence.has_value()) {
      const Recommendation& rec = *f.dynamic_evidence;
      os << ",\"dynamic-evidence\":{\"pattern\":\""
         << to_string(rec.guiding.kind) << "\",\"threads\":"
         << rec.guiding.threads << ",\"context-share\":"
         << format_fixed(rec.guiding_context_share, 4) << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace numaprof::core
