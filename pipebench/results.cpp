#include "results.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/export/schema.hpp"
#include "core/export/writer_util.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace pipebench {

using numaprof::Error;
using numaprof::ErrorKind;
using numaprof::core::JsonNode;
using numaprof::core::export_detail::json_escape;

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

[[noreturn]] void bad_input(const std::string& file, const std::string& what) {
  throw Error(ErrorKind::kUsage, file, "json", 0, file + ": " + what);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad_input(path, "cannot read");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

JsonNode parse_file(const std::string& path) {
  std::string error;
  auto node = numaprof::core::parse_json(read_text(path), &error);
  if (!node) bad_input(path, error);
  return std::move(*node);
}

double number(const JsonNode* node) {
  return node != nullptr && node->kind == JsonNode::Kind::kNumber
             ? node->number
             : 0.0;
}

std::string text(const JsonNode* node) {
  return node != nullptr && node->kind == JsonNode::Kind::kString
             ? node->string
             : std::string();
}

std::string format_value(double v) {
  std::ostringstream os;
  os.precision(5);
  os << v;
  return os.str();
}

}  // namespace

Metric summarize(std::string name, std::string unit,
                 std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Metric{.name = std::move(name),
                .unit = std::move(unit),
                .median = quantile(values, 0.5),
                .p25 = quantile(values, 0.25),
                .p75 = quantile(values, 0.75),
                .n = values.size()};
}

const Metric* WorkloadResult::find(std::string_view metric) const {
  for (const Metric& m : metrics) {
    if (m.name == metric) return &m;
  }
  return nullptr;
}

std::string to_json(const RunDoc& doc) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  const Host& h = doc.host;
  os << "{\"bench\":\"pipeline_e2e\",\"mode\":\"" << doc.mode
     << "\",\n\"host\":{\"nproc\":" << h.nproc << ",\"compiler\":\""
     << json_escape(h.compiler) << "\",\"build_type\":\""
     << json_escape(h.build_type) << "\",\"jobs\":" << h.jobs
     << ",\"seed\":" << h.seed
     << ",\"instrumentation_work\":" << h.instrumentation_work
     << ",\"skid_correction_work\":" << h.skid_correction_work
     << "},\n\"workloads\":{";
  for (std::size_t w = 0; w < doc.workloads.size(); ++w) {
    const WorkloadResult& r = doc.workloads[w];
    os << (w == 0 ? "\n" : ",\n") << "\"" << json_escape(r.name)
       << "\":{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\"" << json_escape(r.failures[i]) << "\"";
    }
    os << "],\"dominant_stage\":\"" << json_escape(r.dominant_stage)
       << "\",\"dominant_layer\":\"" << json_escape(r.dominant_layer)
       << "\",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      os << (i == 0 ? "\n" : ",\n") << "  \"" << json_escape(m.name)
         << "\":{\"unit\":\"" << json_escape(m.unit)
         << "\",\"median\":" << m.median << ",\"p25\":" << m.p25
         << ",\"p75\":" << m.p75 << ",\"n\":" << m.n << "}";
    }
    os << "}}";
  }
  os << "\n}}\n";
  return os.str();
}

RunDoc read_run(const std::string& spec) {
  // FILE:RUN — a colon followed by no '/' is a run selector.
  std::string path = spec;
  std::string run;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos &&
      spec.find('/', colon) == std::string::npos) {
    path = spec.substr(0, colon);
    run = spec.substr(colon + 1);
  }
  const JsonNode root = parse_file(path);
  const JsonNode* doc = &root;
  if (const JsonNode* runs = root.find("runs")) {
    if (runs->kind != JsonNode::Kind::kObject || runs->members.empty()) {
      bad_input(path, "\"runs\" must be a non-empty object");
    }
    doc = run.empty() ? &runs->members.front().second : runs->find(run);
    if (doc == nullptr) bad_input(path, "no run named '" + run + "'");
  }
  const JsonNode* workloads = doc->find("workloads");
  if (workloads == nullptr || workloads->kind != JsonNode::Kind::kObject) {
    bad_input(path, "no \"workloads\" object");
  }

  RunDoc out;
  out.mode = text(doc->find("mode"));
  if (const JsonNode* h = doc->find("host")) {
    out.host.nproc = static_cast<unsigned>(number(h->find("nproc")));
    out.host.compiler = text(h->find("compiler"));
    out.host.build_type = text(h->find("build_type"));
    out.host.jobs = static_cast<unsigned>(number(h->find("jobs")));
    out.host.seed = static_cast<std::uint64_t>(number(h->find("seed")));
    out.host.instrumentation_work =
        static_cast<std::uint32_t>(number(h->find("instrumentation_work")));
    out.host.skid_correction_work =
        static_cast<std::uint32_t>(number(h->find("skid_correction_work")));
  }
  for (const auto& [name, node] : workloads->members) {
    WorkloadResult r;
    r.name = name;
    r.attempted = static_cast<std::size_t>(number(node.find("attempted")));
    r.failed = static_cast<std::size_t>(number(node.find("failed")));
    if (const JsonNode* failures = node.find("failures")) {
      for (const JsonNode& f : failures->items) r.failures.push_back(f.string);
    }
    r.dominant_stage = text(node.find("dominant_stage"));
    r.dominant_layer = text(node.find("dominant_layer"));
    if (const JsonNode* metrics = node.find("metrics")) {
      for (const auto& [metric, m] : metrics->members) {
        r.metrics.push_back(
            Metric{.name = metric,
                   .unit = text(m.find("unit")),
                   .median = number(m.find("median")),
                   .p25 = number(m.find("p25")),
                   .p75 = number(m.find("p75")),
                   .n = static_cast<std::size_t>(number(m.find("n")))});
      }
    }
    out.workloads.push_back(std::move(r));
  }
  return out;
}

void print_metrics(const RunDoc& doc, std::ostream& os) {
  for (const WorkloadResult& r : doc.workloads) {
    for (const Metric& m : r.metrics) {
      os << m.name << " " << r.name << " " << format_value(m.median) << " "
         << m.unit << " p25=" << format_value(m.p25)
         << " p75=" << format_value(m.p75) << " n=" << m.n << "\n";
    }
  }
}

std::map<std::string, Bound> read_bounds(const std::string& path) {
  const JsonNode root = parse_file(path);
  const JsonNode* list = root.find("end_to_end");
  if (list == nullptr || list->kind != JsonNode::Kind::kArray) {
    bad_input(path, "no \"end_to_end\" array");
  }
  std::map<std::string, Bound> bounds;
  for (const JsonNode& m : list->items) {
    bounds[text(m.find("name"))] =
        Bound{.share = number(m.find("bound")),
              .lower_is_better = text(m.find("better")) != "higher"};
  }
  return bounds;
}

std::size_t compare(const RunDoc& before, const RunDoc& after,
                    const std::map<std::string, Bound>& bounds,
                    std::ostream& os) {
  numaprof::support::Table table({"metric", "workload", "A median [p25,p75]",
                                  "B median [p25,p75]", "change", "bound",
                                  "verdict"});
  const auto spread = [](const Metric& m) {
    return m.median == 0.0 ? 0.0 : (m.p75 - m.p25) / std::fabs(m.median);
  };
  const auto cell = [](const Metric& m) {
    return format_value(m.median) + " [" + format_value(m.p25) + "," +
           format_value(m.p75) + "] " + m.unit;
  };
  std::size_t not_within = 0;
  const auto missing = [&](const std::string& metric, const WorkloadResult& a,
                           const std::string& a_cell) {
    ++not_within;
    table.add_row({metric, a.name, a_cell, "-", "-", "-", "missing in B"});
  };
  for (const WorkloadResult& a : before.workloads) {
    const WorkloadResult* b = nullptr;
    for (const WorkloadResult& candidate : after.workloads) {
      if (candidate.name == a.name) b = &candidate;
    }
    if (b == nullptr) {
      missing("*", a, std::to_string(a.metrics.size()) + " metrics");
      continue;
    }
    for (const Metric& ma : a.metrics) {
      const Metric* mb = b->find(ma.name);
      if (mb == nullptr) {
        missing(ma.name, a, cell(ma));
        continue;
      }
      const auto it = bounds.find(ma.name);
      const Bound bound = it == bounds.end() ? Bound{} : it->second;
      // Relative change in the "worse" direction.
      double worse_by = mb->median - ma.median;
      if (!bound.lower_is_better) worse_by = -worse_by;
      if (ma.median != 0.0) {
        worse_by /= std::fabs(ma.median);
      } else if (worse_by > 0.0) {
        worse_by = std::numeric_limits<double>::infinity();
      }
      std::string verdict = "within bound";
      if (std::max(spread(ma), spread(*mb)) > bound.share) {
        verdict = "unresolved";
      } else if (worse_by > bound.share) {
        verdict = "worse";
      }
      if (verdict != "within bound") ++not_within;
      table.add_row({ma.name, a.name, cell(ma), cell(*mb),
                     numaprof::support::format_percent(
                         (mb->median - ma.median) /
                         (ma.median == 0.0 ? 1.0 : std::fabs(ma.median))),
                     numaprof::support::format_percent(bound.share), verdict});
    }
  }
  os << table.to_text();
  return not_within;
}

}  // namespace pipebench
