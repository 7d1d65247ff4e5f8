// pipeline_e2e results: per-metric summaries, the JSON run document,
// and --compare.
//
// A run document is
//   {"bench":"pipeline_e2e","mode":"e2e"|"layers","host":{...},
//    "workloads":{"<name>":{"attempted":N,"failed":N,"failures":[...],
//      "dominant_stage":"...","dominant_layer":"...",
//      "metrics":{"<metric>":{"unit":U,"median":X,"p25":X,"p75":X,"n":N}}}}}
// A file may also hold several named runs as {"runs":{"<run>":<doc>,...}}
// (bench baselines); FILE:RUN selects one, FILE alone the first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

struct Metric {
  std::string name;
  std::string unit;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles (linear interpolation) of `values`.
Metric summarize(std::string name, std::string unit,
                 std::vector<double> values);

struct WorkloadResult {
  std::string name;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// --layers: the chain stage and the layer with the most time.
  std::string dominant_stage;
  std::string dominant_layer;

  const Metric* find(std::string_view metric) const;
};

struct Host {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  unsigned jobs = 0;
  std::uint64_t seed = 0;
  std::uint32_t instrumentation_work = 0;
  std::uint32_t skid_correction_work = 0;
};

struct RunDoc {
  std::string mode;
  Host host;
  std::vector<WorkloadResult> workloads;
};

std::string to_json(const RunDoc& doc);

/// Reads "FILE" or "FILE:RUN" (see above). Throws numaprof::Error.
RunDoc read_run(const std::string& spec);

/// One line per metric: `name workload median unit p25=.. p75=.. n=..`.
void print_metrics(const RunDoc& doc, std::ostream& os);

/// A metric's regression bound from BENCHMARK.json's end_to_end list.
struct Bound {
  double share = 0.0;
  bool lower_is_better = true;
};

/// Reads the end_to_end bounds of a BENCHMARK.json. Throws numaprof::Error.
std::map<std::string, Bound> read_bounds(const std::string& path);

/// Prints, per (metric, workload) of `before`, both medians and quartiles
/// and a verdict: "within bound", "worse", or "unresolved" when either
/// side's quartile spread is wider than the bound. Metrics without a
/// bound must not increase at all. A workload or metric of `before` that
/// `after` lacks is "missing in B". Returns the number of pairs that are
/// not within bound, missing ones included.
std::size_t compare(const RunDoc& before, const RunDoc& after,
                    const std::map<std::string, Bound>& bounds,
                    std::ostream& os);

}  // namespace pipebench
