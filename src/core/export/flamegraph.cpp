// Collapsed-stack / speedscope flamegraph exporters.
//
// Both walk the CCT's [ACCESS] subtree with Cct::visit() (pre-order,
// children in creation order) and weight each context by the selected
// NUMA cost. A context appears once per CCT node with a non-zero weight;
// weights are EXCLUSIVE per node, so flamegraph tools reconstruct
// inclusive totals by summing subtrees, exactly like they do for
// time-based profiles.
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "core/export/export.hpp"
#include "core/export/writer_util.hpp"
#include "core/metrics.hpp"
#include "support/table.hpp"

namespace numaprof::core {
namespace {

using export_detail::collapsed_escape;
using export_detail::json_escape;

/// Exclusive weight of one CCT node under the selected NUMA cost.
/// lpi_NUMA is a ratio (cycles/instruction), so it is scaled x1000 to an
/// integer "milli-lpi" that collapsed formats can carry.
std::uint64_t node_weight(const MetricStore& store, NodeId node,
                          FlameWeight weight) {
  double value = 0.0;
  switch (weight) {
    case FlameWeight::kMismatch:
      value = store.get(node, kNumaMismatch);
      break;
    case FlameWeight::kRemoteLatency:
      value = store.get(node, kRemoteLatency);
      break;
    case FlameWeight::kLpi: {
      const double samples = store.get(node, kSamples);
      value = samples > 0.0
                  ? store.get(node, kRemoteLatency) / samples * 1000.0
                  : 0.0;
      break;
    }
  }
  if (value <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(value));
}

/// One weighted stack: labels from [ACCESS] down to the node.
struct WeightedStack {
  std::vector<std::string> frames;
  std::uint64_t weight = 0;
};

/// Deterministic pre-order collection of every non-zero-weight context.
std::vector<WeightedStack> collect_stacks(const Analyzer& analyzer,
                                          FlameWeight weight) {
  const SessionData& data = analyzer.data();
  std::vector<WeightedStack> stacks;
  const auto access = data.cct.find_child(kRootNode, NodeKind::kAccess, 0);
  if (!access) return stacks;

  // labels[l] is the label of the current node's ancestor l levels below
  // [ACCESS] (a root child, depth 1); in pre-order a node's depth says
  // how many of the previous node's labels to keep.
  std::vector<std::string> labels;
  data.cct.visit(*access, [&](NodeId id) {
    const std::size_t level = data.cct.node(id).depth - 1;
    labels.resize(level);
    labels.push_back(collapsed_escape(data.node_label(id)));
    if (level == 0) return;  // [ACCESS] itself is no context
    const std::uint64_t w = node_weight(analyzer.merged(), id, weight);
    if (w > 0) stacks.push_back({labels, w});
  });
  return stacks;
}

}  // namespace

std::string export_collapsed_stacks(const Analyzer& analyzer,
                                    const ExportOptions& options) {
  std::ostringstream os;
  for (const WeightedStack& stack : collect_stacks(analyzer, options.weight)) {
    for (std::size_t i = 0; i < stack.frames.size(); ++i) {
      os << (i == 0 ? "" : ";") << stack.frames[i];
    }
    os << " " << stack.weight << "\n";
  }
  return os.str();
}

std::string export_speedscope(const Analyzer& analyzer,
                              const ExportOptions& options) {
  const std::vector<WeightedStack> stacks =
      collect_stacks(analyzer, options.weight);

  // Frame table in first-use order (deterministic: stacks are pre-order).
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frame_index;
  std::uint64_t total = 0;
  for (const WeightedStack& stack : stacks) {
    total += stack.weight;
    for (const std::string& label : stack.frames) {
      if (frame_index.emplace(label, frames.size()).second) {
        frames.push_back(label);
      }
    }
  }

  std::ostringstream os;
  os << "{\n\"$schema\":\"https://www.speedscope.app/file-format-schema.json"
     << "\",\n\"name\":\"numaprof " << to_string(options.weight)
     << "\",\n\"activeProfileIndex\":0,\n\"exporter\":\"numaprof\","
     << "\n\"shared\":{\"frames\":[\n";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    os << (i == 0 ? "" : ",\n") << "  {\"name\":\"" << json_escape(frames[i])
       << "\"}";
  }
  os << "\n]},\n\"profiles\":[{\"type\":\"sampled\",\"name\":\""
     << to_string(options.weight) << "\",\"unit\":\"none\","
     << "\"startValue\":0,\"endValue\":" << total << ",\n\"samples\":[\n";
  for (std::size_t s = 0; s < stacks.size(); ++s) {
    os << (s == 0 ? "" : ",\n") << "  [";
    for (std::size_t i = 0; i < stacks[s].frames.size(); ++i) {
      os << (i == 0 ? "" : ",") << frame_index.at(stacks[s].frames[i]);
    }
    os << "]";
  }
  os << "\n],\n\"weights\":[";
  for (std::size_t s = 0; s < stacks.size(); ++s) {
    os << (s == 0 ? "" : ",") << stacks[s].weight;
  }
  os << "]\n}]\n}\n";
  return os.str();
}

}  // namespace numaprof::core
