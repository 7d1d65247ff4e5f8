// The four pipeline_e2e workloads. Each is a list of profiled programs
// generated from a seed; the chain (chain.hpp) records, shards, merges,
// analyzes and exports every program of a workload once per iteration.
//
//   casestudy        LULESH, AMG2006, Blackscholes, UMT2013 (baseline) under
//                    MRK on POWER7 at record_app's sizes: the simulator
//                    dominates and MRK rarely fires.
//   callpath-text    a deep-call-path kernel (~25.5k CCT nodes, 17 text
//                    shards): post-processing dominates.
//   callpath-binary  the same kernel and seed with .npbf shards.
//   grid             4 scenarios x 5 topologies x 3 policies, broken and
//                    fixed (120 small sessions), each pair diffed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "core/profiler.hpp"
#include "numasim/topology.hpp"
#include "simrt/machine.hpp"

namespace pipebench {

using namespace numaprof;

/// One profiled program: the machine it runs on, how it is sampled, and
/// what the analysis must conclude about it.
struct Program {
  std::string name;
  numasim::Topology topology;
  core::ProfilerConfig profiler;
  std::function<void(simrt::Machine&)> run;
  /// Variable expected to top the mismatch ranking; empty = no such gate.
  std::string hot_variable;
};

struct Workload {
  std::string name;
  ProfileFormat shard_format = ProfileFormat::kText;
  std::vector<Program> programs;
  /// Programs come in (broken, fixed) pairs: each pair is diffed, and the
  /// broken twin must out-mismatch the fixed one.
  bool diff_pairs = false;
};

/// casestudy, callpath-text, callpath-binary, grid.
const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from `seed` (the sampler jitter seed of
/// every program, and the call-path kernel's paths and access streams).
/// Throws numaprof::Error{kUsage} for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// The grid workload copies matrix::run_cell's sampling recipe. Records
/// the grid's first cell both ways at run_cell's seed; returns "" when
/// the profile bytes agree, else the failure.
std::string grid_recipe_drift();

}  // namespace pipebench
