#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "apps/scenarios.hpp"
#include "core/profile_io.hpp"
#include "matrix_support.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace pipebench {

namespace {

using simrt::FrameId;
using simrt::SimThread;
using simrt::Task;

// --- casestudy ----------------------------------------------------------

/// record_app's sampling settings for MRK (its POWER7 pairing).
core::ProfilerConfig mrk_config(std::uint64_t seed) {
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kMrk);
  const bool event_filtered =
      pmu::capabilities_of(pmu::Mechanism::kMrk).event_filtered;
  cfg.event.period = std::min<std::uint64_t>(cfg.event.period,
                                             event_filtered ? 50 : 500);
  cfg.event.min_sample_gap =
      std::min<numasim::Cycles>(cfg.event.min_sample_gap, 20'000);
  cfg.event.seed = seed;
  return cfg;
}

Workload casestudy(std::uint64_t seed) {
  const apps::Variant base = apps::Variant::kBaseline;
  Workload w;
  w.name = "casestudy";
  const auto add = [&](std::string name,
                       std::function<void(simrt::Machine&)> run) {
    w.programs.push_back(Program{.name = std::move(name),
                                 .topology = numasim::power7(),
                                 .profiler = mrk_config(seed),
                                 .run = std::move(run),
                                 .hot_variable = {}});
  };
  // record_app's sizes.
  add("lulesh", [base](simrt::Machine& m) {
    apps::run_minilulesh(m, {.threads = 48,
                             .pages_per_thread = 4,
                             .timesteps = 12,
                             .variant = base});
  });
  add("amg", [base](simrt::Machine& m) {
    apps::run_miniamg(m, {.threads = 48,
                          .rows_per_thread = 1024,
                          .nnz_per_row = 4,
                          .relax_sweeps = 5,
                          .matvec_sweeps = 1,
                          .variant = base});
  });
  add("blackscholes", [base](simrt::Machine& m) {
    apps::BlackscholesConfig bs;
    bs.threads = 48;
    bs.variant = base;
    apps::run_miniblackscholes(m, bs);
  });
  add("umt", [base](simrt::Machine& m) {
    apps::run_miniumt(m, {.threads = 32,
                          .groups = 64,
                          .corners = 32,
                          .angles = 128,
                          .sweeps = 8,
                          .variant = base});
  });
  return w;
}

// --- callpath -----------------------------------------------------------
//
// The case studies' CCTs have 32-76 nodes; real applications have tens of
// thousands. This kernel gives the CCT, the shard format, the merge and
// the exporters that scale: 4000 call paths of depth 4-15 over 4000
// frames, sharing 3-level prefixes, visited by 16 threads that load from
// 32 master-initialized heap variables, one of them planted hot. Path
// depths cycle through 4-15 rather than being drawn, so every seed builds
// a CCT of about the same size and the seed moves only which frames and
// variables are used.

constexpr std::uint32_t kThreads = 16;
constexpr std::uint32_t kFrames = 4000;
constexpr std::uint32_t kPaths = 4000;
constexpr std::uint32_t kPrefixes = 40;
constexpr std::uint32_t kPrefixFrames = 120;  // frames prefixes draw from
constexpr std::uint32_t kMinDepth = 4;
constexpr std::uint32_t kMaxDepth = 15;
constexpr std::uint32_t kVariables = 32;
constexpr std::uint32_t kHotVariable = 17;
constexpr std::uint64_t kElemsPerVariable = 16 * apps::kElemsPerPage;
constexpr std::uint32_t kVisitsPerThread = 9000;
constexpr std::uint32_t kLoadsPerVisit = 16;
constexpr std::uint64_t kExecPerVisit = 32;
constexpr double kHotShare = 0.25;

std::string variable_name(std::uint32_t v) {
  return "field_" + std::to_string(v);
}

struct CallpathInput {
  std::uint64_t seed = 0;
  /// Frame indices, outermost first.
  std::vector<std::vector<std::uint32_t>> paths;
};

CallpathInput make_callpath_input(std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> prefixes(kPrefixes);
  for (auto& prefix : prefixes) {
    for (int level = 0; level < 3; ++level) {
      prefix.push_back(static_cast<std::uint32_t>(rng.next_below(kPrefixFrames)));
    }
  }
  CallpathInput input{.seed = seed, .paths = {}};
  input.paths.reserve(kPaths);
  for (std::uint32_t p = 0; p < kPaths; ++p) {
    std::vector<std::uint32_t> path = prefixes[rng.next_below(kPrefixes)];
    const std::uint32_t depth = kMinDepth + p % (kMaxDepth - kMinDepth + 1);
    while (path.size() < depth) {
      path.push_back(static_cast<std::uint32_t>(
          kPrefixFrames + rng.next_below(kFrames - kPrefixFrames)));
    }
    input.paths.push_back(std::move(path));
  }
  return input;
}

void run_callpath(simrt::Machine& m, const CallpathInput& input) {
  auto& registry = m.frames();
  const FrameId main = registry.intern("main", "callpath.cc", 1);
  std::vector<FrameId> frames(kFrames);
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    frames[f] = registry.intern("cp_fn" + std::to_string(f), "callpath.cc",
                                10 + f);
  }

  std::vector<simos::VAddr> vars(kVariables);
  simrt::parallel_region(
      m, 1, "callpath_init", {main}, [&](SimThread& t, std::uint32_t) -> Task {
        // Serial initialization: every variable is first-touched in the
        // master thread's domain.
        for (std::uint32_t v = 0; v < kVariables; ++v) {
          vars[v] = t.malloc(kElemsPerVariable * 8, variable_name(v));
          apps::store_lines(t, vars[v], 0, kElemsPerVariable);
        }
        co_return;
      });

  simrt::parallel_region(
      m, kThreads, "callpath_work._omp", {main},
      [&](SimThread& t, std::uint32_t index) -> Task {
        support::Rng rng(input.seed * 0x9e3779b97f4a7c15ULL + index + 1);
        for (std::uint32_t visit = 0; visit < kVisitsPerThread; ++visit) {
          const auto& path = input.paths[rng.next_below(kPaths)];
          for (const std::uint32_t f : path) t.push_frame(frames[f]);
          for (std::uint32_t l = 0; l < kLoadsPerVisit; ++l) {
            const auto v = rng.next_bool(kHotShare)
                               ? kHotVariable
                               : static_cast<std::uint32_t>(
                                     rng.next_below(kVariables));
            t.load(apps::elem_addr(vars[v], rng.next_below(kElemsPerVariable)));
          }
          t.exec(kExecPerVisit);
          for (std::size_t i = 0; i < path.size(); ++i) t.pop_frame();
          co_await t.tick();
        }
      });
}

Workload callpath(std::string name, ProfileFormat format, std::uint64_t seed) {
  auto input = std::make_shared<const CallpathInput>(make_callpath_input(seed));
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 500;
  cfg.event.seed = seed;
  cfg.record_trace = true;
  Workload w;
  w.name = std::move(name);
  w.shard_format = format;
  w.programs.push_back(
      Program{.name = "callpath",
              .topology = numasim::amd_magny_cours(),
              .profiler = cfg,
              .run = [input](simrt::Machine& m) { run_callpath(m, *input); },
              .hot_variable = variable_name(kHotVariable)});
  return w;
}

// --- grid ---------------------------------------------------------------

Workload grid(std::uint64_t seed) {
  // A copy of the regression grid's cell recipe, matrix::run_cell in
  // tests/matrix_support.hpp, with the benchmark seed as the jitter seed.
  // grid_recipe_drift() holds the two together.
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = 293;
  cfg.event.min_sample_gap = 0;
  cfg.event.instrumentation_work = 0;
  cfg.event.skid_correction_work = 0;
  cfg.event.seed = seed;
  cfg.track_first_touch = true;

  Workload w;
  w.name = "grid";
  w.diff_pairs = true;
  for (const apps::Scenario& scenario : apps::matrix_scenarios()) {
    for (const std::string& topology : matrix::grid_topologies()) {
      const numasim::Topology topo = numasim::topology_by_name(topology);
      const std::uint32_t threads = matrix::cell_threads(topo);
      for (const matrix::PolicyAxis& policy : matrix::grid_policies()) {
        for (const bool fixed : {false, true}) {
          w.programs.push_back(Program{
              .name = std::string(scenario.name) + "/" + topology + "/" +
                      std::string(policy.name) + (fixed ? "/fixed" : "/broken"),
              .topology = topo,
              .profiler = cfg,
              .run =
                  [&scenario, threads, fixed, spec = policy.spec](
                      simrt::Machine& m) {
                    scenario.run(m, threads, fixed, spec);
                  },
              // Interleave spreads every variable's pages evenly, so the
              // hot variable's remote share ties the others' and a few
              // samples decide the ranking: graph/ivy-bridge/interleave
              // flips to `rank` on 3 of seeds 1-30. Those cells keep the
              // broken > fixed gate only.
              .hot_variable = fixed || policy.name == "interleave"
                                  ? std::string()
                                  : std::string(scenario.hot_variable)});
        }
      }
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "casestudy", "callpath-text", "callpath-binary", "grid"};
  return kNames;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "casestudy") return casestudy(seed);
  if (name == "callpath-text") {
    return callpath("callpath-text", ProfileFormat::kText, seed);
  }
  if (name == "callpath-binary") {
    return callpath("callpath-binary", ProfileFormat::kBinary, seed);
  }
  if (name == "grid") return grid(seed);
  throw Error(ErrorKind::kUsage, {}, "--workload", 0,
              "unknown workload '" + std::string(name) +
                  "' (casestudy, callpath-text, callpath-binary, grid, all)");
}

std::string grid_recipe_drift() {
  // run_cell samples with the default jitter seed.
  const Workload w = grid(pmu::EventConfig{}.seed);
  const Program& p = w.programs.front();
  simrt::Machine machine(p.topology);
  core::Profiler profiler(machine, p.profiler);
  p.run(machine);
  const core::SessionData bench = profiler.snapshot();

  const matrix::CellResult cell = matrix::run_cell(
      apps::matrix_scenarios().front(), matrix::grid_topologies().front(),
      matrix::grid_policies().front().spec, /*fixed=*/false);
  const core::ProfileWriter writer;
  if (writer.bytes(bench) == writer.bytes(cell.data)) return {};
  return p.name + " records other bytes than matrix::run_cell: the grid "
                  "workload's copy of the cell recipe has drifted";
}

}  // namespace pipebench
