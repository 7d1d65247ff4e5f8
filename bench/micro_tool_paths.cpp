// micro_tool_paths: per-operation cost of the tool's hot paths.
//
// These are engineering benchmarks, not paper reproductions: they bound
// the per-event cost of the machinery that runs inside the monitored
// program (cache model lookups, sampler dispatch, CCT insertion, page-table
// queries, metric and address-centric updates) and of the offline stages
// (merge, serialization).
//
// Each case doubles its batch size until one batch takes at least 20 ms,
// then reports the best of five batches of that size as ns per operation:
//   BENCH {"bench":"micro_tool_paths","case":"CacheAccess",
//          "iterations":N,"ns_per_op":X}
// and the full record set is additionally written as one JSON document to
// BENCH_tool_paths.json (or argv[1] if given) for the perf trajectory.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilulesh.hpp"
#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "numasim/cache.hpp"
#include "numasim/system.hpp"
#include "pmu/sampler.hpp"
#include "simos/page_table.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace numaprof;

/// Keeps `value` (and the work that produced it) from being optimized
/// away without costing a store.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Timing {
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
};

/// Times `op()` as described in the header comment.
template <typename Op>
Timing time_op(Op&& op) {
  const auto batch = [&](std::uint64_t n) {
    return bench::time_seconds([&] {
      for (std::uint64_t i = 0; i < n; ++i) op();
    });
  };
  op();  // first-call costs (allocation, page faults) are not the op's
  std::uint64_t n = 1;
  while (batch(n) < 0.02 && n < (std::uint64_t{1} << 32)) n *= 2;
  double best = batch(n);
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, batch(n));
  return {n, best * 1e9 / static_cast<double>(n)};
}

Timing cache_access() {
  numasim::SetAssocCache cache({.sets = 64, .ways = 8, .hit_latency = 3});
  support::Rng rng(1);
  return time_op([&] { keep(cache.access(rng.next_below(4096))); });
}

Timing system_access_cold_stream() {
  numasim::System system(numasim::amd_magny_cours());
  std::uint64_t addr = 0;
  numasim::Cycles now = 0;
  return time_op([&] {
    const auto result = system.access(0, 3, addr, false, now);
    keep(result.latency);
    addr += numasim::kLineBytes;
    now += result.latency;
  });
}

Timing page_table_home_of() {
  simos::PageTable table(8);
  table.register_region(0, 1 << 16, simos::PolicySpec::interleave());
  support::Rng rng(2);
  return time_op([&] { keep(table.home_of(rng.next_below(1 << 16), 3)); });
}

/// A fixed set of 2048 call paths of 4-15 frames, each frame one of 64.
const std::vector<std::vector<simrt::FrameId>>& cct_paths() {
  static const auto paths = [] {
    support::Rng rng(3);
    std::vector<std::vector<simrt::FrameId>> out(2048);
    for (auto& path : out) {
      path.resize(4 + rng.next_below(12));
      for (auto& f : path) {
        f = static_cast<simrt::FrameId>(rng.next_below(64));
      }
    }
    return out;
  }();
  return paths;
}

core::Cct cct_of_paths() {
  core::Cct cct;
  for (const auto& path : cct_paths()) cct.extend(core::kRootNode, path);
  return cct;
}

/// Extends the root by paths the tree already holds: lookups only, so
/// the tree keeps its size whatever the batch size.
Timing cct_extend() {
  core::Cct cct = cct_of_paths();
  std::size_t next = 0;
  return time_op([&] {
    keep(cct.extend(core::kRootNode, cct_paths()[next]));
    next = (next + 1) % cct_paths().size();
  });
}

/// Builds a fresh tree from the fixed paths; reported per node created.
Timing cct_insert() {
  const double nodes = static_cast<double>(cct_of_paths().size() - 1);
  Timing t = time_op([] { keep(cct_of_paths().size()); });
  t.ns_per_op /= nodes;
  return t;
}

/// Call paths of 4-15 frames, each frame one of 8192, enough of them that
/// the tree they build holds at least 2^18 nodes (built once).
const std::vector<std::vector<simrt::FrameId>>& large_cct_paths() {
  static const auto paths = [] {
    support::Rng rng(5);
    std::vector<std::vector<simrt::FrameId>> out;
    core::Cct cct;
    while (cct.size() <= (std::size_t{1} << 18)) {
      std::vector<simrt::FrameId>& path = out.emplace_back(4 + rng.next_below(12));
      for (auto& f : path) {
        f = static_cast<simrt::FrameId>(rng.next_below(8192));
      }
      cct.extend(core::kRootNode, path);
    }
    return out;
  }();
  return paths;
}

/// Builds a fresh tree of >= 262,144 nodes; reported per node created.
Timing cct_insert_large() {
  const auto build = [] {
    core::Cct cct;
    for (const auto& path : large_cct_paths()) {
      cct.extend(core::kRootNode, path);
    }
    return cct.size();
  };
  const double nodes = static_cast<double>(build() - 1);
  Timing t = time_op([&] { keep(build()); });
  t.ns_per_op /= nodes;
  return t;
}

/// One memory sample with a 12-frame stack recorded into a tracker that
/// already holds ~50k entries. The 6144 samples cycled through are the
/// ones that filled it, so every op updates entries and the tracker keeps
/// its size whatever the batch size.
Timing address_centric_record() {
  struct Sample {
    std::vector<simrt::FrameId> stack;
    std::uint32_t variable;
    simrt::ThreadId tid;
    simos::VAddr addr;
  };
  std::vector<core::Variable> variables(2);
  for (std::uint32_t v = 0; v < variables.size(); ++v) {
    variables[v].id = v;
    variables[v].start = simos::kStaticBase + v * (std::uint64_t{1} << 24);
    variables[v].page_count = 64;
  }
  support::Rng rng(6);
  std::vector<Sample> samples(6144);
  for (Sample& s : samples) {
    s.stack.resize(12);
    for (auto& f : s.stack) {
      f = static_cast<simrt::FrameId>(rng.next_below(2048));
    }
    s.variable = static_cast<std::uint32_t>(rng.next_below(variables.size()));
    s.tid = static_cast<simrt::ThreadId>(rng.next_below(4));
    s.addr = variables[s.variable].start +
             rng.next_below(variables[s.variable].extent_bytes());
  }
  core::AddressCentric tracker(5);
  const auto record = [&](const Sample& s) {
    tracker.record(s.stack, variables[s.variable], s.tid, s.addr, 100.0);
  };
  for (const Sample& s : samples) record(s);
  std::size_t next = 0;
  const Timing t = time_op([&] {
    record(samples[next]);
    next = (next + 1) % samples.size();
  });
  keep(tracker.entry_count());
  return t;
}

Timing metric_add() {
  core::MetricStore store(8);
  support::Rng rng(4);
  const Timing t = time_op([&] {
    store.add(static_cast<core::NodeId>(rng.next_below(4096)),
              core::kMemorySamples, 1.0);
  });
  keep(store.width());
  return t;
}

/// One call of a sampler by hand, counting one access. In a machine run
/// the machine counts accesses inline and calls the sampler only when its
/// countdown runs out (or on every access, for Soft-IBS's stub).
Timing sampler_dispatch(pmu::Mechanism mechanism, std::uint64_t period) {
  auto config = pmu::EventConfig::mini(mechanism);
  if (period > 0) config.period = period;
  const auto sampler = pmu::make_sampler(config);
  simrt::Machine machine(numasim::test_machine(2, 2));
  machine.spawn([](simrt::SimThread&) -> simrt::Task { co_return; });
  machine.run();
  simrt::AccessEvent event{};
  event.addr = simos::kStaticBase;
  const Timing t =
      time_op([&] { sampler->on_count(machine.thread(0), 1, &event); });
  keep(sampler->samples_emitted());
  return t;
}

/// A small IBS-sampled LULESH session (built once).
const core::SessionData& lulesh_session() {
  static const core::SessionData data = [] {
    simrt::Machine machine(numasim::test_machine(4, 2));
    core::ProfilerConfig cfg;
    cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
    cfg.event.period = 50;
    core::Profiler profiler(machine, cfg);
    apps::run_minilulesh(machine, {.threads = 8,
                                   .pages_per_thread = 2,
                                   .timesteps = 2,
                                   .variant = apps::Variant::kBaseline});
    return profiler.snapshot();
  }();
  return data;
}

/// The session's text profile, intact or with its body bit-flipped (the
/// header stays, so loads measure recovery and diagnosis, not the
/// trivial magic-check rejection).
std::string profile_text(bool corrupted) {
  const std::string good = core::ProfileWriter().bytes(lulesh_session());
  if (!corrupted) return good;
  auto plan = support::FaultPlan::parse("seed=1;bitflip=48");
  const std::string header = good.substr(0, good.find('\n') + 1);
  return header + plan.mutate_stream(good.substr(header.size()));
}

Timing profile_save_load() {
  const core::SessionData& data = lulesh_session();
  return time_op([&] {
    std::stringstream stream;
    core::ProfileWriter().write(data, stream);
    keep(core::ProfileReader().read(stream).data.cct.size());
  });
}

Timing profile_load(bool corrupted, bool lenient) {
  const std::string text = profile_text(corrupted);
  core::LoadOptions options;
  options.lenient = lenient;
  return time_op([&] {
    std::stringstream stream(text);
    try {
      keep(core::ProfileReader(options).read(stream).data.cct.size());
    } catch (const core::ProfileError&) {
    }
  });
}

Timing analyzer_merge() {
  const core::SessionData& data = lulesh_session();
  return time_op([&] {
    const core::Analyzer analyzer(data);
    keep(analyzer.program().samples);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_tool_paths.json";
  bench::heading("micro_tool_paths: per-operation cost of hot paths");
  const std::pair<const char*, Timing (*)()> cases[] = {
      {"CacheAccess", cache_access},
      {"SystemAccessColdStream", system_access_cold_stream},
      {"PageTableHomeOf", page_table_home_of},
      {"CctExtend", cct_extend},
      {"CctInsert", cct_insert},
      {"CctInsertLarge", cct_insert_large},
      {"AddressCentricRecord", address_centric_record},
      {"MetricAdd", metric_add},
      // A period that never fires: a call that only counts down.
      {"SamplerDispatchIbs",
       [] {
         return sampler_dispatch(pmu::Mechanism::kIbs, 1 << 20);
       }},
      {"SoftIbsStub",
       [] {
         return sampler_dispatch(pmu::Mechanism::kSoftIbs, 0);
       }},
      {"ProfileSaveLoad", profile_save_load},
      {"ProfileLoadStrictCorrupted", [] { return profile_load(true, false); }},
      {"ProfileLoadLenientCorrupted", [] { return profile_load(true, true); }},
      // What the lenient machinery costs on an undamaged stream.
      {"ProfileLoadLenientClean", [] { return profile_load(false, true); }},
      {"AnalyzerMerge", analyzer_merge},
  };
  bench::BenchRecords records("micro_tool_paths");
  support::Table table({"case", "iterations", "ns/op"});
  for (const auto& [name, run] : cases) {
    const Timing t = run();
    table.add_row({name, std::to_string(t.iterations),
                   support::format_fixed(t.ns_per_op, 1)});
    std::ostringstream json;
    json << "{\"bench\":\"micro_tool_paths\",\"case\":\"" << name
         << "\",\"iterations\":" << t.iterations
         << ",\"ns_per_op\":" << t.ns_per_op << "}";
    records.add(json.str());
  }
  std::cout << "\n" << table.to_text();
  records.write(out_path);
  return 0;
}
