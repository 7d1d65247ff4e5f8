// pipeline_e2e: the chain a numaprof user runs — record, per-thread
// shards, merge, analyze/report, export (and diff) — timed end to end and
// layer by layer over four workloads (workloads.hpp).
//
// Usage:
//   pipeline_e2e [--check]
//       one iteration per workload, validity gates only; prints
//       [SHAPE OK] or SHAPE MISMATCH
//   pipeline_e2e --workload W|all [--seed S] [--seconds T] [--layers]
//                [--out FILE] [--spans FILE] [--work-dir DIR]
//       end-to-end metrics over 20 timed iterations after set-up, or as
//       many as fit in T seconds (at least 3); --layers instead runs the
//       traced pass (5 iterations, or T seconds) and prints the
//       per-layer metrics, the dominant stage and layer, and writes the
//       spans as Chrome trace-event JSON (--spans, default FILE's stem +
//       .spans.json). `all` re-executes this binary once per workload so
//       that each peak RSS is its own process's.
//   pipeline_e2e --compare A.json[:RUN] B.json[:RUN]
//       per (metric, workload): both medians and quartiles, and a verdict
//       against the bounds of ./BENCHMARK.json (within bound, worse,
//       unresolved, missing in B); exit 1 unless every pair is within its
//       bound.
//
// Every metric prints as `name workload median unit p25=.. p75=.. n=..`.
// Exit status: 0 = every gate held, 1 = a gate failed or an iteration
// threw, 2 = usage error.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include "chain.hpp"
#include "results.hpp"
#include "support/cliflags.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

extern char** environ;

namespace {

using namespace pipebench;
namespace fs = std::filesystem;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed iterations of a run that has no --seconds.
constexpr std::size_t kIterations = 20;
constexpr std::size_t kLayerIterations = 5;
/// Floor on timed iterations when a run is bounded by --seconds.
constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMaxFailuresKept = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 0;  // 0: a fixed number of iterations
  bool layers = false;
  std::string out;
  std::string spans;
  std::string work_dir = "pipeline_e2e.work";
};

Host host_for(const Options& o, unsigned jobs) {
  const pmu::EventConfig defaults;
  return Host{.nproc = std::thread::hardware_concurrency(),
              .compiler = std::string(
#if defined(__clang__)
                              "clang "
#elif defined(__GNUC__)
                              "gcc "
#endif
                              ) + __VERSION__,
              .build_type = PIPEBENCH_BUILD_TYPE,
              .jobs = jobs,
              .seed = o.seed,
              .instrumentation_work = defaults.instrumentation_work,
              .skid_correction_work = defaults.skid_correction_work};
}

/// Attempted/failed bookkeeping: an attempt fails when it throws or any
/// validity gate reports a failure.
struct Attempts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  template <typename Fn>
  bool run(Fn&& fn) {
    ++attempted;
    std::vector<std::string> found;
    try {
      fn(found);
    } catch (const std::exception& e) {
      found.push_back(std::string("threw: ") + e.what());
    }
    if (found.empty()) return true;
    ++failed;
    for (std::string& f : found) {
      if (failures.size() < kMaxFailuresKept &&
          std::find(failures.begin(), failures.end(), f) == failures.end()) {
        failures.push_back(std::move(f));
      }
    }
    return false;
  }

  void store(WorkloadResult& r) const {
    r.attempted = attempted;
    r.failed = failed;
    r.failures = failures;
  }
};

/// Iteration loop bound: a fixed count, or T seconds with a floor.
struct Budget {
  std::size_t iterations;
  unsigned seconds;
  Clock::time_point start = Clock::now();

  explicit Budget(const Options& o)
      : iterations(o.layers ? kLayerIterations : kIterations),
        seconds(o.seconds) {}

  bool more(std::size_t done) const {
    if (seconds == 0) return done < iterations;
    return done < kMinIterations || seconds_since(start) < seconds;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Metric failed_frac(std::size_t attempted, std::size_t failed) {
  Metric m = summarize("failed_frac", "fraction",
                       {attempted == 0 ? 1.0
                                       : static_cast<double>(failed) /
                                             static_cast<double>(attempted)});
  m.n = attempted;
  return m;
}

// --- End-to-end run -------------------------------------------------------

WorkloadResult run_e2e(const Options& o, const ChainConfig& chain) {
  WorkloadResult r;
  r.name = o.workload;
  Attempts attempts;

  // Set-up: input generation plus one untimed warm-up iteration.
  std::vector<double> setup;
  std::optional<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    w.emplace(make_workload(o.workload, o.seed));
    std::vector<std::string> ignored;  // the timed iterations gate the same
    run_chain(*w, chain, nullptr, ignored);
    setup.push_back(seconds_since(start));
  }

  std::vector<double> pipeline, record, post, overhead;
  const Budget budget(o);
  for (std::size_t i = 0; budget.more(i); ++i) {
    ChainTimes t;
    double plain_s = 0.0;
    // The plain run goes first on even iterations and last on odd ones,
    // so drift in the host's speed hits both sides alike.
    const bool ok = attempts.run([&](std::vector<std::string>& failures) {
      if (i % 2 == 0) plain_s = run_plain(*w);
      t = run_chain(*w, chain, nullptr, failures);
      if (i % 2 == 1) plain_s = run_plain(*w);
    });
    if (!ok) continue;
    pipeline.push_back(t.pipeline_s());
    record.push_back(t.record_s);
    post.push_back(t.post_s);
    overhead.push_back(t.record_s / plain_s);
  }

  r.metrics.push_back(summarize("pipeline_s", "s", pipeline));
  r.metrics.push_back(summarize("record_s", "s", record));
  r.metrics.push_back(summarize("post_s", "s", post));
  // Per-iteration ratios: each pairs a record with the plain run next to
  // it, so median and quartiles describe one distribution.
  r.metrics.push_back(summarize("record_overhead_x", "ratio", overhead));
  r.metrics.push_back(summarize("setup_s", "s", setup));
  r.metrics.push_back(summarize("peak_rss_mb", "MB", {peak_rss_mb()}));
  r.metrics.push_back(failed_frac(attempts.attempted, attempts.failed));
  attempts.store(r);
  return r;
}

// --- Traced (--layers) run --------------------------------------------------

/// Per-iteration values by name, in first-added order.
struct Series {
  std::vector<std::pair<std::string, std::string>> order;  // name, unit
  std::map<std::string, std::vector<double>> values;

  void add(const std::string& name, const std::string& unit, double v) {
    if (!values.contains(name)) order.emplace_back(name, unit);
    values[name].push_back(v);
  }

  std::vector<Metric> summaries() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : order) {
      out.push_back(summarize(name, unit, values.at(name)));
    }
    return out;
  }

  /// "name (detail)" of the entry with the largest median.
  std::string dominant(bool as_share) const {
    const std::vector<Metric> all = summaries();
    const auto best = std::max_element(
        all.begin(), all.end(),
        [](const Metric& a, const Metric& b) { return a.median < b.median; });
    if (best == all.end()) return {};
    double total = 0.0;
    for (const Metric& m : all) total += m.median;
    return best->name + " (" +
           (as_share ? support::format_percent(best->median / total) +
                           " of the chain"
                     : support::format_fixed(best->median, 3) + " s") +
           ")";
  }
};

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The traced run's per-layer metrics, and the seconds per chain stage and
/// per layer that name the dominant ones.
struct LayerRun {
  Series metrics;
  Series stages;
  Series layers;

  void add(const Tracer& tracer, std::string_view workload, int iteration,
           const LayerCounts& c, double trace_overhead) {
    const auto span = [&](std::string_view name) {
      return tracer.total(workload, iteration, name);
    };
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double accesses = count(c.plain_accesses);
    const double plain = span("pass.plain");
    const double noop = span("pass.noop");
    const double sampler = span("pass.sampler");
    const double profiler = span("pass.profiler");
    const double snapshot = span("snapshot");
    const double encode = span("shards");
    const double decode = span("pass.decode");
    const double jobs1 = span("pass.merge_jobs1");
    const double jobsn = span("merge");
    const double exports = span("export");
    const double shard_mb = count(c.shard_bytes) / 1e6;

    Series& m = metrics;
    m.add("simrt.sim_s", "s", plain);
    m.add("simrt.accesses", "count", accesses);
    m.add("simrt.instructions", "count", count(c.instructions));
    m.add("simrt.dispatch_ns", "ns", per(noop - plain, accesses) * 1e9);
    m.add("numasim.access_ns", "ns",
          per(span("pass.replay"), count(c.captured)) * 1e9);
    m.add("pmu.sampler_ns", "ns", per(sampler - noop, accesses) * 1e9);
    m.add("pmu.samples", "count", count(c.samples));
    m.add("pmu.fire_ratio", "ratio", per(count(c.samples), accesses));
    m.add("core.profiler.sample_ns", "ns",
          per(profiler - sampler, count(c.profiler_samples)) * 1e9);
    m.add("core.profiler.snapshot_s", "s", snapshot);
    m.add("core.profiler.cct_nodes", "count", count(c.cct_nodes));
    m.add("core.format.encode_s", "s", encode);
    m.add("core.format.encode_mb_s", "MB/s", per(shard_mb, encode));
    m.add("core.format.shard_bytes", "B", count(c.shard_bytes));
    m.add("core.format.decode_s", "s", decode);
    m.add("core.format.decode_mb_s", "MB/s", per(shard_mb, decode));
    m.add("core.merge.jobs1_s", "s", jobs1);
    m.add("core.merge.jobsN_s", "s", jobsn);
    m.add("core.merge.scaling_x", "ratio", per(jobs1, jobsn));
    m.add("core.merge.fold_s", "s", jobs1 - decode);
    m.add("core.merge.files_skipped", "count", count(c.files_skipped));
    m.add("core.analyzer.s", "s", span("analyzer"));
    m.add("core.viewer.s", "s", span("viewer"));
    m.add("core.diff.s", "s", span("diff") + span("pass.diff"));
    m.add("core.export.s", "s", exports);
    m.add("core.export.mb_s", "MB/s",
          per(count(c.export_bytes) / 1e6, exports));
    m.add("core.export.trace_s", "s", span("pass.export.trace"));
    m.add("core.export.flamegraph_s", "s", span("pass.export.flamegraph"));
    m.add("core.export.html_s", "s", span("pass.export.html"));
    m.add("bench.trace_overhead", "ratio", trace_overhead);

    for (const char* stage :
         {"record", "shards", "merge", "analyze", "export", "diff"}) {
      stages.add(stage, "s", span(stage));
    }
    // Record split by the passes that each add one layer; post by span.
    layers.add("simrt.sim", "s", plain);
    layers.add("simrt.dispatch", "s", noop - plain);
    layers.add("pmu.sampler", "s", sampler - noop);
    layers.add("core.profiler", "s", profiler - sampler);
    layers.add("core.profiler.snapshot", "s", snapshot);
    layers.add("core.format.encode", "s", encode);
    layers.add("core.merge", "s", jobsn);
    layers.add("core.analyzer", "s", span("analyzer"));
    layers.add("core.viewer", "s", span("viewer"));
    layers.add("core.export", "s", exports);
    layers.add("core.diff", "s", span("diff"));
  }
};

WorkloadResult run_layers(const Options& o, const ChainConfig& chain,
                          Tracer& tracer) {
  WorkloadResult r;
  r.name = o.workload;
  Attempts attempts;
  const Workload w = make_workload(o.workload, o.seed);
  {
    std::vector<std::string> ignored;
    run_chain(w, chain, nullptr, ignored);  // warm-up
  }

  LayerRun run;
  const Budget budget(o);
  for (std::size_t i = 0; budget.more(i); ++i) {
    const int iteration = static_cast<int>(i);
    attempts.run([&](std::vector<std::string>& failures) {
      tracer.set_context(w.name, iteration);
      LayerCounts c;
      ChainTimes untraced;
      ChainTimes traced;
      // The passes first: the post-processing passes run the chain once
      // more, so the traced/untraced pair after them starts equally warm.
      run_record_passes(w, tracer, c, failures);
      run_post_passes(w, chain, tracer, c);
      if (i % 2 == 0) untraced = run_chain(w, chain, nullptr, failures);
      traced = run_chain(w, chain, &tracer, failures);
      if (i % 2 == 1) untraced = run_chain(w, chain, nullptr, failures);
      if (c.chain_accesses != c.plain_accesses) {
        failures.push_back("the profiled chain did " +
                           std::to_string(c.chain_accesses) +
                           " accesses, the plain pass " +
                           std::to_string(c.plain_accesses));
      }
      if (failures.empty()) {
        run.add(tracer, w.name, iteration, c,
                per(traced.pipeline_s(), untraced.pipeline_s()) - 1.0);
      }
    });
  }

  r.metrics = run.metrics.summaries();
  r.dominant_stage = run.stages.dominant(true);
  r.dominant_layer = run.layers.dominant(false);
  attempts.store(r);
  return r;
}

// --- Modes ------------------------------------------------------------------

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  if (!os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string default_spans_path(const std::string& out) {
  if (out.empty()) return {};
  const fs::path p(out);
  return (p.parent_path() / (p.stem().string() + ".spans.json")).string();
}

/// Merge/analysis parallelism: min(4, hardware threads).
ChainConfig chain_config(const std::string& work_dir) {
  return ChainConfig{
      .jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u),
      .work_dir = work_dir};
}

/// Deletes the shards and, when nothing else is left in it, the work dir.
void remove_work_dir(const std::string& work_dir) {
  std::error_code ignored;
  fs::remove_all(fs::path(work_dir) / "shards", ignored);
  fs::remove(work_dir, ignored);
}

/// Runs one workload in this process; returns its exit status.
int run_one(const Options& o) {
  const ChainConfig chain = chain_config(o.work_dir);
  RunDoc doc{.mode = o.layers ? "layers" : "e2e",
             .host = host_for(o, chain.jobs),
             .workloads = {}};
  Tracer tracer;
  doc.workloads.push_back(o.layers ? run_layers(o, chain, tracer)
                                   : run_e2e(o, chain));
  remove_work_dir(o.work_dir);
  print_metrics(doc, std::cout);
  const WorkloadResult& r = doc.workloads.front();
  if (o.layers) {
    std::cout << "dominant stage " << r.name << ": " << r.dominant_stage
              << "\ndominant layer " << r.name << ": " << r.dominant_layer
              << "\n";
    const std::string spans =
        o.spans.empty() ? default_spans_path(o.out) : o.spans;
    if (!spans.empty()) write_file(spans, tracer.chrome_json());
  }
  for (const std::string& f : r.failures) {
    std::cout << "FAILED " << r.name << ": " << f << "\n";
  }
  if (!o.out.empty()) write_file(o.out, to_json(doc));
  return r.failed == 0 ? 0 : 1;
}

/// The result of a workload whose process wrote none.
WorkloadResult no_result(const std::string& name, int wait_status) {
  const std::string how =
      WIFSIGNALED(wait_status)
          ? "was killed by signal " + std::to_string(WTERMSIG(wait_status))
          : "exited with status " + std::to_string(WEXITSTATUS(wait_status));
  WorkloadResult r;
  r.name = name;
  r.attempted = 1;
  r.failed = 1;
  r.failures = {"the workload's process " + how + " and wrote no result"};
  r.metrics = {failed_frac(1, 1)};
  return r;
}

/// `--workload all`: one child process per workload, results merged.
int run_all(const Options& o) {
  fs::create_directories(o.work_dir);  // holds the children's results
  RunDoc merged{.mode = o.layers ? "layers" : "e2e", .host = {},
                .workloads = {}};
  int status = 0;
  for (const std::string& name : workload_names()) {
    const std::string child_out = (fs::path(o.work_dir) / (name + ".json")).string();
    std::vector<std::string> args = {
        "pipeline_e2e", "--workload", name, "--seed", std::to_string(o.seed),
        "--out", child_out, "--work-dir",
        (fs::path(o.work_dir) / name).string()};
    if (o.seconds > 0) {
      args.insert(args.end(), {"--seconds", std::to_string(o.seconds)});
    }
    if (o.layers) {
      const std::string spans = o.spans.empty() ? default_spans_path(o.out)
                                                : o.spans;
      args.push_back("--layers");
      if (!spans.empty()) {
        const fs::path p(spans);
        args.insert(args.end(),
                    {"--spans", (p.parent_path() / (p.stem().string() + "." +
                                                    name + ".json"))
                                    .string()});
      }
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int child = 0;
    std::cout << std::flush;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0 ||
        waitpid(pid, &child, 0) != pid) {
      throw std::runtime_error("cannot run the " + name + " workload");
    }
    if (!WIFEXITED(child) || WEXITSTATUS(child) != 0) status = 1;
    if (!fs::exists(child_out)) {
      // Crashed or killed before writing: one failed attempt, so that
      // failed_frac and --compare flag the workload.
      merged.workloads.push_back(no_result(name, child));
      std::cout << "FAILED " << name << ": "
                << merged.workloads.back().failures.front() << "\n";
      continue;
    }
    RunDoc doc = read_run(child_out);
    fs::remove(child_out);
    merged.host = doc.host;
    for (WorkloadResult& r : doc.workloads) {
      merged.workloads.push_back(std::move(r));
    }
  }
  remove_work_dir(o.work_dir);
  std::cout << "\n";
  print_metrics(merged, std::cout);
  if (!o.out.empty()) write_file(o.out, to_json(merged));
  return status;
}

/// Quick validity mode: one iteration per workload, gates only.
int run_check(std::uint64_t seed, const std::string& work_dir) {
  const auto start = Clock::now();
  const ChainConfig chain = chain_config(work_dir);
  std::size_t failed = 0;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> failures;
    try {
      run_chain(make_workload(name, seed), chain, nullptr, failures);
    } catch (const std::exception& e) {
      failures.push_back(std::string("threw: ") + e.what());
    }
    std::cout << name << ": " << (failures.empty() ? "gates hold" : "FAILED")
              << "\n";
    for (const std::string& f : failures) std::cout << "  " << f << "\n";
    failed += failures.empty() ? 0 : 1;
  }
  const std::string drift = grid_recipe_drift();
  std::cout << "grid recipe: "
            << (drift.empty() ? "matches matrix::run_cell" : "FAILED") << "\n";
  if (!drift.empty()) {
    std::cout << "  " << drift << "\n";
    ++failed;
  }
  remove_work_dir(work_dir);
  std::cout << "checked " << workload_names().size() << " workloads in "
            << support::format_fixed(seconds_since(start), 1) << " s\n";
  if (failed != 0) {
    std::cout << "SHAPE MISMATCH: " << failed << " check(s) failed\n";
    return 1;
  }
  std::cout << "[SHAPE OK] every validity gate holds on every workload\n";
  return 0;
}

support::CliParser make_parser() {
  support::CliParser cli(
      "pipeline_e2e",
      "time record -> shards -> merge -> analyze -> export end to end and "
      "layer by layer");
  cli.add_flag("--check", false,
               "one iteration per workload, validity gates only (default)");
  cli.add_flag("--workload", true,
               "casestudy | callpath-text | callpath-binary | grid | all", "W");
  cli.add_flag("--seed", true, "input and sampler seed (default 1)", "S");
  cli.add_flag("--seconds", true,
               "time iterations for T seconds (at least 3) instead of 20 "
               "(5 with --layers)",
               "T");
  cli.add_flag("--layers", false, "traced run: per-layer metrics and spans");
  cli.add_flag("--out", true, "write the results as JSON", "FILE");
  cli.add_flag("--spans", true,
               "--layers: Chrome trace-event JSON of the spans", "FILE");
  cli.add_flag("--work-dir", true,
               "scratch directory for shards (default pipeline_e2e.work)",
               "DIR");
  cli.add_flag("--compare", false,
               "compare two result files A B against ./BENCHMARK.json");
  cli.add_flag("--help", false, "show this message");
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli = make_parser();
  try {
    cli.parse(std::vector<std::string>(argv + 1, argv + argc));
    if (cli.has("--help")) {
      std::cout << cli.usage();
      return 0;
    }
    Options o;
    o.seed = cli.unsigned_value("--seed", 1);
    o.layers = cli.has("--layers");
    o.seconds = cli.unsigned_value("--seconds", 0);
    o.out = cli.value("--out").value_or("");
    o.spans = cli.value("--spans").value_or("");
    o.work_dir = cli.value("--work-dir").value_or(o.work_dir);

    if (cli.has("--compare")) {
      if (cli.positional().size() != 2) {
        throw Error(ErrorKind::kUsage, {}, "--compare", 0,
                    "--compare expects two result files\n" + cli.usage());
      }
      const std::size_t not_within =
          compare(read_run(cli.positional()[0]), read_run(cli.positional()[1]),
                  read_bounds("BENCHMARK.json"),
                  std::cout);
      std::cout << (not_within == 0
                        ? "every pair is within its bound\n"
                        : std::to_string(not_within) +
                              " pair(s) worse, unresolved or missing\n");
      return not_within == 0 ? 0 : 1;
    }
    if (!cli.positional().empty()) {
      throw Error(ErrorKind::kUsage, {}, "pipeline_e2e", 0,
                  "unexpected operand '" + cli.positional().front() + "'\n" +
                      cli.usage());
    }
    if (!cli.has("--workload")) return run_check(o.seed, o.work_dir);
    o.workload = *cli.value("--workload");
    if (o.workload == "all") return run_all(o);
    make_workload(o.workload, o.seed);  // rejects unknown names up front
    return run_one(o);
  } catch (const Error& error) {
    std::cerr << "pipeline_e2e: " << format_error(error) << "\n";
    return error.kind() == ErrorKind::kUsage ? 2 : 1;
  } catch (const std::exception& error) {
    std::cerr << "pipeline_e2e: " << format_error(error) << "\n";
    return 1;
  }
}
