#include "chain.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "core/diff.hpp"
#include "core/numaprof.hpp"
#include "matrix_support.hpp"
#include "pmu/sampler.hpp"

namespace pipebench {

namespace fs = std::filesystem;

namespace {

/// What analyze_profile prints for a profile: summary, health, the three
/// ranking panes, the timeline, and the Advisor's recommendations.
std::string report_text(const core::Analyzer& analyzer) {
  const core::Viewer viewer(analyzer);
  std::ostringstream os;
  os << viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) os << "-- collection health --\n" << health;
  os << "\n"
     << viewer.data_centric_table(10).to_text() << "\n"
     << viewer.code_centric_table(10).to_text() << "\n"
     << viewer.domain_balance_table().to_text() << "\n";
  const std::string timeline = viewer.trace_timeline();
  if (!timeline.empty()) os << timeline << "\n";
  const core::Advisor advisor(analyzer);
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    os << rec.variable_name << ": " << to_string(rec.action) << "\n  "
       << rec.rationale << "\n";
  }
  return os.str();
}

/// Everything one program leaves behind in the chain. Not movable: the
/// Analyzer points into `merged`.
struct Session {
  core::SessionData snapshot;
  core::MergeResult merged;
  std::optional<core::Analyzer> analyzer;
  std::string report;
  std::vector<core::ExportArtifact> artifacts;
  std::vector<std::string> shards;
  std::uint64_t accesses = 0;
  std::uint64_t instructions = 0;
};

std::unique_ptr<Session> run_program(const Program& p, ProfileFormat format,
                                     const PipelineOptions& options,
                                     const std::string& shard_dir,
                                     Tracer* tracer, ChainTimes& times) {
  auto s = std::make_unique<Session>();
  auto start = Clock::now();
  {
    Scope record(tracer, "record");
    simrt::Machine machine(p.topology);
    core::Profiler profiler(machine, p.profiler);
    {
      Scope simulate(tracer, "simulate");
      p.run(machine);
    }
    {
      Scope snapshot(tracer, "snapshot");
      s->snapshot = profiler.snapshot();
    }
    s->accesses = machine.total_accesses();
    s->instructions = machine.total_instructions();
  }
  times.record_s += seconds_since(start);

  start = Clock::now();
  {
    Scope shards(tracer, "shards");
    s->shards = core::ProfileWriter(format).write_thread_shards(s->snapshot,
                                                                shard_dir);
  }
  {
    Scope merge(tracer, "merge");
    s->merged = core::merge_profile_files(s->shards, options);
  }
  {
    Scope analyze(tracer, "analyze");
    {
      Scope analyzer(tracer, "analyzer");
      s->analyzer.emplace(s->merged.data, options);
    }
    Scope viewer(tracer, "viewer");
    s->report = report_text(*s->analyzer);
  }
  {
    Scope exports(tracer, "export");
    s->artifacts =
        core::export_artifacts(*s->analyzer, core::ExportKind::kAll);
  }
  times.post_s += seconds_since(start);
  return s;
}

/// The validity gates of one program; `direct` analyzes the in-memory
/// snapshot at jobs 1.
void check_session(const Program& p, const Session& s,
                   const core::Analyzer& direct,
                   std::vector<std::string>& failures) {
  const auto fail = [&](const std::string& what) {
    failures.push_back(p.name + ": " + what);
  };
  // The merge concatenates the shards' traces in thread order, while the
  // snapshot keeps samples in arrival order; compare with the snapshot's
  // trace grouped by thread the same way.
  core::SessionData expected = s.snapshot;
  std::stable_sort(expected.trace.begin(), expected.trace.end(),
                   [](const core::TraceEvent& a, const core::TraceEvent& b) {
                     return a.tid < b.tid;
                   });
  const core::ProfileWriter writer;
  if (writer.bytes(s.merged.data) != writer.bytes(expected)) {
    fail("merged profile bytes differ from the snapshot's");
  }
  if (report_text(direct) != s.report) {
    fail("report from the merged shards at jobs N differs from the "
         "snapshot's at jobs 1");
  }
  for (const core::ExportArtifact& a : s.artifacts) {
    for (const std::string& problem : core::check_artifact(a.filename, a.bytes)) {
      fail(a.filename + ": " + problem);
    }
  }
  if (s.merged.summary.files_merged != s.merged.summary.files_total) {
    fail("merged " + std::to_string(s.merged.summary.files_merged) + " of " +
         std::to_string(s.merged.summary.files_total) + " shards");
  }
  if (!p.hot_variable.empty()) {
    const std::string top = matrix::top_mismatch_variable(*s.analyzer);
    if (top != p.hot_variable) {
      fail("top mismatch variable is '" + top + "', expected '" +
           p.hot_variable + "'");
    }
  }
}

std::string shard_dir(const ChainConfig& config, std::size_t program) {
  return (fs::path(config.work_dir) / "shards" / std::to_string(program))
      .string();
}

/// One program's post-processing layers, one call at a time.
void time_post_layers(const Session& s, bool diff_in_chain, Tracer& tracer,
                      LayerCounts& counts) {
  for (const std::string& path : s.shards) {
    counts.shard_bytes += fs::file_size(path);
  }
  for (const core::ExportArtifact& a : s.artifacts) {
    counts.export_bytes += a.bytes.size();
  }
  counts.files_skipped += s.merged.summary.skipped.size();
  counts.cct_nodes += s.snapshot.cct.size();
  counts.chain_accesses += s.accesses;
  counts.instructions += s.instructions;

  {
    Scope decode(&tracer, "pass.decode");
    const core::ProfileReader reader;
    for (const std::string& path : s.shards) reader.read_file(path);
  }
  {
    Scope merge(&tracer, "pass.merge_jobs1");
    core::merge_profile_files(s.shards, PipelineOptions{});
  }
  const core::Analyzer& an = *s.analyzer;
  {
    Scope trace(&tracer, "pass.export.trace");
    core::export_trace_json(an);
  }
  {
    Scope flame(&tracer, "pass.export.flamegraph");
    core::export_collapsed_stacks(an);
    core::export_speedscope(an);
  }
  {
    Scope html(&tracer, "pass.export.html");
    core::export_html(an);
  }
  if (!diff_in_chain) {
    // No broken/fixed twin: cost the diff layer on this profile against
    // its own in-memory snapshot.
    const core::Analyzer direct(s.snapshot);
    Scope diff(&tracer, "pass.diff");
    core::render_diff(core::diff_profiles(an, direct));
  }
}

}  // namespace

// --- Tracer ---------------------------------------------------------------

void Tracer::set_context(std::string workload, int iteration) {
  workload_ = std::move(workload);
  iteration_ = iteration;
}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Tracer::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .workload = workload_,
                        .iteration = iteration_,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .start_s = now()});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = now();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].children_s += span.seconds();
  }
}

double Tracer::total(std::string_view workload, int iteration,
                     std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.iteration == iteration && s.name == name && s.workload == workload) {
      sum += s.seconds();
    }
  }
  return sum;
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
       << ",\"dur\":" << s.seconds() * 1e6 << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"workload\":\"" << s.workload
       << "\",\"iteration\":" << s.iteration
       << ",\"self_us\":" << s.self_seconds() * 1e6 << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

// --- The chain --------------------------------------------------------------

ChainTimes run_chain(const Workload& w, const ChainConfig& config,
                     Tracer* tracer, std::vector<std::string>& failures) {
  PipelineOptions options;
  options.jobs = config.jobs;
  const std::size_t step = w.diff_pairs ? 2 : 1;

  ChainTimes times;
  for (std::size_t i = 0; i + step <= w.programs.size(); i += step) {
    std::unique_ptr<Session> sessions[2];
    for (std::size_t k = 0; k < step; ++k) {
      const Program& p = w.programs[i + k];
      sessions[k] = run_program(p, w.shard_format, options,
                                shard_dir(config, i + k), tracer, times);
      check_session(p, *sessions[k], core::Analyzer(sessions[k]->snapshot),
                    failures);
    }
    if (!w.diff_pairs) continue;

    const auto start = Clock::now();
    std::string diff;
    {
      Scope scope(tracer, "diff");
      diff = core::render_diff(core::diff_profiles(*sessions[0]->analyzer,
                                                   *sessions[1]->analyzer));
    }
    times.post_s += seconds_since(start);
    const double broken = matrix::mismatch_fraction(*sessions[0]->analyzer);
    const double fixed = matrix::mismatch_fraction(*sessions[1]->analyzer);
    if (diff.empty() || !(broken > fixed)) {
      failures.push_back(w.programs[i].name + ": broken mismatch " +
                         std::to_string(broken) + " not above fixed " +
                         std::to_string(fixed));
    }
  }
  return times;
}

void run_post_passes(const Workload& w, const ChainConfig& config,
                     Tracer& tracer, LayerCounts& counts) {
  PipelineOptions options;
  options.jobs = config.jobs;
  ChainTimes untimed;
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    const std::unique_ptr<Session> s =
        run_program(w.programs[i], w.shard_format, options,
                    shard_dir(config, i), nullptr, untimed);
    time_post_layers(*s, w.diff_pairs, tracer, counts);
  }
}

double run_plain(const Workload& w) {
  double total = 0.0;
  for (const Program& p : w.programs) {
    const auto start = Clock::now();
    {
      simrt::Machine machine(p.topology);
      p.run(machine);
    }
    total += seconds_since(start);
  }
  return total;
}

namespace {

/// Records the first kLimit accesses of a run as System::access inputs.
class CaptureObserver final : public simrt::MachineObserver {
 public:
  static constexpr std::size_t kLimit = 2'000'000;

  struct Access {
    std::uint64_t addr = 0;
    numasim::Cycles now = 0;
    numasim::CoreId core = 0;
    numasim::DomainId home = 0;
    std::uint32_t latency = 0;
    bool is_write = false;
  };

  void on_access(const simrt::SimThread& /*thread*/,
                 const simrt::AccessEvent& e) override {
    if (log_.size() >= kLimit) return;
    // The event's time is the thread clock after the access: the request
    // was issued latency + 1 issue cycle earlier.
    log_.push_back(Access{.addr = e.addr,
                          .now = e.time - e.latency - 1,
                          .core = e.core,
                          .home = e.home_domain,
                          .latency = static_cast<std::uint32_t>(e.latency),
                          .is_write = e.is_write});
  }

  const std::vector<Access>& log() const noexcept { return log_; }

 private:
  std::vector<Access> log_;
};

}  // namespace

void run_record_passes(const Workload& w, Tracer& tracer, LayerCounts& counts,
                       std::vector<std::string>& failures) {
  for (const Program& p : w.programs) {
    std::uint64_t plain = 0;
    std::uint64_t noop = 0;
    std::uint64_t sampled = 0;
    std::uint64_t profiled = 0;
    {
      Scope scope(&tracer, "pass.plain");
      simrt::Machine machine(p.topology);
      p.run(machine);
      plain = machine.total_accesses();
    }
    {
      Scope scope(&tracer, "pass.noop");
      simrt::MachineObserver observer;
      simrt::Machine machine(p.topology);
      machine.add_observer(observer);
      p.run(machine);
      noop = machine.total_accesses();
    }
    {
      Scope scope(&tracer, "pass.sampler");
      std::uint64_t samples = 0;
      const std::unique_ptr<pmu::Sampler> sampler =
          pmu::make_sampler(p.profiler.event);
      sampler->set_sink([&samples](const pmu::Sample&) { ++samples; });
      simrt::Machine machine(p.topology);
      machine.add_observer(*sampler);
      p.run(machine);
      sampled = machine.total_accesses();
      counts.samples += samples;
    }
    {
      Scope scope(&tracer, "pass.profiler");
      simrt::Machine machine(p.topology);
      core::Profiler profiler(machine, p.profiler);
      p.run(machine);
      profiler.stop();
      profiled = machine.total_accesses();
      counts.profiler_samples += profiler.sampler().samples_emitted();
    }
    counts.plain_accesses += plain;
    if (plain != noop || plain != sampled || plain != profiled) {
      failures.push_back(p.name + ": record passes did different work (" +
                         std::to_string(plain) + " plain, " +
                         std::to_string(noop) + " no-op, " +
                         std::to_string(sampled) + " sampler, " +
                         std::to_string(profiled) + " profiler accesses)");
    }

    CaptureObserver capture;
    {
      simrt::Machine machine(p.topology);
      machine.add_observer(capture);
      p.run(machine);
    }
    std::uint64_t captured = 0;
    for (const CaptureObserver::Access& a : capture.log()) captured += a.latency;
    numasim::System system(p.topology);
    std::uint64_t replayed = 0;
    {
      Scope scope(&tracer, "pass.replay");
      for (const CaptureObserver::Access& a : capture.log()) {
        replayed +=
            system.access(a.core, a.home, a.addr, a.is_write, a.now).latency;
      }
    }
    counts.captured += capture.log().size();
    if (captured != replayed) {
      failures.push_back(p.name + ": replayed latency sum " +
                         std::to_string(replayed) + " != captured " +
                         std::to_string(captured));
    }
  }
}

}  // namespace pipebench
