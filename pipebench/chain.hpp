// The chain a user runs, timed from the benchmark's side of each public
// call: record (Machine + Profiler + workload + snapshot) -> per-thread
// shards -> merge_profile_files at jobs N -> Analyzer + report panes +
// Advisor -> export_artifacts(kAll) (-> diff_profiles/render_diff on
// broken/fixed pairs). Validity gates run after each program, outside the
// timed region.
//
// For the traced (--layers) run, a Tracer records one span per layer call
// and extra passes split record and post-processing into layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out once as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::string workload;
    int iteration = 0;
    int parent = -1;  // index into spans(), -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;
    double children_s = 0.0;  // time covered by direct children

    double seconds() const noexcept { return end_s - start_s; }
    double self_seconds() const noexcept { return seconds() - children_s; }
  };

  /// Workload and iteration stamped on spans opened from now on.
  void set_context(std::string workload, int iteration);

  /// `name` must be a string literal (it is stored, not copied).
  int open(const char* name);
  void close(int id);

  /// Total duration of the spans called `name` in iteration `iteration` of
  /// workload `workload`.
  double total(std::string_view workload, int iteration,
               std::string_view name) const;

  /// Chrome trace-event JSON ("X" events, microseconds since the tracer
  /// was created; workload, iteration, parent and self time in args).
  std::string chrome_json() const;

 private:
  double now() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::string workload_;
  int iteration_ = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct ChainConfig {
  /// Participants of merge and analysis: min(4, hardware threads).
  unsigned jobs = 1;
  /// Program i writes its shards into <work_dir>/shards/<i>. The files
  /// are kept and overwritten by the next iteration: deleting and
  /// recreating ~1.5k files per grid iteration made post_s bimodal.
  std::string work_dir;
};

/// Counts the traced run collects alongside its spans (summed over the
/// programs of one iteration).
struct LayerCounts {
  std::uint64_t chain_accesses = 0;  // the profiled record's
  std::uint64_t plain_accesses = 0;
  std::uint64_t instructions = 0;
  std::uint64_t samples = 0;           // the bare sampler's
  std::uint64_t profiler_samples = 0;  // the Profiler pass's
  std::uint64_t cct_nodes = 0;
  std::uint64_t shard_bytes = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t files_skipped = 0;
  std::uint64_t captured = 0;  // accesses replayed into numasim::System
};

struct ChainTimes {
  double record_s = 0.0;
  double post_s = 0.0;
  double pipeline_s() const noexcept { return record_s + post_s; }
};

/// One iteration of the chain over every program of `w`. Gate failures
/// are appended to `failures`.
ChainTimes run_chain(const Workload& w, const ChainConfig& config,
                     Tracer* tracer, std::vector<std::string>& failures);

/// The post-processing layers of the traced run: the chain once more,
/// untimed, and after each program each shard decoded alone, the merge at
/// jobs 1, each exporter alone, and a diff where the chain has none, under
/// "pass.*" spans. A separate chain, so that the traced chain differs from
/// the untraced one by its spans alone.
void run_post_passes(const Workload& w, const ChainConfig& config,
                     Tracer& tracer, LayerCounts& counts);

/// The same programs with no profiler attached: the baseline of the
/// record overhead (Table 2's slowdown). Returns seconds.
double run_plain(const Workload& w);

/// The record layer passes, each adding one layer to the last: a plain
/// machine, a no-op observer, the bare sampler with a counting sink, the
/// full Profiler; plus a capture of each program's first 2M accesses that
/// is replayed into a fresh numasim::System. Appends a failure when the
/// passes disagree on the work done or the replay misses the captured
/// latency sum.
void run_record_passes(const Workload& w, Tracer& tracer, LayerCounts& counts,
                       std::vector<std::string>& failures);

}  // namespace pipebench
