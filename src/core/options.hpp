// numaprof::PipelineOptions — the one option block for the offline
// pipeline: the shard merge, the per-thread store fold and the CLIs'
// pipeline flags all consume this single struct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace numaprof {

/// On-disk profile encodings. Text is the human-readable interchange
/// format, its doubles rounded to six significant digits; binary is the
/// exact, mmap-able columnar format (both in docs/format.md). Readers autodetect from magic bytes, so the field
/// only governs what writers EMIT.
enum class ProfileFormat : std::uint8_t {
  kText,
  kBinary,
};

struct PipelineOptions {
  /// Threads of every parallel stage (shard parsing, metric-row merges,
  /// lint phase 1); each stage runs support::parallel_for_each on at most
  /// this many, never more than it has indices. 1 runs everything on the
  /// calling thread; any value produces bitwise-identical results
  /// (docs/analyzer.md).
  unsigned jobs = 1;
  /// Recover from damaged inputs: malformed sections become diagnostics,
  /// unreadable shard files are skipped (subject to `quorum`).
  bool lenient = false;
  /// Minimum fraction of input files that must merge successfully; below
  /// this the merge throws even in lenient mode.
  double quorum = 0.5;
  /// Hard ceiling on any one profile section's element count; corrupt
  /// headers claiming gigantic counts are rejected before any reserve().
  std::size_t max_count = std::size_t(1) << 22;
  /// Sources for the static NUMA-antipattern analyzer; when non-empty the
  /// CLIs append a fused-findings pane to their reports (docs/lint.md).
  std::vector<std::string> lint_paths{};
  /// Encoding used when this pipeline WRITES profiles (merged outputs,
  /// shards). Loads always autodetect, so mixed-format inputs merge fine.
  ProfileFormat format = ProfileFormat::kText;
};

}  // namespace numaprof
