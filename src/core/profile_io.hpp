// Profile serialization: the on-disk handoff between the online profiler
// (hpcrun writes per-thread measurement files) and the offline analyzer
// (hpcprof reads and merges them), §7. A SessionData is stored in one of
// two encodings behind one pair of objects:
//   ProfileWriter — emits the line-oriented text format (the human-
//                   readable interchange encoding, docs/format.md; its
//                   doubles keep six significant digits) or the mmap-able
//                   columnar binary format (docs/format.md; exact),
//                   selected by ProfileFormat;
//   ProfileReader — autodetects the encoding from magic bytes, so every
//                   consumer accepts either; every input is opened once
//                   and decoded from one byte view (a file is memory-
//                   mapped, or read once when it is a pipe).
//
// Both loaders treat their input as UNTRUSTED: every enum is range-
// checked, every count is bounded before memory is reserved, and every
// cross-section reference (CCT nodes, frames) is validated. Two load
// modes exist:
//   strict  — the default: any malformed field throws a ProfileError
//             naming the field and line (byte offset, for binary);
//   lenient — damage is recorded as Diagnostics, the damaged section is
//             skipped, and a consistent partial SessionData is returned
//             (§7.2 merges thousands of per-thread files; one bad file
//             must not kill the run).
// merge_profile_files() is the analyzer-side multi-file merge with a
// per-file quorum summary; ProfileWriter::write_thread_shards() writes
// the per-thread measurement files it consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "core/session.hpp"
#include "support/error.hpp"

namespace numaprof::core {

/// Current format version; ProfileReader also accepts the previous version
/// (which simply lacks the collection-health sections).
inline constexpr int kProfileFormatVersion = 3;
inline constexpr int kMinProfileFormatVersion = 2;

/// A typed parse error carrying the offending field and 1-based line
/// (numaprof::Error with kind ErrorKind::kProfile).
class ProfileError : public numaprof::Error {
 public:
  ProfileError(std::string field, std::size_t line,
               const std::string& message);
};

struct LoadOptions {
  /// false: throw ProfileError at the first malformed field. true: record
  /// a Diagnostic, skip to the next section, return partial data.
  bool lenient = false;
  /// Hard ceiling on any one section's element count. A corrupt header
  /// claiming a gigantic count is rejected before any reserve() happens.
  std::size_t max_count = std::size_t(1) << 22;
};

/// One recorded problem from a lenient load.
struct Diagnostic {
  std::size_t line = 0;
  std::string field;
  std::string message;
};

struct LoadResult {
  SessionData data;
  std::vector<Diagnostic> diagnostics;
  /// True when the input parsed to its end with no diagnostics.
  bool complete = true;
  /// The encoding the input was read as.
  ProfileFormat format = ProfileFormat::kText;
};

/// Reads profiles in either encoding, autodetecting from magic bytes: a
/// stream/file/buffer beginning with the binary magic (docs/format.md)
/// loads through the columnar binary loader, anything else through the
/// text loader. Every read ends in read(std::string_view): a file is
/// opened once and memory-mapped (or read once, when it is not a regular
/// file), a stream is buffered. Construct from a LoadOptions for explicit
/// strict/lenient policy, or from the pipeline's PipelineOptions (which
/// carries the same knobs).
class ProfileReader {
 public:
  ProfileReader() = default;
  explicit ProfileReader(const LoadOptions& options) : options_(options) {}
  explicit ProfileReader(const PipelineOptions& options)
      : options_{.lenient = options.lenient, .max_count = options.max_count} {}

  /// The encoding `prefix` (the first bytes of a profile) begins with.
  /// Binary requires the full 8-byte magic; everything else is text —
  /// the text loader produces the precise error for non-profiles.
  static ProfileFormat detect(std::string_view prefix) noexcept;

  /// Loads from a stream, read to its end first. Strict mode throws
  /// ProfileError.
  LoadResult read(std::istream& is) const;

  /// Loads from an in-memory profile; binary input is parsed zero-copy.
  LoadResult read(std::string_view bytes) const;

  /// Loads from a file, pipe or FIFO, opened once. Throws a kProfile
  /// numaprof::Error "cannot open for read: PATH" when it cannot be
  /// opened.
  LoadResult read_file(const std::string& path) const;

  const LoadOptions& options() const noexcept { return options_; }

 private:
  LoadOptions options_;
};

/// Writes profiles in the configured encoding (text by default; binary
/// when constructed with ProfileFormat::kBinary or a PipelineOptions
/// whose `format` says so). Both encodings are byte-deterministic: equal
/// sessions produce equal bytes, with canonical record orders.
class ProfileWriter {
 public:
  ProfileWriter() = default;
  explicit ProfileWriter(ProfileFormat format) : format_(format) {}
  explicit ProfileWriter(const PipelineOptions& options)
      : format_(options.format) {}

  void write(const SessionData& data, std::ostream& os) const;

  /// The complete serialized profile as one buffer.
  std::string bytes(const SessionData& data) const;

  /// Throws a kProfile numaprof::Error when the file cannot be written
  /// completely (support::write_file).
  void write_file(const SessionData& data, const std::string& path) const;

  /// Serializes one measurement shard per thread WITHOUT touching the
  /// filesystem: element `tid` is a complete profile (in this writer's
  /// format) carrying the shared program structure plus only that
  /// thread's measurements. This is what the ingestion client
  /// (ingest/client.hpp) streams to numaprofd.
  std::vector<std::string> thread_shards(const SessionData& data) const;

  /// Writes one measurement file per thread into `directory`
  /// (thread_<tid>.prof): exactly the thread_shards() payloads, so
  /// merge_profile_files() can reassemble the session by summation.
  /// Returns the paths written; throws like write_file().
  std::vector<std::string> write_thread_shards(
      const SessionData& data, const std::string& directory) const;

  ProfileFormat format() const noexcept { return format_; }

 private:
  ProfileFormat format_ = ProfileFormat::kText;
};

struct SkippedProfile {
  std::string path;
  std::string reason;
};

/// Per-file accounting of an analyzer merge.
struct MergeSummary {
  std::size_t files_total = 0;
  std::size_t files_merged = 0;
  std::vector<SkippedProfile> skipped;
  /// Lenient per-file diagnostics; `field` is prefixed with the file path.
  std::vector<Diagnostic> diagnostics;
};

struct MergeResult {
  SessionData data;
  MergeSummary summary;
};

/// Loads and merges per-thread measurement files (§7.2): files parse on
/// `options.jobs` participants and fold in input order, so the result is
/// identical for every jobs value. The frames, CCT and variables every
/// shard repeats are decoded once, from the first file; later files whose
/// structure bytes equal its skip them (docs/analyzer.md), with the same
/// results and errors as a full decode. In strict mode the first unreadable
/// file (by position) throws a ProfileError naming the field/line;
/// in lenient mode unreadable or structurally incompatible files are
/// skipped, recorded in the summary, AND surfaced as kProfileFileSkipped
/// degradation events in the merged SessionData so reports show them.
/// `options.lint_paths` is not consumed here (the merge has no source
/// view); CLIs act on it after merging.
MergeResult merge_profile_files(const std::vector<std::string>& paths,
                                const PipelineOptions& options = {});

/// Percent-escaping for strings embedded in the profile format (escapes
/// '%', whitespace, and control characters).
std::string escape_field(std::string_view raw);
std::string unescape_field(std::string_view escaped);

}  // namespace numaprof::core
