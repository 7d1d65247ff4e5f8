// The mmap-able columnar binary profile format (docs/format.md).
//
// A binary profile is a 32-byte header, a CRC-protected section table,
// and 8-byte-aligned section payloads, each with its own CRC32 (the
// ingest transport's checksum, shared via support/hash.hpp). Sections
// store columns, not records: the CCT is three parallel arrays (parent,
// kind, key), metrics are dense f64 rows per thread, and every list
// section leads with its element count — so the loader can bound every
// reserve(), memory-map the file, and hand whole columns to
// Cct::assign_columns / MetricStore::set_row without re-lexing a byte.
//
// All integers are little-endian; doubles travel as the little-endian
// bytes of their IEEE-754 bit pattern. The writer is byte-deterministic:
// sections are emitted in id order with canonical record orders (the
// text writer's sorted firsttouch / addrcentric orders), and padding is
// always zero. The writer lives in binary_writer.cpp behind
// core/format/writer.hpp. Binary is the exact encoding: every double
// keeps its bit pattern, where the text format (docs/format.md), the
// human-readable interchange encoding, rounds to six significant digits.
//
// File layout:
//   0   8  magic 89 4E 50 42 46 0D 0A 1A ("\x89NPBF\r\n\x1a", PNG-style)
//   8   4  u32 format version
//   12  4  u32 section count
//   16  8  u64 file size in bytes
//   24  4  u32 CRC32 of the section table bytes
//   28  4  u32 CRC32 of header bytes [0, 28)
//   32      section table: count x {u32 id, u32 crc, u64 offset, u64 len}
//   ...     payloads, each at an 8-aligned offset, zero padding between
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/profile_io.hpp"
#include "core/session.hpp"

namespace numaprof::core::format {

inline constexpr unsigned char kBinaryMagic[8] = {0x89, 'N',  'P',  'B',
                                                  'F',  0x0D, 0x0A, 0x1A};
inline constexpr std::uint32_t kBinaryFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kTableEntryBytes = 24;

/// Section ids; files store sections in this order. Every section is
/// always present (empty lists serialize a zero count) so the layout —
/// and therefore the whole file — is deterministic.
enum class SectionId : std::uint32_t {
  kMeta = 1,         // machine, mechanisms, period, absolutes, fault plan
  kFrames = 2,       // frame columns + name/file string blob
  kCct = 3,          // parent / key / kind parallel arrays (node 0 implied)
  kVariables = 4,    // variable columns + name blob
  kThreads = 5,      // per-thread whole-program totals, columnar
  kMetrics = 6,      // per thread: node ids + dense f64 metric rows
  kAddrCentric = 7,  // sorted (context, variable, bin, tid) bin stats
  kFirstTouch = 8,   // canonically sorted first-touch records
  kTrace = 9,        // per-sample trace events
  kDegradations = 10,  // collection-health events + detail blob
};
inline constexpr std::uint32_t kSectionCount = 10;

std::string_view to_string(SectionId id) noexcept;

/// True when `prefix` begins with the full 8-byte binary magic.
bool looks_binary(std::string_view prefix) noexcept;

/// The program structure one merge shares across its shards
/// (docs/analyzer.md): the frames, CCT and variables of the merge's
/// reference shard as the bytes a later shard must repeat exactly, plus
/// the counts those bytes decode to. Text: the contiguous frames ...
/// variables block. Binary: each of the three sections' table entry (crc,
/// offset, length) followed by its payload.
struct SharedStructure {
  ProfileFormat format = ProfileFormat::kText;
  std::string bytes;
  std::size_t frames = 0;
  std::size_t cct_nodes = 0;
  std::size_t variables = 0;
};

/// One load's part in a merge's structure sharing. Loads outside a merge
/// pass none and decode their structure as always.
struct StructureLink {
  /// Called as soon as this file's structure has decoded with no
  /// diagnostics so far (text: frames, cct and variables as one contiguous
  /// block before any other structure section), while the rest of the
  /// file is still loading.
  std::function<void(SharedStructure)> publish;
  /// When this file's structure bytes equal the reference's, the loader
  /// skips decoding them and validates node ids against its counts.
  const SharedStructure* reference = nullptr;
  /// Set by the loader: the structure was taken from `reference`, so the
  /// loaded data carries no frames, CCT nodes or variables of its own.
  bool shared = false;
};

/// Thrown by a load inside a merge when a file whose structure was taken
/// from the reference goes on to define more structure: that file must
/// be loaded again without the link.
struct StructureConflict {};

/// The two loaders (text_reader.cpp, binary_reader.cpp; their shared
/// skeleton is load.hpp). Each parses one complete profile held in
/// `bytes`. Strict mode throws ProfileError: text names the field and its
/// line; binary's field is "<section>/<field>" and its line slot carries
/// the BYTE OFFSET of the damage. Lenient mode records a Diagnostic per
/// damaged section, keeps every section that parses and validates (binary:
/// and checksums), and returns consistent partial data.
LoadResult load_text_profile(std::string_view bytes,
                             const LoadOptions& options,
                             StructureLink* link = nullptr);
LoadResult load_binary_profile(std::string_view bytes,
                               const LoadOptions& options,
                               StructureLink* link = nullptr);

/// A file's bytes, read through one open: memory-mapped when it is a
/// regular file, read into a private buffer otherwise (a pipe, a FIFO, a
/// device, or a platform without mmap). The view stays valid for the
/// object's lifetime.
class MappedFile {
 public:
  /// Throws a kProfile numaprof::Error when the file cannot be opened or
  /// read.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view bytes() const noexcept { return view_; }
  bool is_mapped() const noexcept { return mapped_ != nullptr; }

 private:
  void* mapped_ = nullptr;
  std::size_t mapped_size_ = 0;
  std::string buffer_;  // fallback storage when not mapped
  std::string_view view_;
};

}  // namespace numaprof::core::format
