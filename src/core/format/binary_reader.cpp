// The mmap-friendly binary loader (docs/format.md).
//
// The input is UNTRUSTED, exactly like the text loader's: every count is
// bounded (by LoadOptions::max_count AND by the bytes actually present)
// before any reserve(), every enum is range-checked, every cross-section
// reference is validated, and every payload must match its table CRC32.
// Strict mode throws a ProfileError whose field is "<section>/<field>"
// and whose line slot carries the absolute byte offset of the damage.
// Lenient mode recovers section-by-section: a damaged section becomes a
// Diagnostic and is dropped wholesale (decoders build into temporaries
// and commit only on success), everything that checksums and validates
// is kept, and the load skeleton's finalize() (load.hpp) repairs the
// survivors into consistent partial data.
//
// Decoded columns are handed to the session as spans — straight into the
// mapped bytes when host endianness and alignment allow (the zero-copy
// path), staged through a support::Arena otherwise — and feed the bulk
// Cct::assign_columns / MetricStore::set_row entry points, so loading
// never builds the CCT node-by-node.
//
// Inside a merge (StructureLink), the frames, CCT and variables sections
// are compared with the reference shard's table entries and payloads;
// when all three match, they are not decoded again and node ids validate
// against the reference's CCT size.
#include <array>
#include <optional>
#include <utility>

#include "core/format/codec.hpp"
#include "core/format/format.hpp"
#include "core/format/load.hpp"
#include "support/hash.hpp"

namespace numaprof::core::format {

namespace {

/// Upper bound on the section count field; version 1 defines 10 section
/// ids, and even future versions have no business approaching this.
constexpr std::uint32_t kMaxSectionCount = 256;

struct SectionRef {
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  bool present = false;
};

class BinaryLoader : LoadState {
 public:
  BinaryLoader(std::string_view bytes, const LoadOptions& options,
               StructureLink* link)
      : LoadState(options, link), bytes_(bytes) {}

  LoadResult run() {
    parse_header();
    parse_table();
    decode_sections();
    return finish(/*reached_end=*/true);
  }

 private:
  static constexpr SectionId kStructure[] = {
      SectionId::kFrames, SectionId::kCct, SectionId::kVariables};

  /// Appends each structure section's table entry and payload (the
  /// SharedStructure encoding); false when one is absent or out of bounds.
  bool structure_bytes(std::string& out) const {
    for (const SectionId id : kStructure) {
      const SectionRef& ref = refs_[static_cast<std::uint32_t>(id)];
      if (!ref.present || ref.offset > limit_ ||
          ref.length > limit_ - ref.offset) {
        return false;
      }
      put_u32(out, ref.crc);
      put_u64(out, ref.offset);
      put_u64(out, ref.length);
      out.append(bytes_.substr(static_cast<std::size_t>(ref.offset),
                               static_cast<std::size_t>(ref.length)));
    }
    return true;
  }

  /// Hands the decoded structure to the link's publish callback.
  void publish_structure() {
    std::string bytes;
    if (may_publish() && structure_bytes(bytes)) {
      publish(ProfileFormat::kBinary, std::move(bytes));
    }
  }

  /// True (and the link marked shared) when the structure sections equal
  /// the reference's byte for byte; they would decode exactly as its did.
  bool share_structure() {
    if (!link_ || !link_->reference ||
        link_->reference->format != ProfileFormat::kBinary) {
      return false;
    }
    std::string bytes;
    link_->shared =
        structure_bytes(bytes) && bytes == link_->reference->bytes;
    return link_->shared;
  }

  [[noreturn]] static void fail(std::string_view field, std::size_t offset,
                                const std::string& message) {
    throw ProfileError(std::string(field), offset, message);
  }

  /// Header and section-table damage throws in BOTH modes (as the text
  /// loader's header does): with the table gone there is nothing to
  /// recover section-by-section. The one exception is truncation AFTER
  /// the table — lenient mode clips to the bytes present and salvages
  /// every section that still fits (truncate-to-valid-section).
  void parse_header() {
    if (bytes_.size() < kHeaderBytes) {
      fail("header/magic", 0,
           "not a binary profile: " + std::to_string(bytes_.size()) +
               " bytes is shorter than the header");
    }
    if (!looks_binary(bytes_)) {
      fail("header/magic", 0, "not a binary numaprof profile");
    }
    const std::uint32_t stored_crc = get_u32(bytes_, 28);
    if (support::crc32(bytes_.substr(0, 28)) != stored_crc) {
      fail("header/crc", 28, "header checksum mismatch");
    }
    const std::uint32_t version = get_u32(bytes_, 8);
    if (version != kBinaryFormatVersion) {
      fail("header/version", 8,
           "unsupported binary format version " + std::to_string(version));
    }
    section_count_ = get_u32(bytes_, 12);
    if (section_count_ > kMaxSectionCount) {
      fail("header/section_count", 12,
           "implausible section count " + std::to_string(section_count_));
    }
    const std::uint64_t file_size = get_u64(bytes_, 16);
    if (file_size < kHeaderBytes + section_count_ * kTableEntryBytes) {
      fail("header/file_size", 16, "file size smaller than header + table");
    }
    if (bytes_.size() < file_size) {
      damage(16, "header/file_size",
             "truncated: header claims " + std::to_string(file_size) +
                 " bytes, stream has " + std::to_string(bytes_.size()),
             "; recovering sections that fit");
      limit_ = bytes_.size();
    } else {
      // Trailing bytes beyond file_size are ignored, like text content
      // after the "end" marker.
      limit_ = static_cast<std::size_t>(file_size);
    }
  }

  void parse_table() {
    const std::size_t table_at = kHeaderBytes;
    const std::size_t table_bytes = section_count_ * kTableEntryBytes;
    if (table_at + table_bytes > limit_) {
      fail("table", table_at, "truncated inside the section table");
    }
    const std::string_view table = bytes_.substr(table_at, table_bytes);
    const std::uint32_t stored_crc = get_u32(bytes_, 24);
    if (support::crc32(table) != stored_crc) {
      fail("table/crc", 24, "section table checksum mismatch");
    }
    for (std::uint32_t i = 0; i < section_count_; ++i) {
      const std::size_t at = i * kTableEntryBytes;
      const std::uint32_t id = get_u32(table, at);
      const std::uint32_t crc = get_u32(table, at + 4);
      const std::uint64_t offset = get_u64(table, at + 8);
      const std::uint64_t length = get_u64(table, at + 16);
      const std::size_t entry_offset = table_at + at;
      if (id == 0 || id > kSectionCount) {
        damage(entry_offset, "table/id",
               "unknown section id " + std::to_string(id), " skipped");
        continue;
      }
      SectionRef& ref = refs_[id];
      if (ref.present) {
        damage(entry_offset, "table/id",
               "duplicate section " + std::string(to_string(SectionId(id))),
               " ignored (first wins)");
        continue;
      }
      ref.crc = crc;
      ref.offset = offset;
      ref.length = length;
      ref.present = true;
    }
  }

  /// Returns the verified payload of `id`, or nullopt when the section
  /// is absent or damaged (lenient) — strict mode throws instead.
  std::optional<std::string_view> payload_of(SectionId id) {
    const std::string name(to_string(id));
    SectionRef& ref = refs_[static_cast<std::uint32_t>(id)];
    if (!ref.present) {
      damage(0, name + "/missing", "section not present in the table");
      return std::nullopt;
    }
    const auto offset = static_cast<std::size_t>(ref.offset);
    if (ref.offset > limit_ || ref.length > limit_ - ref.offset) {
      damage(offset, name + "/bounds",
             "section extends past the available bytes", "; dropped");
      return std::nullopt;
    }
    const std::string_view payload =
        bytes_.substr(offset, static_cast<std::size_t>(ref.length));
    if (support::crc32(payload) != ref.crc) {
      damage(offset, name + "/crc", "section checksum mismatch", "; dropped");
      return std::nullopt;
    }
    return payload;
  }

  /// Runs one section decoder with section-level atomicity: in lenient
  /// mode a decode failure is recorded and the section dropped.
  template <typename Fn>
  void decode(SectionId id, Fn&& fn) {
    const std::optional<std::string_view> payload = payload_of(id);
    if (!payload) return;
    Cursor cursor(*payload,
                  static_cast<std::size_t>(
                      refs_[static_cast<std::uint32_t>(id)].offset),
                  to_string(id));
    recover([&] { fn(cursor); });
  }

  void decode_sections() {
    // Fixed id order regardless of file order: later sections validate
    // against earlier ones (metric node ids against the CCT, metric
    // width against the machine's domain count).
    decode(SectionId::kMeta, [&](Cursor& c) { decode_meta(c); });
    if (!share_structure()) {
      decode(SectionId::kFrames, [&](Cursor& c) { decode_frames(c); });
      decode(SectionId::kCct, [&](Cursor& c) { decode_cct(c); });
      decode(SectionId::kVariables, [&](Cursor& c) { decode_variables(c); });
      publish_structure();
    }
    decode(SectionId::kThreads, [&](Cursor& c) { decode_threads(c); });
    decode(SectionId::kMetrics, [&](Cursor& c) { decode_metrics(c); });
    decode(SectionId::kAddrCentric,
           [&](Cursor& c) { decode_addrcentric(c); });
    decode(SectionId::kFirstTouch, [&](Cursor& c) { decode_firsttouch(c); });
    decode(SectionId::kTrace, [&](Cursor& c) { decode_trace(c); });
    decode(SectionId::kDegradations,
           [&](Cursor& c) { decode_degradations(c); });
  }

  void decode_meta(Cursor& c) {
    const std::uint32_t domains = c.u32("domain_count");
    if (domains == 0 || domains > options_.max_count) {
      c.fail("domain_count", "domain count out of range");
    }
    const std::uint32_t cores = c.u32("core_count");
    const std::uint32_t mechanism = c.u32("mechanism");
    if (mechanism >= pmu::kMechanismCount) {
      c.fail("mechanism", "enum value " + std::to_string(mechanism) +
                              " out of range");
    }
    const std::uint32_t requested = c.u32("requested_mechanism");
    if (requested >= pmu::kMechanismCount) {
      c.fail("requested_mechanism",
             "enum value " + std::to_string(requested) + " out of range");
    }
    const std::uint64_t period = c.u64("period");
    const std::uint64_t pebs_ll = c.u64("pebs_ll_events");
    const std::uint32_t name_len = c.u32("machine_name");
    const std::uint32_t fault_len = c.u32("fault_context");
    const std::string_view name = c.raw(name_len, "machine_name");
    const std::string_view fault = c.raw(fault_len, "fault_context");

    data().domain_count = domains;
    data().core_count = cores;
    data().mechanism = static_cast<pmu::Mechanism>(mechanism);
    data().requested_mechanism = static_cast<pmu::Mechanism>(requested);
    data().sampling_period = period;
    data().pebs_ll_events = pebs_ll;
    data().machine_name.assign(name);
    data().fault_context.assign(fault);
  }

  void decode_frames(Cursor& c) {
    // Per frame: u32 line + u32 name_len + u32 file_len + u8 kind.
    const std::size_t count = checked_count(c, options_, 13, "count");
    const auto lines = c.column<std::uint32_t>(count, "line", arena_);
    const auto name_lens = c.column<std::uint32_t>(count, "name_len", arena_);
    const auto file_lens = c.column<std::uint32_t>(count, "file_len", arena_);
    const auto kinds = c.bytes_column(count, "kind");
    std::vector<simrt::FrameInfo> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (kinds[i] >= simrt::kFrameKindCount) {
        c.fail("kind", "enum value " + std::to_string(kinds[i]) +
                           " out of range");
      }
      simrt::FrameInfo f;
      f.kind = static_cast<simrt::FrameKind>(kinds[i]);
      f.line = lines[i];
      f.name.assign(c.raw(name_lens[i], "name"));
      f.file.assign(c.raw(file_lens[i], "file"));
      frames.push_back(std::move(f));
    }
    data().frames = std::move(frames);
  }

  void decode_cct(Cursor& c) {
    // Per node: u64 key + u32 parent + u8 kind.
    const std::size_t count = checked_count(c, options_, 13, "count");
    const auto keys = c.column<std::uint64_t>(count, "key", arena_);
    const auto parents = c.column<NodeId>(count, "parent", arena_);
    const auto kinds = c.bytes_column(count, "kind");
    for (std::size_t i = 0; i < count; ++i) {
      // Column element i describes node i+1; topological order means the
      // parent id must already exist.
      if (parents[i] > i) {
        c.fail("parent", "parent " + std::to_string(parents[i]) +
                             " of node " + std::to_string(i + 1) +
                             " out of order");
      }
      if (kinds[i] >= kNodeKindCount) {
        c.fail("kind", "enum value " + std::to_string(kinds[i]) +
                           " out of range");
      }
    }
    if (const auto repeat = data().cct.assign_columns(parents, kinds, keys)) {
      c.fail("key", "node " + std::to_string(*repeat) +
                        " repeats a sibling's kind and key");
    }
  }

  void decode_variables(Cursor& c) {
    // Per variable: 3 x u64 + 3 x u32 + 2 x u8.
    const std::size_t count = checked_count(c, options_, 38, "count");
    const auto starts = c.column<std::uint64_t>(count, "start", arena_);
    const auto sizes = c.column<std::uint64_t>(count, "size", arena_);
    const auto pages = c.column<std::uint64_t>(count, "pages", arena_);
    const auto nodes = c.column<NodeId>(count, "node", arena_);
    const auto tids = c.column<std::uint32_t>(count, "tid", arena_);
    const auto name_lens = c.column<std::uint32_t>(count, "name_len", arena_);
    const auto kinds = c.bytes_column(count, "kind");
    const auto lives = c.bytes_column(count, "live");
    std::vector<Variable> variables;
    variables.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (kinds[i] >= kVariableKindCount) {
        c.fail("kind", "enum value " + std::to_string(kinds[i]) +
                           " out of range");
      }
      if (nodes[i] >= data().cct.size()) {
        c.fail("node", "variable node out of range");
      }
      Variable v;
      v.id = static_cast<VariableId>(i);
      v.kind = static_cast<VariableKind>(kinds[i]);
      v.start = starts[i];
      v.size = sizes[i];
      v.page_count = pages[i];
      v.variable_node = nodes[i];
      v.alloc_tid = tids[i];
      v.live = lives[i] != 0;
      v.name.assign(c.raw(name_lens[i], "name"));
      variables.push_back(std::move(v));
    }
    data().variables = std::move(variables);
  }

  void decode_threads(Cursor& c) {
    // Per thread: 8 x u64 + 2 x f64 (the per-domain matrix follows).
    const std::size_t count = checked_count(c, options_, 80, "count");
    const std::uint32_t domains = c.u32("domain_count");
    if (domains != data().domain_count) {
      c.fail("domain_count",
             "domain count " + std::to_string(domains) +
                 " does not match machine (" +
                 std::to_string(data().domain_count) + ")");
    }
    c.u32("reserved");
    const auto samples = c.column<std::uint64_t>(count, "samples", arena_);
    const auto mem = c.column<std::uint64_t>(count, "memory_samples", arena_);
    const auto match = c.column<std::uint64_t>(count, "match", arena_);
    const auto mismatch = c.column<std::uint64_t>(count, "mismatch", arena_);
    const auto l3 = c.column<std::uint64_t>(count, "l3_miss", arena_);
    const auto rl3 = c.column<std::uint64_t>(count, "remote_l3_miss", arena_);
    const auto instr = c.column<std::uint64_t>(count, "instructions", arena_);
    const auto mem_instr =
        c.column<std::uint64_t>(count, "memory_instructions", arena_);
    const auto remote_lat = c.column<double>(count, "remote_latency", arena_);
    const auto total_lat = c.column<double>(count, "total_latency", arena_);
    const auto per_domain = c.column<std::uint64_t>(
        count * data().domain_count, "per_domain", arena_);
    std::vector<ThreadTotals> totals;
    totals.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      ThreadTotals t;
      t.samples = samples[i];
      t.memory_samples = mem[i];
      t.match = match[i];
      t.mismatch = mismatch[i];
      t.l3_miss_samples = l3[i];
      t.remote_l3_miss_samples = rl3[i];
      t.instructions = instr[i];
      t.memory_instructions = mem_instr[i];
      t.remote_latency = remote_lat[i];
      t.total_latency = total_lat[i];
      const auto row = per_domain.subspan(i * data().domain_count,
                                          data().domain_count);
      t.per_domain.assign(row.begin(), row.end());
      totals.push_back(std::move(t));
    }
    data().totals = std::move(totals);
  }

  void decode_metrics(Cursor& c) {
    const std::size_t count = checked_count(c, options_, 8, "thread_count");
    const std::uint32_t width = c.u32("width");
    const MetricStore reference(data().domain_count);
    if (width != reference.width()) {
      c.fail("width", "width " + std::to_string(width) +
                          " does not match machine (" +
                          std::to_string(reference.width()) + ")");
    }
    c.u32("reserved");
    std::vector<MetricStore> stores;
    stores.reserve(count);
    for (std::size_t tid = 0; tid < count; ++tid) {
      // Per row: u32 node id + width x f64 values.
      const std::size_t rows = checked_count(
          c, options_, 4 + std::size_t(width) * 8, "node_count");
      const auto nodes = c.column<NodeId>(rows, "node", arena_);
      c.align(8, "row_padding");
      const auto values = c.column<double>(rows * width, "values", arena_);
      MetricStore store(data().domain_count);
      for (std::size_t n = 0; n < rows; ++n) {
        if (nodes[n] >= cct_size()) {
          c.fail("node", "node out of range");
        }
        if (n > 0 && nodes[n] <= nodes[n - 1]) {
          c.fail("node", "node ids not strictly ascending");
        }
        store.set_row(nodes[n], values.subspan(n * width, width));
      }
      stores.push_back(std::move(store));
    }
    data().stores = std::move(stores);
  }

  void decode_addrcentric(Cursor& c) {
    // Per entry: 3 x u64 + 1 x f64 + 4 x u32.
    const std::size_t count = checked_count(c, options_, 48, "count");
    const auto lo = c.column<std::uint64_t>(count, "lo", arena_);
    const auto hi = c.column<std::uint64_t>(count, "hi", arena_);
    const auto counts = c.column<std::uint64_t>(count, "access_count", arena_);
    const auto latency = c.column<double>(count, "latency", arena_);
    const auto contexts = c.column<std::uint32_t>(count, "context", arena_);
    const auto variables = c.column<std::uint32_t>(count, "variable", arena_);
    const auto bins = c.column<std::uint32_t>(count, "bin", arena_);
    const auto tids = c.column<std::uint32_t>(count, "tid", arena_);
    AddressCentric entries;
    for (std::size_t i = 0; i < count; ++i) {
      BinKey key;
      key.context = contexts[i];
      key.variable = variables[i];
      key.bin = bins[i];
      key.tid = tids[i];
      BinStats stats;
      stats.lo = lo[i];
      stats.hi = hi[i];
      stats.count = counts[i];
      stats.latency = latency[i];
      entries.insert(key, stats);
    }
    data().address_centric = std::move(entries);
  }

  void decode_firsttouch(Cursor& c) {
    // Per record: u64 page + 4 x u32.
    const std::size_t count = checked_count(c, options_, 24, "count");
    const auto pages = c.column<std::uint64_t>(count, "page", arena_);
    const auto variables = c.column<std::uint32_t>(count, "variable", arena_);
    const auto tids = c.column<std::uint32_t>(count, "tid", arena_);
    const auto domains = c.column<std::uint32_t>(count, "domain", arena_);
    const auto nodes = c.column<NodeId>(count, "node", arena_);
    std::vector<FirstTouchRecord> touches;
    touches.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (nodes[i] >= cct_size()) {
        c.fail("node", "first-touch node out of range");
      }
      touches.push_back(FirstTouchRecord{.variable = variables[i],
                                         .tid = tids[i],
                                         .domain = domains[i],
                                         .node = nodes[i],
                                         .page = pages[i]});
    }
    data().first_touches = std::move(touches);
  }

  void decode_trace(Cursor& c) {
    // Per event: u64 time + 4 x u32 + 2 x u8.
    const std::size_t count = checked_count(c, options_, 26, "count");
    const auto times = c.column<std::uint64_t>(count, "time", arena_);
    const auto tids = c.column<std::uint32_t>(count, "tid", arena_);
    const auto variables = c.column<std::uint32_t>(count, "variable", arena_);
    const auto homes = c.column<std::uint32_t>(count, "home_domain", arena_);
    const auto latencies = c.column<std::uint32_t>(count, "latency", arena_);
    const auto mismatches = c.bytes_column(count, "mismatch");
    const auto remotes = c.bytes_column(count, "remote");
    std::vector<TraceEvent> trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      trace.push_back(TraceEvent{.time = times[i],
                                 .tid = tids[i],
                                 .variable = variables[i],
                                 .home_domain = homes[i],
                                 .mismatch = mismatches[i] != 0,
                                 .remote = remotes[i] != 0,
                                 .latency = latencies[i]});
    }
    data().trace = std::move(trace);
  }

  void decode_degradations(Cursor& c) {
    // Per event: u64 value + u32 detail_len + 2 x u8.
    const std::size_t count = checked_count(c, options_, 14, "count");
    const auto values = c.column<std::uint64_t>(count, "value", arena_);
    const auto detail_lens =
        c.column<std::uint32_t>(count, "detail_len", arena_);
    const auto kinds = c.bytes_column(count, "kind");
    const auto mechanisms = c.bytes_column(count, "mechanism");
    std::vector<DegradationEvent> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (kinds[i] >= kDegradationKindCount) {
        c.fail("kind", "enum value " + std::to_string(kinds[i]) +
                           " out of range");
      }
      if (mechanisms[i] >= pmu::kMechanismCount) {
        c.fail("mechanism", "enum value " + std::to_string(mechanisms[i]) +
                                " out of range");
      }
      DegradationEvent e;
      e.kind = static_cast<DegradationKind>(kinds[i]);
      e.mechanism = static_cast<pmu::Mechanism>(mechanisms[i]);
      e.value = values[i];
      e.detail.assign(c.raw(detail_lens[i], "detail"));
      events.push_back(std::move(e));
    }
    data().degradations = std::move(events);
  }

  std::string_view bytes_;
  support::Arena arena_;
  std::uint32_t section_count_ = 0;
  std::size_t limit_ = 0;
  std::array<SectionRef, kSectionCount + 1> refs_{};  // indexed by id
};

}  // namespace

LoadResult load_binary_profile(std::string_view bytes,
                               const LoadOptions& options,
                               StructureLink* link) {
  return BinaryLoader(bytes, options, link).run();
}

}  // namespace numaprof::core::format
