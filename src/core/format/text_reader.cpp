// The text profile loader (docs/format.md), the reading half of
// text_writer.cpp.
//
// The input is UNTRUSTED: every enum is range-checked, every count is
// bounded (by LoadOptions::max_count, and for reserve() by the bytes left)
// and every cross-section reference is validated. Strict mode throws a
// ProfileError naming the field and its 1-based line. Lenient mode records
// the damage as a Diagnostic and skips to the next section tag.
//
// Lines split like std::getline's: a trailing CR is dropped, blank and
// whitespace-only lines are skipped, the last line need not end in a
// newline, and content after the "end" marker is never read. Each line's
// tokens are read with operator>> from one istringstream.
//
// Inside a merge (StructureLink), the frames, cct and variables sections
// are one block when they are contiguous and come before any other
// structure; a later shard whose block equals the reference's byte for
// byte skips it, and node ids validate against the reference's CCT size.
#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/format/format.hpp"
#include "core/format/load.hpp"

namespace numaprof::core {

std::string unescape_field(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%') {
      if (i + 2 >= escaped.size()) {
        throw ProfileError("string", 0, "truncated escape");
      }
      const auto digit = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        throw ProfileError("string", 0, "bad escape digit");
      };
      const int value = digit(escaped[i + 1]) * 16 + digit(escaped[i + 2]);
      if (value != 0) out.push_back(static_cast<char>(value));
      i += 2;
    } else {
      out.push_back(escaped[i]);
    }
  }
  return out;
}

namespace format {

namespace {

/// A record line in the format is at least this wide; reserve() for a
/// claimed count is clamped to what the remaining bytes could possibly
/// hold, so a corrupt header cannot trigger a huge allocation.
constexpr std::uint64_t kMinBytesPerRecord = 4;

/// Line-oriented tokenizer over the profile's bytes. Tracks the 1-based
/// line number (for ProfileError context) and the bytes consumed (to bound
/// reserve() calls against what the input could actually contain).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  /// Advances to the next non-blank line; false at the end.
  bool next_line() {
    while (consumed_ < bytes_.size()) {
      const std::size_t newline = bytes_.find('\n', consumed_);
      std::string_view line = bytes_.substr(consumed_, newline - consumed_);
      ++line_;
      line_start_ = consumed_;
      // One past the newline; one past the end for a last line without.
      consumed_ += line.size() + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
      tokens_.clear();
      tokens_.str(std::string(line));
      return true;
    }
    return false;
  }

  std::size_t line() const noexcept { return line_; }
  /// Offsets of the current line's first byte and of the next unread byte.
  std::uint64_t line_start() const noexcept { return line_start_; }
  std::uint64_t consumed() const noexcept { return consumed_; }

  /// The bytes at [from, to); empty when the input ends before `to`.
  std::string_view bytes(std::uint64_t from, std::uint64_t to) const {
    if (from > to || to > bytes_.size()) return {};
    return bytes_.substr(from, to - from);
  }

  /// When the input holds exactly `expected` from the current line's
  /// start, moves past it (counting its lines) and returns true.
  bool skip_if_at_line(std::string_view expected) {
    if (!bytes_.substr(line_start_).starts_with(expected)) return false;
    // The current line is already counted.
    line_ += static_cast<std::size_t>(
                 std::count(expected.begin(), expected.end(), '\n')) -
             1;
    consumed_ = line_start_ + expected.size();
    return true;
  }

  template <typename T>
  T value(const char* field) {
    T v{};
    if (!(tokens_ >> v)) fail_at(field, "bad or missing value");
    return v;
  }

  std::string token(const char* field) { return value<std::string>(field); }

  std::string unescaped(const char* field) {
    const std::string raw = token(field);
    try {
      return unescape_field(raw);
    } catch (const ProfileError& e) {
      fail_at(field, e.what());
    }
  }

  /// Upper bound on how many records could still follow, for reserve().
  std::size_t reserve_bound(std::size_t count) const {
    const std::uint64_t remaining =
        bytes_.size() > consumed_ ? bytes_.size() - consumed_ : 0;
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        count, remaining / kMinBytesPerRecord + 1));
  }

  [[noreturn]] void fail_at(const char* field,
                            const std::string& message) const {
    throw ProfileError(field, line_, message);
  }

 private:
  std::string_view bytes_;
  std::size_t line_ = 0;
  std::uint64_t line_start_ = 0;
  std::uint64_t consumed_ = 0;
  std::istringstream tokens_;
};

template <typename E>
E read_enum(Reader& r, const char* field, int enumerators) {
  const long long raw = r.value<long long>(field);
  if (raw < 0 || raw >= enumerators) {
    r.fail_at(field, "enum value " + std::to_string(raw) +
                         " out of range [0, " +
                         std::to_string(enumerators - 1) + "]");
  }
  return static_cast<E>(raw);
}

std::size_t read_count(Reader& r, const char* field,
                       const LoadOptions& options) {
  const auto raw = r.value<std::uint64_t>(field);
  if (raw > options.max_count) {
    r.fail_at(field, "count " + std::to_string(raw) + " exceeds limit " +
                         std::to_string(options.max_count));
  }
  return static_cast<std::size_t>(raw);
}

class TextLoader : LoadState {
 public:
  TextLoader(std::string_view bytes, const LoadOptions& options,
             StructureLink* link)
      : LoadState(options, link), r_(bytes) {}

  LoadResult run() {
    parse_header();
    bool saw_end = false;
    bool skipping = false;
    while (r_.next_line()) {
      const std::string tag = r_.token("section tag");
      if (tag == "end") {
        saw_end = true;
        break;
      }
      const Parse parse = parser_of(tag);
      if (parse == nullptr) {
        if (!options_.lenient) {
          r_.fail_at("section tag", "unknown section '" + tag + "'");
        }
        if (!skipping) {
          diagnose(r_.line(), "section tag",
                   "unrecognized content skipped starting at '" + tag + "'");
          skipping = true;
        }
        continue;
      }
      if (link_ && share_structure(tag)) {
        skipping = false;
        continue;
      }
      skipping = !recover([&] {
        (this->*parse)();
        if (tag == "variables") publish_structure();
      });
    }
    if (!saw_end) {
      damage(r_.line(), "end", "truncated profile: missing end marker");
    }
    return finish(saw_end);
  }

 private:
  /// Publishes the frames ... variables block, just parsed, when it is
  /// one block.
  void publish_structure() {
    if (block_tags_ != 3 || !may_publish()) return;
    const std::string_view block = r_.bytes(block_start_, r_.consumed());
    if (!block.empty()) publish(ProfileFormat::kText, std::string(block));
  }

  /// Structure sharing (merges only), called at every section tag. Tracks
  /// whether frames, cct and variables form one contiguous block that
  /// starts before any other structure section and is followed by none.
  /// At that block's first line it skips the block when the bytes equal
  /// the reference's, and returns true.
  bool share_structure(const std::string& tag) {
    static constexpr std::string_view kBlock[] = {"frames", "cct",
                                                  "variables"};
    const bool structure =
        std::find(std::begin(kBlock), std::end(kBlock), tag) !=
        std::end(kBlock);
    if (structure && link_->shared) throw StructureConflict{};
    if (block_tags_ < 3 && tag == kBlock[block_tags_]) {
      if (block_tags_++ > 0) return false;
      block_start_ = r_.line_start();
      const SharedStructure* reference = link_->reference;
      if (reference && reference->format == ProfileFormat::kText &&
          r_.skip_if_at_line(reference->bytes)) {
        link_->shared = true;
        block_tags_ = 3;
        return true;
      }
    } else if (structure || (block_tags_ > 0 && block_tags_ < 3)) {
      block_tags_ = kNoBlock;
    }
    return false;
  }

  using Parse = void (TextLoader::*)();

  /// The parser of the section `tag` names; nullptr for no section.
  static Parse parser_of(std::string_view tag) {
    static constexpr std::pair<std::string_view, Parse> kSections[] = {
        {"machine", &TextLoader::parse_machine},
        {"sampling", &TextLoader::parse_sampling},
        {"requested", &TextLoader::parse_requested},
        {"frames", &TextLoader::parse_frames},
        {"cct", &TextLoader::parse_cct},
        {"variables", &TextLoader::parse_variables},
        {"threads", &TextLoader::parse_threads},
        {"addrcentric", &TextLoader::parse_addrcentric},
        {"firsttouch", &TextLoader::parse_firsttouch},
        {"trace", &TextLoader::parse_trace},
        {"degradations", &TextLoader::parse_degradations},
        {"faultplan", &TextLoader::parse_faultplan}};
    for (const auto& [name, parse] : kSections) {
      if (name == tag) return parse;
    }
    return nullptr;
  }

  void parse_header() {
    if (!r_.next_line()) r_.fail_at("magic", "empty stream");
    if (r_.token("magic") != "numaprof-profile") {
      r_.fail_at("magic", "not a numaprof profile");
    }
    const int version = r_.value<int>("version");
    if (version < kMinProfileFormatVersion ||
        version > kProfileFormatVersion) {
      r_.fail_at("version",
                 "unsupported format version " + std::to_string(version));
    }
  }

  void parse_machine() {
    if (!data().totals.empty() || !data().stores.empty()) {
      // Per-thread stores are sized by domain_count; redefining the
      // machine after thread data would silently misalign every metric.
      r_.fail_at("machine", "machine section after thread data");
    }
    data().domain_count = r_.value<std::uint32_t>("domain_count");
    if (data().domain_count == 0 ||
        data().domain_count > options_.max_count) {
      r_.fail_at("domain_count", "domain count out of range");
    }
    data().core_count = r_.value<std::uint32_t>("core_count");
    data().machine_name = r_.unescaped("machine_name");
  }

  void parse_sampling() {
    data().mechanism =
        read_enum<pmu::Mechanism>(r_, "mechanism", pmu::kMechanismCount);
    if (!saw_requested_) data().requested_mechanism = data().mechanism;
    data().sampling_period = r_.value<std::uint64_t>("period");
    data().pebs_ll_events = r_.value<std::uint64_t>("pebs_ll_events");
  }

  void parse_requested() {
    data().requested_mechanism = read_enum<pmu::Mechanism>(
        r_, "requested mechanism", pmu::kMechanismCount);
    saw_requested_ = true;
  }

  void parse_frames() {
    const std::size_t count = read_count(r_, "frame count", options_);
    data().frames.reserve(r_.reserve_bound(count));
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) r_.fail_at("frame", "truncated frames section");
      simrt::FrameInfo f;
      f.kind =
          read_enum<simrt::FrameKind>(r_, "frame kind", simrt::kFrameKindCount);
      f.line = r_.value<std::uint32_t>("frame line");
      f.name = r_.unescaped("frame name");
      f.file = r_.unescaped("frame file");
      data().frames.push_back(std::move(f));
    }
  }

  void parse_cct() {
    const std::size_t count = read_count(r_, "cct size", options_);
    for (std::size_t id = 1; id < count; ++id) {
      if (!r_.next_line()) r_.fail_at("cct node", "truncated cct section");
      const auto parent = r_.value<NodeId>("cct parent");
      if (parent >= data().cct.size()) {
        r_.fail_at("cct parent", "parent id out of range");
      }
      const auto kind = read_enum<NodeKind>(r_, "cct kind", kNodeKindCount);
      const auto key = r_.value<std::uint64_t>("cct key");
      const NodeId created = data().cct.child(parent, kind, key);
      if (created != id) r_.fail_at("cct node", "node ids out of order");
    }
  }

  void parse_variables() {
    const std::size_t count = read_count(r_, "variable count", options_);
    data().variables.reserve(r_.reserve_bound(count));
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) {
        r_.fail_at("variable", "truncated variables section");
      }
      Variable v;
      v.id = static_cast<VariableId>(data().variables.size());
      v.kind = read_enum<VariableKind>(r_, "var kind", kVariableKindCount);
      v.start = r_.value<simos::VAddr>("var start");
      v.size = r_.value<std::uint64_t>("var size");
      v.page_count = r_.value<std::uint64_t>("var pages");
      v.variable_node = r_.value<NodeId>("var node");
      if (v.variable_node >= data().cct.size()) {
        r_.fail_at("var node", "variable node out of range");
      }
      v.alloc_tid = r_.value<simrt::ThreadId>("var tid");
      v.live = r_.value<int>("var live") != 0;
      v.name = r_.unescaped("var name");
      data().variables.push_back(std::move(v));
    }
  }

  void parse_threads() {
    const std::size_t count = read_count(r_, "thread count", options_);
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) {
        r_.fail_at("thread totals", "truncated threads section");
      }
      ThreadTotals t;
      t.samples = r_.value<std::uint64_t>("samples");
      t.memory_samples = r_.value<std::uint64_t>("memory samples");
      t.match = r_.value<std::uint64_t>("match");
      t.mismatch = r_.value<std::uint64_t>("mismatch");
      t.remote_latency = r_.value<double>("remote latency");
      t.total_latency = r_.value<double>("total latency");
      t.l3_miss_samples = r_.value<std::uint64_t>("l3 misses");
      t.remote_l3_miss_samples = r_.value<std::uint64_t>("remote l3");
      t.instructions = r_.value<std::uint64_t>("instructions");
      t.memory_instructions = r_.value<std::uint64_t>("mem instructions");
      t.per_domain.resize(data().domain_count);
      for (auto& v : t.per_domain) v = r_.value<std::uint64_t>("domain");

      if (!r_.next_line() || r_.token("metrics tag") != "metrics") {
        r_.fail_at("metrics tag", "expected 'metrics' after thread totals");
      }
      const std::size_t metric_nodes =
          read_count(r_, "metric nodes", options_);
      const auto width = r_.value<std::uint32_t>("metric width");
      MetricStore store(data().domain_count);
      if (width != store.width()) {
        r_.fail_at("metric width", "width " + std::to_string(width) +
                                       " does not match machine (" +
                                       std::to_string(store.width()) + ")");
      }
      for (std::size_t n = 0; n < metric_nodes; ++n) {
        if (!r_.next_line()) {
          r_.fail_at("metric node", "truncated metrics block");
        }
        const auto node = r_.value<NodeId>("metric node");
        if (node >= cct_size()) {
          r_.fail_at("metric node", "node out of range");
        }
        for (std::uint32_t m = 0; m < width; ++m) {
          const auto value = r_.value<double>("metric value");
          if (value != 0.0) store.add(node, m, value);
        }
      }
      // Commit totals and store together so the two stay aligned even if
      // a later thread record is damaged.
      data().totals.push_back(std::move(t));
      data().stores.push_back(std::move(store));
    }
  }

  void parse_addrcentric() {
    const std::size_t count = read_count(r_, "addr entries", options_);
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) {
        r_.fail_at("addr entry", "truncated addrcentric section");
      }
      BinKey key;
      key.context = r_.value<simrt::FrameId>("ctx");
      key.variable = r_.value<VariableId>("var");
      key.bin = r_.value<std::uint32_t>("bin");
      key.tid = r_.value<simrt::ThreadId>("tid");
      BinStats stats;
      stats.lo = r_.value<simos::VAddr>("lo");
      stats.hi = r_.value<simos::VAddr>("hi");
      stats.count = r_.value<std::uint64_t>("count");
      stats.latency = r_.value<double>("latency");
      data().address_centric.insert(key, stats);
    }
  }

  void parse_firsttouch() {
    const std::size_t count = read_count(r_, "firsttouch count", options_);
    data().first_touches.reserve(r_.reserve_bound(count));
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) {
        r_.fail_at("firsttouch", "truncated firsttouch section");
      }
      FirstTouchRecord rec;
      rec.variable = r_.value<VariableId>("ft var");
      rec.tid = r_.value<simrt::ThreadId>("ft tid");
      rec.domain = r_.value<std::uint32_t>("ft domain");
      rec.node = r_.value<NodeId>("ft node");
      if (rec.node >= cct_size()) {
        r_.fail_at("ft node", "first-touch node out of range");
      }
      rec.page = r_.value<std::uint64_t>("ft page");
      data().first_touches.push_back(rec);
    }
  }

  void parse_trace() {
    const std::size_t count = read_count(r_, "trace count", options_);
    data().trace.reserve(r_.reserve_bound(count));
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) r_.fail_at("trace event", "truncated trace");
      TraceEvent e;
      e.time = r_.value<numasim::Cycles>("trace time");
      e.tid = r_.value<simrt::ThreadId>("trace tid");
      e.variable = r_.value<VariableId>("trace var");
      e.home_domain = r_.value<std::uint32_t>("trace home");
      e.mismatch = r_.value<int>("trace mismatch") != 0;
      e.remote = r_.value<int>("trace remote") != 0;
      e.latency = r_.value<std::uint32_t>("trace latency");
      data().trace.push_back(e);
    }
  }

  void parse_degradations() {
    const std::size_t count = read_count(r_, "degradation count", options_);
    data().degradations.reserve(r_.reserve_bound(count));
    for (std::size_t i = 0; i < count; ++i) {
      if (!r_.next_line()) {
        r_.fail_at("degradation", "truncated degradations section");
      }
      DegradationEvent e;
      e.kind = read_enum<DegradationKind>(r_, "degradation kind",
                                          kDegradationKindCount);
      e.mechanism = read_enum<pmu::Mechanism>(r_, "degradation mechanism",
                                              pmu::kMechanismCount);
      e.value = r_.value<std::uint64_t>("degradation value");
      e.detail = r_.unescaped("degradation detail");
      data().degradations.push_back(std::move(e));
    }
  }

  void parse_faultplan() {
    data().fault_context = r_.unescaped("fault context");
  }

  static constexpr int kNoBlock = 4;

  Reader r_;
  bool saw_requested_ = false;
  // Structure sharing: how many of frames, cct, variables have been seen
  // as one block (kNoBlock once they are anything else), and its start.
  int block_tags_ = 0;
  std::uint64_t block_start_ = 0;
};

}  // namespace

LoadResult load_text_profile(std::string_view bytes,
                             const LoadOptions& options,
                             StructureLink* link) {
  return TextLoader(bytes, options, link).run();
}

}  // namespace format

}  // namespace numaprof::core
