#include "core/profile_io.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/format/format.hpp"
#include "core/format/writer.hpp"
#include "support/file.hpp"
#include "support/threadpool.hpp"

namespace numaprof::core {

namespace {

constexpr char kHex[] = "0123456789abcdef";

/// A record line in the format is at least this wide; reserve() for a
/// claimed count is clamped to what the remaining bytes could possibly
/// hold, so a corrupt header cannot trigger a huge allocation.
constexpr std::uint64_t kMinBytesPerRecord = 4;

bool needs_escape(char c) noexcept {
  return c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
         static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

ProfileError::ProfileError(std::string field, std::size_t line,
                           const std::string& message)
    : Error(ErrorKind::kProfile, /*file=*/{}, field, line,
            "profile parse error: " + field + " (line " +
                std::to_string(line) + "): " + message) {}

std::string escape_field(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (needs_escape(c)) {
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  if (out.empty()) out = "%00";  // empty fields must still tokenize
  return out;
}

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

// --- text reader -----------------------------------------------------

namespace {

/// Line-oriented tokenizer over the profile stream. Tracks the 1-based
/// line number (for ProfileError context) and the bytes consumed (to bound
/// reserve() calls against what the stream could actually contain).
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is), origin_(is.tellg()) {
    if (origin_ != std::streampos(-1)) {
      is.seekg(0, std::ios::end);
      const std::streampos end = is.tellg();
      is.clear();
      is.seekg(origin_);
      if (end != std::streampos(-1) && end >= origin_) {
        total_bytes_ = static_cast<std::uint64_t>(end - origin_);
      }
    }
    is_.clear();
  }

  /// Advances to the next non-blank line; false at EOF.
  bool next_line() {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_;
      line_start_ = consumed_;
      consumed_ += line.size() + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      tokens_.clear();
      tokens_.str(line);
      return true;
    }
    return false;
  }

  std::size_t line() const noexcept { return line_; }
  /// Stream offsets of the current line's first byte and of the next
  /// unread byte.
  std::uint64_t line_start() const noexcept { return line_start_; }
  std::uint64_t consumed() const noexcept { return consumed_; }

  /// The bytes at [from, to), read from a seekable stream (which is left
  /// positioned at `to`); empty when it cannot seek or ends early.
  std::string bytes_read(std::uint64_t from, std::uint64_t to) {
    std::string out;
    if (!total_bytes_ || from > to || to > *total_bytes_) return out;
    is_.clear();
    is_.seekg(origin_ + static_cast<std::streamoff>(from));
    out.resize(static_cast<std::size_t>(to - from));
    is_.read(out.data(), static_cast<std::streamsize>(out.size()));
    if (static_cast<std::size_t>(is_.gcount()) != out.size()) out.clear();
    return out;
  }

  /// When the stream holds exactly `expected` from the current line's
  /// start, moves past it (counting its lines) and returns true; else
  /// leaves the position unchanged.
  bool skip_if_at_line(std::string_view expected) {
    is_.clear();
    const std::streampos resume = is_.tellg();
    if (bytes_read(line_start_, line_start_ + expected.size()) != expected) {
      is_.clear();
      is_.seekg(resume);
      return false;
    }
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
    if (!total_bytes_) return std::min<std::size_t>(count, 4096);
    const std::uint64_t remaining =
        *total_bytes_ > consumed_ ? *total_bytes_ - consumed_ : 0;
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        count, remaining / kMinBytesPerRecord + 1));
  }

  [[noreturn]] void fail_at(const char* field,
                            const std::string& message) const {
    throw ProfileError(field, line_, message);
  }

 private:
  std::istream& is_;
  std::streampos origin_;
  std::size_t line_ = 0;
  std::uint64_t line_start_ = 0;
  std::uint64_t consumed_ = 0;
  std::optional<std::uint64_t> total_bytes_;
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

/// Thrown when a shard whose structure block was taken from the
/// reference goes on to define more structure: that shard must be decoded
/// in full instead.
struct StructureConflict {};

class Loader {
 public:
  Loader(std::istream& is, const LoadOptions& options,
         format::StructureLink* link)
      : r_(is), options_(options), link_(link) {}

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
      if (!is_section(tag)) {
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
      try {
        parse_section(tag);
        if (tag == "variables") publish_structure();
        skipping = false;
      } catch (const ProfileError& e) {
        if (!options_.lenient) throw;
        diagnose(e.line(), e.field(), e.what());
        skipping = true;
      }
    }
    if (!saw_end) {
      if (!options_.lenient) {
        r_.fail_at("end", "truncated profile: missing end marker");
      }
      diagnose(r_.line(), "end", "truncated profile: missing end marker");
    }
    finalize();
    result_.complete = saw_end && result_.diagnostics.empty();
    return std::move(result_);
  }

 private:
  SessionData& data() noexcept { return result_.data; }

  /// The CCT size node ids validate against: the reference's when the
  /// structure is shared.
  std::size_t cct_size() const noexcept {
    return link_ && link_->shared ? link_->reference->cct_nodes
                                  : result_.data.cct.size();
  }

  /// Hands the frames ... variables block, just parsed, to the link's
  /// publish callback when it is one block with no diagnostics so far.
  void publish_structure() {
    if (!link_ || !link_->publish || block_tags_ != 3 ||
        !result_.diagnostics.empty()) {
      return;
    }
    std::string bytes = r_.bytes_read(block_start_, r_.consumed());
    if (bytes.empty()) return;
    link_->publish(format::SharedStructure{
        .format = ProfileFormat::kText,
        .bytes = std::move(bytes),
        .frames = data().frames.size(),
        .cct_nodes = data().cct.size(),
        .variables = data().variables.size()});
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
      const format::SharedStructure* reference = link_->reference;
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

  void diagnose(std::size_t line, std::string field, std::string message) {
    result_.diagnostics.push_back(
        Diagnostic{line, std::move(field), std::move(message)});
  }

  static bool is_section(const std::string& tag) {
    static const char* kTags[] = {"machine",    "sampling",  "requested",
                                  "frames",     "cct",       "variables",
                                  "threads",    "addrcentric",
                                  "firsttouch", "trace",     "degradations",
                                  "faultplan"};
    return std::find_if(std::begin(kTags), std::end(kTags),
                        [&](const char* t) { return tag == t; }) !=
           std::end(kTags);
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

  void parse_section(const std::string& tag) {
    if (tag == "machine") parse_machine();
    else if (tag == "sampling") parse_sampling();
    else if (tag == "requested") parse_requested();
    else if (tag == "frames") parse_frames();
    else if (tag == "cct") parse_cct();
    else if (tag == "variables") parse_variables();
    else if (tag == "threads") parse_threads();
    else if (tag == "addrcentric") parse_addrcentric();
    else if (tag == "firsttouch") parse_firsttouch();
    else if (tag == "trace") parse_trace();
    else if (tag == "degradations") parse_degradations();
    else if (tag == "faultplan") parse_faultplan();
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

  /// Lenient loads can lose whole sections; restore the invariants the
  /// analyzer relies on (totals and stores the same length, per-domain
  /// vectors sized to the machine).
  void finalize() {
    while (data().stores.size() < data().totals.size()) {
      data().stores.emplace_back(data().domain_count);
    }
    while (data().totals.size() < data().stores.size()) {
      ThreadTotals t;
      t.per_domain.assign(data().domain_count, 0);
      data().totals.push_back(std::move(t));
    }
    for (ThreadTotals& t : data().totals) {
      t.per_domain.resize(data().domain_count, 0);
    }
  }

  static constexpr int kNoBlock = 4;

  Reader r_;
  LoadOptions options_;
  format::StructureLink* link_;
  LoadResult result_;
  bool saw_requested_ = false;
  // Structure sharing: how many of frames, cct, variables have been seen
  // as one block (kNoBlock once they are anything else), and its start.
  int block_tags_ = 0;
  std::uint64_t block_start_ = 0;
};

LoadResult load_profile_text(std::istream& is, const LoadOptions& options,
                             format::StructureLink* link = nullptr) {
  return Loader(is, options, link).run();
}

}  // namespace

// --- ProfileReader / ProfileWriter -----------------------------------

ProfileFormat ProfileReader::detect(std::string_view prefix) noexcept {
  return format::looks_binary(prefix) ? ProfileFormat::kBinary
                                      : ProfileFormat::kText;
}

LoadResult ProfileReader::read(std::string_view bytes) const {
  if (detect(bytes) == ProfileFormat::kBinary) {
    return format::load_binary_profile(bytes, options_);
  }
  std::istringstream is{std::string(bytes)};
  return load_profile_text(is, options_);
}

LoadResult ProfileReader::read(std::istream& is) const {
  // One peeked byte decides: no text profile can start with the binary
  // magic's first byte (0x89 is not printable ASCII).
  const int first = is.peek();
  if (first == static_cast<int>(format::kBinaryMagic[0])) {
    std::ostringstream buffered;
    buffered << is.rdbuf();
    const std::string bytes = std::move(buffered).str();
    return format::load_binary_profile(bytes, options_);
  }
  return load_profile_text(is, options_);
}

namespace {

LoadResult read_profile_file(const std::string& path,
                             const LoadOptions& options,
                             format::StructureLink* link) {
  {
    std::ifstream sniff(path, std::ios::binary);
    if (!sniff) throw std::runtime_error("cannot open for read: " + path);
    char prefix[sizeof(format::kBinaryMagic)] = {};
    sniff.read(prefix, sizeof(prefix));
    const auto got = static_cast<std::size_t>(sniff.gcount());
    if (ProfileReader::detect(std::string_view(prefix, got)) ==
        ProfileFormat::kBinary) {
      const format::MappedFile map(path);
      return format::load_binary_profile(map.bytes(), options, link);
    }
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_profile_text(is, options, link);
}

}  // namespace

LoadResult ProfileReader::read_file(const std::string& path) const {
  return read_profile_file(path, options_, nullptr);
}

namespace {

void encode(const format::WritePlan& plan, ProfileFormat profile_format,
            const format::ProfileSink& sink) {
  if (profile_format == ProfileFormat::kBinary) {
    format::encode_binary(plan, sink);
  } else {
    format::encode_text(plan, sink);
  }
}

}  // namespace

void ProfileWriter::write(const SessionData& data, std::ostream& os) const {
  const std::string out = bytes(data);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string ProfileWriter::bytes(const SessionData& data) const {
  std::string out;
  encode(format::WritePlan::whole(data), format_,
         [&](std::string profile) { out = std::move(profile); });
  return out;
}

void ProfileWriter::write_file(const SessionData& data,
                               const std::string& path) const {
  support::write_file(path, bytes(data), ErrorKind::kProfile, "profile");
}

// --- per-thread shards and the analyzer merge ------------------------

std::vector<std::string> ProfileWriter::thread_shards(
    const SessionData& data) const {
  std::vector<std::string> shards;
  encode(format::WritePlan::thread_shards(data), format_,
         [&](std::string shard) { shards.push_back(std::move(shard)); });
  return shards;
}

std::vector<std::string> ProfileWriter::write_thread_shards(
    const SessionData& data, const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  // Each shard is written as soon as it is encoded, so only one is held.
  std::vector<std::string> paths;
  encode(format::WritePlan::thread_shards(data), format_,
         [&](std::string shard) {
           const std::string name =
               "thread_" + std::to_string(paths.size()) + ".prof";
           paths.push_back((fs::path(directory) / name).string());
           support::write_file(paths.back(), shard, ErrorKind::kProfile,
                               "profile shard");
         });
  return paths;
}

namespace {

/// Non-empty reason when `other` cannot be merged into `base`. A shard
/// whose structure was taken from the merge's reference (the base) has
/// the base's frame, CCT and variable counts by construction.
std::string incompatibility(const SessionData& base, const SessionData& other,
                            bool shared_structure) {
  const auto mismatch = [](const char* what, auto a, auto b) {
    return std::string(what) + " mismatch (" + std::to_string(a) + " vs " +
           std::to_string(b) + ")";
  };
  if (other.domain_count != base.domain_count) {
    return mismatch("domain count", base.domain_count, other.domain_count);
  }
  if (!shared_structure) {
    if (other.frames.size() != base.frames.size()) {
      return mismatch("frame count", base.frames.size(), other.frames.size());
    }
    if (other.cct.size() != base.cct.size()) {
      return mismatch("cct size", base.cct.size(), other.cct.size());
    }
    if (other.variables.size() != base.variables.size()) {
      return mismatch("variable count", base.variables.size(),
                      other.variables.size());
    }
  }
  if (other.mechanism != base.mechanism) {
    return "mechanism mismatch (" + std::string(to_string(base.mechanism)) +
           " vs " + std::string(to_string(other.mechanism)) + ")";
  }
  return {};
}

void merge_totals(ThreadTotals& into, const ThreadTotals& from,
                  std::uint32_t domain_count) {
  into.samples += from.samples;
  into.memory_samples += from.memory_samples;
  into.match += from.match;
  into.mismatch += from.mismatch;
  into.remote_latency += from.remote_latency;
  into.total_latency += from.total_latency;
  into.l3_miss_samples += from.l3_miss_samples;
  into.remote_l3_miss_samples += from.remote_l3_miss_samples;
  into.instructions += from.instructions;
  into.memory_instructions += from.memory_instructions;
  into.per_domain.resize(domain_count, 0);
  for (std::size_t d = 0; d < from.per_domain.size() && d < domain_count;
       ++d) {
    into.per_domain[d] += from.per_domain[d];
  }
}

void merge_session(SessionData& base, SessionData&& other) {
  const std::size_t threads =
      std::max(base.totals.size(), other.totals.size());
  {
    ThreadTotals zero;
    zero.per_domain.assign(base.domain_count, 0);
    base.totals.resize(threads, zero);
  }
  while (base.stores.size() < threads) {
    base.stores.emplace_back(base.domain_count);
  }
  for (std::size_t tid = 0; tid < other.totals.size(); ++tid) {
    merge_totals(base.totals[tid], other.totals[tid], base.domain_count);
  }
  for (std::size_t tid = 0;
       tid < other.stores.size() && tid < base.stores.size(); ++tid) {
    base.stores[tid].merge(std::move(other.stores[tid]));
  }
  base.address_centric.merge_from(other.address_centric);
  base.first_touches.insert(base.first_touches.end(),
                            other.first_touches.begin(),
                            other.first_touches.end());
  base.trace.insert(base.trace.end(), other.trace.begin(),
                    other.trace.end());
  base.pebs_ll_events += other.pebs_ll_events;
  // Collection history is carried by the first shard only (shards of one
  // run replicate it); incompatible histories were already screened out.
}

/// Fails the merge on a quorum shortfall (checked in both modes).
void check_quorum(const MergeSummary& summary,
                  const PipelineOptions& options) {
  const double fraction = static_cast<double>(summary.files_merged) /
                          static_cast<double>(summary.files_total);
  if (fraction < options.quorum) {
    throw ProfileError(
        "quorum", 0,
        "only " + std::to_string(summary.files_merged) + " of " +
            std::to_string(summary.files_total) +
            " profiles merged, below the required quorum");
  }
}

/// Surfaces skipped inputs as degradation events in the merged data.
void record_skips(MergeResult& result) {
  for (const SkippedProfile& skip : result.summary.skipped) {
    result.data.degradations.push_back(
        DegradationEvent{.kind = DegradationKind::kProfileFileSkipped,
                         .mechanism = result.data.mechanism,
                         .value = 0,
                         .detail = skip.path + ": " + skip.reason});
  }
}

}  // namespace

/// One code path for every `jobs` value (§7.2 at scale). Each pool
/// participant loops: claim the next path index (claims go in position
/// order), parse that file into its slot, then under the fold lock mark
/// the slot ready and fold every consecutive ready slot from `next_fold`.
/// Screening (skips, diagnostics, base selection, compatibility) and the
/// fold therefore run strictly in input order, so the bytes, the summary
/// and the strict-mode error (always the first failing file BY POSITION)
/// match a serial in-order loop — which is exactly what jobs 1 runs. A
/// parsed shard lives only until every shard before it has parsed, so
/// with shards of similar cost about `jobs` of them are alive at once.
///
/// Shards of one run repeat the program structure (frames, CCT,
/// variables) byte for byte, so it is decoded once per call. Shard 0's
/// loader publishes its structure bytes as soon as they decode; the other
/// shards wait for that, and one whose structure bytes equal them skips
/// decoding them. Equal bytes decode to exactly shard 0's structure, so
/// the result, the summary and every error are the same as a full
/// decode's. Shard 0 is the reference only if it then loads with no
/// diagnostics and defines no more structure; otherwise the shards that
/// skipped are decoded again in full when folded.
MergeResult merge_profile_files(const std::vector<std::string>& paths,
                                const PipelineOptions& options) {
  if (paths.empty()) {
    throw ProfileError("merge", 0, "no input profiles");
  }
  MergeResult result;
  MergeSummary& summary = result.summary;
  summary.files_total = paths.size();
  const ProfileReader reader(options);

  struct LoadSlot {
    LoadResult loaded;
    bool shared = false;  // structure taken from the reference
    std::exception_ptr error;
    bool ready = false;  // guarded by fold_mutex
  };
  std::vector<LoadSlot> slots(paths.size());
  std::atomic<std::size_t> next_claim{0};
  std::mutex fold_mutex;
  std::size_t next_fold = 0;   // guarded by fold_mutex
  bool have_base = false;      // guarded by fold_mutex
  std::exception_ptr failure;  // guarded by fold_mutex

  // Shard 0's published structure; `settled` once it is published or
  // shard 0 has loaded without one. Never changes after that.
  std::optional<format::SharedStructure> published;
  std::mutex publish_mutex;
  std::condition_variable publish_cv;
  bool settled = false;  // guarded by publish_mutex
  const auto settle = [&](std::optional<format::SharedStructure> structure) {
    const std::lock_guard<std::mutex> lock(publish_mutex);
    if (settled) return;
    published = std::move(structure);
    settled = true;
    publish_cv.notify_all();
  };
  // Written by shard 0's claimer before slot 0 is ready; read by folds.
  bool reference_valid = false;

  // Parses path i into its slot. A shard that defines more structure
  // after sharing the reference's is parsed again in full.
  const auto load = [&](std::size_t i, format::StructureLink link) {
    LoadSlot& slot = slots[i];
    slot.shared = false;
    slot.error = nullptr;
    try {
      try {
        slot.loaded = read_profile_file(paths[i], reader.options(), &link);
        slot.shared = link.shared;
      } catch (const StructureConflict&) {
        slot.loaded = read_profile_file(paths[i], reader.options(), nullptr);
      }
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  // Screens and folds slot i; throws in strict mode on the first failure.
  const auto fold = [&](std::size_t i) {
    const std::string& path = paths[i];
    LoadSlot& slot = slots[i];
    if (slot.shared && !reference_valid) load(i, {});
    if (slot.error) {
      try {
        std::rethrow_exception(slot.error);
      } catch (const ProfileError& e) {
        if (!options.lenient) {
          throw ProfileError(e.field(), e.line(), path + ": " + e.what());
        }
        summary.skipped.push_back(SkippedProfile{path, e.what()});
      } catch (const std::exception& e) {
        if (!options.lenient) {
          throw ProfileError("file", 0, path + ": " + e.what());
        }
        summary.skipped.push_back(SkippedProfile{path, e.what()});
      }
      return;
    }
    for (Diagnostic& d : slot.loaded.diagnostics) {
      summary.diagnostics.push_back(
          Diagnostic{d.line, path + ": " + d.field, std::move(d.message)});
    }
    if (!have_base) {
      result.data = std::move(slot.loaded.data);
      have_base = true;
      ++summary.files_merged;
      return;
    }
    const std::string reason =
        incompatibility(result.data, slot.loaded.data, slot.shared);
    if (!reason.empty()) {
      if (!options.lenient) {
        throw ProfileError("merge", 0, path + ": " + reason);
      }
      summary.skipped.push_back(SkippedProfile{path, reason});
      return;
    }
    merge_session(result.data, std::move(slot.loaded.data));
    ++summary.files_merged;
  };

  // Marks slot i ready and folds every consecutive ready slot.
  const auto finish = [&](std::size_t i) {
    // Declared before the lock, so the folded shards are freed after it
    // is released instead of inside the critical section.
    std::vector<LoadResult> folded;
    const std::lock_guard<std::mutex> lock(fold_mutex);
    slots[i].ready = true;
    while (!failure && next_fold < slots.size() && slots[next_fold].ready) {
      try {
        fold(next_fold);
      } catch (...) {
        failure = std::current_exception();
        next_claim = paths.size();  // stop further claims
      }
      folded.push_back(std::move(slots[next_fold++].loaded));
    }
  };

  support::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(options.jobs, paths.size())));
  pool.for_each_index(pool.jobs(), [&](std::size_t) {
    for (;;) {
      const std::size_t i = next_claim++;
      if (i >= paths.size()) return;
      // Slot i belongs to its claimer until `ready` is set under the lock.
      if (i == 0) {
        load(0, {.publish = settle});
        settle(std::nullopt);
        const LoadSlot& slot = slots[0];
        const SessionData& data = slot.loaded.data;
        reference_valid = published && !slot.error &&
                          slot.loaded.diagnostics.empty() &&
                          data.frames.size() == published->frames &&
                          data.cct.size() == published->cct_nodes &&
                          data.variables.size() == published->variables;
      } else {
        std::unique_lock<std::mutex> lock(publish_mutex);
        publish_cv.wait(lock, [&] { return settled; });
        lock.unlock();
        load(i, {.publish = nullptr,
                 .reference = published ? &*published : nullptr});
      }
      finish(i);
    }
  });
  if (failure) std::rethrow_exception(failure);

  if (!have_base) {
    throw ProfileError(
        "merge", 0,
        "no loadable profile among " + std::to_string(paths.size()) +
            " input files");
  }
  check_quorum(summary, options);
  record_skips(result);
  return result;
}

}  // namespace numaprof::core
