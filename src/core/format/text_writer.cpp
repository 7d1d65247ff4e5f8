// The text profile writer (docs/format.md). Each profile is appended into
// one buffer; numbers go through std::to_chars. Integers print in decimal
// and doubles as printf's "%.6g" — byte for byte what a default-formatted
// ostream writes, so text profiles keep six significant digits.
#include <charconv>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "core/format/writer.hpp"
#include "core/profile_io.hpp"

namespace numaprof::core {

namespace {

bool needs_escape(char c) noexcept {
  return c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
         static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

std::string escape_field(std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
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

namespace format {

namespace {

void put(std::string& out, std::string_view token) { out.append(token); }

template <typename T>
  requires std::is_arithmetic_v<T>
void put(std::string& out, T value) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, std::end(buf), value, std::chars_format::general,
                      6);
  } else {
    r = std::to_chars(buf, std::end(buf), value);
  }
  out.append(buf, r.ptr);
}

template <typename E>
  requires std::is_enum_v<E>
void put(std::string& out, E value) {
  put(out, static_cast<int>(value));
}

/// Space-separated tokens; put_line() ends the line.
template <typename First, typename... Rest>
void put_tokens(std::string& out, const First& first, const Rest&... rest) {
  put(out, first);
  ((out.push_back(' '), put(out, rest)), ...);
}

template <typename... Tokens>
void put_line(std::string& out, const Tokens&... tokens) {
  put_tokens(out, tokens...);
  out.push_back('\n');
}

/// Frames, CCT and variables: the sections every profile of a call shares.
std::string structure_sections(const SessionData& data) {
  std::string out;
  put_line(out, "frames", data.frames.size());
  for (const simrt::FrameInfo& f : data.frames) {
    put_line(out, f.kind, f.line, escape_field(f.name), escape_field(f.file));
  }

  put_line(out, "cct", data.cct.size());
  // Node 0 is the root; emit children in id order so reconstruction by
  // sequential child() calls reproduces identical ids.
  for (NodeId id = 1; id < data.cct.size(); ++id) {
    const CctNode& n = data.cct.node(id);
    put_line(out, n.parent, n.kind, n.key);
  }

  put_line(out, "variables", data.variables.size());
  for (const Variable& v : data.variables) {
    put_line(out, v.kind, v.start, v.size, v.page_count, v.variable_node,
             v.alloc_tid, v.live ? 1 : 0, escape_field(v.name));
  }
  return out;
}

void append_profile(const ProfileView& view, std::string_view structure,
                    std::string& out) {
  const SessionData& data = view.data();
  put_line(out, "numaprof-profile", kProfileFormatVersion);
  put_line(out, "machine", data.domain_count, data.core_count,
           escape_field(data.machine_name));
  put_line(out, "sampling", data.mechanism, data.sampling_period,
           view.pebs_ll_events());
  put_line(out, "requested", data.requested_mechanism);
  out.append(structure);

  put_line(out, "threads", view.thread_count());
  for (std::size_t tid = 0; tid < view.thread_count(); ++tid) {
    const ThreadTotals& t = view.totals(tid);
    put_tokens(out, t.samples, t.memory_samples, t.match, t.mismatch,
               t.remote_latency, t.total_latency, t.l3_miss_samples,
               t.remote_l3_miss_samples, t.instructions,
               t.memory_instructions);
    for (const auto v : t.per_domain) {
      out.push_back(' ');
      put(out, v);
    }
    out.push_back('\n');

    const MetricStore& store = view.store(tid);
    const auto nodes = store.nodes();
    put_line(out, "metrics", nodes.size(), store.width());
    for (const NodeId node : nodes) {
      put(out, node);
      const std::span<const double> row = store.row(node);
      for (std::uint32_t m = 0; m < store.width(); ++m) {
        out.push_back(' ');
        put(out, m < row.size() ? row[m] : 0.0);
      }
      out.push_back('\n');
    }
  }

  // Deterministic key order: the same entries always serialize to the same
  // bytes, independent of the hash map's insertion history.
  put_line(out, "addrcentric", view.addrcentric().size());
  for (const auto& [key, s] : view.addrcentric()) {
    put_line(out, key.context, key.variable, key.bin, key.tid, s.lo, s.hi,
             s.count, s.latency);
  }

  put_line(out, "firsttouch", view.first_touches().size());
  for (const FirstTouchRecord& r : view.first_touches()) {
    put_line(out, r.variable, r.tid, r.domain, r.node, r.page);
  }

  put_line(out, "trace", view.trace().size());
  for (const TraceEvent& e : view.trace()) {
    put_line(out, e.time, e.tid, e.variable, e.home_domain,
             e.mismatch ? 1 : 0, e.remote ? 1 : 0, e.latency);
  }

  put_line(out, "degradations", view.degradations().size());
  for (const DegradationEvent& e : view.degradations()) {
    put_line(out, e.kind, e.mechanism, e.value, escape_field(e.detail));
  }
  // Optional section: written only when a fault plan was active, so
  // fault-free profiles (and their goldens) are byte-identical to before
  // the section existed.
  if (!data.fault_context.empty()) {
    put_line(out, "faultplan", escape_field(data.fault_context));
  }
  out.append("end\n");
}

}  // namespace

void encode_text(const WritePlan& plan, const ProfileSink& sink) {
  const std::string structure = structure_sections(plan.data());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    std::string profile;
    append_profile(plan.view(i), structure, profile);
    sink(std::move(profile));
  }
}

}  // namespace format

}  // namespace numaprof::core
