// The byte-deterministic columnar writer (docs/format.md). Sections are
// built as standalone payloads first — so each CRC covers exactly its
// payload bytes — then laid out at 8-aligned offsets behind the header
// and section table. Record orders are the WritePlan's canonical ones
// (shared with the text writer); metric rows ascend by node id. The
// frames, CCT and variables payloads and their CRCs are built once per
// call and laid out into every profile of it.
#include "core/format/codec.hpp"
#include "core/format/format.hpp"
#include "core/format/writer.hpp"
#include "support/hash.hpp"

namespace numaprof::core::format {

namespace {

std::string meta_section(const ProfileView& view) {
  const SessionData& data = view.data();
  std::string out;
  put_u32(out, data.domain_count);
  put_u32(out, data.core_count);
  put_u32(out, static_cast<std::uint32_t>(data.mechanism));
  put_u32(out, static_cast<std::uint32_t>(data.requested_mechanism));
  put_u64(out, data.sampling_period);
  put_u64(out, view.pebs_ll_events());
  put_u32(out, static_cast<std::uint32_t>(data.machine_name.size()));
  put_u32(out, static_cast<std::uint32_t>(data.fault_context.size()));
  out.append(data.machine_name);
  out.append(data.fault_context);
  return out;
}

std::string frames_section(const SessionData& data) {
  std::string out;
  const std::size_t count = data.frames.size();
  put_u64(out, count);
  for (const simrt::FrameInfo& f : data.frames) put_u32(out, f.line);
  for (const simrt::FrameInfo& f : data.frames) {
    put_u32(out, static_cast<std::uint32_t>(f.name.size()));
  }
  for (const simrt::FrameInfo& f : data.frames) {
    put_u32(out, static_cast<std::uint32_t>(f.file.size()));
  }
  for (const simrt::FrameInfo& f : data.frames) {
    put_u8(out, static_cast<std::uint8_t>(f.kind));
  }
  for (const simrt::FrameInfo& f : data.frames) {
    out.append(f.name);
    out.append(f.file);
  }
  return out;
}

std::string cct_section(const SessionData& data) {
  std::string out;
  // Node 0 is the implied root; columns describe nodes 1..N-1 in id
  // order, so parents are always < their node's id.
  const std::size_t count = data.cct.size() - 1;
  put_u64(out, count);
  for (NodeId id = 1; id <= count; ++id) {
    put_u64(out, data.cct.node(id).key);
  }
  for (NodeId id = 1; id <= count; ++id) {
    put_u32(out, data.cct.node(id).parent);
  }
  for (NodeId id = 1; id <= count; ++id) {
    put_u8(out, static_cast<std::uint8_t>(data.cct.node(id).kind));
  }
  return out;
}

std::string variables_section(const SessionData& data) {
  std::string out;
  put_u64(out, data.variables.size());
  for (const Variable& v : data.variables) put_u64(out, v.start);
  for (const Variable& v : data.variables) put_u64(out, v.size);
  for (const Variable& v : data.variables) put_u64(out, v.page_count);
  for (const Variable& v : data.variables) put_u32(out, v.variable_node);
  for (const Variable& v : data.variables) put_u32(out, v.alloc_tid);
  for (const Variable& v : data.variables) {
    put_u32(out, static_cast<std::uint32_t>(v.name.size()));
  }
  for (const Variable& v : data.variables) {
    put_u8(out, static_cast<std::uint8_t>(v.kind));
  }
  for (const Variable& v : data.variables) put_u8(out, v.live ? 1 : 0);
  for (const Variable& v : data.variables) out.append(v.name);
  return out;
}

std::string threads_section(const ProfileView& view) {
  std::string out;
  std::vector<const ThreadTotals*> totals;
  for (std::size_t tid = 0; tid < view.thread_count(); ++tid) {
    totals.push_back(&view.totals(tid));
  }
  const std::uint32_t domains = view.data().domain_count;
  put_u64(out, totals.size());
  put_u32(out, domains);
  put_u32(out, 0);  // reserved; keeps the u64 columns 8-aligned
  const auto column = [&](auto member) {
    for (const ThreadTotals* t : totals) put_u64(out, t->*member);
  };
  column(&ThreadTotals::samples);
  column(&ThreadTotals::memory_samples);
  column(&ThreadTotals::match);
  column(&ThreadTotals::mismatch);
  column(&ThreadTotals::l3_miss_samples);
  column(&ThreadTotals::remote_l3_miss_samples);
  column(&ThreadTotals::instructions);
  column(&ThreadTotals::memory_instructions);
  for (const ThreadTotals* t : totals) put_f64(out, t->remote_latency);
  for (const ThreadTotals* t : totals) put_f64(out, t->total_latency);
  // Per-domain sampled access counts, thread-major; short vectors (from
  // lenient text loads) pad with zero so the matrix is always dense.
  for (const ThreadTotals* t : totals) {
    for (std::uint32_t d = 0; d < domains; ++d) {
      put_u64(out, d < t->per_domain.size() ? t->per_domain[d] : 0);
    }
  }
  return out;
}

std::string metrics_section(const ProfileView& view) {
  std::string out;
  const std::uint32_t width = MetricStore(view.data().domain_count).width();
  const std::size_t threads = view.thread_count();
  put_u64(out, threads);
  put_u32(out, width);
  put_u32(out, 0);  // reserved; keeps per-thread blocks 8-aligned
  for (std::size_t tid = 0; tid < threads; ++tid) {
    const MetricStore& store = view.store(tid);
    const auto nodes = store.nodes();
    put_u64(out, nodes.size());
    for (const NodeId node : nodes) put_u32(out, node);
    pad_to(out, 8);
    for (const NodeId node : nodes) {
      const std::span<const double> row = store.row(node);
      for (std::uint32_t m = 0; m < width; ++m) {
        put_f64(out, m < row.size() ? row[m] : 0.0);
      }
    }
  }
  return out;
}

std::string addrcentric_section(const ProfileView& view) {
  std::string out;
  const std::span<const AddrEntry> entries = view.addrcentric();
  put_u64(out, entries.size());
  for (const auto& [key, s] : entries) put_u64(out, s.lo);
  for (const auto& [key, s] : entries) put_u64(out, s.hi);
  for (const auto& [key, s] : entries) put_u64(out, s.count);
  for (const auto& [key, s] : entries) put_f64(out, s.latency);
  for (const auto& [key, s] : entries) put_u32(out, key.context);
  for (const auto& [key, s] : entries) put_u32(out, key.variable);
  for (const auto& [key, s] : entries) put_u32(out, key.bin);
  for (const auto& [key, s] : entries) put_u32(out, key.tid);
  return out;
}

std::string firsttouch_section(const ProfileView& view) {
  std::string out;
  const std::span<const FirstTouchRecord> touches = view.first_touches();
  put_u64(out, touches.size());
  for (const FirstTouchRecord& r : touches) put_u64(out, r.page);
  for (const FirstTouchRecord& r : touches) put_u32(out, r.variable);
  for (const FirstTouchRecord& r : touches) put_u32(out, r.tid);
  for (const FirstTouchRecord& r : touches) put_u32(out, r.domain);
  for (const FirstTouchRecord& r : touches) put_u32(out, r.node);
  return out;
}

std::string trace_section(const ProfileView& view) {
  std::string out;
  const std::span<const TraceEvent> trace = view.trace();
  put_u64(out, trace.size());
  for (const TraceEvent& e : trace) put_u64(out, e.time);
  for (const TraceEvent& e : trace) put_u32(out, e.tid);
  for (const TraceEvent& e : trace) put_u32(out, e.variable);
  for (const TraceEvent& e : trace) put_u32(out, e.home_domain);
  for (const TraceEvent& e : trace) put_u32(out, e.latency);
  for (const TraceEvent& e : trace) put_u8(out, e.mismatch ? 1 : 0);
  for (const TraceEvent& e : trace) put_u8(out, e.remote ? 1 : 0);
  return out;
}

std::string degradations_section(const ProfileView& view) {
  std::string out;
  const std::span<const DegradationEvent> events = view.degradations();
  put_u64(out, events.size());
  for (const DegradationEvent& e : events) put_u64(out, e.value);
  for (const DegradationEvent& e : events) {
    put_u32(out, static_cast<std::uint32_t>(e.detail.size()));
  }
  for (const DegradationEvent& e : events) {
    put_u8(out, static_cast<std::uint8_t>(e.kind));
  }
  for (const DegradationEvent& e : events) {
    put_u8(out, static_cast<std::uint8_t>(e.mechanism));
  }
  for (const DegradationEvent& e : events) out.append(e.detail);
  return out;
}

struct Section {
  SectionId id;
  std::string payload;
  std::uint32_t crc;
};

Section section(SectionId id, std::string payload) {
  const std::uint32_t crc = support::crc32(payload);
  return Section{id, std::move(payload), crc};
}

/// Writes one complete profile into the empty `out`: header, section
/// table, then the payloads of `sections` (in SectionId order) at
/// 8-aligned offsets.
void lay_out(const Section* const (&sections)[kSectionCount],
             std::string& out) {
  const std::size_t table_bytes = kSectionCount * kTableEntryBytes;
  std::size_t offset = kHeaderBytes + table_bytes;
  std::string table;
  table.reserve(table_bytes);
  for (const Section* s : sections) {
    offset = (offset + 7) & ~std::size_t(7);
    put_u32(table, static_cast<std::uint32_t>(s->id));
    put_u32(table, s->crc);
    put_u64(table, offset);
    put_u64(table, s->payload.size());
    offset += s->payload.size();
  }
  const std::uint64_t file_size = offset;

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(reinterpret_cast<const char*>(kBinaryMagic),
                sizeof(kBinaryMagic));
  put_u32(header, kBinaryFormatVersion);
  put_u32(header, kSectionCount);
  put_u64(header, file_size);
  put_u32(header, support::crc32(table));
  put_u32(header, support::crc32(header));

  out.reserve(file_size);
  out.append(header);
  out.append(table);
  for (const Section* s : sections) {
    pad_to(out, 8);
    out.append(s->payload);
  }
}

}  // namespace

void encode_binary(const WritePlan& plan, const ProfileSink& sink) {
  const SessionData& data = plan.data();
  const Section frames = section(SectionId::kFrames, frames_section(data));
  const Section cct = section(SectionId::kCct, cct_section(data));
  const Section variables =
      section(SectionId::kVariables, variables_section(data));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ProfileView view = plan.view(i);
    const Section meta = section(SectionId::kMeta, meta_section(view));
    const Section threads =
        section(SectionId::kThreads, threads_section(view));
    const Section metrics =
        section(SectionId::kMetrics, metrics_section(view));
    const Section addrcentric =
        section(SectionId::kAddrCentric, addrcentric_section(view));
    const Section firsttouch =
        section(SectionId::kFirstTouch, firsttouch_section(view));
    const Section trace = section(SectionId::kTrace, trace_section(view));
    const Section degradations =
        section(SectionId::kDegradations, degradations_section(view));
    std::string profile;
    lay_out({&meta, &frames, &cct, &variables, &threads, &metrics,
             &addrcentric, &firsttouch, &trace, &degradations},
            profile);
    sink(std::move(profile));
  }
}

}  // namespace numaprof::core::format
