#include "core/telemetry_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "core/export/schema.hpp"
#include "core/export/writer_util.hpp"
#include "simrt/thread.hpp"
#include "support/error.hpp"

namespace numaprof::core {
namespace {

using export_detail::json_quote;
using support::TelemetryCounter;
using support::TelemetryEvent;
using support::TelemetryEventKind;
using support::TelemetrySnapshot;
using support::ThreadTelemetry;

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

void write_counters(std::ostream& os,
                    const std::array<std::uint64_t,
                                     support::kTelemetryCounterCount>& c) {
  os << '{';
  for (std::size_t i = 0; i < support::kTelemetryCounterCount; ++i) {
    if (i) os << ',';
    os << json_quote(to_string(static_cast<TelemetryCounter>(i))) << ':'
       << c[i];
  }
  os << '}';
}

void write_u64_array(std::ostream& os, const std::vector<std::uint64_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

void write_hot_array(std::ostream& os,
                     const std::vector<support::HotCounter>& rows) {
  os << '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const support::HotCounter& row = rows[i];
    if (i) os << ',';
    os << "{\"key\":" << row.key << ",\"domain\":" << row.domain
       << ",\"count\":" << row.count << ",\"mismatch\":" << row.mismatch
       << ",\"label\":" << json_quote(row.label) << '}';
  }
  os << ']';
}

[[noreturn]] void trace_error(const std::string& file, std::size_t line,
                              const std::string& message) {
  throw Error(ErrorKind::kTelemetry, file, "telemetry", line,
              "telemetry trace parse error (line " + std::to_string(line) +
                  "): " + message);
}

std::uint64_t as_u64(const JsonNode& v, const std::string& file,
                     std::size_t line, const char* what) {
  if (v.kind != JsonNode::Kind::kNumber || v.number < 0) {
    trace_error(file, line, std::string(what) + " must be a non-negative number");
  }
  return static_cast<std::uint64_t>(v.number);
}

std::vector<std::uint64_t> as_u64_array(const JsonNode& v,
                                        const std::string& file,
                                        std::size_t line, const char* what) {
  if (v.kind != JsonNode::Kind::kArray) {
    trace_error(file, line, std::string(what) + " must be an array");
  }
  std::vector<std::uint64_t> out;
  out.reserve(v.items.size());
  for (const JsonNode& e : v.items) out.push_back(as_u64(e, file, line, what));
  return out;
}

std::vector<support::HotCounter> as_hot_array(const JsonNode& v,
                                              const std::string& file,
                                              std::size_t line,
                                              const char* what) {
  if (v.kind != JsonNode::Kind::kArray) {
    trace_error(file, line, std::string(what) + " must be an array");
  }
  std::vector<support::HotCounter> out;
  out.reserve(v.items.size());
  for (const JsonNode& e : v.items) {
    if (e.kind != JsonNode::Kind::kObject) {
      trace_error(file, line, std::string(what) + " entries must be objects");
    }
    support::HotCounter row;
    if (const JsonNode* key = e.find("key")) {
      row.key = as_u64(*key, file, line, "key");
    }
    if (const JsonNode* domain = e.find("domain")) {
      row.domain =
          static_cast<std::uint32_t>(as_u64(*domain, file, line, "domain"));
    }
    if (const JsonNode* count = e.find("count")) {
      row.count = as_u64(*count, file, line, "count");
    }
    if (const JsonNode* mismatch = e.find("mismatch")) {
      row.mismatch = as_u64(*mismatch, file, line, "mismatch");
    }
    if (const JsonNode* label = e.find("label")) {
      if (label->kind != JsonNode::Kind::kString) {
        trace_error(file, line,
                    std::string(what) + " labels must be strings");
      }
      row.label = label->string;
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool counter_from_string(std::string_view name, TelemetryCounter& out) {
  for (std::size_t i = 0; i < support::kTelemetryCounterCount; ++i) {
    const auto c = static_cast<TelemetryCounter>(i);
    if (to_string(c) == name) {
      out = c;
      return true;
    }
  }
  return false;
}

bool event_kind_from_string(std::string_view name, TelemetryEventKind& out) {
  for (std::size_t i = 0; i < support::kTelemetryEventKindCount; ++i) {
    const auto k = static_cast<TelemetryEventKind>(i);
    if (to_string(k) == name) {
      out = k;
      return true;
    }
  }
  return false;
}

bool mechanism_from_string(std::string_view name, pmu::Mechanism& out) {
  for (int i = 0; i < pmu::kMechanismCount; ++i) {
    const auto m = static_cast<pmu::Mechanism>(i);
    if (pmu::to_string(m) == name) {
      out = m;
      return true;
    }
  }
  return false;
}

void fold_counters(
    const JsonNode& object,
    std::array<std::uint64_t, support::kTelemetryCounterCount>& out,
    const std::string& file, std::size_t line) {
  if (object.kind != JsonNode::Kind::kObject) {
    trace_error(file, line, "counter block must be an object");
  }
  for (const auto& [key, value] : object.members) {
    TelemetryCounter c{};
    // Unknown counters are skipped so newer traces load in older readers.
    if (!counter_from_string(key, c)) continue;
    out[static_cast<std::size_t>(c)] = as_u64(value, file, line, key.c_str());
  }
}

TelemetrySnapshot parse_snapshot_line(const JsonNode& root,
                                      const std::string& file,
                                      std::size_t line) {
  TelemetrySnapshot snap;
  if (const JsonNode* seq = root.find("seq")) {
    snap.sequence = as_u64(*seq, file, line, "seq");
  }
  if (const JsonNode* t = root.find("t")) {
    snap.time = as_u64(*t, file, line, "t");
  }
  if (const JsonNode* totals = root.find("totals")) {
    fold_counters(*totals, snap.totals, file, line);
  }
  if (const JsonNode* match = root.find("domain-match")) {
    snap.domain_match = as_u64_array(*match, file, line, "domain-match");
  }
  if (const JsonNode* mismatch = root.find("domain-mismatch")) {
    snap.domain_mismatch =
        as_u64_array(*mismatch, file, line, "domain-mismatch");
  }
  if (const JsonNode* pages = root.find("hot-pages")) {
    snap.hot_pages = as_hot_array(*pages, file, line, "hot-pages");
  }
  if (const JsonNode* vars = root.find("hot-vars")) {
    snap.hot_vars = as_hot_array(*vars, file, line, "hot-vars");
  }
  if (const JsonNode* threads = root.find("threads")) {
    if (threads->kind != JsonNode::Kind::kArray) {
      trace_error(file, line, "threads must be an array");
    }
    for (const JsonNode& row : threads->items) {
      if (row.kind != JsonNode::Kind::kObject) {
        trace_error(file, line, "thread rows must be objects");
      }
      ThreadTelemetry thread;
      if (const JsonNode* tid = row.find("tid")) {
        thread.tid =
            static_cast<std::uint32_t>(as_u64(*tid, file, line, "tid"));
      }
      if (const JsonNode* counters = row.find("counters")) {
        fold_counters(*counters, thread.counters, file, line);
      }
      if (const JsonNode* match = row.find("domain-match")) {
        thread.domain_match = as_u64_array(*match, file, line, "domain-match");
      }
      if (const JsonNode* mismatch = row.find("domain-mismatch")) {
        thread.domain_mismatch =
            as_u64_array(*mismatch, file, line, "domain-mismatch");
      }
      if (const JsonNode* paths = row.find("hot-paths")) {
        thread.hot_paths = as_hot_array(*paths, file, line, "hot-paths");
      }
      snap.threads.push_back(std::move(thread));
    }
  }
  return snap;
}

TelemetryEvent parse_event_line(const JsonNode& root, const std::string& file,
                                std::size_t line) {
  TelemetryEvent event;
  const JsonNode* kind = root.find("kind");
  if (kind == nullptr || kind->kind != JsonNode::Kind::kString) {
    trace_error(file, line, "event lines require a string \"kind\"");
  }
  if (!event_kind_from_string(kind->string, event.kind)) {
    trace_error(file, line, "unknown event kind \"" + kind->string + "\"");
  }
  if (const JsonNode* t = root.find("t")) {
    event.time = as_u64(*t, file, line, "t");
  }
  if (const JsonNode* tid = root.find("tid")) {
    event.tid = static_cast<std::uint32_t>(as_u64(*tid, file, line, "tid"));
  }
  if (const JsonNode* value = root.find("value")) {
    event.value = as_u64(*value, file, line, "value");
  }
  if (const JsonNode* detail = root.find("detail")) {
    if (detail->kind != JsonNode::Kind::kString) {
      trace_error(file, line, "detail must be a string");
    }
    event.set_detail(detail->string);
  }
  return event;
}

}  // namespace

const support::TelemetrySnapshot& TelemetryTrace::final_snapshot() const {
  static const TelemetrySnapshot kEmpty{};
  return snapshots.empty() ? kEmpty : snapshots.back();
}

std::string format_status_line(const TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism) {
  return format_status_line(snapshot, mechanism, nullptr);
}

std::string format_status_line(const TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism,
                               const TelemetrySnapshot* previous) {
  // Interval delta + per-kilocycle rate for one cumulative counter. The
  // elapsed-cycles guard is load-bearing: a flush right after a periodic
  // emit produces two snapshots with the SAME timestamp, and dividing by
  // that zero interval used to print inf/nan rates.
  const auto delta_suffix = [&](TelemetryCounter c, bool with_rate) {
    if (previous == nullptr) return std::string();
    const std::uint64_t cur = snapshot.total(c);
    const std::uint64_t prev = previous->total(c);
    const std::uint64_t delta = cur >= prev ? cur - prev : 0;
    std::string out = " (+" + std::to_string(delta);
    if (with_rate && snapshot.time > previous->time) {
      const auto elapsed =
          static_cast<double>(snapshot.time - previous->time);
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.1f/kc",
                    static_cast<double>(delta) * 1000.0 / elapsed);
      out += buf;
    }
    return out + ")";
  };
  std::ostringstream os;
  os << "[telemetry #" << snapshot.sequence << " t=" << snapshot.time << "] "
     << pmu::to_string(mechanism)
     << " threads=" << snapshot.threads.size()
     << " samples=" << snapshot.total(TelemetryCounter::kSamples)
     << delta_suffix(TelemetryCounter::kSamples, true)
     << " mem=" << snapshot.total(TelemetryCounter::kMemorySamples)
     << delta_suffix(TelemetryCounter::kMemorySamples, false)
     << " drop=" << percent(snapshot.drop_fraction())
     << " traps=" << snapshot.total(TelemetryCounter::kFirstTouchTraps)
     << " heap=" << snapshot.total(TelemetryCounter::kHeapRegistrations);
  const std::uint64_t match = snapshot.total(TelemetryCounter::kMatchSamples);
  const std::uint64_t mismatch =
      snapshot.total(TelemetryCounter::kMismatchSamples);
  os << " M_l/M_r=" << match << "/" << mismatch;
  if (!snapshot.events.empty()) os << " events=" << snapshot.events.size();
  return os.str();
}

std::vector<std::string> format_event_lines(
    const std::vector<TelemetryEvent>& events) {
  // Identical repeated events collapse into one row with a repeat count.
  std::vector<std::pair<const TelemetryEvent*, std::size_t>> event_rows;
  for (const TelemetryEvent& event : events) {
    const auto same = [&event](const auto& row) {
      const TelemetryEvent& seen = *row.first;
      return seen.kind == event.kind && seen.time == event.time &&
             seen.tid == event.tid && seen.value == event.value &&
             seen.detail_view() == event.detail_view();
    };
    if (auto it = std::find_if(event_rows.begin(), event_rows.end(), same);
        it != event_rows.end()) {
      ++it->second;
    } else {
      event_rows.emplace_back(&event, 1);
    }
  }
  std::vector<std::string> lines;
  lines.reserve(event_rows.size());
  for (const auto& [event, repeats] : event_rows) {
    std::ostringstream os;
    os << "  [" << to_string(event->kind) << "] t=" << event->time
       << " tid=" << event->tid;
    if (event->value != 0) os << " (" << event->value << ")";
    if (!event->detail_view().empty()) os << ": " << event->detail_view();
    if (repeats > 1) os << " (x" << repeats << ")";
    lines.push_back(std::move(os).str());
  }
  return lines;
}

namespace {

void write_snapshot_jsonl_impl(const TelemetrySnapshot& snapshot,
                               const pmu::Mechanism* mechanism,
                               std::ostream& os) {
  os << "{\"type\":\"snapshot\",\"v\":2,\"seq\":" << snapshot.sequence
     << ",\"t\":" << snapshot.time;
  if (mechanism != nullptr) {
    os << ",\"mechanism\":" << json_quote(pmu::to_string(*mechanism));
  }
  os << ",\"totals\":";
  write_counters(os, snapshot.totals);
  os << ",\"domain-match\":";
  write_u64_array(os, snapshot.domain_match);
  os << ",\"domain-mismatch\":";
  write_u64_array(os, snapshot.domain_mismatch);
  os << ",\"hot-pages\":";
  write_hot_array(os, snapshot.hot_pages);
  os << ",\"hot-vars\":";
  write_hot_array(os, snapshot.hot_vars);
  os << ",\"threads\":[";
  for (std::size_t i = 0; i < snapshot.threads.size(); ++i) {
    const ThreadTelemetry& thread = snapshot.threads[i];
    if (i) os << ',';
    os << "{\"tid\":" << thread.tid << ",\"counters\":";
    write_counters(os, thread.counters);
    os << ",\"domain-match\":";
    write_u64_array(os, thread.domain_match);
    os << ",\"domain-mismatch\":";
    write_u64_array(os, thread.domain_mismatch);
    os << ",\"hot-paths\":";
    write_hot_array(os, thread.hot_paths);
    os << '}';
  }
  os << "]}\n";
  for (const TelemetryEvent& event : snapshot.events) {
    os << "{\"type\":\"event\",\"t\":" << event.time
       << ",\"tid\":" << event.tid
       << ",\"kind\":" << json_quote(to_string(event.kind))
       << ",\"value\":" << event.value
       << ",\"detail\":" << json_quote(event.detail_view()) << "}\n";
  }
}

}  // namespace

void write_snapshot_jsonl(const TelemetrySnapshot& snapshot,
                          pmu::Mechanism mechanism, std::ostream& os) {
  write_snapshot_jsonl_impl(snapshot, &mechanism, os);
}

void write_snapshot_jsonl(const TelemetrySnapshot& snapshot,
                          std::ostream& os) {
  write_snapshot_jsonl_impl(snapshot, nullptr, os);
}

bool append_trace_line(TelemetryTrace& trace, std::string_view line,
                       std::size_t lineno, const std::string& file) {
  if (line.empty()) return false;
  std::string error;
  const std::optional<JsonNode> root = parse_json(line, &error);
  if (!root) trace_error(file, lineno, error);
  if (root->kind != JsonNode::Kind::kObject) {
    trace_error(file, lineno, "every trace line must be a JSON object");
  }
  const JsonNode* type = root->find("type");
  if (type == nullptr || type->kind != JsonNode::Kind::kString) {
    trace_error(file, lineno, "trace lines require a string \"type\"");
  }
  if (type->string == "snapshot") {
    if (const JsonNode* mech = root->find("mechanism")) {
      if (mech->kind != JsonNode::Kind::kString ||
          !mechanism_from_string(mech->string, trace.mechanism)) {
        trace_error(file, lineno, "unknown mechanism");
      }
      trace.has_mechanism = true;
    }
    trace.snapshots.push_back(parse_snapshot_line(*root, file, lineno));
    return true;
  }
  if (type->string == "event") {
    trace.events.push_back(parse_event_line(*root, file, lineno));
  }
  // Unknown line types are skipped (forward compatibility).
  return false;
}

TelemetryTrace load_telemetry_trace(std::istream& is) {
  TelemetryTrace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    append_trace_line(trace, line, lineno);
  }
  return trace;
}

TelemetryTrace load_telemetry_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw Error(ErrorKind::kTelemetry, path, "telemetry", 0,
                "cannot open telemetry trace: " + path);
  }
  try {
    return load_telemetry_trace(is);
  } catch (const Error& e) {
    if (!e.file().empty()) throw;
    throw Error(e.kind(), path, e.field(), e.line(),
                std::string(e.what()) + " [" + path + "]");
  }
}

namespace {

/// DegradationKinds that the live telemetry layer also observes, paired
/// with the TelemetryEventKind(s) that report them. kSampleFaults and
/// kProfileFileSkipped have no event-kind counterpart (the former is a
/// counter, the latter happens offline) and are cross-checked separately.
struct CrossCheckRow {
  const char* label;
  TelemetryEventKind event_kind;
  std::vector<DegradationKind> profile_kinds;
};

const std::vector<CrossCheckRow>& cross_check_rows() {
  static const std::vector<CrossCheckRow> rows = {
      {"mechanism-unavailable", TelemetryEventKind::kMechanismUnavailable,
       {DegradationKind::kMechanismUnavailable}},
      {"mechanism-fallback", TelemetryEventKind::kMechanismFallback,
       {DegradationKind::kMechanismFallback}},
      {"period-retune", TelemetryEventKind::kPeriodRetune,
       {DegradationKind::kPeriodRetuneStarvation,
        DegradationKind::kPeriodRetuneOverhead}},
  };
  return rows;
}

}  // namespace

std::string render_health_pane(const TelemetryTrace& trace,
                               const SessionData* profile) {
  std::ostringstream os;
  const TelemetrySnapshot& last = trace.final_snapshot();
  os << "-- measurement health --\n";
  if (trace.has_mechanism) {
    os << "mechanism: " << pmu::to_string(trace.mechanism) << "\n";
  }
  os << "snapshots: " << trace.snapshots.size() << " (final t=" << last.time
     << ")\n";
  os << "threads observed: " << last.threads.size() << "\n";
  os << "samples: " << last.total(TelemetryCounter::kSamples) << " (memory "
     << last.total(TelemetryCounter::kMemorySamples) << ", dropped "
     << last.total(TelemetryCounter::kDroppedSamples) << " ["
     << percent(last.drop_fraction()) << "], corrupted "
     << last.total(TelemetryCounter::kCorruptedSamples) << ")\n";
  os << "first-touch traps: "
     << last.total(TelemetryCounter::kFirstTouchTraps) << "\n";
  os << "heap tracker: " << last.total(TelemetryCounter::kHeapRegistrations)
     << " registered, " << last.total(TelemetryCounter::kHeapFrees)
     << " freed\n";
  os << "instructions: " << last.total(TelemetryCounter::kInstructions)
     << "\n";
  const std::uint64_t match = last.total(TelemetryCounter::kMatchSamples);
  const std::uint64_t mismatch =
      last.total(TelemetryCounter::kMismatchSamples);
  os << "sampled accesses: M_l " << match << ", M_r " << mismatch;
  if (match + mismatch > 0) {
    os << " (remote "
       << percent(static_cast<double>(mismatch) /
                  static_cast<double>(match + mismatch))
       << ")";
  }
  os << "\n";
  const std::size_t domains =
      std::max(last.domain_match.size(), last.domain_mismatch.size());
  for (std::size_t d = 0; d < domains; ++d) {
    const std::uint64_t dm =
        d < last.domain_match.size() ? last.domain_match[d] : 0;
    const std::uint64_t dr =
        d < last.domain_mismatch.size() ? last.domain_mismatch[d] : 0;
    os << "  domain " << d << ": M_l " << dm << ", M_r " << dr << "\n";
  }
  os << "telemetry events dropped: "
     << last.total(TelemetryCounter::kEventsDropped) << "\n";

  // Identical repeated events collapse into one "(xN)" row — the same
  // format_event_lines the live status-line sink prints through (the raw
  // total in the heading and the cross-check below still count every
  // occurrence).
  os << "events (" << trace.events.size() << "):\n";
  for (const std::string& line : format_event_lines(trace.events)) {
    os << line << "\n";
  }

  if (profile != nullptr) {
    os << "degradation cross-check:\n";
    std::array<std::size_t, support::kTelemetryEventKindCount> streamed{};
    for (const TelemetryEvent& event : trace.events) {
      ++streamed[static_cast<std::size_t>(event.kind)];
    }
    std::array<std::size_t, static_cast<std::size_t>(kDegradationKindCount)>
        recorded{};
    for (const DegradationEvent& event : profile->degradations) {
      ++recorded[static_cast<std::size_t>(event.kind)];
    }
    bool all_ok = true;
    for (const CrossCheckRow& row : cross_check_rows()) {
      const std::size_t from_stream =
          streamed[static_cast<std::size_t>(row.event_kind)];
      std::size_t from_profile = 0;
      for (const DegradationKind kind : row.profile_kinds) {
        from_profile += recorded[static_cast<std::size_t>(kind)];
      }
      const bool ok = from_stream == from_profile;
      all_ok = all_ok && ok;
      os << "  " << row.label << ": telemetry " << from_stream
         << ", profile " << from_profile << (ok ? " [ok]" : " [!]") << "\n";
    }
    const std::uint64_t faulted =
        last.total(TelemetryCounter::kDroppedSamples) +
        last.total(TelemetryCounter::kCorruptedSamples);
    const std::size_t fault_events = recorded[static_cast<std::size_t>(
        DegradationKind::kSampleFaults)];
    const bool faults_ok = (faulted > 0) == (fault_events > 0);
    all_ok = all_ok && faults_ok;
    os << "  sample-faults: telemetry counters " << faulted
       << ", profile events " << fault_events
       << (faults_ok ? " [ok]" : " [!]") << "\n";
    os << "  verdict: "
       << (all_ok ? "telemetry stream and profile degradations agree"
                  : "MISMATCH between telemetry stream and profile (see [!])")
       << "\n";
  }
  return os.str();
}

void TelemetryStreamer::on_exec(const simrt::SimThread& thread,
                                std::uint64_t count) {
  since_emit_ += count;
  last_time_ = std::max(last_time_, static_cast<std::uint64_t>(thread.now()));
  if (config_.interval_instructions > 0 &&
      since_emit_ >= config_.interval_instructions) {
    emit(last_time_);
  }
}

void TelemetryStreamer::on_access(const simrt::SimThread& thread,
                                  const simrt::AccessEvent& /*event*/) {
  on_exec(thread, 1);  // a memory access retires one instruction
}

void TelemetryStreamer::flush(std::uint64_t time) {
  // The final partial interval is emitted exactly once: with nothing
  // accumulated since the last emit (second flush in a row, or a flush
  // landing exactly on an interval boundary) there is no partial interval
  // to report, so the flush is a no-op.
  if (emitted_ > 0 && since_emit_ == 0) return;
  emit(std::max(time, last_time_));
}

void TelemetryStreamer::emit(std::uint64_t time) {
  since_emit_ = 0;
  TelemetrySnapshot snapshot = hub_->snapshot(time);
  ++emitted_;
  if (config_.status != nullptr) {
    *config_.status << format_status_line(snapshot, config_.mechanism,
                                          has_previous_ ? &previous_
                                                        : nullptr)
                    << "\n";
    // Event echo below the status line, with identical repeats collapsed
    // into "(xN)" exactly like the health pane — a stalled client
    // re-publishing one event cannot scroll the terminal.
    for (const std::string& line : format_event_lines(snapshot.events)) {
      *config_.status << line << "\n";
    }
  }
  if (config_.jsonl != nullptr) {
    write_snapshot_jsonl(snapshot, config_.mechanism, *config_.jsonl);
    config_.jsonl->flush();
  }
  if (config_.sink) config_.sink(snapshot);
  previous_ = std::move(snapshot);
  has_previous_ = true;
}

}  // namespace numaprof::core
