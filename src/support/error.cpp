#include "support/error.hpp"

namespace numaprof {

std::string_view to_string(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::kProfile: return "profile";
    case ErrorKind::kFaultSpec: return "fault-spec";
    case ErrorKind::kLint: return "lint";
    case ErrorKind::kTelemetry: return "telemetry";
    case ErrorKind::kUsage: return "usage";
    case ErrorKind::kExport: return "export";
    case ErrorKind::kIngest: return "ingest";
    case ErrorKind::kMonitor: return "monitor";
  }
  return "unknown";
}

std::string format_error(const Error& error) {
  std::string text = "[";
  text.append(to_string(error.kind())).append("] ").append(error.what());
  return text;
}

std::string format_error(const std::exception& error) {
  if (const auto* typed = dynamic_cast<const Error*>(&error)) {
    return format_error(*typed);
  }
  return error.what();
}

}  // namespace numaprof
