// Internal escaping helpers shared by every JSON writer in src/ (the
// exporters, the telemetry stream, numalint's outputs). Not part of the
// public surface (include core/export/export.hpp instead).
#pragma once

#include <string>
#include <string_view>

namespace numaprof::core::export_detail {

/// Escapes `text` for use inside a JSON string literal (quotes, backslash,
/// and control characters; everything else passes through byte-for-byte).
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// `text` as a quoted JSON string literal.
inline std::string json_quote(std::string_view text) {
  return '"' + json_escape(text) + '"';
}

/// Escapes `text` for HTML text / attribute content.
inline std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Collapsed-stack frames may not contain the separators of the format.
inline std::string collapsed_escape(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == ';') c = ':';
    if (c == '\n') c = ' ';
  }
  return out;
}

}  // namespace numaprof::core::export_detail
