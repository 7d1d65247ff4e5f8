#include "monitor/script.hpp"

#include <sstream>

#include "monitor/term.hpp"
#include "support/error.hpp"

namespace numaprof::monitor {
namespace {

[[noreturn]] void script_error(const ScriptOptions& options,
                               std::size_t lineno,
                               const std::string& detail) {
  throw Error(ErrorKind::kMonitor, options.file, "script", lineno,
              "numa_top script error (line " + std::to_string(lineno) +
                  "): " + detail);
}

bool parse_size(const std::string& token, std::size_t& out) {
  if (token.empty()) return false;
  std::size_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  if (value == 0) return false;
  out = value;
  return true;
}

}  // namespace

ScriptResult run_script(
    MonitorModel& model,
    const std::vector<support::TelemetrySnapshot>& snapshots,
    std::istream& script, const ScriptOptions& options) {
  ScriptResult result;
  std::size_t width = options.width;
  std::size_t height = options.height;
  std::size_t next_snapshot = model.snapshots_fed();
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(script, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string cmd;
    if (!(words >> cmd)) continue;  // blank / comment-only line

    if (cmd == "feed") {
      std::size_t count = 1;
      std::string arg;
      if (words >> arg && !parse_size(arg, count)) {
        script_error(options, lineno,
                     "feed count must be a positive integer, got '" + arg +
                         "'");
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (next_snapshot >= snapshots.size()) {
          script_error(options, lineno,
                       "feed past end of trace (" +
                           std::to_string(snapshots.size()) +
                           " snapshots available)");
        }
        model.feed(snapshots[next_snapshot++]);
      }
    } else if (cmd == "key") {
      std::string name;
      if (!(words >> name)) {
        script_error(options, lineno, "key requires a name");
      }
      Key key = Key::kNone;
      if (!key_from_name(name, key)) {
        script_error(options, lineno, "unknown key '" + name + "'");
      }
      model.apply_key(key);
    } else if (cmd == "resize") {
      std::string w;
      std::string h;
      if (!(words >> w >> h) || !parse_size(w, width) ||
          !parse_size(h, height)) {
        script_error(options, lineno,
                     "resize requires two positive integers");
      }
    } else if (cmd == "frame") {
      result.frames += paint_frame(model, {width, height}, /*ansi=*/false,
                                   ++result.frame_count);
    } else {
      script_error(options, lineno, "unknown command '" + cmd + "'");
    }

    std::string extra;
    if (words >> extra) {
      script_error(options, lineno,
                   "trailing token '" + extra + "' after " + cmd);
    }
  }
  return result;
}

}  // namespace numaprof::monitor
