// Shared CLI flag parsing for the numaprof executables.
//
// Every CLI used to hand-roll its own argv loop, so the same concept was
// spelled differently across tools (--jobs N vs --jobs=N, silently
// ignored typos). This parser gives them one grammar:
//   --flag            boolean flags
//   --flag value      valued flags (also --flag=value)
//   everything else   positional operands
// Unknown flags, missing values and bad values throw numaprof::Error
// with kind kUsage, carrying the message and usage(). run_cli() is every
// tool's main(): it parses, answers --help, and reports errors through
// the shared format_error() path with one exit-status convention.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace numaprof::support {

class CliParser {
 public:
  /// `program` is the executable name for the usage header; `summary` is
  /// the one-line description under it; `epilog` (e.g. an operand legend)
  /// follows the flag table.
  CliParser(std::string program, std::string summary,
            std::string epilog = {})
      : program_(std::move(program)),
        summary_(std::move(summary)),
        epilog_(std::move(epilog)) {}

  /// Registers a flag. `takes_value` flags consume the next argument (or
  /// the `=`-suffix); they may repeat — values accumulate in order.
  /// `placeholder` names the value in the usage string (e.g. "N", "PATH").
  void add_flag(std::string name, bool takes_value, std::string help,
                std::string placeholder = "VALUE");

  /// Registers a flag whose value is optional: `--flag` alone is valid
  /// (has() true, value() nullopt), and only the `=`-suffix spelling
  /// supplies a value (`--flag=V`) — the next argument is never consumed,
  /// so `--flag PATH` keeps PATH positional.
  void add_optional_value_flag(std::string name, std::string help,
                               std::string placeholder = "VALUE");

  /// Parses argv (excluding argv[0]). Throws Error(kUsage) on an unknown
  /// flag, a missing value, or a value supplied to a boolean flag.
  void parse(const std::vector<std::string>& args);

  bool has(std::string_view name) const;
  /// Last value of a repeatable valued flag; nullopt when absent.
  std::optional<std::string> value(std::string_view name) const;
  /// All values of a repeatable valued flag, in command-line order.
  std::vector<std::string> values(std::string_view name) const;
  /// Last value parsed as a non-negative integer; `fallback` when absent.
  /// Only decimal digits within `unsigned` are accepted (no sign, space or
  /// wrap-around); anything else throws Error(kUsage).
  unsigned unsigned_value(std::string_view name, unsigned fallback) const;

  /// The --jobs value clamped to [1, 256]; `fallback` when absent.
  unsigned jobs_value(unsigned fallback = default_jobs()) const;

  /// The value of one-of-a-set flag `name`: the option its last value
  /// spells, nullopt when absent. Any other value throws Error(kUsage)
  /// "NAME expects a or b" / "NAME expects a, b, or c".
  template <typename T>
  std::optional<T> choice(
      std::string_view name,
      std::span<const std::pair<std::string_view, T>> options) const {
    const std::optional<std::string> raw = value(name);
    if (!raw) return std::nullopt;
    std::vector<std::string_view> spellings;
    for (const auto& [spelled, option] : options) {
      if (spelled == *raw) return option;
      spellings.push_back(spelled);
    }
    fail_choice(name, spellings);
  }

  /// As above, with `fallback` when the flag is absent.
  template <typename T>
  T choice(std::string_view name,
           std::initializer_list<std::pair<std::string_view, T>> options,
           T fallback) const {
    return choice(name, std::span(options.begin(), options.size()))
        .value_or(fallback);
  }

  /// Throws Error(kUsage) with `message`, then the usage block.
  [[noreturn]] void fail(const std::string& message) const;

  const std::string& program() const noexcept { return program_; }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The rendered usage block (header, flag table, one flag per line,
  /// epilog).
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    bool takes_value = false;
    bool optional_value = false;
    std::string help;
    std::string placeholder;
    std::vector<std::string> seen_values;
    std::size_t seen_count = 0;
  };

  Flag* find(std::string_view name);
  const Flag* find(std::string_view name) const;
  [[noreturn]] void fail_choice(
      std::string_view name,
      const std::vector<std::string_view>& spellings) const;

  std::string program_;
  std::string summary_;
  std::string epilog_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

/// The spellings of a one-of-a-set flag as --help lists them: "a | b | c".
template <typename T>
std::string choice_list(
    std::span<const std::pair<std::string_view, T>> options) {
  std::string list;
  for (const auto& [spelled, option] : options) {
    if (!list.empty()) list += " | ";
    list += spelled;
  }
  return list;
}

/// The body of every tool's main(): registers --help on `cli`, parses
/// argv[1..argc), prints usage() and then `help_legend` (e.g. the tool's
/// exit statuses) for --help and exits 0, and otherwise returns
/// body(cli). A thrown error is printed to stderr as
/// "<program>: " + format_error(e); a usage Error exits 2, anything else
/// `error_exit` (docs/api.md, "CLI flags").
int run_cli(CliParser cli, int argc, char** argv,
            const std::function<int(const CliParser&)>& body,
            int error_exit = 1, std::string_view help_legend = {});

}  // namespace numaprof::support
