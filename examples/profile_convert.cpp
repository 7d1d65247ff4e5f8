// CLI: profile_convert — transcode profiles between the two encodings.
//
// Reads any profile (text or binary, autodetected from magic bytes) and
// rewrites it in the requested encoding. Both encodings are
// byte-deterministic and binary holds every value text does, so text ->
// binary -> text reproduces the original file byte for byte; the
// round-trip test in tests/binary_format_test.cpp holds this CLI to that
// exact promise. The other direction rounds: text keeps six significant
// digits of each double, so binary -> text -> binary can change values.
//
// Usage:
//   profile_convert [flags] <in-file> <out-file>
//
// Flags:
//   --to FMT     output encoding: text | binary (default: the opposite
//                of the input's encoding)
//   --strict     fail on the first malformed field (default)
//   --lenient    recover what is readable: damage is reported as
//                diagnostics, damaged sections are dropped, and the
//                surviving data is converted
//   --quiet      suppress the conversion summary line
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/numaprof.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

support::CliParser make_parser() {
  support::CliParser cli(
      "profile_convert",
      "transcode a profile between the text and binary encodings; "
      "operands: <in-file> <out-file>");
  cli.add_flag("--to", true,
               "output encoding: text | binary (default: the opposite of "
               "the input)",
               "FMT");
  cli.add_flag("--strict", false, "fail on the first malformed field");
  cli.add_flag("--lenient", false,
               "recover readable sections, report damage as diagnostics");
  cli.add_flag("--quiet", false, "suppress the conversion summary line");
  return cli;
}

const char* name_of(ProfileFormat format) noexcept {
  return format == ProfileFormat::kBinary ? "binary" : "text";
}

int run(const support::CliParser& cli) {
  if (cli.positional().size() != 2) cli.fail("expected <in-file> <out-file>");
  if (cli.has("--strict") && cli.has("--lenient")) {
    cli.fail("--strict and --lenient are mutually exclusive");
  }
  const std::string& in_path = cli.positional()[0];
  const std::string& out_path = cli.positional()[1];

  // Usage errors come before any I/O; the input is opened once, and the
  // default output encoding is the opposite of the one it was read as.
  static constexpr std::pair<std::string_view, ProfileFormat> kFormats[] = {
      {"text", ProfileFormat::kText}, {"binary", ProfileFormat::kBinary}};
  const std::optional<ProfileFormat> to =
      cli.choice<ProfileFormat>("--to", kFormats);

  LoadOptions load;
  load.lenient = cli.has("--lenient");
  const LoadResult loaded = ProfileReader(load).read_file(in_path);
  const ProfileFormat in_format = loaded.format;
  const ProfileFormat out_format =
      to.value_or(in_format == ProfileFormat::kBinary ? ProfileFormat::kText
                                                      : ProfileFormat::kBinary);
  for (const Diagnostic& d : loaded.diagnostics) {
    std::cerr << "profile_convert: diagnostic: " << d.field << " (line "
              << d.line << "): " << d.message << "\n";
  }

  ProfileWriter(out_format).write_file(loaded.data, out_path);
  if (!cli.has("--quiet")) {
    std::cout << "converted " << in_path << " (" << name_of(in_format)
              << ") -> " << out_path << " (" << name_of(out_format) << ")";
    if (!loaded.diagnostics.empty()) {
      std::cout << " with " << loaded.diagnostics.size() << " diagnostic(s)";
    }
    std::cout << "\n";
  }
  // 3: converted, but the input needed recovery (docs/api.md).
  return loaded.diagnostics.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(make_parser(), argc, argv, run);
}
