// The shared error/CLI surface: every typed failure shares the
// numaprof::Error base (kind + file/field/line) and the one format_error()
// formatter, and the shared CliParser rejects unknown flags the way the
// CLIs promise.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/profile_io.hpp"
#include "lint/numalint.hpp"
#include "support/cliflags.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"

namespace numaprof {
namespace {

TEST(ErrorHierarchy, EveryTypedFailureSharesTheBase) {
  const core::ProfileError profile_error("header", 3, "bad header");
  EXPECT_EQ(profile_error.kind(), ErrorKind::kProfile);
  EXPECT_EQ(profile_error.field(), "header");
  EXPECT_EQ(profile_error.line(), 3u);

  const support::FaultSpecError fault_error("bad spec");
  EXPECT_EQ(fault_error.kind(), ErrorKind::kFaultSpec);
  EXPECT_EQ(fault_error.field(), "NUMAPROF_FAULTS");

  const lint::LintError lint_error("/no/such/dir");
  EXPECT_EQ(lint_error.kind(), ErrorKind::kLint);
  EXPECT_EQ(lint_error.file(), "/no/such/dir");

  // All of them are catchable as the one base.
  const Error* as_base = &profile_error;
  EXPECT_EQ(as_base->kind(), ErrorKind::kProfile);
}

TEST(ErrorHierarchy, FormatErrorIsTheOneFormatter) {
  // ProfileError keeps its traditional what() format; format_error only
  // prefixes the kind tag.
  const core::ProfileError error("header", 3, "boom");
  EXPECT_EQ(format_error(error),
            "[profile] profile parse error: header (line 3): boom");

  const std::runtime_error untyped("plain failure");
  EXPECT_EQ(format_error(untyped), "plain failure");
  // Dispatch through the std::exception overload recovers the kind.
  const std::exception& erased = error;
  EXPECT_EQ(format_error(erased),
            "[profile] profile parse error: header (line 3): boom");
}

TEST(ErrorHierarchy, LintPathsThrowsLintErrorForMissingTopLevelPath) {
  try {
    lint::lint_paths({"/no/such/path.cpp"});
    FAIL() << "expected LintError";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kLint);
    EXPECT_NE(std::string(e.what()).find("/no/such/path.cpp"),
              std::string::npos);
  }
}

support::CliParser test_parser() {
  support::CliParser cli("tool", "test parser");
  cli.add_flag("--jobs", true, "parallelism", "N");
  cli.add_flag("--lint", true, "sources", "SRC");
  cli.add_flag("--verbose", false, "chatty");
  return cli;
}

TEST(CliParserTest, ParsesFlagsValuesAndPositionals) {
  support::CliParser cli = test_parser();
  cli.parse({"--jobs", "4", "input.prof", "--lint=a.cpp", "--lint", "b.cpp",
             "--verbose", "out"});
  EXPECT_TRUE(cli.has("--verbose"));
  EXPECT_EQ(cli.unsigned_value("--jobs", 1), 4u);
  EXPECT_EQ(cli.values("--lint"),
            (std::vector<std::string>{"a.cpp", "b.cpp"}));
  EXPECT_EQ(cli.value("--lint").value_or(""), "b.cpp");
  EXPECT_EQ(cli.positional(),
            (std::vector<std::string>{"input.prof", "out"}));
  EXPECT_FALSE(cli.value("--absent").has_value());
  EXPECT_EQ(cli.unsigned_value("--absent", 9), 9u);
}

TEST(CliParserTest, RejectsUnknownFlagsWithUsage) {
  const auto expect_usage_error = [](const std::vector<std::string>& args,
                                     const std::string& needle) {
    support::CliParser cli = test_parser();
    try {
      cli.parse(args);
      FAIL() << "expected a usage error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("usage: tool"), std::string::npos) << what;
    }
  };
  expect_usage_error({"--bogus"}, "--bogus");
  expect_usage_error({"--jobs"}, "--jobs");          // missing value
  expect_usage_error({"--verbose=yes"}, "--verbose");  // value on a boolean
}

TEST(CliParserTest, UnsignedValueValidates) {
  support::CliParser cli = test_parser();
  cli.parse({"--jobs", "banana"});
  try {
    cli.unsigned_value("--jobs", 1);
    FAIL() << "expected a usage error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
  }
}

TEST(CliParserTest, UsageListsEveryFlag) {
  const std::string usage = test_parser().usage();
  EXPECT_NE(usage.find("usage: tool"), std::string::npos);
  EXPECT_NE(usage.find("--jobs N"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--lint SRC"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace numaprof
