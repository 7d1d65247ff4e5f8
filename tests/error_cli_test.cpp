// The shared error/CLI surface: every typed failure shares the
// numaprof::Error base (kind + file/field/line) and the one format_error()
// formatter, and the shared CliParser rejects unknown flags the way the
// CLIs promise.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(CliParserTest, UnsignedValueTakesDecimalDigitsWithinUnsigned) {
  const auto parse = [](const std::string& text) {
    support::CliParser cli = test_parser();
    cli.parse({"--jobs", text});
    return cli.unsigned_value("--jobs", 1);
  };
  EXPECT_EQ(parse("0"), 0u);
  EXPECT_EQ(parse("007"), 7u);
  EXPECT_EQ(parse("4294967295"), 4294967295u);
  for (const char* bad : {"-1", "4294967296", "18446744073709551616", " 7",
                          "+3", "7 ", "7x", "0x10", ""}) {
    try {
      parse(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
      EXPECT_NE(std::string(e.what()).find(
                    "--jobs expects a non-negative integer, got '" +
                    std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliParserTest, JobsValueClampsToOneThrough256) {
  const auto jobs = [](std::vector<std::string> args, unsigned fallback) {
    support::CliParser cli = test_parser();
    cli.parse(args);
    return cli.jobs_value(fallback);
  };
  EXPECT_EQ(jobs({}, 3), 3u);
  EXPECT_EQ(jobs({}, 0), 1u);
  EXPECT_EQ(jobs({"--jobs", "0"}, 3), 1u);
  EXPECT_EQ(jobs({"--jobs=8"}, 3), 8u);
  EXPECT_EQ(jobs({"--jobs", "1000"}, 3), 256u);
}

TEST(CliParserTest, ChoiceMapsSpellingsAndListsThemOnAMiss) {
  enum class Kind { kA, kB, kC };
  const auto pick = [](std::vector<std::string> args) {
    support::CliParser cli = test_parser();
    cli.parse(args);
    return cli.choice("--lint", {{"a", Kind::kA}, {"b", Kind::kB}},
                      Kind::kC);
  };
  EXPECT_EQ(pick({}), Kind::kC);
  EXPECT_EQ(pick({"--lint", "a"}), Kind::kA);
  EXPECT_EQ(pick({"--lint=a", "--lint=b"}), Kind::kB);  // last one wins
  const auto message = [](std::vector<std::string> args,
                          std::initializer_list<std::pair<std::string_view,
                                                          int>> options) {
    support::CliParser cli = test_parser();
    cli.parse(args);
    try {
      cli.choice("--lint", options, 0);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
      const std::string what = e.what();
      EXPECT_NE(what.find("usage: tool"), std::string::npos) << what;
      return what.substr(0, what.find('\n'));
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message({"--lint", "c"}, {{"a", 1}, {"b", 2}}),
            "--lint expects a or b");
  EXPECT_EQ(message({"--lint", ""}, {{"a", 1}, {"b", 2}, {"c", 3}}),
            "--lint expects a, b, or c");
  EXPECT_EQ(message({"--lint", "A"}, {{"a", 1}}), "--lint expects a");
}

TEST(CliParserTest, FailThrowsTheMessageThenUsageAndEpilog) {
  support::CliParser cli("tool", "test parser", "  operands: <x>\n");
  try {
    cli.fail("bad thing");
    FAIL() << "fail() returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    EXPECT_EQ(std::string(e.what()), "bad thing\n" + cli.usage());
  }
  EXPECT_EQ(cli.usage(),
            "usage: tool [flags] ...\n  test parser\n  operands: <x>\n");
}

int run_tool(std::vector<std::string> args,
             const std::function<int(const support::CliParser&)>& body,
             int error_exit, std::string_view legend, std::string* out,
             std::string* err) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = support::run_cli(test_parser(), static_cast<int>(argv.size()),
                                  argv.data(), body, error_exit, legend);
  *out = testing::internal::GetCapturedStdout();
  *err = testing::internal::GetCapturedStderr();
  return rc;
}

TEST(CliParserTest, RunCliAnswersHelpAndMapsErrorsToExitStatus) {
  std::string out, err;
  const auto ok = [](const support::CliParser& cli) {
    return cli.has("--verbose") ? 5 : 0;
  };
  EXPECT_EQ(run_tool({"--verbose"}, ok, 1, {}, &out, &err), 5);
  EXPECT_EQ(out + err, "");

  EXPECT_EQ(run_tool({"--help"}, ok, 1, "exit status: 0\n", &out, &err), 0);
  support::CliParser with_help = test_parser();
  with_help.add_flag("--help", false, "show this message");
  EXPECT_EQ(out, with_help.usage() + "exit status: 0\n");
  EXPECT_EQ(err, "");

  EXPECT_EQ(run_tool({"--bogus"}, ok, 7, {}, &out, &err), 2);
  EXPECT_EQ(err.substr(0, err.find('\n')),
            "tool: [usage] unknown flag: --bogus");
  const auto throws_lint = [](const support::CliParser&) -> int {
    throw Error(ErrorKind::kLint, {}, {}, 0, "lint input error: x");
  };
  EXPECT_EQ(run_tool({}, throws_lint, 1, {}, &out, &err), 1);
  EXPECT_EQ(err, "tool: [lint] lint input error: x\n");
  EXPECT_EQ(run_tool({}, throws_lint, 2, {}, &out, &err), 2);
  const auto throws_std = [](const support::CliParser&) -> int {
    throw std::runtime_error("plain");
  };
  EXPECT_EQ(run_tool({}, throws_std, 1, {}, &out, &err), 1);
  EXPECT_EQ(err, "tool: plain\n");
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
