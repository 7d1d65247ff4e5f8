// CLI: validate exported visualization artifacts with the bundled schema
// checkers (core/export/schema.hpp). CI's export-smoke job runs this over
// everything analyze_profile --export produced; it is also handy locally
// before loading an artifact into Perfetto or speedscope.
//
// Usage:
//   export_check <artifact>...
//
// Each operand is dispatched on its file-name suffix (.trace.json,
// .speedscope.json, .collapsed.txt, .html). Exit status: 0 = every
// artifact valid, 1 = at least one check failed or a file was unreadable,
// 2 = usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/numaprof.hpp"
#include "support/cliflags.hpp"

using namespace numaprof;

namespace {

support::CliParser make_parser() {
  support::CliParser cli("export_check",
                         "validate exported artifacts against the bundled "
                         "schema checkers; operands: <artifact>...");
  return cli;
}

int run(const support::CliParser& cli) {
  if (cli.positional().empty()) {
    cli.fail("expected artifact files to validate");
  }
  bool all_valid = true;
  for (const std::string& path : cli.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cout << path << ": UNREADABLE\n";
      all_valid = false;
      continue;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::vector<std::string> errors = check_artifact(path, bytes.str());
    if (errors.empty()) {
      std::cout << path << ": ok\n";
      continue;
    }
    all_valid = false;
    std::cout << path << ": " << errors.size() << " error(s)\n";
    for (const std::string& error : errors) {
      std::cout << "  " << error << "\n";
    }
  }
  return all_valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return support::run_cli(make_parser(), argc, argv, run);
}
