#include "support/cliflags.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>

namespace numaprof::support {

void CliParser::add_flag(std::string name, bool takes_value, std::string help,
                         std::string placeholder) {
  Flag flag;
  flag.name = std::move(name);
  flag.takes_value = takes_value;
  flag.help = std::move(help);
  flag.placeholder = std::move(placeholder);
  flags_.push_back(std::move(flag));
}

void CliParser::add_optional_value_flag(std::string name, std::string help,
                                        std::string placeholder) {
  Flag flag;
  flag.name = std::move(name);
  flag.takes_value = true;
  flag.optional_value = true;
  flag.help = std::move(help);
  flag.placeholder = std::move(placeholder);
  flags_.push_back(std::move(flag));
}

CliParser::Flag* CliParser::find(std::string_view name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const CliParser::Flag* CliParser::find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

void CliParser::fail(const std::string& message) const {
  throw Error(ErrorKind::kUsage, {}, program_, 0,
              message + "\n" + usage());
}

void CliParser::fail_choice(
    std::string_view name,
    const std::vector<std::string_view>& spellings) const {
  std::string message = std::string(name) + " expects ";
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    if (i > 0) message += spellings.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == spellings.size()) message += "or ";
    message += spellings[i];
  }
  fail(message);
}

void CliParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-' || arg[1] != '-') {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    Flag* flag = find(name);
    if (flag == nullptr) fail("unknown flag: " + name);
    ++flag->seen_count;
    if (!flag->takes_value) {
      if (inline_value) {
        fail(name + " does not take a value");
      }
      continue;
    }
    if (inline_value) {
      flag->seen_values.push_back(std::move(*inline_value));
      continue;
    }
    if (flag->optional_value) continue;  // bare occurrence is complete
    if (i + 1 >= args.size()) {
      fail(name + " requires a " + flag->placeholder + " argument");
    }
    flag->seen_values.push_back(args[++i]);
  }
}

bool CliParser::has(std::string_view name) const {
  const Flag* flag = find(name);
  return flag != nullptr && flag->seen_count > 0;
}

std::optional<std::string> CliParser::value(std::string_view name) const {
  const Flag* flag = find(name);
  if (flag == nullptr || flag->seen_values.empty()) return std::nullopt;
  return flag->seen_values.back();
}

std::vector<std::string> CliParser::values(std::string_view name) const {
  const Flag* flag = find(name);
  return flag != nullptr ? flag->seen_values : std::vector<std::string>{};
}

unsigned CliParser::unsigned_value(std::string_view name,
                                   unsigned fallback) const {
  const std::optional<std::string> raw = value(name);
  if (!raw) return fallback;
  unsigned parsed = 0;
  const char* const end = raw->data() + raw->size();
  const auto [stop, ec] = std::from_chars(raw->data(), end, parsed);
  if (ec != std::errc() || stop != end) {
    fail(std::string(name) + " expects a non-negative integer, got '" +
         *raw + "'");
  }
  return parsed;
}

unsigned CliParser::jobs_value(unsigned fallback) const {
  return std::clamp(unsigned_value("--jobs", fallback), 1u, 256u);
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags] ...\n  " << summary_ << "\n";
  const auto spelled = [](const Flag& flag) {
    if (!flag.takes_value) return flag.name;
    if (flag.optional_value) return flag.name + "[=" + flag.placeholder + "]";
    return flag.name + " " + flag.placeholder;
  };
  std::size_t width = 0;
  for (const Flag& flag : flags_) {
    width = std::max(width, spelled(flag).size());
  }
  for (const Flag& flag : flags_) {
    const std::string left = spelled(flag);
    os << "  " << left << std::string(width - left.size() + 2, ' ')
       << flag.help << "\n";
  }
  os << epilog_;
  return os.str();
}

int run_cli(CliParser cli, int argc, char** argv,
            const std::function<int(const CliParser&)>& body,
            int error_exit, std::string_view help_legend) {
  cli.add_flag("--help", false, "show this message");
  try {
    cli.parse(std::vector<std::string>(argv + 1, argv + argc));
    if (cli.has("--help")) {
      std::cout << cli.usage() << help_legend;
      return 0;
    }
    return body(cli);
  } catch (const std::exception& error) {
    std::cerr << cli.program() << ": " << format_error(error) << "\n";
    const auto* typed = dynamic_cast<const Error*>(&error);
    return typed != nullptr && typed->kind() == ErrorKind::kUsage
               ? 2
               : error_exit;
  }
}

}  // namespace numaprof::support
