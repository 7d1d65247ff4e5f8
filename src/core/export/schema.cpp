#include "core/export/schema.hpp"

#include <cctype>
#include <cstdlib>
#include <set>

namespace numaprof::core {
namespace {

// Recursive-descent JSON parser: the one JSON reader in src/. It accepts
// one whole document and reports failures as messages, so the checkers can
// accumulate them and the telemetry reader can wrap them with a line.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonNode> parse(std::string* error) {
    JsonNode root;
    if (!value(root)) {
      if (error != nullptr) *error = message_;
      return std::nullopt;
    }
    skip_space();
    if (pos_ != text_.size()) {
      fail("trailing content after document");
      if (error != nullptr) *error = message_;
      return std::nullopt;
    }
    return root;
  }

 private:
  bool fail(const std::string& what) {
    if (message_.empty()) {
      message_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool string_value(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("truncated escape");
        char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4U;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("invalid \\u escape");
              }
            }
            pos_ += 4;
            // The exporters only escape control characters, so a plain
            // Latin-1 projection is enough for validation purposes.
            out.push_back(static_cast<char>(code & 0xFFU));
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number_value(JsonNode& node) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      pos_ = start;
      return fail("expected number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("digit must follow decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("digit must follow exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    node.kind = JsonNode::Kind::kNumber;
    node.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                              nullptr);
    return true;
  }

  bool value(JsonNode& node) {
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    char c = text_[pos_];
    if (c == '{') return object_value(node);
    if (c == '[') return array_value(node);
    if (c == '"') {
      node.kind = JsonNode::Kind::kString;
      return string_value(node.string);
    }
    if (c == 't') {
      node.kind = JsonNode::Kind::kBool;
      node.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      node.kind = JsonNode::Kind::kBool;
      node.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      node.kind = JsonNode::Kind::kNull;
      return literal("null");
    }
    return number_value(node);
  }

  bool object_value(JsonNode& node) {
    node.kind = JsonNode::Kind::kObject;
    ++pos_;  // '{'
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_space();
      std::string key;
      if (!string_value(key)) return false;
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      JsonNode member;
      if (!value(member)) return false;
      node.members.emplace_back(std::move(key), std::move(member));
      skip_space();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array_value(JsonNode& node) {
    node.kind = JsonNode::Kind::kArray;
    ++pos_;  // '['
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonNode item;
      if (!value(item)) return false;
      node.items.push_back(std::move(item));
      skip_space();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string message_;
};

const JsonNode* require(const JsonNode& object, std::string_view key,
                        JsonNode::Kind kind, std::string_view where,
                        std::vector<std::string>& errors) {
  const JsonNode* member = object.find(key);
  if (member == nullptr) {
    errors.push_back(std::string(where) + ": missing \"" + std::string(key) +
                     "\"");
    return nullptr;
  }
  if (member->kind != kind) {
    errors.push_back(std::string(where) + ": \"" + std::string(key) +
                     "\" has wrong type");
    return nullptr;
  }
  return member;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

void check_trace_event(const JsonNode& event, std::size_t index,
                       std::vector<std::string>& errors) {
  std::string where = "traceEvents[" + std::to_string(index) + "]";
  if (event.kind != JsonNode::Kind::kObject) {
    errors.push_back(where + ": not an object");
    return;
  }
  const JsonNode* ph = require(event, "ph", JsonNode::Kind::kString, where,
                               errors);
  require(event, "name", JsonNode::Kind::kString, where, errors);
  require(event, "pid", JsonNode::Kind::kNumber, where, errors);
  if (ph == nullptr) return;
  // Phases the exporter emits; anything else is a bug, not a new feature.
  static const std::set<std::string> kKnown = {"M", "C", "X", "i"};
  if (kKnown.count(ph->string) == 0) {
    errors.push_back(where + ": unknown phase \"" + ph->string + "\"");
    return;
  }
  if (ph->string != "M") {
    require(event, "ts", JsonNode::Kind::kNumber, where, errors);
    require(event, "tid", JsonNode::Kind::kNumber, where, errors);
  }
  if (ph->string == "X") {
    require(event, "dur", JsonNode::Kind::kNumber, where, errors);
  }
  if (ph->string == "C" || ph->string == "M") {
    require(event, "args", JsonNode::Kind::kObject, where, errors);
  }
}

}  // namespace

const JsonNode* JsonNode::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<JsonNode> parse_json(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

std::vector<std::string> json_well_formed(std::string_view text) {
  std::string error;
  if (!parse_json(text, &error)) {
    return {error};
  }
  return {};
}

std::vector<std::string> check_trace_json(std::string_view text) {
  std::string parse_error;
  std::optional<JsonNode> root = parse_json(text, &parse_error);
  if (!root) return {parse_error};
  std::vector<std::string> errors;
  if (root->kind != JsonNode::Kind::kObject) {
    return {"trace: root is not an object"};
  }
  const JsonNode* events = require(*root, "traceEvents",
                                   JsonNode::Kind::kArray, "trace", errors);
  require(*root, "displayTimeUnit", JsonNode::Kind::kString, "trace", errors);
  if (events == nullptr) return errors;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    check_trace_event(events->items[i], i, errors);
  }
  return errors;
}

std::vector<std::string> check_speedscope_json(std::string_view text) {
  std::string parse_error;
  std::optional<JsonNode> root = parse_json(text, &parse_error);
  if (!root) return {parse_error};
  std::vector<std::string> errors;
  if (root->kind != JsonNode::Kind::kObject) {
    return {"speedscope: root is not an object"};
  }
  const JsonNode* schema = require(*root, "$schema", JsonNode::Kind::kString,
                                   "speedscope", errors);
  if (schema != nullptr &&
      schema->string != "https://www.speedscope.app/file-format-schema.json") {
    errors.push_back("speedscope: unexpected $schema \"" + schema->string +
                     "\"");
  }
  std::size_t frame_count = 0;
  if (const JsonNode* shared = require(*root, "shared",
                                       JsonNode::Kind::kObject, "speedscope",
                                       errors)) {
    if (const JsonNode* frames = require(*shared, "frames",
                                         JsonNode::Kind::kArray,
                                         "speedscope.shared", errors)) {
      frame_count = frames->items.size();
      for (std::size_t i = 0; i < frames->items.size(); ++i) {
        const JsonNode& frame = frames->items[i];
        std::string where = "speedscope.shared.frames[" + std::to_string(i) +
                            "]";
        if (frame.kind != JsonNode::Kind::kObject) {
          errors.push_back(where + ": not an object");
          continue;
        }
        require(frame, "name", JsonNode::Kind::kString, where, errors);
      }
    }
  }
  const JsonNode* profiles = require(*root, "profiles", JsonNode::Kind::kArray,
                                     "speedscope", errors);
  if (profiles == nullptr) return errors;
  if (profiles->items.empty()) {
    errors.push_back("speedscope: \"profiles\" is empty");
  }
  for (std::size_t p = 0; p < profiles->items.size(); ++p) {
    const JsonNode& profile = profiles->items[p];
    std::string where = "speedscope.profiles[" + std::to_string(p) + "]";
    if (profile.kind != JsonNode::Kind::kObject) {
      errors.push_back(where + ": not an object");
      continue;
    }
    const JsonNode* type = require(profile, "type", JsonNode::Kind::kString,
                                   where, errors);
    if (type != nullptr && type->string != "sampled") {
      errors.push_back(where + ": type is not \"sampled\"");
    }
    require(profile, "name", JsonNode::Kind::kString, where, errors);
    require(profile, "unit", JsonNode::Kind::kString, where, errors);
    require(profile, "startValue", JsonNode::Kind::kNumber, where, errors);
    require(profile, "endValue", JsonNode::Kind::kNumber, where, errors);
    const JsonNode* samples = require(profile, "samples",
                                      JsonNode::Kind::kArray, where, errors);
    const JsonNode* weights = require(profile, "weights",
                                      JsonNode::Kind::kArray, where, errors);
    if (samples == nullptr || weights == nullptr) continue;
    if (samples->items.size() != weights->items.size()) {
      errors.push_back(where + ": samples/weights length mismatch");
    }
    for (std::size_t s = 0; s < samples->items.size(); ++s) {
      const JsonNode& stack = samples->items[s];
      if (stack.kind != JsonNode::Kind::kArray) {
        errors.push_back(where + ".samples[" + std::to_string(s) +
                         "]: not an array");
        continue;
      }
      for (const JsonNode& frame : stack.items) {
        if (frame.kind != JsonNode::Kind::kNumber || frame.number < 0 ||
            frame.number >= static_cast<double>(frame_count)) {
          errors.push_back(where + ".samples[" + std::to_string(s) +
                           "]: frame index out of range");
          break;
        }
      }
    }
  }
  return errors;
}

std::vector<std::string> check_collapsed_stacks(std::string_view text) {
  std::vector<std::string> errors;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    std::string_view line = end == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_number;
    if (line.empty()) continue;
    std::string where = "collapsed line " + std::to_string(line_number);
    std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0 ||
        space + 1 >= line.size()) {
      errors.push_back(where + ": expected \"stack weight\"");
      continue;
    }
    std::string_view weight = line.substr(space + 1);
    bool numeric = true;
    for (char c : weight) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) numeric = false;
    }
    if (!numeric) {
      errors.push_back(where + ": weight is not a non-negative integer");
    }
    std::string_view stack = line.substr(0, space);
    if (stack.front() == ';' || stack.back() == ';' ||
        stack.find(";;") != std::string_view::npos) {
      errors.push_back(where + ": empty frame in stack");
    }
  }
  return errors;
}

std::vector<std::string> check_html_report(std::string_view text) {
  std::vector<std::string> errors;
  auto expect = [&](std::string_view needle, std::string_view what) {
    if (text.find(needle) == std::string_view::npos) {
      errors.push_back("html: missing " + std::string(what));
    }
  };
  if (text.rfind("<!DOCTYPE html>", 0) != 0) {
    errors.push_back("html: missing <!DOCTYPE html> preamble");
  }
  expect("<html", "<html> element");
  expect("</html>", "</html> close tag");
  // The five panes the issue requires, keyed by their section ids.
  expect("id=\"summary\"", "summary pane");
  expect("id=\"code-centric\"", "code-centric pane");
  expect("id=\"data-centric\"", "data-centric pane");
  expect("id=\"address-centric\"", "address-centric pane");
  expect("id=\"timeline\"", "timeline pane");
  expect("id=\"health\"", "collection-health pane");
  expect("<svg", "inline SVG plot");
  // Self-containment: no reference may leave the file.
  for (std::string_view needle :
       {std::string_view("src=\"http"), std::string_view("href=\"http"),
        std::string_view("src=\"//"), std::string_view("href=\"//"),
        std::string_view("url(http"), std::string_view("<script src"),
        std::string_view("<link rel=\"stylesheet\" href")}) {
    if (text.find(needle) != std::string_view::npos) {
      errors.push_back("html: external asset reference (" +
                       std::string(needle) + ")");
    }
  }
  return errors;
}

namespace {

bool known_sarif_level(const std::string& level) {
  return level == "none" || level == "note" || level == "warning" ||
         level == "error";
}

void check_sarif_result(const JsonNode& result, std::size_t index,
                        const std::vector<std::string>& rule_ids,
                        std::vector<std::string>& errors) {
  const std::string where = "sarif.results[" + std::to_string(index) + "]";
  if (result.kind != JsonNode::Kind::kObject) {
    errors.push_back(where + ": not an object");
    return;
  }
  const JsonNode* rule_id =
      require(result, "ruleId", JsonNode::Kind::kString, where, errors);
  if (const JsonNode* rule_index = result.find("ruleIndex")) {
    if (rule_index->kind != JsonNode::Kind::kNumber ||
        rule_index->number < 0 ||
        rule_index->number >= static_cast<double>(rule_ids.size())) {
      errors.push_back(where + ": ruleIndex out of range");
    } else if (rule_id != nullptr &&
               rule_ids[static_cast<std::size_t>(rule_index->number)] !=
                   rule_id->string) {
      errors.push_back(where + ": ruleIndex does not match ruleId \"" +
                       rule_id->string + "\"");
    }
  }
  if (const JsonNode* level =
          require(result, "level", JsonNode::Kind::kString, where, errors)) {
    if (!known_sarif_level(level->string)) {
      errors.push_back(where + ": unknown level \"" + level->string + "\"");
    }
  }
  if (const JsonNode* message = require(result, "message",
                                        JsonNode::Kind::kObject, where,
                                        errors)) {
    require(*message, "text", JsonNode::Kind::kString, where + ".message",
            errors);
  }
  const JsonNode* locations =
      require(result, "locations", JsonNode::Kind::kArray, where, errors);
  if (locations == nullptr) return;
  for (std::size_t l = 0; l < locations->items.size(); ++l) {
    const std::string lwhere = where + ".locations[" + std::to_string(l) + "]";
    const JsonNode& loc = locations->items[l];
    if (loc.kind != JsonNode::Kind::kObject) {
      errors.push_back(lwhere + ": not an object");
      continue;
    }
    const JsonNode* phys = require(loc, "physicalLocation",
                                   JsonNode::Kind::kObject, lwhere, errors);
    if (phys == nullptr) continue;
    if (const JsonNode* artifact =
            require(*phys, "artifactLocation", JsonNode::Kind::kObject,
                    lwhere, errors)) {
      require(*artifact, "uri", JsonNode::Kind::kString,
              lwhere + ".artifactLocation", errors);
    }
    if (const JsonNode* region = require(*phys, "region",
                                         JsonNode::Kind::kObject, lwhere,
                                         errors)) {
      const JsonNode* start = require(*region, "startLine",
                                      JsonNode::Kind::kNumber,
                                      lwhere + ".region", errors);
      if (start != nullptr && start->number < 1) {
        errors.push_back(lwhere + ".region: startLine < 1");
      }
    }
  }
}

}  // namespace

std::vector<std::string> check_sarif_json(std::string_view text) {
  std::string parse_error;
  std::optional<JsonNode> root = parse_json(text, &parse_error);
  if (!root) return {parse_error};
  std::vector<std::string> errors;
  if (root->kind != JsonNode::Kind::kObject) {
    return {"sarif: root is not an object"};
  }
  if (const JsonNode* version =
          require(*root, "version", JsonNode::Kind::kString, "sarif",
                  errors)) {
    if (version->string != "2.1.0") {
      errors.push_back("sarif: version is \"" + version->string +
                       "\", expected \"2.1.0\"");
    }
  }
  const JsonNode* runs =
      require(*root, "runs", JsonNode::Kind::kArray, "sarif", errors);
  if (runs == nullptr) return errors;
  if (runs->items.empty()) errors.push_back("sarif: \"runs\" is empty");
  for (std::size_t r = 0; r < runs->items.size(); ++r) {
    const std::string where = "sarif.runs[" + std::to_string(r) + "]";
    const JsonNode& run = runs->items[r];
    if (run.kind != JsonNode::Kind::kObject) {
      errors.push_back(where + ": not an object");
      continue;
    }
    std::vector<std::string> rule_ids;
    const JsonNode* tool =
        require(run, "tool", JsonNode::Kind::kObject, where, errors);
    const JsonNode* driver =
        tool == nullptr ? nullptr
                        : require(*tool, "driver", JsonNode::Kind::kObject,
                                  where + ".tool", errors);
    if (driver != nullptr) {
      require(*driver, "name", JsonNode::Kind::kString,
              where + ".tool.driver", errors);
      if (const JsonNode* rules =
              require(*driver, "rules", JsonNode::Kind::kArray,
                      where + ".tool.driver", errors)) {
        for (std::size_t i = 0; i < rules->items.size(); ++i) {
          const std::string rwhere =
              where + ".tool.driver.rules[" + std::to_string(i) + "]";
          const JsonNode& rule = rules->items[i];
          if (rule.kind != JsonNode::Kind::kObject) {
            errors.push_back(rwhere + ": not an object");
            rule_ids.emplace_back();
            continue;
          }
          const JsonNode* id =
              require(rule, "id", JsonNode::Kind::kString, rwhere, errors);
          rule_ids.push_back(id == nullptr ? std::string() : id->string);
          if (const JsonNode* config = rule.find("defaultConfiguration")) {
            const JsonNode* level =
                config->kind == JsonNode::Kind::kObject ? config->find("level")
                                                        : nullptr;
            if (level == nullptr ||
                level->kind != JsonNode::Kind::kString ||
                !known_sarif_level(level->string)) {
              errors.push_back(rwhere +
                               ": defaultConfiguration.level is not a known "
                               "level");
            }
          }
        }
      }
    }
    const JsonNode* results =
        require(run, "results", JsonNode::Kind::kArray, where, errors);
    if (results == nullptr) continue;
    for (std::size_t i = 0; i < results->items.size(); ++i) {
      check_sarif_result(results->items[i], i, rule_ids, errors);
    }
  }
  return errors;
}

std::vector<std::string> check_artifact(std::string_view filename,
                                        std::string_view bytes) {
  if (ends_with(filename, ".sarif") || ends_with(filename, ".sarif.json")) {
    return check_sarif_json(bytes);
  }
  if (ends_with(filename, ".trace.json")) return check_trace_json(bytes);
  if (ends_with(filename, ".speedscope.json")) {
    return check_speedscope_json(bytes);
  }
  if (ends_with(filename, ".collapsed.txt")) {
    return check_collapsed_stacks(bytes);
  }
  if (ends_with(filename, ".html")) return check_html_report(bytes);
  return {"unknown artifact kind for \"" + std::string(filename) + "\""};
}

}  // namespace numaprof::core
