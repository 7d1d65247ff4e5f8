#include "lint/baseline.hpp"

#include <fstream>
#include <sstream>

#include "core/export/schema.hpp"
#include "core/export/writer_util.hpp"
#include "lint/numalint.hpp"

namespace numaprof::lint {

using core::export_detail::json_quote;

Baseline make_baseline(const std::vector<core::StaticFinding>& findings) {
  Baseline b;
  for (const core::StaticFinding& f : findings) {
    ++b.counts[{f.file, std::string(kind_code(f.kind)), f.variable}];
  }
  return b;
}

std::string render_baseline(const Baseline& baseline) {
  std::ostringstream os;
  os << "{\"version\":1,\"suppressions\":[";
  bool first = true;
  for (const auto& [key, count] : baseline.counts) {
    if (!first) os << ',';
    first = false;
    os << "\n  {\"file\":" << json_quote(std::get<0>(key))
       << ",\"code\":" << json_quote(std::get<1>(key))
       << ",\"variable\":" << json_quote(std::get<2>(key))
       << ",\"count\":" << count << '}';
  }
  os << (baseline.counts.empty() ? "]}\n" : "\n]}\n");
  return os.str();
}

std::optional<Baseline> parse_baseline(std::string_view text,
                                       std::string* error) {
  const auto root = core::parse_json(text, error);
  if (!root) return std::nullopt;
  const auto fail = [error](const char* what) -> std::optional<Baseline> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (root->kind != core::JsonNode::Kind::kObject) {
    return fail("baseline: root is not an object");
  }
  const core::JsonNode* version = root->find("version");
  if (version == nullptr || version->kind != core::JsonNode::Kind::kNumber ||
      version->number != 1.0) {
    return fail("baseline: missing or unsupported \"version\"");
  }
  const core::JsonNode* list = root->find("suppressions");
  if (list == nullptr || list->kind != core::JsonNode::Kind::kArray) {
    return fail("baseline: missing \"suppressions\" array");
  }
  Baseline b;
  for (const core::JsonNode& entry : list->items) {
    if (entry.kind != core::JsonNode::Kind::kObject) {
      return fail("baseline: suppression entry is not an object");
    }
    const core::JsonNode* file = entry.find("file");
    const core::JsonNode* code = entry.find("code");
    const core::JsonNode* variable = entry.find("variable");
    const core::JsonNode* count = entry.find("count");
    if (file == nullptr || file->kind != core::JsonNode::Kind::kString ||
        code == nullptr || code->kind != core::JsonNode::Kind::kString ||
        variable == nullptr ||
        variable->kind != core::JsonNode::Kind::kString) {
      return fail("baseline: entry needs string file/code/variable");
    }
    std::uint64_t n = 1;
    if (count != nullptr) {
      if (count->kind != core::JsonNode::Kind::kNumber || count->number < 1) {
        return fail("baseline: \"count\" must be a positive number");
      }
      n = static_cast<std::uint64_t>(count->number);
    }
    b.counts[{file->string, code->string, variable->string}] += n;
  }
  return b;
}

std::optional<Baseline> load_baseline(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "baseline: cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_baseline(buffer.str(), error);
}

std::vector<core::StaticFinding> apply_baseline(
    const Baseline& baseline, std::vector<core::StaticFinding> findings,
    std::size_t* suppressed) {
  auto budget = baseline.counts;
  std::vector<core::StaticFinding> out;
  std::size_t removed = 0;
  for (core::StaticFinding& f : findings) {
    const auto it =
        budget.find({f.file, std::string(kind_code(f.kind)), f.variable});
    if (it != budget.end() && it->second > 0) {
      --it->second;
      ++removed;
      continue;
    }
    out.push_back(std::move(f));
  }
  if (suppressed != nullptr) *suppressed = removed;
  return out;
}

}  // namespace numaprof::lint
