#include "lint/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/export/schema.hpp"
#include "core/export/writer_util.hpp"
#include "support/hash.hpp"

namespace numaprof::lint {

namespace {

/// Entry format version; bump on any serialization change so old entries
/// miss instead of deserializing garbage.
constexpr int kCacheVersion = 2;

using core::export_detail::json_quote;

void write_order(std::ostringstream& os, std::pair<int, std::size_t> order) {
  os << '[' << order.first << ',' << order.second << ']';
}

std::string render(const FilePhase1& a) {
  std::ostringstream os;
  os << "{\"version\":" << kCacheVersion << ",\"stats\":{\"files\":"
     << a.local.stats.files << ",\"lines\":" << a.local.stats.lines
     << ",\"tokens\":" << a.local.stats.tokens << "},\"findings\":[";
  for (std::size_t i = 0; i < a.local.findings.size(); ++i) {
    const core::StaticFinding& f = a.local.findings[i];
    if (i > 0) os << ',';
    os << "{\"file\":" << json_quote(f.file) << ",\"line\":" << f.line
       << ",\"decl\":" << f.decl_line
       << ",\"variable\":" << json_quote(f.variable)
       << ",\"kind\":" << static_cast<int>(f.kind)
       << ",\"expected\":" << static_cast<int>(f.expected)
       << ",\"suggested\":" << static_cast<int>(f.suggested)
       << ",\"message\":" << json_quote(f.message) << '}';
  }
  os << "],\"summary\":{\"file\":" << json_quote(a.summary.file)
     << ",\"globals\":[";
  for (std::size_t i = 0; i < a.summary.globals.size(); ++i) {
    const ir::Global& g = a.summary.globals[i];
    if (i > 0) os << ',';
    os << "{\"name\":" << json_quote(g.name) << ",\"line\":" << g.line
       << ",\"ext\":" << (g.is_extern ? 1 : 0) << '}';
  }
  os << "],\"functions\":[";
  for (std::size_t i = 0; i < a.summary.functions.size(); ++i) {
    const dataflow::FunctionSummary& fn = a.summary.functions[i];
    if (i > 0) os << ',';
    os << "{\"name\":" << json_quote(fn.name)
       << ",\"file\":" << json_quote(fn.file) << ",\"line\":" << fn.line
       << ",\"params\":[";
    for (std::size_t k = 0; k < fn.param_names.size(); ++k) {
      if (k > 0) os << ',';
      os << json_quote(fn.param_names[k]);
    }
    os << "],\"locals\":[";
    for (std::size_t k = 0; k < fn.local_allocs.size(); ++k) {
      if (k > 0) os << ',';
      os << json_quote(fn.local_allocs[k]);
    }
    os << "],\"calls\":[";
    for (std::size_t k = 0; k < fn.calls.size(); ++k) {
      const dataflow::Call& c = fn.calls[k];
      if (k > 0) os << ',';
      os << "{\"callee\":" << json_quote(c.callee) << ",\"line\":" << c.line
         << ",\"args\":[";
      for (std::size_t m = 0; m < c.args.size(); ++m) {
        if (m > 0) os << ',';
        os << json_quote(c.args[m]);
      }
      os << "],\"par\":" << (c.parallel ? 1 : 0)
         << ",\"guard\":" << (c.guarded ? 1 : 0)
         << ",\"sched\":" << static_cast<int>(c.sched)
         << ",\"chunk\":" << c.chunk << ",\"blocked\":" << (c.blocked ? 1 : 0)
         << ",\"order\":";
      write_order(os, c.order);
      os << '}';
    }
    os << "],\"effects\":[";
    for (std::size_t k = 0; k < fn.effects.size(); ++k) {
      const dataflow::Effect& e = fn.effects[k];
      if (k > 0) os << ',';
      os << "{\"target\":" << static_cast<int>(e.target)
         << ",\"param\":" << e.param << ",\"symbol\":" << json_quote(e.symbol)
         << ",\"kind\":" << static_cast<int>(e.kind)
         << ",\"par\":" << (e.parallel ? 1 : 0)
         << ",\"guard\":" << (e.guarded ? 1 : 0)
         << ",\"full\":" << (e.full_range ? 1 : 0)
         << ",\"alias\":" << (e.via_alias ? 1 : 0)
         << ",\"sched\":" << static_cast<int>(e.sched)
         << ",\"chunk\":" << e.chunk << ",\"blocked\":" << (e.blocked ? 1 : 0)
         << ",\"file\":" << json_quote(e.file) << ",\"line\":" << e.line
         << ",\"fn\":" << json_quote(e.touch_fn) << ",\"order\":";
      write_order(os, e.order);
      os << ",\"chain\":[";
      for (std::size_t m = 0; m < e.chain.size(); ++m) {
        const dataflow::Hop& h = e.chain[m];
        if (m > 0) os << ',';
        os << "{\"callee\":" << json_quote(h.callee)
           << ",\"file\":" << json_quote(h.file) << ",\"line\":" << h.line
           << '}';
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "]}}";
  return os.str();
}

// --- Deserialization (strict: any shape surprise aborts into a miss) ----

bool get_u64(const core::JsonNode& obj, std::string_view key,
             std::uint64_t* out) {
  const core::JsonNode* n = obj.find(key);
  if (n == nullptr || n->kind != core::JsonNode::Kind::kNumber) return false;
  *out = static_cast<std::uint64_t>(n->number);
  return true;
}

bool get_int(const core::JsonNode& obj, std::string_view key, int* out) {
  const core::JsonNode* n = obj.find(key);
  if (n == nullptr || n->kind != core::JsonNode::Kind::kNumber) return false;
  *out = static_cast<int>(n->number);
  return true;
}

bool get_str(const core::JsonNode& obj, std::string_view key,
             std::string* out) {
  const core::JsonNode* n = obj.find(key);
  if (n == nullptr || n->kind != core::JsonNode::Kind::kString) return false;
  *out = n->string;
  return true;
}

bool get_order(const core::JsonNode& obj, std::string_view key,
               std::pair<int, std::size_t>* out) {
  const core::JsonNode* n = obj.find(key);
  if (n == nullptr || n->kind != core::JsonNode::Kind::kArray ||
      n->items.size() != 2 ||
      n->items[0].kind != core::JsonNode::Kind::kNumber ||
      n->items[1].kind != core::JsonNode::Kind::kNumber) {
    return false;
  }
  out->first = static_cast<int>(n->items[0].number);
  out->second = static_cast<std::size_t>(n->items[1].number);
  return true;
}

const std::vector<core::JsonNode>* get_array(const core::JsonNode& obj,
                                             std::string_view key) {
  const core::JsonNode* n = obj.find(key);
  if (n == nullptr || n->kind != core::JsonNode::Kind::kArray) return nullptr;
  return &n->items;
}

bool parse_phase1(const core::JsonNode& root, FilePhase1* out) {
  int version = 0;
  if (!get_int(root, "version", &version) || version != kCacheVersion) {
    return false;
  }
  const core::JsonNode* stats = root.find("stats");
  if (stats == nullptr || stats->kind != core::JsonNode::Kind::kObject ||
      !get_u64(*stats, "files", &out->local.stats.files) ||
      !get_u64(*stats, "lines", &out->local.stats.lines) ||
      !get_u64(*stats, "tokens", &out->local.stats.tokens)) {
    return false;
  }
  const auto* findings = get_array(root, "findings");
  if (findings == nullptr) return false;
  for (const core::JsonNode& fj : *findings) {
    if (fj.kind != core::JsonNode::Kind::kObject) return false;
    core::StaticFinding f;
    int line = 0, decl = 0, kind = 0, expected = 0, suggested = 0;
    if (!get_str(fj, "file", &f.file) || !get_int(fj, "line", &line) ||
        !get_int(fj, "decl", &decl) || !get_str(fj, "variable", &f.variable) ||
        !get_int(fj, "kind", &kind) || !get_int(fj, "expected", &expected) ||
        !get_int(fj, "suggested", &suggested) ||
        !get_str(fj, "message", &f.message)) {
      return false;
    }
    if (kind < 0 || kind >= core::kLintKindCount) return false;
    f.line = static_cast<std::uint32_t>(line);
    f.decl_line = static_cast<std::uint32_t>(decl);
    f.kind = static_cast<core::LintKind>(kind);
    f.expected = static_cast<core::PatternKind>(expected);
    f.suggested = static_cast<core::Action>(suggested);
    out->local.findings.push_back(std::move(f));
  }
  const core::JsonNode* summary = root.find("summary");
  if (summary == nullptr || summary->kind != core::JsonNode::Kind::kObject ||
      !get_str(*summary, "file", &out->summary.file)) {
    return false;
  }
  const auto* globals = get_array(*summary, "globals");
  if (globals == nullptr) return false;
  for (const core::JsonNode& gj : *globals) {
    if (gj.kind != core::JsonNode::Kind::kObject) return false;
    ir::Global g;
    int line = 0, ext = 0;
    if (!get_str(gj, "name", &g.name) || !get_int(gj, "line", &line) ||
        !get_int(gj, "ext", &ext)) {
      return false;
    }
    g.line = static_cast<std::uint32_t>(line);
    g.is_extern = ext != 0;
    out->summary.globals.push_back(std::move(g));
  }
  const auto* functions = get_array(*summary, "functions");
  if (functions == nullptr) return false;
  for (const core::JsonNode& fj : *functions) {
    if (fj.kind != core::JsonNode::Kind::kObject) return false;
    dataflow::FunctionSummary fn;
    int line = 0;
    if (!get_str(fj, "name", &fn.name) || !get_str(fj, "file", &fn.file) ||
        !get_int(fj, "line", &line)) {
      return false;
    }
    fn.line = static_cast<std::uint32_t>(line);
    const auto* params = get_array(fj, "params");
    const auto* locals = get_array(fj, "locals");
    const auto* calls = get_array(fj, "calls");
    const auto* effects = get_array(fj, "effects");
    if (params == nullptr || locals == nullptr || calls == nullptr ||
        effects == nullptr) {
      return false;
    }
    for (const core::JsonNode& p : *params) {
      if (p.kind != core::JsonNode::Kind::kString) return false;
      fn.param_names.push_back(p.string);
    }
    for (const core::JsonNode& l : *locals) {
      if (l.kind != core::JsonNode::Kind::kString) return false;
      fn.local_allocs.push_back(l.string);
    }
    for (const core::JsonNode& cj : *calls) {
      if (cj.kind != core::JsonNode::Kind::kObject) return false;
      dataflow::Call c;
      int cline = 0, par = 0, guard = 0, sched = 0, blocked = 0;
      if (!get_str(cj, "callee", &c.callee) || !get_int(cj, "line", &cline) ||
          !get_int(cj, "par", &par) || !get_int(cj, "guard", &guard) ||
          !get_int(cj, "sched", &sched) || !get_int(cj, "chunk", &c.chunk) ||
          !get_int(cj, "blocked", &blocked) ||
          !get_order(cj, "order", &c.order)) {
        return false;
      }
      const auto* args = get_array(cj, "args");
      if (args == nullptr) return false;
      for (const core::JsonNode& aj : *args) {
        if (aj.kind != core::JsonNode::Kind::kString) return false;
        c.args.push_back(aj.string);
      }
      c.line = static_cast<std::uint32_t>(cline);
      c.parallel = par != 0;
      c.guarded = guard != 0;
      c.sched = static_cast<ir::Schedule>(sched);
      c.blocked = blocked != 0;
      fn.calls.push_back(std::move(c));
    }
    for (const core::JsonNode& ej : *effects) {
      if (ej.kind != core::JsonNode::Kind::kObject) return false;
      dataflow::Effect e;
      int target = 0, kind = 0, line2 = 0, par = 0, guard = 0, full = 0,
          alias = 0, sched = 0, blocked = 0;
      if (!get_int(ej, "target", &target) || !get_int(ej, "param", &e.param) ||
          !get_str(ej, "symbol", &e.symbol) || !get_int(ej, "kind", &kind) ||
          !get_int(ej, "par", &par) || !get_int(ej, "guard", &guard) ||
          !get_int(ej, "full", &full) || !get_int(ej, "alias", &alias) ||
          !get_int(ej, "sched", &sched) || !get_int(ej, "chunk", &e.chunk) ||
          !get_int(ej, "blocked", &blocked) || !get_str(ej, "file", &e.file) ||
          !get_int(ej, "line", &line2) || !get_str(ej, "fn", &e.touch_fn) ||
          !get_order(ej, "order", &e.order)) {
        return false;
      }
      const auto* chain = get_array(ej, "chain");
      if (chain == nullptr) return false;
      for (const core::JsonNode& hj : *chain) {
        if (hj.kind != core::JsonNode::Kind::kObject) return false;
        dataflow::Hop h;
        int hline = 0;
        if (!get_str(hj, "callee", &h.callee) ||
            !get_str(hj, "file", &h.file) || !get_int(hj, "line", &hline)) {
          return false;
        }
        h.line = static_cast<std::uint32_t>(hline);
        e.chain.push_back(std::move(h));
      }
      e.target = static_cast<dataflow::Effect::Target>(target);
      e.kind = static_cast<ir::TouchKind>(kind);
      e.parallel = par != 0;
      e.guarded = guard != 0;
      e.full_range = full != 0;
      e.via_alias = alias != 0;
      e.sched = static_cast<ir::Schedule>(sched);
      e.blocked = blocked != 0;
      e.file = ej.find("file")->string;
      e.line = static_cast<std::uint32_t>(line2);
      fn.effects.push_back(std::move(e));
    }
    out->summary.functions.push_back(std::move(fn));
  }
  return true;
}

std::string entry_name(std::uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx.json",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

std::uint64_t phase1_cache_key(std::string_view file,
                               std::string_view content) noexcept {
  std::uint64_t h = support::fnv1a64(file);
  h = support::fnv1a64(std::string_view("\0", 1), h);
  return support::fnv1a64(content, h);
}

std::optional<FilePhase1> load_phase1_cache(const std::string& dir,
                                            std::uint64_t key) {
  const std::filesystem::path path =
      std::filesystem::path(dir) / entry_name(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto root = core::parse_json(buffer.str(), &error);
  if (!root || root->kind != core::JsonNode::Kind::kObject) {
    return std::nullopt;
  }
  FilePhase1 out;
  if (!parse_phase1(*root, &out)) return std::nullopt;
  return out;
}

void store_phase1_cache(const std::string& dir, std::uint64_t key,
                        const FilePhase1& artifact, unsigned salt) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path final_path =
      std::filesystem::path(dir) / entry_name(key);
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp" + std::to_string(salt);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << render(artifact);
    if (!out) {
      out.close();
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) std::filesystem::remove(tmp_path, ec);
}

}  // namespace numaprof::lint
