#include "lint/numalint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "core/export/writer_util.hpp"
#include "lint/dataflow.hpp"
#include "lint/lexer.hpp"
#include "lint/regions.hpp"
#include "support/parallel.hpp"

namespace numaprof::lint {

namespace {

using core::Action;
using core::export_detail::json_quote;
using core::LintKind;
using core::PatternKind;
using core::StaticFinding;
using ir::Touch;
using ir::VarDecl;

/// The per-file checks L1-L4: a query over the file's touches, grouped
/// by the declared variable each resolves to.
std::vector<StaticFinding> local_findings(const ir::FileIr& ir) {
  // A body the IR walks twice (a construct nested in a function that
  // also reads as a function) still reads each access once.
  std::vector<std::vector<const Touch*>> touches(ir.vars.size());
  std::set<std::pair<std::size_t, int>> seen;
  for (const ir::Function& fn : ir.functions) {
    for (const Touch& t : fn.touches) {
      if (t.var < 0 || t.kind == ir::TouchKind::kAlloc) continue;
      if (!seen.emplace(t.pos, t.var).second) continue;
      touches[static_cast<std::size_t>(t.var)].push_back(&t);
    }
  }
  const auto by_line = [](const Touch* a, const Touch* b) {
    return a->line < b->line;
  };
  std::vector<StaticFinding> findings;
  for (std::size_t vi = 0; vi < ir.vars.size(); ++vi) {
    const VarDecl& v = ir.vars[vi];
    std::vector<const Touch*> serial_writes, par_acc, par_writes;
    std::set<std::string> par_regions;
    bool any_indirect = false, any_soa = false, any_per_thread_write = false;
    bool any_blocked_region = false, any_round_robin = false;
    for (const Touch* a : touches[vi]) {
      const bool write = a->kind == ir::TouchKind::kWrite;
      const bool serial_ctx = !a->parallel || a->thread_guarded;
      if (write && serial_ctx) serial_writes.push_back(a);
      if (!serial_ctx) {
        par_acc.push_back(a);
        if (write) par_writes.push_back(a);
        if (a->index.indirect) any_indirect = true;
        if (write && a->index.per_thread) any_per_thread_write = true;
        const Region& r = ir.regions[static_cast<std::size_t>(a->region)];
        par_regions.insert(r.name.empty() ? "<anonymous>" : r.name);
        if (r.partitioned) any_blocked_region = true;
        if (r.round_robin) any_round_robin = true;
      }
      if (a->index.soa) any_soa = true;
    }
    if (par_acc.empty()) continue;

    // Statically predicted dynamic pattern + the matching fix.
    PatternKind expected = PatternKind::kIrregular;
    Action suggested = Action::kBlockwiseFirstTouch;
    if (any_soa) {
      expected = PatternKind::kStaggeredOverlap;
      suggested = Action::kRegroupAos;
    } else if (any_indirect) {
      expected = PatternKind::kFullRange;
      suggested = Action::kInterleave;
    } else if (any_blocked_region) {
      expected = PatternKind::kBlocked;
      suggested = Action::kBlockwiseFirstTouch;
    } else if (any_round_robin) {
      expected = PatternKind::kFullRange;
      suggested = Action::kBlockwiseFirstTouch;
    }

    std::string regions_str;
    for (const std::string& r : par_regions) {
      if (!regions_str.empty()) regions_str += ", ";
      regions_str += "'" + r + "'";
    }
    const auto report = [&](LintKind kind, std::uint32_t line,
                            PatternKind pattern, Action action,
                            std::string message) {
      findings.push_back(StaticFinding{ir.file, line, v.line, v.name, kind,
                                       pattern, action, std::move(message)});
    };

    // L1: serial initialization feeding parallel consumers.
    if (!serial_writes.empty() &&
        (v.storage == VarDecl::kHeap || v.storage == VarDecl::kStatic ||
         v.storage == VarDecl::kStackReg)) {
      const Touch* first = *std::min_element(serial_writes.begin(),
                                            serial_writes.end(), by_line);
      std::ostringstream msg;
      msg << "'" << v.name << "' is written by serial code ("
          << serial_writes.size() << " site"
          << (serial_writes.size() == 1 ? "" : "s")
          << ") but consumed by parallel region"
          << (par_regions.size() == 1 ? " " : "s ") << regions_str
          << "; first touch homes every page in the initializing thread's "
             "domain";
      report(LintKind::kSerialFirstTouch, first->line, expected, suggested,
             msg.str());
    }

    // L3: a stack array escaping into parallel regions.
    if ((v.storage == VarDecl::kStack || v.storage == VarDecl::kStackReg)) {
      const Touch* first =
          *std::min_element(par_acc.begin(), par_acc.end(), by_line);
      std::ostringstream msg;
      msg << "stack array '" << v.name << "' escapes into parallel region"
          << (par_regions.size() == 1 ? " " : "s ") << regions_str
          << "; its pages live on one thread's stack and cannot be "
             "re-homed — promote it to static/heap data first";
      report(LintKind::kStackEscape, first->line, expected, suggested,
             msg.str());
    }

    // L2: per-thread-written elements packed within one cache line.
    if (any_per_thread_write && v.elem_size > 0 && v.elem_size < 64) {
      const Touch* first = nullptr;
      for (const Touch* a : par_writes) {
        if (a->index.per_thread &&
            (first == nullptr || a->line < first->line)) {
          first = a;
        }
      }
      if (first != nullptr) {
        std::ostringstream msg;
        msg << "'" << v.name << "' packs " << v.elem_size
            << "-byte per-thread-written elements within one 64-byte cache "
               "line; pad or align each thread's element to a full line";
        report(LintKind::kFalseSharing, first->line, PatternKind::kBlocked,
               Action::kPadAlign, msg.str());
      }
    }

    // L4: interleaving an array whose every parallel access is
    // block-local (the §8.1 POWER7 regression).
    if (v.policy.interleave && !any_indirect && !any_soa &&
        (any_blocked_region || !par_writes.empty())) {
      report(LintKind::kInterleaveMisuse, v.line, PatternKind::kBlocked,
             Action::kBlockwiseFirstTouch,
             "'" + v.name +
                 "' may be allocated interleaved, but its parallel accesses "
                 "are block-local; interleaving forfeits natural block "
                 "locality — prefer a blockwise parallel first touch");
    }
  }
  // Deduplicate identical findings.
  std::set<std::tuple<std::string, std::uint32_t, std::string, int>> keys;
  std::vector<StaticFinding> unique;
  for (StaticFinding& f : findings) {
    auto key = std::make_tuple(f.file, f.line, f.variable,
                               static_cast<int>(f.kind));
    if (keys.insert(key).second) unique.push_back(std::move(f));
  }
  dataflow::sort_findings(unique);
  return unique;
}

/// Folds phase-1 parts in the given order, then runs phase 2: the
/// whole-program propagation is serial and deterministic, so the result
/// depends only on the parts, never on how many threads produced them.
LintResult fold(std::vector<FilePhase1> parts) {
  LintResult out;
  std::vector<ir::FileIr> irs;
  irs.reserve(parts.size());
  for (FilePhase1& one : parts) {
    out.stats.files += one.local.stats.files;
    out.stats.lines += one.local.stats.lines;
    out.stats.tokens += one.local.stats.tokens;
    out.findings.insert(out.findings.end(),
                        std::make_move_iterator(one.local.findings.begin()),
                        std::make_move_iterator(one.local.findings.end()));
    irs.push_back(std::move(one.ir));
  }
  std::vector<StaticFinding> inter =
      dataflow::propagate_and_check(std::move(irs));
  out.findings.insert(out.findings.end(),
                      std::make_move_iterator(inter.begin()),
                      std::make_move_iterator(inter.end()));
  dataflow::sort_findings(out.findings);
  return out;
}

}  // namespace

FilePhase1 lint_file_phase1(std::string_view source, std::string file) {
  const TokenStream tokens(source);
  FilePhase1 out;
  out.local.stats = {1, tokens.lines(), tokens.size()};
  out.ir = ir::build_ir(tokens, scan_parallel(tokens), std::move(file));
  out.local.findings = local_findings(out.ir);
  return out;
}

LintResult lint_source(std::string_view source, std::string file) {
  std::vector<FilePhase1> parts;
  parts.push_back(lint_file_phase1(source, std::move(file)));
  return fold(std::move(parts));
}

bool lintable_file(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string ext = p.extension().string();
  return ext == ".c" || ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
         ext == ".h" || ext == ".hh" || ext == ".hpp";
}

LintResult lint_paths(const std::vector<std::string>& paths,
                      const numaprof::PipelineOptions& options) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(
               path, std::filesystem::directory_options::skip_permission_denied,
               ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable_file(it->path().string())) {
          files.push_back(it->path().string());
        }
      }
    } else if (std::filesystem::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      throw LintError(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Phase 1: lint every file into its slot, then fold in path order — the
  // fold order (not completion order) defines the output, so any jobs
  // value yields the serial result.
  std::vector<FilePhase1> parts(files.size());
  const auto lint_one = [&files, &parts](std::size_t i) {
    std::ifstream in(files[i], std::ios::binary);
    if (!in) return;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Report paths by filename to keep findings stable across checkouts.
    parts[i] = lint_file_phase1(
        buffer.str(), std::filesystem::path(files[i]).filename().string());
  };
  support::parallel_for_each(options.jobs, files.size(), lint_one);
  return fold(std::move(parts));
}

std::optional<Severity> parse_werror(const support::CliParser& cli) {
  if (!cli.has("--werror")) return std::nullopt;
  return cli.choice("--werror",
                    {{"note", Severity::kNote},
                     {"warning", Severity::kWarning},
                     {"error", Severity::kError}},
                    Severity::kWarning);
}

bool any_at_or_above(const std::vector<StaticFinding>& findings,
                     Severity threshold) noexcept {
  return std::any_of(findings.begin(), findings.end(),
                     [threshold](const StaticFinding& f) {
                       return severity_of(f.kind) >= threshold;
                     });
}

std::string_view kind_code(LintKind kind) noexcept {
  switch (kind) {
    case LintKind::kSerialFirstTouch: return "L1";
    case LintKind::kFalseSharing: return "L2";
    case LintKind::kStackEscape: return "L3";
    case LintKind::kInterleaveMisuse: return "L4";
    case LintKind::kCrossSerialInit: return "L5";
    case LintKind::kScheduleMismatch: return "L6";
    case LintKind::kAliasHiddenInit: return "L7";
    case LintKind::kReadMostly: return "L8";
  }
  return "L?";
}

std::string render_findings(const std::vector<StaticFinding>& findings) {
  std::ostringstream os;
  for (const StaticFinding& f : findings) {
    os << f.file << ":" << f.line << " [" << kind_code(f.kind) << " "
       << to_string(f.kind) << "] " << f.variable << "\n"
       << "    expected " << to_string(f.expected) << ", suggest "
       << to_string(f.suggested) << " (declared at line " << f.decl_line
       << ")\n"
       << "    " << f.message << "\n";
  }
  if (findings.empty()) os << "no findings\n";
  return os.str();
}

std::string render_findings_json(const std::vector<StaticFinding>& findings) {
  std::ostringstream os;
  for (const StaticFinding& f : findings) {
    os << "{\"file\":" << json_quote(f.file) << ",\"line\":" << f.line
       << ",\"decl-line\":" << f.decl_line
       << ",\"variable\":" << json_quote(f.variable)
       << ",\"code\":" << json_quote(kind_code(f.kind))
       << ",\"kind\":" << json_quote(to_string(f.kind))
       << ",\"expected\":" << json_quote(to_string(f.expected))
       << ",\"suggested\":" << json_quote(to_string(f.suggested))
       << ",\"message\":" << json_quote(f.message) << "}\n";
  }
  return os.str();
}

}  // namespace numaprof::lint
