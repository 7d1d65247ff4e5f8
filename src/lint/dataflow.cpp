#include "lint/dataflow.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace numaprof::lint::dataflow {

namespace {

using core::Action;
using core::LintKind;
using core::PatternKind;
using core::StaticFinding;

constexpr std::size_t kMaxChain = 6;  // provenance depth cap (breaks cycles)
constexpr int kMaxRounds = 8;

Effect::Target classify_target(const FunctionSummary& fn,
                               const std::string& symbol, int* param_out) {
  for (std::size_t i = 0; i < fn.param_names.size(); ++i) {
    if (!fn.param_names[i].empty() && fn.param_names[i] == symbol) {
      *param_out = static_cast<int>(i);
      return Effect::Target::kParam;
    }
  }
  *param_out = -1;
  for (const std::string& l : fn.local_allocs) {
    if (l == symbol) return Effect::Target::kLocal;
  }
  return Effect::Target::kGlobal;
}

/// One namespace of program-wide symbols under C++ linkage. An external
/// symbol is known by its bare name, an internal one by "<file>#<name>",
/// where <file> is its file's index in path order, so two files' statics
/// never meet. A name used in a file resolves to that file's internal
/// symbol, else the external one, else the first internal one in path
/// order (a header's `static` helper seen from a file that includes it).
template <typename T>
class Linkage {
 public:
  /// The entry of the symbol a definition in `file` declares.
  T& define(std::size_t file, const std::string& name, bool internal) {
    if (!internal) return by_id_[name];
    std::string id = qualified(file, name);
    first_internal_.emplace(name, id);
    return by_id_[std::move(id)];
  }

  /// The identity `name` denotes in `file`; empty when nothing defines it.
  std::string resolve(std::size_t file, const std::string& name) const {
    std::string own = qualified(file, name);
    if (by_id_.count(own) > 0) return own;
    if (by_id_.count(name) > 0) return name;
    const auto it = first_internal_.find(name);
    return it == first_internal_.end() ? std::string() : it->second;
  }

  const T* find(const std::string& id) const {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : &it->second;
  }

 private:
  static std::string qualified(std::size_t file, const std::string& name) {
    return std::to_string(file) + "#" + name;
  }

  std::map<std::string, T> by_id_;
  std::map<std::string, std::string> first_internal_;
};

/// Where a global is declared; a definition wins over an extern one.
struct Decl {
  std::string file;
  std::uint32_t line = 0;
  bool is_extern = false;
};

/// Dedup key for an effect within one function; chain and order are
/// deliberately excluded so the shortest provenance (found in the
/// earliest fixpoint round) wins and re-derivations are dropped.
std::string effect_key(const Effect& e) {
  std::ostringstream os;
  os << static_cast<int>(e.target) << '|' << e.param << '|' << e.symbol << '|'
     << static_cast<int>(e.kind) << '|' << e.parallel << e.guarded
     << e.full_range << e.via_alias << e.blocked << '|'
     << static_cast<int>(e.sched) << '|' << e.chunk << '|' << e.file << ':'
     << e.line << '|' << e.global_id;
  return os.str();
}

bool partitioned(ir::Schedule s) {
  return s == ir::Schedule::kStaticBlock || s == ir::Schedule::kStaticChunk ||
         s == ir::Schedule::kDynamic;
}

bool schedules_mismatch(const Effect& a, const Effect& b) {
  if (!partitioned(a.sched) || !partitioned(b.sched)) return false;
  if (a.sched != b.sched) return true;
  return a.sched == ir::Schedule::kStaticChunk && a.chunk != b.chunk;
}

/// A symbol's aggregated evidence: every effect anywhere in the program
/// that lands on it, with the function owning each.
struct Site {
  const FunctionSummary* fn = nullptr;
  const Effect* e = nullptr;
};

std::string render_chain(const FunctionSummary& owner, const Effect& e) {
  if (e.chain.empty()) return {};
  std::string out = " via " + owner.name;
  for (const Hop& h : e.chain) {
    out += " -> " + h.callee;
  }
  return out;
}

std::string site_str(const Effect& e) {
  return e.file + ":" + std::to_string(e.line) + " (" + e.touch_fn + ")";
}

std::string sched_str(const Effect& e) {
  std::string s(lint::to_string(e.sched));
  if (e.sched == ir::Schedule::kStaticChunk && e.chunk > 0) {
    s.append(",").append(std::to_string(e.chunk));
  }
  return s;
}

}  // namespace

FileSummary summarize(const ir::FileIr& ir) {
  FileSummary out;
  out.file = ir.file;
  out.globals = ir.globals;
  for (const ir::Function& fn : ir.functions) {
    FunctionSummary fs;
    fs.name = fn.name;
    fs.file = fn.file;
    fs.line = fn.line;
    fs.internal = fn.internal;
    for (const ir::Param& p : fn.params) fs.param_names.push_back(p.name);
    fs.local_allocs = fn.local_allocs;
    for (const ir::CallSite& c : fn.calls) {
      Call call;
      call.callee = c.callee;
      call.line = c.line;
      call.args = c.args;
      call.parallel = c.parallel;
      call.guarded = c.thread_guarded;
      call.sched = c.sched;
      call.chunk = c.chunk;
      call.blocked = c.blocked;
      call.order = fn.order_of(c.block, c.pos);
      fs.calls.push_back(std::move(call));
    }
    for (const ir::Touch& t : fn.touches) {
      Effect e;
      e.symbol = t.symbol;
      e.target = classify_target(fs, t.symbol, &e.param);
      e.kind = t.kind;
      e.parallel = t.parallel;
      e.guarded = t.thread_guarded;
      e.full_range = t.full_range;
      e.via_alias = t.via_alias;
      e.sched = t.sched;
      e.chunk = t.chunk;
      e.blocked = t.blocked;
      e.file = fn.file;
      e.line = t.line;
      e.touch_fn = fn.name;
      e.order = fn.order_of(t.block, t.pos);
      fs.effects.push_back(std::move(e));
    }
    out.functions.push_back(std::move(fs));
  }
  return out;
}

std::vector<StaticFinding> propagate_and_check(std::vector<FileSummary> files) {
  // Deterministic processing order regardless of how summaries arrived.
  std::sort(files.begin(), files.end(),
            [](const FileSummary& a, const FileSummary& b) {
              return a.file < b.file;
            });

  // Whole-program symbol tables, then every global effect's identity.
  Linkage<std::optional<Decl>> globals;
  Linkage<FunctionSummary*> functions;
  for (std::size_t file = 0; file < files.size(); ++file) {
    for (const ir::Global& g : files[file].globals) {
      std::optional<Decl>& decl = globals.define(file, g.name, g.internal);
      if (!decl || (decl->is_extern && !g.is_extern)) {
        decl = Decl{files[file].file, g.line, g.is_extern};
      }
    }
    for (FunctionSummary& fn : files[file].functions) {
      FunctionSummary*& slot = functions.define(file, fn.name, fn.internal);
      if (slot == nullptr) slot = &fn;  // first definition in path order
    }
  }
  for (std::size_t file = 0; file < files.size(); ++file) {
    for (FunctionSummary& fn : files[file].functions) {
      for (Effect& e : fn.effects) {
        if (e.target == Effect::Target::kGlobal) {
          e.global_id = globals.resolve(file, e.symbol);
        }
      }
    }
  }

  // Fixpoint: lift callee effects into callers.
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (std::size_t file = 0; file < files.size(); ++file) {
      for (FunctionSummary& fn : files[file].functions) {
        std::set<std::string> seen;
        for (const Effect& e : fn.effects) seen.insert(effect_key(e));
        for (const Call& c : fn.calls) {
          FunctionSummary* const* hit =
              functions.find(functions.resolve(file, c.callee));
          if (hit == nullptr) continue;
          const FunctionSummary& callee = **hit;
          // Snapshot size: the callee may be this very function.
          const std::size_t ne = callee.effects.size();
          for (std::size_t k = 0; k < ne; ++k) {
            const Effect& e = callee.effects[k];
            if (e.chain.size() >= kMaxChain) continue;
            Effect lifted = e;
            if (e.target == Effect::Target::kParam) {
              if (e.param < 0 ||
                  static_cast<std::size_t>(e.param) >= c.args.size()) {
                continue;
              }
              const std::string& sym = c.args[static_cast<std::size_t>(e.param)];
              if (sym.empty()) continue;
              // A one-hop pointer handoff stays "cross-function" (L5);
              // via_alias is reserved for touches that were themselves
              // alias-obscured inside the callee.
              lifted.symbol = sym;
              lifted.target = classify_target(fn, sym, &lifted.param);
              lifted.global_id = lifted.target == Effect::Target::kGlobal
                                     ? globals.resolve(file, sym)
                                     : std::string();
            } else if (e.target == Effect::Target::kGlobal) {
              // Lift globals only to correct the context: a serial helper
              // called from a parallel loop touches in parallel.
              if (!(c.parallel && !c.guarded && !e.parallel)) continue;
            } else {
              continue;  // locals never escape their function
            }
            if (c.parallel && !c.guarded && !e.parallel) {
              lifted.parallel = true;
              lifted.sched = c.sched;
              lifted.chunk = c.chunk;
              lifted.blocked = c.blocked;
              lifted.full_range = e.full_range || !c.blocked;
            }
            lifted.guarded = e.guarded || c.guarded;
            lifted.order = c.order;
            lifted.chain.clear();
            lifted.chain.push_back(Hop{callee.name, fn.file, c.line});
            lifted.chain.insert(lifted.chain.end(), e.chain.begin(),
                                e.chain.end());
            const std::string key = effect_key(lifted);
            if (seen.count(key) > 0) continue;
            seen.insert(key);
            fn.effects.push_back(std::move(lifted));
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }

  // Aggregate per root symbol. Globals key by identity; locals by the
  // frame that owns the allocation.
  std::map<std::string, std::vector<Site>> by_symbol;
  for (const FileSummary& f : files) {
    for (const FunctionSummary& fn : f.functions) {
      for (const Effect& e : fn.effects) {
        std::string key;
        if (e.target == Effect::Target::kGlobal && !e.global_id.empty()) {
          key = "g:" + e.global_id;
        } else if (e.target == Effect::Target::kLocal) {
          key = "l:" + fn.file + "#" + fn.name + "#" + e.symbol;
        } else {
          continue;  // unbound parameter effects only matter once lifted
        }
        by_symbol[key].push_back(Site{&fn, &e});
      }
    }
  }

  std::vector<StaticFinding> findings;
  for (const auto& [key, sites] : by_symbol) {
    const std::string variable = sites.front().e->symbol;

    std::vector<Site> serial_writes, par_writes, par_reads, allocs;
    for (const Site& s : sites) {
      switch (s.e->kind) {
        case ir::TouchKind::kAlloc:
          allocs.push_back(s);
          break;
        case ir::TouchKind::kWrite:
          if (s.e->parallel && !s.e->guarded) {
            par_writes.push_back(s);
          } else {
            serial_writes.push_back(s);
          }
          break;
        case ir::TouchKind::kRead:
          if (s.e->parallel && !s.e->guarded) par_reads.push_back(s);
          break;
      }
    }

    // Allocation origin for provenance and decl_line.
    std::string alloc_site;
    std::uint32_t decl_line = 0;
    if (key[0] == 'g') {
      if (const std::optional<Decl>* decl = globals.find(key.substr(2))) {
        alloc_site = (*decl)->file + ":" + std::to_string((*decl)->line);
        decl_line = (*decl)->line;
      }
    }
    if (!allocs.empty()) {
      const Effect& a = *allocs.front().e;
      alloc_site = a.file + ":" + std::to_string(a.line) + " (" + a.touch_fn +
                   ")";
      decl_line = a.line;
    }
    const std::string alloc_text =
        alloc_site.empty() ? std::string("allocated externally")
                           : "allocated at " + alloc_site;

    // --- L6: parallel init vs parallel consume, different partitioning.
    if (!par_writes.empty()) {
      const Site* init = nullptr;
      const Site* consumer = nullptr;
      for (const Site& w : par_writes) {
        for (const Site& c : par_reads) {
          if (schedules_mismatch(*w.e, *c.e)) {
            init = &w;
            consumer = &c;
            break;
          }
        }
        if (init == nullptr) {
          for (const Site& c : par_writes) {
            if (c.e != w.e && schedules_mismatch(*w.e, *c.e) &&
                w.e->order < c.e->order) {
              init = &w;
              consumer = &c;
              break;
            }
          }
        }
        if (init != nullptr) break;
      }
      if (init != nullptr && consumer != nullptr) {
        StaticFinding f;
        f.file = init->e->file;
        f.line = init->e->line;
        f.decl_line = decl_line;
        f.variable = variable;
        f.kind = LintKind::kScheduleMismatch;
        f.expected = PatternKind::kIrregular;
        f.suggested = consumer->e->sched == ir::Schedule::kDynamic
                          ? Action::kInterleave
                          : Action::kBlockwiseFirstTouch;
        f.message =
            variable + ": parallel-initialized at " + site_str(*init->e) +
            " with schedule(" + sched_str(*init->e) + ") but consumed at " +
            site_str(*consumer->e) + " with schedule(" +
            sched_str(*consumer->e) +
            "); the first-touch thread differs from the consuming thread, "
            "so pages land on the wrong domain. Align both schedules" +
            (f.suggested == Action::kInterleave
                 ? " or interleave the allocation."
                 : " (static, same chunking) so init places each block on "
                   "its consumer.");
        findings.push_back(std::move(f));
      }
    }

    // --- First-touch family: a serial write that nothing parallel
    // precedes (orderable only within one function), plus parallel use.
    if (serial_writes.empty() || (par_reads.empty() && par_writes.empty())) {
      continue;
    }
    const Site* sw = nullptr;
    for (const Site& s : serial_writes) {
      bool preceded = false;
      for (const Site& p : par_writes) {
        if (p.fn == s.fn && p.e->order < s.e->order) preceded = true;
      }
      if (preceded) continue;
      if (sw == nullptr) {
        sw = &s;
        continue;
      }
      const auto rank = [](const Site& x) {
        return std::make_tuple(x.e->chain.size(), x.e->file, x.fn->line,
                               x.e->order);
      };
      if (rank(s) < rank(*sw)) sw = &s;
    }
    if (sw == nullptr) continue;

    const Site* consumer =
        !par_reads.empty() ? &par_reads.front() : &par_writes.front();
    for (const Site& c : par_reads) {
      if (c.e->file < consumer->e->file ||
          (c.e->file == consumer->e->file && c.e->line < consumer->e->line)) {
        consumer = &c;
      }
    }

    bool all_reads_full = !par_reads.empty();
    for (const Site& r : par_reads) {
      if (!r.e->full_range) all_reads_full = false;
    }

    LintKind kind;
    if (par_writes.empty() && all_reads_full) {
      kind = LintKind::kReadMostly;
    } else if (sw->e->via_alias || sw->e->chain.size() >= 2) {
      kind = LintKind::kAliasHiddenInit;
    } else if (!sw->e->chain.empty() || sw->e->file != consumer->e->file ||
               sw->e->touch_fn != consumer->e->touch_fn) {
      kind = LintKind::kCrossSerialInit;
    } else {
      continue;  // same-function serial init is the per-TU L1's territory
    }

    StaticFinding f;
    f.file = sw->e->file;
    f.line = sw->e->line;
    f.decl_line = decl_line;
    f.variable = variable;
    f.kind = kind;
    if (kind == LintKind::kReadMostly) {
      f.expected = PatternKind::kFullRange;
      f.suggested = Action::kInterleave;
    } else {
      f.expected = consumer->e->sched == ir::Schedule::kDynamic
                       ? PatternKind::kIrregular
                       : (consumer->e->full_range ? PatternKind::kFullRange
                                                  : PatternKind::kBlocked);
      f.suggested = consumer->e->sched == ir::Schedule::kDynamic
                        ? Action::kInterleave
                        : Action::kBlockwiseFirstTouch;
    }

    std::ostringstream msg;
    msg << variable << ": " << alloc_text << "; first touched serially at "
        << site_str(*sw->e) << render_chain(*sw->fn, *sw->e);
    if (sw->e->via_alias && !sw->e->chain.empty()) {
      msg << " (pointer handed through the call chain before init)";
    } else if (sw->e->via_alias) {
      msg << " (through a pointer alias)";
    }
    msg << "; consumed in parallel at " << site_str(*consumer->e);
    if (partitioned(consumer->e->sched)) {
      msg << " with schedule(" << sched_str(*consumer->e) << ")";
    }
    msg << ". ";
    switch (kind) {
      case LintKind::kReadMostly:
        msg << "Every thread reads the whole extent but only one thread "
               "ever writes it: a replication candidate — interleave the "
               "pages (or replicate per domain) instead of leaving them on "
               "the initializing thread's node.";
        break;
      case LintKind::kAliasHiddenInit:
        msg << "The first touch is hidden behind a pointer handoff, so the "
               "allocation site looks clean while every page still lands "
               "on the initializing thread's domain. Move initialization "
               "into a parallel loop matching the consumer's partitioning.";
        break;
      case LintKind::kCrossSerialInit:
      case LintKind::kSerialFirstTouch:
      case LintKind::kFalseSharing:
      case LintKind::kStackEscape:
      case LintKind::kInterleaveMisuse:
      case LintKind::kScheduleMismatch:
        msg << "All pages land on the initializing thread's domain; "
               "initialize in parallel with the consumer's partitioning so "
               "each block is first touched by the thread that uses it.";
        break;
    }
    f.message = msg.str();
    findings.push_back(std::move(f));
  }

  sort_findings(findings);
  return findings;
}

void sort_findings(std::vector<StaticFinding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const StaticFinding& a, const StaticFinding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.variable != b.variable) return a.variable < b.variable;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

}  // namespace numaprof::lint::dataflow
