#include "lint/ir.hpp"

#include <algorithm>
#include <set>

#include "lint/regions.hpp"

namespace numaprof::lint::ir {

int Function::param_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool Function::is_local_alloc(std::string_view name) const noexcept {
  for (const std::string& l : local_allocs) {
    if (l == name) return true;
  }
  return false;
}

std::pair<int, std::size_t> Function::order_of(int block,
                                               std::size_t pos) const {
  const int rpo =
      block >= 0 && static_cast<std::size_t>(block) < blocks.size()
          ? blocks[static_cast<std::size_t>(block)].rpo
          : 0;
  return {rpo, pos};
}

namespace {

/// Functions we never treat as user call sites: language keywords, libc
/// memory/IO helpers, the simulator DSL's structural forms, and OpenMP
/// runtime queries. Anything else named `f(...)` becomes a CallSite.
bool is_blocked_callee(const std::string& s) {
  static const std::set<std::string> blocked = {
      "malloc",        "free",          "calloc",        "realloc",
      "memset",        "memcpy",        "memmove",       "printf",
      "fprintf",       "snprintf",      "sprintf",       "puts",
      "exit",          "abort",         "assert",        "defined",
      "static_cast",   "dynamic_cast",  "reinterpret_cast", "const_cast",
      "parallel_region", "parallel_for", "block_slice",  "elem_addr",
      "store_lines",   "load_lines",    "to_string",     "move",
      "omp_get_thread_num", "omp_get_num_threads", "omp_get_max_threads",
      "omp_set_num_threads", "omp_get_wtime"};
  return is_keyword(s) || is_type_name(s) || known_linear_call(s) ||
         blocked.count(s) > 0;
}

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  const std::string& s = t.text;
  return s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
         s == "%=" || s == "&=" || s == "|=" || s == "^=" || s == "<<=" ||
         s == ">>=";
}

/// Parallel context at a token position, resolved from the innermost
/// enclosing region plus any thread-guard range.
struct Ctx {
  bool parallel = false;
  bool guarded = false;
  Schedule sched = Schedule::kNone;
  int chunk = 0;
  bool blocked = false;
  std::string loop_var;  // omp-for induction variable, if known
};

class IrBuilder {
 public:
  IrBuilder(const TokenStream& ts, const ParallelScan& scan, std::string file)
      : ts_(ts), scan_(scan) {
    ir_.file = std::move(file);
  }

  FileIr build() {
    collect_scopes();
    collect_globals();
    collect_functions();
    return std::move(ir_);
  }

 private:
  std::size_t n() const { return ts_.size(); }
  const Token& tok(std::size_t i) const { return ts_[i]; }
  bool valid(std::size_t i) const { return ts_.valid(i); }

  Ctx ctx_at(std::size_t pos) const {
    Ctx c;
    const Region* r = scan_.region_at(pos);
    if (r != nullptr && r->parallel) {
      c.parallel = true;
      c.sched = r->sched;
      c.chunk = r->chunk;
      c.blocked = r->blocked;
      c.loop_var = r->loop_var;
    }
    c.guarded = scan_.guarded(pos);
    return c;
  }

  // -- linkage ----------------------------------------------------------

  /// Records the innermost enclosing '{' of every token (SIZE_MAX at file
  /// scope); an opener's own entry is its parent, so chains terminate.
  void collect_scopes() {
    scope_.assign(n(), SIZE_MAX);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < n(); ++i) {
      while (!open.empty() && ts_.matching(open.back()) < i) open.pop_back();
      if (!open.empty()) scope_[i] = open.back();
      if (tok(i).is_punct("{") && ts_.matching(i) < n()) open.push_back(i);
    }
  }

  /// Internal linkage of a declaration at `pos`: anything inside an
  /// unnamed namespace, or a `static` one directly at namespace scope (a
  /// `static` class member is not internal).
  bool internal_linkage(std::size_t pos, bool is_static) const {
    const std::size_t inner = scope_[pos];
    if (is_static && (inner == SIZE_MAX || ts_.brace_kind(inner) == 'n')) {
      return true;
    }
    for (std::size_t b = inner; b != SIZE_MAX; b = scope_[b]) {
      if (b > 0 && tok(b - 1).is_ident("namespace")) return true;
    }
    return false;
  }

  /// True if the declaration whose name is at `name_at` says `static`.
  bool declared_static(std::size_t name_at) const {
    for (std::size_t k = ts_.stmt_start(name_at); k < name_at; ++k) {
      if (tok(k).is_punct("#")) {
        k = ts_.skip_directive(k) - 1;
      } else if (tok(k).is_ident("static")) {
        return true;
      }
    }
    return false;
  }

  // -- globals ----------------------------------------------------------

  void collect_globals() {
    std::size_t i = 0;
    int guard = 0;
    const int max_iter = static_cast<int>(n()) * 2 + 16;
    while (i < n() && guard++ < max_iter) {
      const Token& t = tok(i);
      if (t.is_punct("#")) {
        i = ts_.skip_directive(i);
        continue;
      }
      if (t.is_punct("{")) {
        if (ts_.brace_kind(i) == 'n') {
          ++i;  // descend into namespaces
        } else {
          i = ts_.matching(i) < n() ? ts_.matching(i) + 1 : i + 1;
        }
        continue;
      }
      if (t.is_punct("}") || t.is_punct(";")) {
        ++i;
        continue;
      }
      // One file-scope statement.
      const std::size_t s = i;
      bool has_paren = false, has_body = false;
      std::vector<std::size_t> flat;
      while (valid(i)) {
        const Token& u = tok(i);
        if (u.is_punct(";")) {
          ++i;
          break;
        }
        if (u.is_punct("#") || u.is_punct("}")) break;
        if (u.is_punct("(")) {
          has_paren = true;
          i = ts_.matching(i) < n() ? ts_.matching(i) + 1 : i + 1;
          continue;
        }
        if (u.is_punct("[")) {
          flat.push_back(i);
          i = ts_.matching(i) < n() ? ts_.matching(i) + 1 : i + 1;
          continue;
        }
        if (u.is_punct("{")) {
          if (ts_.brace_kind(i) == 'i') {
            i = ts_.matching(i) < n() ? ts_.matching(i) + 1 : i + 1;
            continue;
          }
          has_body = true;  // function / struct definition ends the stmt
          i = ts_.matching(i) < n() ? ts_.matching(i) + 1 : i + 1;
          if (valid(i) && tok(i).is_punct(";")) ++i;
          break;
        }
        flat.push_back(i);
        ++i;
      }
      if (has_paren || has_body || flat.empty()) continue;
      const Token& head = tok(flat.front());
      if (head.kind == TokKind::kIdent &&
          (head.is_ident("using") || head.is_ident("typedef") ||
           head.is_ident("template") || head.is_ident("namespace") ||
           head.is_ident("struct") || head.is_ident("class") ||
           head.is_ident("enum") || head.is_ident("friend"))) {
        continue;
      }
      // name = last ident before the initializer; require a second ident
      // or a '*' so lone expressions don't register.
      std::size_t idents = 0;
      bool star = false, is_extern = false, is_static = false;
      std::size_t name_at = SIZE_MAX;
      for (std::size_t k : flat) {
        if (tok(k).is_punct("=")) break;
        if (tok(k).is_punct("*") || tok(k).is_punct("&")) star = true;
        if (tok(k).kind == TokKind::kIdent) {
          ++idents;
          if (tok(k).is_ident("extern")) is_extern = true;
          if (tok(k).is_ident("static")) is_static = true;
          if (!is_keyword(tok(k).text)) name_at = k;
        }
      }
      if (name_at == SIZE_MAX || (idents < 2 && !star)) continue;
      const std::string& name = tok(name_at).text;
      if (is_type_name(name)) continue;
      const bool internal = internal_linkage(s, is_static);
      bool known = false;
      for (Global& g : ir_.globals) {
        if (g.name == name) {
          // The defining declaration wins over an extern one.
          if (g.is_extern && !is_extern) {
            g.line = tok(s).line;
            g.is_extern = false;
            g.internal = internal;
          }
          known = true;
        }
      }
      if (!known) {
        ir_.globals.push_back(Global{name, tok(s).line, is_extern, internal});
        global_names_.insert(name);
      }
    }
  }

  // -- functions --------------------------------------------------------

  void collect_functions() {
    for (std::size_t i = 0; i + 1 < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent || !tok(i + 1).is_punct("(")) {
        continue;
      }
      if (i > 0 &&
          (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->"))) {
        continue;
      }
      if (is_keyword(tok(i).text) || is_type_name(tok(i).text)) continue;
      const std::size_t close = ts_.matching(i + 1);
      if (close >= n()) continue;
      // Find the body '{' past cv-qualifiers, noexcept, trailing return
      // types, and constructor init lists.
      std::size_t p = close + 1;
      bool found = false, after_colon = false;
      int guard = 0;
      while (valid(p) && guard++ < 96) {
        const Token& t = tok(p);
        if (t.is_punct(";") || t.is_punct("}") || t.is_punct("=")) break;
        if (t.is_punct("(") || t.is_punct("[")) {
          const std::size_t m = ts_.matching(p);
          if (m >= n()) break;
          p = m + 1;
          continue;
        }
        if (t.is_punct(":")) {
          after_colon = true;
          ++p;
          continue;
        }
        if (t.is_punct("{")) {
          // In an init list, `member{init}` braces follow an identifier;
          // the body brace follows ')' or '}'.
          if (after_colon && p > 0 && tok(p - 1).kind == TokKind::kIdent) {
            const std::size_t m = ts_.matching(p);
            if (m >= n()) break;
            p = m + 1;
            continue;
          }
          found = true;
          break;
        }
        if (t.kind == TokKind::kIdent || t.is_punct("->") ||
            t.is_punct("::") || t.is_punct("<") || t.is_punct(">") ||
            t.is_punct("&") || t.is_punct("&&") || t.is_punct("*") ||
            (after_colon && t.is_punct(","))) {
          ++p;
          continue;
        }
        break;
      }
      if (!found) continue;
      const std::size_t body_open = p;
      const std::size_t body_close = ts_.matching(body_open);
      if (body_close >= n()) continue;

      Function fn;
      fn.name = tok(i).text;
      fn.file = ir_.file;
      fn.line = tok(i).line;
      fn.internal = internal_linkage(i, declared_static(i));
      parse_params(fn, i + 1);
      intervals_.clear();
      fn.blocks.push_back(BasicBlock{});  // entry
      const int exit_block =
          cfg_seq(fn, body_open + 1, body_close, 0, 0);
      (void)exit_block;
      compute_rpo(fn);
      analyze_body(fn, body_open + 1, body_close);
      ir_.functions.push_back(std::move(fn));
    }
  }

  void parse_params(Function& fn, std::size_t open) {
    for (const auto& [b, e] : ts_.split_args(open)) {
      if (b >= e) continue;
      if (e == b + 1 && tok(b).is_ident("void")) continue;
      Param prm;
      std::size_t limit = e;
      for (std::size_t k = b; k < e; ++k) {
        if (tok(k).is_punct("=")) {
          limit = k;
          break;
        }
      }
      std::size_t name_at = SIZE_MAX;
      for (std::size_t k = b; k < limit && k < n(); ++k) {
        if (tok(k).kind == TokKind::kIdent && !is_keyword(tok(k).text)) {
          name_at = k;
        }
        if (tok(k).is_punct("*") || tok(k).is_punct("&") ||
            tok(k).is_punct("&&") || tok(k).is_punct("[") ||
            tok(k).is_ident("VAddr")) {
          prm.pointer_like = true;
        }
      }
      if (name_at != SIZE_MAX) {
        const std::size_t nx = name_at + 1;
        if (nx >= limit || tok(nx).is_punct("[")) {
          if (!is_type_name(tok(name_at).text)) prm.name = tok(name_at).text;
        }
      }
      fn.params.push_back(std::move(prm));
    }
  }

  // -- CFG --------------------------------------------------------------

  struct Interval {
    std::size_t b = 0, e = 0;
    int block = 0;
  };

  int cfg_new_block(Function& fn) {
    fn.blocks.push_back(BasicBlock{});
    return static_cast<int>(fn.blocks.size()) - 1;
  }

  void cfg_edge(Function& fn, int a, int b) {
    if (a >= 0 && static_cast<std::size_t>(a) < fn.blocks.size()) {
      fn.blocks[static_cast<std::size_t>(a)].succ.push_back(b);
    }
  }

  void add_interval(std::size_t b, std::size_t e, int block) {
    if (b < e) intervals_.push_back(Interval{b, e, block});
  }

  /// One past the end of the statement starting at `p` (structured:
  /// follows if/else, loop bodies, and brace blocks).
  std::size_t stmt_end(std::size_t p, std::size_t limit, int depth) const {
    if (!valid(p) || p >= limit) return limit;
    if (depth > 48) {  // fuzz safety: flatten pathological nesting
      return std::min(limit, p + 1);
    }
    if (tok(p).is_punct("{")) {
      const std::size_t m = ts_.matching(p);
      return m < limit ? m + 1 : limit;
    }
    if (tok(p).is_ident("if") || tok(p).is_ident("for") ||
        tok(p).is_ident("while") || tok(p).is_ident("switch")) {
      std::size_t q = p + 1;
      if (valid(q) && tok(q).is_punct("(")) {
        const std::size_t m = ts_.matching(q);
        if (m >= limit) return limit;
        q = m + 1;
      }
      q = stmt_end(q, limit, depth + 1);
      if (tok(p).is_ident("if") && q < limit && tok(q).is_ident("else")) {
        q = stmt_end(q + 1, limit, depth + 1);
      }
      return q;
    }
    if (tok(p).is_ident("do")) {
      std::size_t q = stmt_end(p + 1, limit, depth + 1);
      if (q < limit && tok(q).is_ident("while") && valid(q + 1) &&
          tok(q + 1).is_punct("(")) {
        const std::size_t m = ts_.matching(q + 1);
        q = m < limit ? m + 1 : limit;
        if (q < limit && tok(q).is_punct(";")) ++q;
      }
      return q;
    }
    std::size_t i = p;
    while (i < limit) {
      if (tok(i).is_punct(";")) return i + 1;
      if (tok(i).is_punct("}")) return i;
      if (tok(i).is_punct("(") || tok(i).is_punct("[") ||
          tok(i).is_punct("{")) {
        const std::size_t m = ts_.matching(i);
        if (m < limit) {
          i = m + 1;
          continue;
        }
        return limit;
      }
      ++i;
    }
    return limit;
  }

  /// Lowers [b, e) into blocks starting from `cur`; returns the block
  /// control falls out of.
  int cfg_seq(Function& fn, std::size_t b, std::size_t e, int cur,
              int depth) {
    std::size_t i = b;
    int guard = 0;
    const int max_iter = static_cast<int>(e - b) + 16;
    while (i < e && i < n() && guard++ < max_iter) {
      if (depth < 48 && tok(i).is_ident("if") && valid(i + 1) &&
          tok(i + 1).is_punct("(") && ts_.matching(i + 1) < e) {
        const std::size_t cclose = ts_.matching(i + 1);
        add_interval(i, cclose + 1, cur);
        const std::size_t tb = cclose + 1;
        const std::size_t te = stmt_end(tb, e, 0);
        const int then_entry = cfg_new_block(fn);
        cfg_edge(fn, cur, then_entry);
        const int then_exit = cfg_seq(fn, tb, te, then_entry, depth + 1);
        std::size_t after = te;
        const int join = cfg_new_block(fn);
        if (after < e && tok(after).is_ident("else")) {
          const std::size_t eb = after + 1;
          const std::size_t ee = stmt_end(eb, e, 0);
          const int else_entry = cfg_new_block(fn);
          cfg_edge(fn, cur, else_entry);
          const int else_exit = cfg_seq(fn, eb, ee, else_entry, depth + 1);
          cfg_edge(fn, else_exit, join);
          after = ee;
        } else {
          cfg_edge(fn, cur, join);
        }
        cfg_edge(fn, then_exit, join);
        cur = join;
        i = std::max(after, i + 1);
        continue;
      }
      if (depth < 48 &&
          (tok(i).is_ident("for") || tok(i).is_ident("while")) &&
          valid(i + 1) && tok(i + 1).is_punct("(") && ts_.matching(i + 1) < e) {
        const std::size_t cclose = ts_.matching(i + 1);
        const int header = cfg_new_block(fn);
        cfg_edge(fn, cur, header);
        add_interval(i, cclose + 1, header);
        const std::size_t bb = cclose + 1;
        const std::size_t be = stmt_end(bb, e, 0);
        const int body_entry = cfg_new_block(fn);
        cfg_edge(fn, header, body_entry);
        const int body_exit = cfg_seq(fn, bb, be, body_entry, depth + 1);
        cfg_edge(fn, body_exit, header);
        const int exit = cfg_new_block(fn);
        cfg_edge(fn, header, exit);
        cur = exit;
        i = std::max(be, i + 1);
        continue;
      }
      if (tok(i).is_punct("{") && ts_.matching(i) < e) {
        cur = cfg_seq(fn, i + 1, ts_.matching(i), cur, depth + 1);
        i = ts_.matching(i) + 1;
        continue;
      }
      std::size_t se = stmt_end(i, e, 0);
      if (se <= i) se = i + 1;
      add_interval(i, se, cur);
      i = se;
    }
    return cur;
  }

  void compute_rpo(Function& fn) {
    const int nb = static_cast<int>(fn.blocks.size());
    std::vector<int> state(static_cast<std::size_t>(nb), 0);
    std::vector<int> post;
    post.reserve(static_cast<std::size_t>(nb));
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(0, 0);
    state[0] = 1;
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      const auto& succ = fn.blocks[static_cast<std::size_t>(v)].succ;
      if (idx < succ.size()) {
        const int w = succ[idx++];
        if (w >= 0 && w < nb && state[static_cast<std::size_t>(w)] == 0) {
          state[static_cast<std::size_t>(w)] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        post.push_back(v);
        stack.pop_back();
      }
    }
    int rank = 0;
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      fn.blocks[static_cast<std::size_t>(*it)].rpo = rank++;
    }
    for (int v = 0; v < nb; ++v) {
      if (state[static_cast<std::size_t>(v)] == 0) {
        fn.blocks[static_cast<std::size_t>(v)].rpo = rank++;
      }
    }
  }

  int block_at(std::size_t pos) const {
    int best = 0;
    std::size_t best_span = SIZE_MAX;
    for (const Interval& iv : intervals_) {
      if (iv.b <= pos && pos < iv.e && iv.e - iv.b < best_span) {
        best = iv.block;
        best_span = iv.e - iv.b;
      }
    }
    return best;
  }

  // -- body analysis ----------------------------------------------------

  std::string resolve(const Function& fn, std::string name) const {
    for (int hops = 0; hops < 8; ++hops) {
      auto it = fn.aliases.find(name);
      if (it == fn.aliases.end() || it->second == name) break;
      name = it->second;
    }
    if (fn.param_index(name) >= 0) return name;
    if (fn.is_local_alloc(name)) return name;
    if (global_names_.count(name) > 0) return name;
    return "";
  }

  void push_touch(Function& fn, std::string symbol, TouchKind kind,
                  std::size_t pos, bool full_range, bool via_alias,
                  std::string alias) {
    const Ctx c = ctx_at(pos);
    Touch t;
    t.symbol = std::move(symbol);
    t.kind = kind;
    t.line = tok(pos).line;
    t.parallel = c.parallel;
    t.thread_guarded = c.guarded;
    t.sched = c.sched;
    t.chunk = c.chunk;
    t.blocked = c.blocked;
    t.full_range = full_range;
    t.via_alias = via_alias;
    t.alias = std::move(alias);
    t.block = block_at(pos);
    t.pos = pos;
    fn.touches.push_back(std::move(t));
  }

  /// Does the index expression at `open` ('[') span the whole extent for
  /// every thread? True for indirect (gather) indices and for indices
  /// that ignore the partitioned loop variable.
  bool index_full_range(const Ctx& c, std::size_t open) const {
    if (!c.parallel) return false;
    bool has_tid = false, has_loopvar = false, indirect = false;
    const std::size_t close = ts_.matching(open);
    std::size_t depth = 0;
    for (std::size_t k = open + 1; k < close && k < n(); ++k) {
      if (tok(k).is_punct("[")) ++depth;
      if (tok(k).is_punct("]") && depth > 0) --depth;
      if (tok(k).kind == TokKind::kIdent) {
        if (thread_id_name(tok(k).text)) has_tid = true;
        if (!c.loop_var.empty() && tok(k).text == c.loop_var) {
          // The partitioned loop var inside a NESTED subscript means the
          // outer index is loaded from another array: data-dependent.
          if (depth == 0) {
            has_loopvar = true;
          } else {
            indirect = true;
          }
        }
        if (valid(k + 1) && tok(k + 1).is_punct("(") &&
            !known_linear_call(tok(k).text)) {
          indirect = true;
        }
      }
    }
    if (has_tid) return false;
    if (indirect) return true;
    if (!c.loop_var.empty()) return !has_loopvar;
    return !c.blocked;
  }

  /// Do any of the argument ranges reference a thread id?
  bool args_reference_tid(
      const std::vector<std::pair<std::size_t, std::size_t>>& args,
      std::size_t from) const {
    for (std::size_t a = from; a < args.size(); ++a) {
      for (std::size_t k = args[a].first; k < args[a].second && k < n(); ++k) {
        if (tok(k).kind == TokKind::kIdent && thread_id_name(tok(k).text)) {
          return true;
        }
      }
    }
    return false;
  }

  /// First identifier in [b, e) that resolves to a tracked symbol.
  struct Resolved {
    std::string root;
    std::string name;
  };
  Resolved first_resolvable(const Function& fn, std::size_t b,
                            std::size_t e) const {
    for (std::size_t k = b; k < e && k < n(); ++k) {
      if (tok(k).kind != TokKind::kIdent) continue;
      std::string root = resolve(fn, tok(k).text);
      if (!root.empty()) return {std::move(root), tok(k).text};
    }
    return {};
  }

  void handle_alloc(Function& fn, std::size_t i) {
    const std::size_t eq = ts_.assignment_before(i);
    if (eq == SIZE_MAX || eq == 0) return;
    const BackChain lhs = ts_.read_chain_back(eq - 1);
    if (!lhs.ok) return;
    const std::string& base = lhs.first;
    std::string root = resolve(fn, base);
    if (root.empty()) {
      if (is_keyword(base) || is_type_name(base)) return;
      fn.local_allocs.push_back(base);
      root = base;
    }
    push_touch(fn, root, TouchKind::kAlloc, i, false, root != base, base);
  }

  void maybe_alias_decl(Function& fn, std::size_t i) {
    if (!valid(i + 1) || !tok(i + 1).is_punct("=")) return;
    const std::size_t s = ts_.stmt_start(i);
    bool marker = false;
    for (std::size_t k = s; k < i; ++k) {
      if (tok(k).is_punct("*") || tok(k).is_punct("&") ||
          tok(k).is_ident("auto")) {
        marker = true;
      }
      if (tok(k).is_punct("=") || tok(k).is_punct("(")) return;
    }
    if (!marker) return;
    std::size_t k = i + 2;
    if (valid(k) && tok(k).is_punct("&")) ++k;
    if (!valid(k) || tok(k).kind != TokKind::kIdent) return;
    const std::string root = resolve(fn, tok(k).text);
    if (root.empty()) return;
    // The remainder of the initializer must stay linear — a call hands
    // the pointer to code we can't see from here.
    const Chain c = ts_.read_chain(k);
    std::size_t q = c.end;
    int guard = 0;
    while (valid(q) && !tok(q).is_punct(";") && guard++ < 40) {
      if (tok(q).is_punct("(")) {
        if (!(q > 0 && tok(q - 1).kind == TokKind::kIdent &&
              known_linear_call(tok(q - 1).text))) {
          return;
        }
        const std::size_t m = ts_.matching(q);
        if (m >= n()) return;
        q = m + 1;
        continue;
      }
      ++q;
    }
    fn.aliases[tok(i).text] = root;
  }

  void handle_symbol(Function& fn, std::size_t i, std::size_t body_begin) {
    const std::string& name = tok(i).text;
    if (is_keyword(name) || is_type_name(name)) return;
    // Local plain-array declaration: `double scratch[64];` — a stack
    // allocation root whose first touch is still interesting.
    if (valid(i + 1) && tok(i + 1).is_punct("[") && i > body_begin &&
        tok(i - 1).kind == TokKind::kIdent &&
        !is_keyword(tok(i - 1).text) && resolve(fn, name).empty()) {
      bool decl = true;
      for (std::size_t k = ts_.stmt_start(i); k < i; ++k) {
        if (tok(k).is_punct("=") || tok(k).is_punct("(")) decl = false;
      }
      if (decl) {
        fn.local_allocs.push_back(name);
        push_touch(fn, name, TouchKind::kAlloc, i, false, false, "");
        return;
      }
    }
    const std::string root = resolve(fn, name);
    if (root.empty()) {
      maybe_alias_decl(fn, i);
      return;
    }
    const Chain c = ts_.read_chain(i);
    const bool deref =
        i > 0 && tok(i - 1).is_punct("*") &&
        (i - 1 == 0 || tok(i - 2).is_punct(";") || tok(i - 2).is_punct("{") ||
         tok(i - 2).is_punct("}"));
    const bool indexed = c.text.find("[]") != std::string::npos;
    const bool membered = c.text.find('.') != std::string::npos;
    if (!deref && !indexed && !membered) return;
    bool write = false;
    if (valid(c.end)) {
      const Token& a = tok(c.end);
      write = is_assign_op(a) || a.is_punct("++") || a.is_punct("--");
    }
    if (i > 0 && (tok(i - 1).is_punct("++") || tok(i - 1).is_punct("--"))) {
      write = true;
    }
    bool full = false;
    if (indexed) {
      for (std::size_t k = i + 1; k < c.end && k < n(); ++k) {
        if (tok(k).is_punct("[")) {
          full = index_full_range(ctx_at(i), k);
          break;
        }
      }
    }
    push_touch(fn, root, write ? TouchKind::kWrite : TouchKind::kRead, i,
               full, root != name, root != name ? name : "");
  }

  void handle_call(Function& fn, std::size_t i) {
    CallSite cs;
    cs.callee = tok(i).text;
    cs.line = tok(i).line;
    const Ctx c = ctx_at(i);
    cs.parallel = c.parallel;
    cs.thread_guarded = c.guarded;
    cs.sched = c.sched;
    cs.chunk = c.chunk;
    cs.blocked = c.blocked;
    cs.block = block_at(i);
    cs.pos = i;
    for (const auto& [ab, ae] : ts_.split_args(i + 1)) {
      std::string sym;
      std::size_t k = ab;
      if (k < ae && tok(k).is_punct("&")) ++k;
      if (k < ae && tok(k).kind == TokKind::kIdent) {
        sym = resolve(fn, tok(k).text);
      }
      cs.args.push_back(std::move(sym));
    }
    fn.calls.push_back(std::move(cs));
  }

  void analyze_body(Function& fn, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e && i < n(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokKind::kIdent) continue;
      const bool member =
          i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->"));
      const std::string& s = t.text;
      const bool call_shaped = valid(i + 1) && tok(i + 1).is_punct("(");
      if (s == "malloc" && call_shaped) {
        handle_alloc(fn, i);
        continue;
      }
      if (s == "new" && !member) {
        handle_alloc(fn, i);
        continue;
      }
      if ((s == "memset" || s == "memcpy") && !member && call_shaped) {
        const auto args = ts_.split_args(i + 1);
        if (!args.empty()) {
          Resolved dst = first_resolvable(fn, args[0].first, args[0].second);
          if (!dst.root.empty()) {
            push_touch(fn, dst.root, TouchKind::kWrite, i, ctx_at(i).parallel,
                       dst.root != dst.name, dst.root != dst.name ? dst.name
                                                                  : "");
          }
          if (s == "memcpy" && args.size() > 1) {
            Resolved src = first_resolvable(fn, args[1].first, args[1].second);
            if (!src.root.empty()) {
              push_touch(fn, src.root, TouchKind::kRead, i, ctx_at(i).parallel,
                         src.root != src.name,
                         src.root != src.name ? src.name : "");
            }
          }
        }
        continue;
      }
      if ((s == "store_lines" || s == "load_lines") && !member &&
          call_shaped) {
        const auto args = ts_.split_args(i + 1);
        if (args.size() >= 2) {
          Resolved addr = first_resolvable(fn, args[1].first, args[1].second);
          if (!addr.root.empty()) {
            const Ctx c = ctx_at(i);
            const bool full =
                c.parallel && !c.blocked && !args_reference_tid(args, 2);
            push_touch(fn, addr.root,
                       s == "store_lines" ? TouchKind::kWrite
                                          : TouchKind::kRead,
                       i, full, addr.root != addr.name,
                       addr.root != addr.name ? addr.name : "");
          }
        }
        continue;
      }
      if ((s == "store" || s == "load") && member && call_shaped) {
        const auto args = ts_.split_args(i + 1);
        if (!args.empty()) {
          Resolved addr = first_resolvable(fn, args[0].first, args[0].second);
          if (!addr.root.empty()) {
            push_touch(fn, addr.root,
                       s == "store" ? TouchKind::kWrite : TouchKind::kRead, i,
                       false, addr.root != addr.name,
                       addr.root != addr.name ? addr.name : "");
          }
        }
        continue;
      }
      if (!member && call_shaped && !is_blocked_callee(s) &&
          ts_.matching(i + 1) < n()) {
        handle_call(fn, i);
        continue;
      }
      if (!member) handle_symbol(fn, i, b);
    }
  }

  const TokenStream& ts_;
  const ParallelScan& scan_;
  std::vector<Interval> intervals_;
  std::vector<std::size_t> scope_;
  std::set<std::string> global_names_;
  FileIr ir_;
};

}  // namespace

FileIr build_ir(const TokenStream& tokens, const ParallelScan& scan,
                std::string file) {
  return IrBuilder(tokens, scan, std::move(file)).build();
}

}  // namespace numaprof::lint::ir
