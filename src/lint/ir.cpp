#include "lint/ir.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

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
  int region = -1;  // innermost region, parallel or not
  bool parallel = false;
  bool guarded = false;
  Schedule sched = Schedule::kNone;
  int chunk = 0;
  bool blocked = false;
  std::string loop_var;  // omp-for induction variable, if known
};

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

struct Field {
  std::string name;
  bool is_bool = false;
  std::uint32_t size = 8;
};

struct StructInfo {
  std::vector<Field> fields;
  std::uint32_t byte_size = 0;
  std::size_t body_begin = 0, body_end = 0;  // token range of the braces

  int field_index(std::string_view name) const {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

struct Cell {
  enum Kind : std::uint8_t { kStr, kLval, kBool, kOther };
  Kind kind = kOther;
  std::string text;  // string contents / lvalue chain
  bool bval = false;
};

struct Row {
  std::uint32_t line = 0;
  std::vector<Cell> cells;
};

struct TableInfo {
  std::string struct_name;
  std::vector<Row> rows;
};

std::uint32_t primitive_size(const std::string& t) {
  if (t == "double" || t == "uint64_t" || t == "int64_t" || t == "size_t" ||
      t == "long" || t == "VAddr" || t == "ptrdiff_t" || t == "intptr_t") {
    return 8;
  }
  if (t == "int" || t == "unsigned" || t == "uint32_t" || t == "int32_t" ||
      t == "float" || t == "FrameId") {
    return 4;
  }
  if (t == "short" || t == "uint16_t" || t == "int16_t") return 2;
  if (t == "char" || t == "bool" || t == "uint8_t" || t == "int8_t") return 1;
  return 0;
}

/// Row filters: (table name, bool column index, keep-when value).
using RowFilters = std::vector<std::tuple<std::string, int, bool>>;

/// The file's declarations: struct layouts, DSL tables and the range-for
/// iterators over them, PolicySpecs, lambdas, and the declared variables
/// with their policies and size identifiers. Resolves an access
/// expression to the variables it may name.
class Declarations {
 public:
  Declarations(const TokenStream& ts, const ParallelScan& scan,
               const std::vector<std::size_t>& scope)
      : ts_(ts), scan_(scan), scope_(scope) {}

  void read() {
    collect_structs();
    collect_lambdas();
    collect_policies();
    collect_tables();
    collect_range_fors();
    collect_vars();
  }

  const VarDecl& var(int v) const {
    return vars_[static_cast<std::size_t>(v)];
  }
  std::vector<VarDecl> take_vars() { return std::move(vars_); }

  /// Body token range of the lambda bound to `name`, or null.
  const TokenRange* lambda(const std::string& name) const {
    auto it = lambdas_.find(name);
    return it == lambdas_.end() ? nullptr : &it->second;
  }

 private:
  std::size_t n() const { return ts_.size(); }
  const Token& tok(std::size_t i) const { return ts_[i]; }
  bool valid(std::size_t i) const { return ts_.valid(i); }

  /// Inside a function or control-flow body: some enclosing brace, on
  /// the builder's scope table, opens code.
  bool in_code_block(std::size_t i) const {
    for (std::size_t b = scope_[i]; b != SIZE_MAX; b = scope_[b]) {
      if (ts_.brace_kind(b) == 'c') return true;
    }
    return false;
  }

  /// Row filters of the `if` statements around token `i`.
  RowFilters row_filters(std::size_t i) const {
    RowFilters filters;
    for (const IfStmt& stmt : scan_.ifs) {
      if (!(stmt.body.first <= i && i < stmt.body.second)) continue;
      add_row_filters(stmt.cond.first, stmt.cond.second, filters);
    }
    return filters;
  }

  bool in_struct_body(std::size_t i) const {
    for (const auto& [name, info] : structs_) {
      if (info.body_begin < i && i < info.body_end) return true;
    }
    return false;
  }

  void collect_structs() {
    for (std::size_t i = 0; i + 2 < n(); ++i) {
      if (!(tok(i).is_ident("struct") || tok(i).is_ident("class"))) continue;
      // Skip alignas(...) / attribute specifiers between the keyword and
      // the struct name.
      std::size_t name_at = i + 1;
      while (valid(name_at + 1) &&
             (tok(name_at).is_ident("alignas") ||
              tok(name_at).is_ident("__attribute__")) &&
             tok(name_at + 1).is_punct("(")) {
        name_at = ts_.matching(name_at + 1) + 1;
      }
      if (!valid(name_at) || tok(name_at).kind != TokKind::kIdent) continue;
      // Find the '{' before any ';' (skips forward declarations).
      std::size_t b = name_at + 1;
      while (valid(b) && !tok(b).is_punct("{") && !tok(b).is_punct(";") &&
             b < i + 16) {
        ++b;
      }
      if (!valid(b) || !tok(b).is_punct("{")) continue;
      const std::size_t close = ts_.matching(b);
      if (close >= n()) continue;
      StructInfo info;
      info.body_begin = b;
      info.body_end = close;
      // Parse field statements at depth 0 within the braces.
      std::size_t p = b + 1;
      while (p < close) {
        // Skip nested braces (methods, nested types) and parens.
        std::size_t stmt_begin = p;
        bool has_paren = false;
        std::vector<std::size_t> stmt;  // token indices at depth 0
        while (p < close && !tok(p).is_punct(";")) {
          if (tok(p).is_punct("{") || tok(p).is_punct("(")) {
            if (tok(p).is_punct("(")) has_paren = true;
            p = ts_.matching(p) < close ? ts_.matching(p) + 1 : close;
            continue;
          }
          stmt.push_back(p);
          ++p;
        }
        ++p;  // past ';'
        if (stmt.size() < 2 || has_paren) continue;
        if (tok(stmt.front()).is_ident("using") ||
            tok(stmt.front()).is_ident("typedef") ||
            tok(stmt.front()).is_ident("friend") ||
            tok(stmt.front()).is_ident("static")) {
          continue;
        }
        Field f;
        std::uint32_t size = 0;
        std::uint64_t array_mult = 1;
        for (std::size_t k : stmt) {
          if (tok(k).kind == TokKind::kIdent) {
            f.name = tok(k).text;
            if (tok(k).text == "bool") f.is_bool = true;
            const std::uint32_t s = primitive_size(tok(k).text);
            if (s > 0 && size == 0) size = s;
          }
          if (tok(k).is_punct("*")) size = 8;
        }
        // Array field: multiply by a literal extent if present.
        for (std::size_t q = stmt_begin; q < p; ++q) {
          if (tok(q).is_punct("[") && valid(q + 1) &&
              tok(q + 1).kind == TokKind::kNumber) {
            // Strip C++14 digit separators: strtoull("1'024") stops at the
            // quote and would report a 1-element extent.
            std::string digits = tok(q + 1).text;
            digits.erase(std::remove(digits.begin(), digits.end(), '\''),
                         digits.end());
            array_mult = std::strtoull(digits.c_str(), nullptr, 0);
            if (array_mult == 0) array_mult = 1;
          }
        }
        f.size = static_cast<std::uint32_t>((size == 0 ? 8 : size) *
                                            array_mult);
        if (!f.name.empty()) info.fields.push_back(f);
      }
      for (const Field& f : info.fields) info.byte_size += f.size;
      structs_[tok(name_at).text] = std::move(info);
    }
  }

  void collect_lambdas() {
    for (std::size_t i = 0; i + 1 < n(); ++i) {
      if (!tok(i).is_punct("=") || !tok(i + 1).is_punct("[")) continue;
      const std::size_t intro_close = ts_.matching(i + 1);
      if (intro_close >= n()) continue;
      BackChain name = ts_.read_chain_back(i - 1);
      if (!name.ok || name.text.find('.') != std::string::npos) continue;
      // Optional (params), optional -> T, then the body braces.
      std::size_t p = intro_close + 1;
      if (valid(p) && tok(p).is_punct("(")) p = ts_.matching(p) + 1;
      while (valid(p) && !tok(p).is_punct("{") && !tok(p).is_punct(";") &&
             p < intro_close + 24) {
        ++p;
      }
      if (!valid(p) || !tok(p).is_punct("{")) continue;
      const std::size_t close = ts_.matching(p);
      if (close >= n()) continue;
      lambdas_[name.text] = {p + 1, close};
    }
  }

  Policy resolve_policy(std::size_t b, std::size_t e) const {
    Policy p;
    for (std::size_t i = b; i < e && i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const std::string& t = tok(i).text;
      if (t == "interleave") p.interleave = true;
      if (t == "first_touch") p.first_touch = true;
      if (t == "bind" || t == "membind" || t == "preferred") p.bind = true;
      auto it = policies_.find(t);
      if (it != policies_.end()) {
        p.interleave |= it->second.interleave;
        p.first_touch |= it->second.first_touch;
        p.bind |= it->second.bind;
      }
    }
    if (!p.interleave && !p.bind) p.first_touch = true;
    return p;
  }

  void collect_policies() {
    // Declarations: ... PolicySpec NAME = <expr>;
    for (std::size_t i = 0; i + 2 < n(); ++i) {
      if (!tok(i).is_ident("PolicySpec")) continue;
      if (tok(i + 1).kind != TokKind::kIdent || !tok(i + 2).is_punct("=")) {
        continue;
      }
      std::size_t e = i + 3;
      std::size_t depth = 0;
      while (valid(e) && !(depth == 0 && tok(e).is_punct(";"))) {
        if (tok(e).is_punct("(") || tok(e).is_punct("{")) ++depth;
        if (tok(e).is_punct(")") || tok(e).is_punct("}")) --depth;
        ++e;
      }
      Policy p = resolve_policy(i + 3, e);
      Policy& slot = policies_[tok(i + 1).text];
      slot.interleave |= p.interleave;
      slot.first_touch |= p.first_touch;
      slot.bind |= p.bind;
    }
    // Reassignments: NAME = PolicySpec::... ;
    for (std::size_t i = 0; i + 1 < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent || !tok(i + 1).is_punct("=")) {
        continue;
      }
      auto it = policies_.find(tok(i).text);
      if (it == policies_.end()) continue;
      std::size_t e = i + 2;
      while (valid(e) && !tok(e).is_punct(";")) ++e;
      const Policy p = resolve_policy(i + 2, e);
      it->second.interleave |= p.interleave;
      it->second.first_touch |= p.first_touch;
      it->second.bind |= p.bind;
    }
  }

  void collect_tables() {
    for (std::size_t i = 0; i + 1 < n(); ++i) {
      if (!tok(i).is_punct("=") || !tok(i + 1).is_punct("{")) continue;
      BackChain name = ts_.read_chain_back(i - 1);
      if (!name.ok || name.text.find('.') != std::string::npos) continue;
      // The declaration must name a known struct type.
      const std::size_t s = ts_.stmt_start(i);
      std::string struct_name;
      for (std::size_t k = s; k < i; ++k) {
        if (tok(k).kind == TokKind::kIdent && structs_.count(tok(k).text)) {
          struct_name = tok(k).text;
        }
      }
      if (struct_name.empty()) continue;
      TableInfo table;
      table.struct_name = struct_name;
      collect_rows(i + 1, table);
      if (!table.rows.empty()) tables_[name.text] = std::move(table);
    }
  }

  /// Recursively descends brace groups; a group whose first cell is a
  /// string literal is a row.
  void collect_rows(std::size_t open, TableInfo& table) {
    const std::size_t close = ts_.matching(open);
    if (close >= n()) return;
    // Direct children at depth 0 inside this group.
    std::size_t i = open + 1;
    bool saw_scalar = false;
    std::vector<std::size_t> child_groups;
    while (i < close) {
      if (tok(i).is_punct("{")) {
        child_groups.push_back(i);
        i = ts_.matching(i) < close ? ts_.matching(i) + 1 : close;
        continue;
      }
      if (tok(i).is_punct("(") || tok(i).is_punct("[")) {
        i = ts_.matching(i) < close ? ts_.matching(i) + 1 : close;
        saw_scalar = true;
        continue;
      }
      if (!tok(i).is_punct(",")) saw_scalar = true;
      ++i;
    }
    if (!child_groups.empty() && !saw_scalar) {
      for (std::size_t g : child_groups) collect_rows(g, table);
      return;
    }
    // Leaf group: a row iff the first cell is a string literal.
    Row row;
    row.line = tok(open).line;
    for (auto [b, e] : ts_.split_args(open)) {
      Cell cell;
      if (b < e && tok(b).kind == TokKind::kString) {
        cell.kind = Cell::kStr;
        cell.text = tok(b).text;
      } else if (b < e && tok(b).is_punct("&") && b + 1 < e) {
        const Chain c = ts_.read_chain(b + 1);
        cell.kind = Cell::kLval;
        cell.text = c.text;
      } else if (b < e &&
                 (tok(b).is_ident("true") || tok(b).is_ident("false"))) {
        cell.kind = Cell::kBool;
        cell.bval = tok(b).is_ident("true");
      }
      row.cells.push_back(std::move(cell));
    }
    if (!row.cells.empty() && row.cells.front().kind == Cell::kStr) {
      table.rows.push_back(std::move(row));
    }
  }

  void collect_range_fors() {
    // for ( <decl> ITER : TABLE )
    for (std::size_t i = 0; i + 1 < n(); ++i) {
      if (!tok(i).is_ident("for") || !tok(i + 1).is_punct("(")) continue;
      const std::size_t close = ts_.matching(i + 1);
      if (close >= n()) continue;
      // Find a depth-0 ':' (skip '::').
      for (std::size_t k = i + 2; k < close; ++k) {
        if (!tok(k).is_punct(":")) continue;
        // iter = identifier immediately before ':'.
        if (k == 0 || tok(k - 1).kind != TokKind::kIdent) break;
        const Chain seq = ts_.read_chain(k + 1);
        if (!seq.text.empty() && tables_.count(seq.text)) {
          range_iters_[tok(k - 1).text] = seq.text;
        }
        break;
      }
    }
  }

  /// Row filters: ITER.FIELD where ITER ranges over a table and FIELD is
  /// a bool column — or TABLE[...].FIELD.
  void add_row_filters(std::size_t b, std::size_t e, RowFilters& g) const {
    for (std::size_t i = b; i < e && i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const bool negated = i > 0 && tok(i - 1).is_punct("!");
      const Chain c = ts_.read_chain(i);
      if (auto tf = table_field_of(c.first, c.last)) {
        const int col = bool_column(tables_.at(tf->first), tf->second);
        if (col >= 0) g.emplace_back(tf->first, col, !negated);
      }
      i = c.end > i ? c.end - 1 : i;
    }
  }

  /// Index of `field` among `table`'s columns when it is a bool, else -1.
  int bool_column(const TableInfo& table, const std::string& field) const {
    auto sit = structs_.find(table.struct_name);
    if (sit == structs_.end()) return -1;
    const int col = sit->second.field_index(field);
    return col >= 0 && sit->second.fields[col].is_bool ? col : -1;
  }

  // -- declarations -----------------------------------------------------

  void add_size_idents(std::size_t b, std::size_t e, VarDecl& v) const {
    for (std::size_t i = b; i < e && i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const Chain c = ts_.read_chain(i);
      v.size_idents.insert(c.last);
      i = c.end > i ? c.end - 1 : i;
    }
  }

  /// Per-row policy: `T[i].BOOLFIELD ? A : B` picks A for true rows.
  Policy row_policy(std::size_t b, std::size_t e, const TableInfo& table,
                    bool row_true) const {
    std::size_t q = SIZE_MAX;  // '?' position at depth 0
    std::size_t colon = SIZE_MAX;
    std::size_t depth = 0;
    for (std::size_t i = b; i < e && i < n(); ++i) {
      const std::string& t = tok(i).text;
      if (tok(i).kind == TokKind::kPunct) {
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        if (depth == 0 && t == "?" && q == SIZE_MAX) q = i;
        if (depth == 0 && t == ":" && q != SIZE_MAX && colon == SIZE_MAX) {
          colon = i;
        }
      }
    }
    if (q == SIZE_MAX || colon == SIZE_MAX) return resolve_policy(b, e);
    // The selector must reference a bool column of this table.
    bool selector_is_bool_col = false;
    for (std::size_t i = b; i < q; ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const Chain c = ts_.read_chain(i);
      if (bool_column(table, c.last) >= 0) selector_is_bool_col = true;
      i = c.end > i ? c.end - 1 : i;
    }
    if (!selector_is_bool_col) return resolve_policy(b, e);
    return row_true ? resolve_policy(q + 1, colon)
                    : resolve_policy(colon + 1, e);
  }

  /// Finds the table referenced as `TABLE[...].FIELD` (or ITER.FIELD).
  /// Returns (table name, field name) or nullopt.
  std::optional<std::pair<std::string, std::string>> table_field_of(
      const std::string& chain_first, const std::string& chain_last) const {
    std::string table;
    auto it = range_iters_.find(chain_first);
    if (it != range_iters_.end()) {
      table = it->second;
    } else if (tables_.count(chain_first)) {
      table = chain_first;
    }
    if (table.empty() || chain_last == chain_first) return std::nullopt;
    return std::make_pair(table, chain_last);
  }

  void declare_from_table(const TableInfo& table, const std::string& addr_field,
                          std::size_t policy_b, std::size_t policy_e,
                          std::size_t size_b, std::size_t size_e) {
    auto sit = structs_.find(table.struct_name);
    if (sit == structs_.end()) return;
    const int addr_col = sit->second.field_index(addr_field);
    if (addr_col < 0) return;
    for (const Row& row : table.rows) {
      if (static_cast<std::size_t>(addr_col) >= row.cells.size()) continue;
      const Cell& addr_cell = row.cells[static_cast<std::size_t>(addr_col)];
      if (addr_cell.kind != Cell::kLval ||
          row.cells.front().kind != Cell::kStr) {
        continue;
      }
      bool row_true = false;
      for (const Cell& c : row.cells) {
        if (c.kind == Cell::kBool) row_true = c.bval;
      }
      VarDecl v;
      v.name = row.cells.front().text;
      v.lvalue = addr_cell.text;
      {
        const std::size_t dot = v.lvalue.rfind('.');
        v.last = dot == std::string::npos ? v.lvalue : v.lvalue.substr(dot + 1);
      }
      v.line = row.line;
      v.storage = VarDecl::kHeap;
      add_size_idents(size_b, size_e, v);
      v.policy = policy_b < policy_e ? row_policy(policy_b, policy_e, table,
                                                  row_true)
                                     : Policy{.first_touch = true};
      push_var(std::move(v));
    }
  }

  void push_var(VarDecl v) {
    if (v.name.empty()) return;
    // One declaration per (name, lvalue): AMG declares each level in a
    // loop from one call site.
    for (const VarDecl& existing : vars_) {
      if (existing.name == v.name && existing.lvalue == v.lvalue) return;
    }
    vars_.push_back(std::move(v));
  }

  void collect_vars() {
    for (std::size_t i = 0; i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const std::string& t = tok(i).text;
      const bool member_call =
          i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->"));
      if (t == "malloc" && valid(i + 1) && tok(i + 1).is_punct("(")) {
        collect_malloc(i, member_call);
      } else if (t == "define_static" && member_call && valid(i + 1) &&
                 tok(i + 1).is_punct("(")) {
        collect_define_static(i);
      } else if (t == "register_stack_variable" && valid(i + 1) &&
                 tok(i + 1).is_punct("(")) {
        collect_stack_registration(i);
      } else if (t == "new" && !member_call) {
        collect_new(i);
      }
    }
    collect_plain_arrays();
    // Index by trailing identifier for access resolution.
    by_last_.clear();
    by_lvalue_.clear();
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      by_last_[vars_[v].last].push_back(static_cast<int>(v));
      by_lvalue_[vars_[v].lvalue] = static_cast<int>(v);
    }
  }

  void collect_malloc(std::size_t i, bool member_call) {
    const auto args = ts_.split_args(i + 1);
    const std::size_t eq = ts_.assignment_before(i);
    BackChain lhs;
    if (eq != SIZE_MAX && eq > 0) lhs = ts_.read_chain_back(eq - 1);

    if (member_call && args.size() >= 2) {
      // DSL: target = t.malloc(size, name-expr[, policy]).
      const std::size_t pb = args.size() > 2 ? args[2].first : 0;
      const std::size_t pe = args.size() > 2 ? args[2].second : 0;
      // Table form: name expr is TABLE[...].FIELD with a string column.
      Chain name_chain;
      if (tok(args[1].first).kind == TokKind::kIdent) {
        name_chain = ts_.read_chain(args[1].first);
      }
      if (!name_chain.text.empty()) {
        if (auto tf = table_field_of(name_chain.first, name_chain.last)) {
          const TableInfo& table = tables_.at(tf->first);
          // The lhs should deref the same table's pointer column.
          std::string addr_field;
          if (lhs.ok && lhs.deref) {
            const std::size_t dot = lhs.text.rfind('.');
            if (dot != std::string::npos) addr_field = lhs.text.substr(dot + 1);
          }
          if (!addr_field.empty()) {
            declare_from_table(table, addr_field, pb, pe, args[0].first,
                               args[0].second);
            return;
          }
        }
      }
      auto name = ts_.first_string_in(args[1].first, args[1].second);
      VarDecl v;
      v.name = name.value_or(lhs.ok ? lhs.last : "");
      v.lvalue = lhs.ok ? lhs.text : "";
      v.last = lhs.ok ? lhs.last : v.name;
      v.line = tok(i).line;
      v.storage = VarDecl::kHeap;
      add_size_idents(args[0].first, args[0].second, v);
      v.policy = args.size() > 2 ? resolve_policy(pb, pe)
                                 : Policy{.first_touch = true};
      push_var(std::move(v));
      return;
    }
    // C-style: target = malloc(size).
    if (!member_call && lhs.ok && !args.empty()) {
      VarDecl v;
      v.name = lhs.last;
      v.lvalue = lhs.text;
      v.last = lhs.last;
      v.line = tok(i).line;
      v.storage = VarDecl::kHeap;
      v.policy.first_touch = true;
      add_size_idents(args[0].first, args[0].second, v);
      push_var(std::move(v));
    }
  }

  void collect_define_static(std::size_t i) {
    const auto args = ts_.split_args(i + 1);
    if (args.empty()) return;
    auto name = ts_.first_string_in(args[0].first, args[0].second);
    if (!name) return;
    const std::size_t eq = ts_.assignment_before(i);
    BackChain lhs;
    if (eq != SIZE_MAX && eq > 0) lhs = ts_.read_chain_back(eq - 1);
    VarDecl v;
    v.name = *name;
    v.lvalue = lhs.ok ? lhs.text : *name;
    v.last = lhs.ok ? lhs.last : *name;
    v.line = tok(i).line;
    v.storage = VarDecl::kStatic;
    if (args.size() > 1) add_size_idents(args[1].first, args[1].second, v);
    v.policy = args.size() > 2 ? resolve_policy(args[2].first, args[2].second)
                               : Policy{.first_touch = true};
    push_var(std::move(v));
  }

  void collect_stack_registration(std::size_t i) {
    const auto args = ts_.split_args(i + 1);
    if (args.size() < 3) return;
    auto name = ts_.first_string_in(args[0].first, args[0].second);
    if (!name) return;
    const Chain addr = ts_.read_chain(args[2].first);
    VarDecl v;
    v.name = *name;
    v.lvalue = addr.text.empty() ? *name : addr.text;
    v.last = addr.last.empty() ? *name : addr.last;
    v.line = tok(i).line;
    v.storage = VarDecl::kStackReg;
    if (args.size() > 3) add_size_idents(args[3].first, args[3].second, v);
    v.policy.first_touch = true;
    push_var(std::move(v));
  }

  void collect_new(std::size_t i) {
    // target = new TYPE[extent];
    const std::size_t eq =
        i > 0 && tok(i - 1).is_punct("=") ? i - 1 : SIZE_MAX;
    if (eq == SIZE_MAX || eq == 0) return;
    BackChain lhs = ts_.read_chain_back(eq - 1);
    if (!lhs.ok) return;
    std::size_t p = i + 1;
    while (valid(p) && tok(p).kind == TokKind::kIdent) {
      const Chain c = ts_.read_chain(p);
      p = c.end;
      break;
    }
    if (!valid(p) || !tok(p).is_punct("[")) return;
    VarDecl v;
    v.name = lhs.last;
    v.lvalue = lhs.text;
    v.last = lhs.last;
    v.line = tok(i).line;
    v.storage = VarDecl::kHeap;
    v.policy.first_touch = true;
    add_size_idents(p + 1, ts_.matching(p), v);
    push_var(std::move(v));
  }

  void collect_plain_arrays() {
    for (std::size_t i = 1; i + 1 < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent || !tok(i + 1).is_punct("[")) {
        continue;
      }
      if (in_struct_body(i)) continue;
      const Token& prev = tok(i - 1);
      const bool type_before =
          (prev.kind == TokKind::kIdent && !is_non_type_keyword(prev.text)) ||
          prev.is_punct("*") || prev.is_punct(">") || prev.is_punct("&");
      if (!type_before) continue;
      const std::size_t close = ts_.matching(i + 1);
      if (close >= n() || !valid(close + 1)) continue;
      const Token& after = tok(close + 1);
      if (!(after.is_punct(";") || after.is_punct("=") ||
            after.is_punct("["))) {
        continue;
      }
      // Reject parameter declarations: '(' between statement start and i.
      const std::size_t s = ts_.stmt_start(i);
      bool has_paren = false;
      bool is_static = false;
      std::uint32_t elem = 0;
      for (std::size_t k = s; k < i; ++k) {
        if (tok(k).is_punct("(")) has_paren = true;
        if (tok(k).is_ident("static")) is_static = true;
        if (tok(k).kind == TokKind::kIdent) {
          const std::uint32_t ps = primitive_size(tok(k).text);
          if (ps > 0 && elem == 0) elem = ps;
          auto sit = structs_.find(tok(k).text);
          if (sit != structs_.end() && elem == 0) {
            elem = sit->second.byte_size;
          }
        }
      }
      if (has_paren || i == s) continue;  // parameters / stray indexing
      VarDecl v;
      v.name = tok(i).text;
      v.lvalue = tok(i).text;
      v.last = tok(i).text;
      v.line = tok(i).line;
      v.storage = is_static || !in_code_block(i) ? VarDecl::kStatic
                                                 : VarDecl::kStack;
      v.elem_size = elem == 0 ? 8 : elem;
      v.policy.first_touch = true;
      add_size_idents(i + 2, close, v);
      push_var(std::move(v));
    }
  }

  // -- access resolution ------------------------------------------------

 public:
  /// The variable an lvalue chain names: by its whole chain, else by a
  /// trailing identifier no other variable shares.
  std::vector<int> resolve_chain(const std::string& text,
                                 const std::string& last) const {
    auto lv = by_lvalue_.find(text);
    if (lv != by_lvalue_.end()) return {lv->second};
    auto it = by_last_.find(last);
    if (it != by_last_.end() && it->second.size() == 1) return it->second;
    return {};
  }

  /// Resolves a variable expression starting at token `b` (bounded by `e`)
  /// to candidate variables. Handles the deref-of-table-column idiom
  /// `*slot.addr` / `*slots[i].addr` with the bool-column row filters of
  /// the `if` statements around the access at `at`.
  std::vector<int> resolve_expr(std::size_t b, std::size_t e,
                                std::size_t at) const {
    while (b < e && tok(b).is_punct("(")) ++b;
    if (b >= e) return {};
    bool deref = false;
    if (tok(b).is_punct("*")) {
      deref = true;
      ++b;
    }
    if (b >= e || tok(b).kind != TokKind::kIdent) return {};
    const Chain c = ts_.read_chain(b);
    if (deref) {
      if (auto tf = table_field_of(c.first, c.last)) {
        const TableInfo& table = tables_.at(tf->first);
        auto sit = structs_.find(table.struct_name);
        if (sit != structs_.end()) {
          const int col = sit->second.field_index(tf->second);
          if (col >= 0) {
            const RowFilters filters = row_filters(at);
            std::vector<int> out;
            for (const Row& row : table.rows) {
              if (static_cast<std::size_t>(col) >= row.cells.size()) continue;
              const Cell& cell = row.cells[static_cast<std::size_t>(col)];
              if (cell.kind != Cell::kLval) continue;
              if (!row_passes(tf->first, row, filters)) continue;
              auto lv = by_lvalue_.find(cell.text);
              if (lv != by_lvalue_.end()) out.push_back(lv->second);
            }
            return out;
          }
        }
      }
    }
    return resolve_chain(c.text, c.last);
  }

 private:
  static bool row_passes(const std::string& table_name, const Row& row,
                         const RowFilters& filters) {
    for (const auto& [gtable, col, keep] : filters) {
      if (gtable != table_name) continue;
      if (static_cast<std::size_t>(col) >= row.cells.size()) return false;
      const Cell& cell = row.cells[static_cast<std::size_t>(col)];
      if (cell.kind != Cell::kBool) return false;
      if (cell.bval != keep) return false;
    }
    return true;
  }

  const TokenStream& ts_;
  const ParallelScan& scan_;
  const std::vector<std::size_t>& scope_;  // innermost '{' of each token
  std::map<std::string, StructInfo> structs_;
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, TokenRange> lambdas_;
  std::map<std::string, Policy> policies_;
  std::map<std::string, std::string> range_iters_;  // iter -> table
  std::vector<VarDecl> vars_;
  std::map<std::string, std::vector<int>> by_last_;
  std::map<std::string, int> by_lvalue_;
};

// ---------------------------------------------------------------------
// The IR builder: globals, functions, and one walk over each body
// ---------------------------------------------------------------------

class IrBuilder {
 public:
  IrBuilder(const TokenStream& ts, const ParallelScan& scan, std::string file)
      : ts_(ts), scan_(scan), decls_(ts, scan, scope_) {
    ir_.file = std::move(file);
  }

  FileIr build() {
    collect_scopes();
    decls_.read();
    collect_globals();
    collect_functions();
    ir_.vars = decls_.take_vars();
    ir_.regions = scan_.regions;
    return std::move(ir_);
  }

 private:
  std::size_t n() const { return ts_.size(); }
  const Token& tok(std::size_t i) const { return ts_[i]; }
  bool valid(std::size_t i) const { return ts_.valid(i); }

  Ctx ctx_at(std::size_t pos) const {
    Ctx c;
    const Region* r = scan_.region_at(pos);
    if (r != nullptr) c.region = static_cast<int>(r - scan_.regions.data());
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

  /// A C++ root and the name it was reached by (an alias when they
  /// differ); the root is empty when nothing resolves.
  struct Resolved {
    std::string root;
    std::string name;
  };

  /// The declared variables one access reads, each with its index.
  using VarReads = std::vector<std::pair<int, Index>>;

  void push_touch(Function& fn, const Resolved& root, int var, TouchKind kind,
                  std::size_t pos, const Index& index) {
    const Ctx c = ctx_at(pos);
    Touch t;
    t.symbol = root.root;
    t.var = var;
    t.kind = kind;
    t.line = tok(pos).line;
    t.region = c.region;
    t.parallel = c.parallel;
    t.thread_guarded = c.guarded;
    t.sched = c.sched;
    t.chunk = c.chunk;
    t.blocked = c.blocked;
    t.index = index;
    t.via_alias = !root.root.empty() && root.root != root.name;
    t.block = block_at(pos);
    t.pos = pos;
    fn.touches.push_back(std::move(t));
  }

  /// One touch per declared variable the access at `pos` reads, the first
  /// carrying its C++ root; or, when it reads none, one touch of the root.
  void push_site(Function& fn, const Resolved& root, TouchKind kind,
                 std::size_t pos, const Index& index, const VarReads& vars) {
    if (vars.empty() && !root.root.empty()) {
      push_touch(fn, root, -1, kind, pos, index);
    }
    for (std::size_t k = 0; k < vars.size(); ++k) {
      push_touch(fn, k == 0 ? root : Resolved{}, vars[k].first, kind, pos,
                 vars[k].second);
    }
  }

  /// An index being read: the Index flags so far, and whether the
  /// partitioned loop variable indexes directly.
  struct IndexScan {
    Index index;
    bool loop_var = false;
  };

  /// The one index reader: reads the index tokens [b, e) of an access to
  /// `var` (null when it names no declared variable) in context `c`.
  /// A local lambda called in the index is read in place, `depth` levels
  /// deep.
  void read_index(std::size_t b, std::size_t e, const Ctx& c,
                  const VarDecl* var, IndexScan& s, int depth) const {
    std::size_t nest = 0;
    for (std::size_t k = b; k < e && k < n(); ++k) {
      if (tok(k).is_punct("[")) ++nest;
      if (tok(k).is_punct("]") && nest > 0) --nest;
      if (tok(k).kind != TokKind::kIdent) continue;
      const std::string& name = tok(k).text;
      if (thread_id_name(name)) s.index.per_thread = true;
      if (!c.loop_var.empty() && name == c.loop_var) {
        // The partitioned loop var inside a NESTED subscript means the
        // outer index is loaded from another array: a gather.
        (nest == 0 ? s.loop_var : s.index.indirect) = true;
      }
      const bool head =
          k == 0 || !(tok(k - 1).is_punct(".") || tok(k - 1).is_punct("->") ||
                      tok(k - 1).is_punct("::"));
      if (k + 1 < e && tok(k + 1).is_punct("(")) {
        // An unknown call computes the index: a gather (the
        // RAP_diag_j-as-index class).
        const TokenRange* lambda = head ? decls_.lambda(name) : nullptr;
        if (lambda != nullptr) {
          if (depth > 0) {
            read_index(lambda->first, lambda->second, c, var, s, depth - 1);
          }
        } else if (!known_linear_call(name)) {
          s.index.indirect = true;
        }
      }
      if (var != nullptr && head) {
        // SoA stride: the index scales by an allocation-size identifier.
        const Chain ch = ts_.read_chain(k);
        const bool mul_before = k > b && tok(k - 1).is_punct("*");
        const bool mul_after = ch.end < e && tok(ch.end).is_punct("*");
        if (var->size_idents.count(ch.last) > 0 && (mul_before || mul_after)) {
          s.index.soa = true;
        }
      }
    }
  }

  /// Does each thread span the whole extent? Gathers do and thread-id
  /// indices do not; otherwise an index that ignores the partitioned loop
  /// variable does, and with no known loop variable, an unpartitioned
  /// region does.
  static Index spans(const Ctx& c, IndexScan s) {
    s.index.full_range =
        c.parallel && !s.index.per_thread &&
        (s.index.indirect ||
         (c.loop_var.empty() ? !c.blocked : !s.loop_var));
    return s.index;
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
  Resolved first_resolvable(const Function& fn, std::size_t b,
                            std::size_t e) const {
    for (std::size_t k = b; k < e && k < n(); ++k) {
      if (tok(k).kind != TokKind::kIdent) continue;
      std::string root = resolve(fn, tok(k).text);
      if (!root.empty()) return {std::move(root), tok(k).text};
    }
    return {};
  }

  /// The declared variable a plain `NAME[...]` element access names, or
  /// -1: qualified names, registered stack variables and the declaration
  /// itself name none.
  int element_var(std::size_t i) const {
    if (!valid(i + 1) || !tok(i + 1).is_punct("[") ||
        ts_.matching(i + 1) >= n()) {
      return -1;
    }
    if (i > 0 && tok(i - 1).is_punct("::")) return -1;
    const std::string& t = tok(i).text;
    const std::vector<int> vars = decls_.resolve_chain(t, t);
    if (vars.empty()) return -1;
    const VarDecl& v = decls_.var(vars[0]);
    if (v.storage == VarDecl::kStackReg) return -1;
    if (v.line == tok(i).line && v.lvalue == t && i > 0) {
      const Token& prev = tok(i - 1);
      if (prev.kind == TokKind::kIdent || prev.is_punct("*") ||
          prev.is_punct(">") || prev.is_punct("&")) {
        return -1;
      }
    }
    return vars[0];
  }

  /// The variables the expression [b, e) at `at` names, all read with
  /// `index`.
  VarReads reads_of(std::size_t b, std::size_t e, std::size_t at,
                    const Index& index) const {
    VarReads out;
    for (int v : decls_.resolve_expr(b, e, at)) out.emplace_back(v, index);
    return out;
  }

  /// The variables `t.load(EXPR)` / `t.store(EXPR)` reads at `at`: EXPR
  /// is elem_addr(base, idx), a local address-helper lambda call, or a
  /// bare chain (+ offset arithmetic).
  VarReads read_address(std::size_t b, std::size_t e, std::size_t at) const {
    const Ctx c = ctx_at(at);
    VarReads out;
    while (b < e && tok(b).is_punct("(")) ++b;
    if (b >= e) return out;
    if (tok(b).kind == TokKind::kIdent) {
      const Chain ch = ts_.read_chain(b);
      if (ch.end < e && tok(ch.end).is_punct("(")) {
        if (ch.last == "elem_addr" || ch.last == "field_addr_of") {
          const auto inner = ts_.split_args(ch.end);
          if (inner.empty()) return out;
          for (int v : decls_.resolve_expr(inner[0].first, inner[0].second,
                                           at)) {
            IndexScan s;
            for (std::size_t a = 1; a < inner.size(); ++a) {
              read_index(inner[a].first, inner[a].second, c, &decls_.var(v),
                         s, 1);
            }
            out.emplace_back(v, s.index);
          }
          return out;
        }
        if (const TokenRange* lambda = decls_.lambda(ch.text)) {
          // Address-helper lambda: attribute to the base variables named
          // in its return expressions; read the whole body as the index.
          const auto [lb, le] = *lambda;
          std::set<int> bases;
          for (std::size_t k = lb; k < le; ++k) {
            if (!tok(k).is_ident("return")) continue;
            std::size_t p = k + 1;
            while (p < le && tok(p).is_punct("(")) ++p;
            if (p < le && tok(p).kind == TokKind::kIdent) {
              const Chain rc = ts_.read_chain(p);
              for (int v : decls_.resolve_chain(rc.text, rc.last)) {
                bases.insert(v);
              }
            }
          }
          for (int v : bases) {
            IndexScan s;
            read_index(lb, le, c, &decls_.var(v), s, 1);
            // Also the call's own arguments.
            read_index(b, e, c, &decls_.var(v), s, 0);
            out.emplace_back(v, s.index);
          }
          return out;
        }
      }
      // Bare chain + arithmetic: the base resolves, the rest is the index.
      const std::vector<int> vars = decls_.resolve_chain(ch.text, ch.last);
      if (!vars.empty()) {
        for (int v : vars) {
          IndexScan s;
          read_index(ch.end, e, c, &decls_.var(v), s, 1);
          out.emplace_back(v, s.index);
        }
        return out;
      }
    }
    // Leading '*' deref or unresolvable: try the table idiom.
    return reads_of(b, e, at, Index{});
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
    push_touch(fn, Resolved{root, base}, -1, TouchKind::kAlloc, i, Index{});
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
        push_touch(fn, Resolved{name, name}, -1, TouchKind::kAlloc, i,
                   Index{});
        return;
      }
    }
    const std::string root = resolve(fn, name);
    if (root.empty()) maybe_alias_decl(fn, i);
    const int var = element_var(i);
    if (root.empty() && var < 0) return;
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
    Index index;
    for (std::size_t k = i + 1; indexed && k < c.end && k < n(); ++k) {
      if (tok(k).is_punct("[")) {
        const Ctx ctx = ctx_at(i);
        IndexScan s;
        read_index(k + 1, ts_.matching(k), ctx,
                   var < 0 ? nullptr : &decls_.var(var), s, 1);
        index = spans(ctx, s);
        break;
      }
    }
    push_site(fn, Resolved{root, name},
              write ? TouchKind::kWrite : TouchKind::kRead, i, index,
              var < 0 ? VarReads{} : VarReads{{var, index}});
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
        // The destination is written and a memcpy source read, each over
        // its whole extent.
        const auto args = ts_.split_args(i + 1);
        const Index index{.full_range = ctx_at(i).parallel};
        const std::size_t operands = s == "memcpy" ? 2 : 1;
        for (std::size_t a = 0; a < operands && a < args.size(); ++a) {
          const auto [ab, ae] = args[a];
          push_site(fn, first_resolvable(fn, ab, ae),
                    a == 0 ? TouchKind::kWrite : TouchKind::kRead, i, index,
                    reads_of(ab, ae, i, index));
        }
        continue;
      }
      if ((s == "store_lines" || s == "load_lines") && !member &&
          call_shaped) {
        const auto args = ts_.split_args(i + 1);
        if (args.size() >= 2) {
          // The line range is the index: full-range unless partitioned.
          const Ctx c = ctx_at(i);
          const Index index{.full_range = c.parallel && !c.blocked &&
                                          !args_reference_tid(args, 2)};
          const auto [ab, ae] = args[1];
          push_site(fn, first_resolvable(fn, ab, ae),
                    s == "store_lines" ? TouchKind::kWrite : TouchKind::kRead,
                    i, index, reads_of(ab, ae, i, index));
        }
        continue;
      }
      if ((s == "store" || s == "load") && member && call_shaped) {
        const auto args = ts_.split_args(i + 1);
        if (!args.empty()) {
          push_site(fn, first_resolvable(fn, args[0].first, args[0].second),
                    s == "store" ? TouchKind::kWrite : TouchKind::kRead, i,
                    Index{}, read_address(args[0].first, args[0].second, i));
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
  Declarations decls_;
  std::set<std::string> global_names_;
  FileIr ir_;
};

}  // namespace

FileIr build_ir(const TokenStream& tokens, const ParallelScan& scan,
                std::string file) {
  return IrBuilder(tokens, scan, std::move(file)).build();
}

}  // namespace numaprof::lint::ir
