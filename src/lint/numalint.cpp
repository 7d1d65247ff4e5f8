#include "lint/numalint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/export/writer_util.hpp"
#include "lint/ir.hpp"
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

// ---------------------------------------------------------------------
// Recognizer model
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

struct Policy {
  bool interleave = false;
  bool first_touch = false;
  bool bind = false;
};

struct VarDecl {
  enum Storage : std::uint8_t { kHeap, kStatic, kStack, kStackReg };
  std::string name;    // source-level name
  std::string lvalue;  // canonical chain ("run.x", "level.rap_diag_i")
  std::string last;    // trailing identifier of the lvalue
  std::uint32_t line = 0;
  Storage storage = kHeap;
  std::set<std::string> size_idents;  // trailing idents in the size expr
  Policy policy;
  std::uint32_t elem_size = 8;
};

struct Access {
  int var = -1;
  bool write = false;
  std::uint32_t line = 0;
  const Region* region = nullptr;  // innermost; null outside any region
  bool thread_guarded = false;     // in a ParallelScan guard range
  bool indirect = false;           // index computed through an unknown call
  bool soa = false;                // index scales by an allocation-size ident
  bool per_thread = false;         // element selected by a thread id
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

// ---------------------------------------------------------------------
// Per-file analyzer
// ---------------------------------------------------------------------

class FileAnalyzer {
 public:
  FileAnalyzer(const TokenStream& ts, const ParallelScan& scan,
               std::string file)
      : ts_(ts), scan_(scan), file_(std::move(file)) {
    stats_.files = 1;
    stats_.lines = ts.lines();
    stats_.tokens = ts.size();
  }

  LintResult run() {
    collect_code_blocks();
    collect_structs();
    collect_lambdas();
    collect_policies();
    collect_tables();
    collect_range_fors();
    collect_vars();
    collect_accesses();
    emit();
    dataflow::sort_findings(findings_);
    return {std::move(findings_), stats_};
  }

 private:
  // -- token utilities -------------------------------------------------

  std::size_t n() const { return ts_.size(); }
  const Token& tok(std::size_t i) const { return ts_[i]; }
  bool valid(std::size_t i) const { return ts_.valid(i); }

  // -- structural passes -----------------------------------------------

  void collect_code_blocks() {
    for (std::size_t i = 0; i < n(); ++i) {
      if (tok(i).is_punct("{") && ts_.matching(i) < n() &&
          ts_.brace_kind(i) == 'c') {
        code_blocks_.emplace_back(i, ts_.matching(i));
      }
    }
  }

  bool in_function(std::size_t i) const {
    for (const auto& [open, close] : code_blocks_) {
      if (open < i && i < close) return true;
    }
    return false;
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
      } else if (b < e && (tok(b).is_ident("true") || tok(b).is_ident("false"))) {
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

  // -- guard analysis ---------------------------------------------------

  struct Guards {
    bool thread_guarded = false;
    // Row filters: (table name, bool column index, keep-when value).
    std::vector<std::tuple<std::string, int, bool>> row_filters;
  };

  Guards guards_of(std::size_t i) const {
    Guards g;
    g.thread_guarded = scan_.guarded(i);
    for (const IfStmt& stmt : scan_.ifs) {
      if (!(stmt.body.first <= i && i < stmt.body.second)) continue;
      add_row_filters(stmt.cond.first, stmt.cond.second, g);
    }
    return g;
  }

  /// Row filters: ITER.FIELD where ITER ranges over a table and FIELD is
  /// a bool column — or TABLE[...].FIELD.
  void add_row_filters(std::size_t b, std::size_t e, Guards& g) const {
    for (std::size_t i = b; i < e && i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const bool negated = i > 0 && tok(i - 1).is_punct("!");
      const Chain c = ts_.read_chain(i);
      if (auto tf = table_field_of(c.first, c.last)) {
        const int col = bool_column(tables_.at(tf->first), tf->second);
        if (col >= 0) g.row_filters.emplace_back(tf->first, col, !negated);
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
      if (addr_cell.kind != Cell::kLval || row.cells.front().kind != Cell::kStr) {
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
      v.storage = is_static || !in_function(i) ? VarDecl::kStatic
                                               : VarDecl::kStack;
      v.elem_size = elem == 0 ? 8 : elem;
      v.policy.first_touch = true;
      add_size_idents(i + 2, close, v);
      push_var(std::move(v));
    }
  }

  // -- accesses ---------------------------------------------------------

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
  /// `*slot.addr` / `*slots[i].addr` with bool-column row filters.
  std::vector<int> resolve_expr(std::size_t b, std::size_t e,
                                const Guards& guards) const {
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
            std::vector<int> out;
            for (const Row& row : table.rows) {
              if (static_cast<std::size_t>(col) >= row.cells.size()) continue;
              const Cell& cell = row.cells[static_cast<std::size_t>(col)];
              if (cell.kind != Cell::kLval) continue;
              if (!row_passes(table, tf->first, row, guards)) continue;
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

  bool row_passes(const TableInfo& table, const std::string& table_name,
                  const Row& row, const Guards& guards) const {
    for (const auto& [gtable, col, keep] : guards.row_filters) {
      if (gtable != table_name) continue;
      if (static_cast<std::size_t>(col) >= row.cells.size()) return false;
      const Cell& cell = row.cells[static_cast<std::size_t>(col)];
      if (cell.kind != Cell::kBool) return false;
      if (cell.bval != keep) return false;
    }
    (void)table;
    return true;
  }

  struct IndexShape {
    bool indirect = false;
    bool soa = false;
    bool per_thread = false;
  };

  /// Classifies an index expression against a variable's size idents.
  /// `depth` bounds lambda inlining.
  void classify_index(std::size_t b, std::size_t e, const VarDecl& var,
                      IndexShape& shape, int depth) const {
    for (std::size_t i = b; i < e && i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const Chain c = ts_.read_chain(i);
      // Unknown call => indirect indexing (the RAP_diag_j-as-index class).
      // to_string counts as linear here; the IR reads it as a gather.
      const bool is_call = c.end < n() && tok(c.end).is_punct("(") &&
                           c.end < e;
      if (is_call) {
        auto lam = lambdas_.find(c.text);
        if (lam != lambdas_.end()) {
          if (depth > 0) {
            classify_index(lam->second.first, lam->second.second, var, shape,
                           depth - 1);
          }
        } else if (!known_linear_call(c.last) && c.last != "to_string") {
          shape.indirect = true;
        }
      }
      if (thread_id_name(c.last)) shape.per_thread = true;
      // SoA stride: the index scales by an allocation-size identifier.
      if (var.size_idents.count(c.last)) {
        const bool mul_before = i > b && tok(i - 1).is_punct("*");
        const bool mul_after = c.end < e && tok(c.end).is_punct("*");
        if (mul_before || mul_after) shape.soa = true;
      }
      i = c.end > i ? c.end - 1 : i;
    }
  }

  void add_access(const std::vector<int>& vars, bool write, std::size_t at,
                  const Guards& guards, const IndexShape& shape) {
    const Region* region = scan_.region_at(at);
    for (int v : vars) {
      Access a;
      a.var = v;
      a.write = write;
      a.line = tok(at).line;
      a.region = region;
      a.thread_guarded = guards.thread_guarded;
      a.indirect = shape.indirect;
      a.soa = shape.soa;
      a.per_thread = shape.per_thread;
      accesses_.push_back(a);
    }
  }

  void collect_accesses() {
    for (std::size_t i = 0; i < n(); ++i) {
      if (tok(i).kind != TokKind::kIdent) continue;
      const std::string& t = tok(i).text;
      const bool call = valid(i + 1) && tok(i + 1).is_punct("(");

      if ((t == "store_lines" || t == "load_lines") && call) {
        const auto args = ts_.split_args(i + 1);
        if (args.size() < 2) continue;
        const Guards g = guards_of(i);
        add_access(resolve_expr(args[1].first, args[1].second, g),
                   t == "store_lines", i, g, IndexShape{});
        continue;
      }
      const bool member_call =
          call && i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->"));
      if ((t == "store" || t == "load") && member_call) {
        const auto args = ts_.split_args(i + 1);
        if (args.empty()) continue;
        const Guards g = guards_of(i);
        analyze_address_expr(args[0].first, args[0].second, t == "store", i,
                             g);
        continue;
      }
      // Generic element access: VAR [ index ] (...) possibly assigned.
      if (valid(i + 1) && tok(i + 1).is_punct("[") && !call) {
        const std::vector<int> vars = resolve_chain(t, t);
        if (vars.empty()) continue;
        // Only track plain-array vars here (DSL vars use load/store).
        const VarDecl& v = vars_[static_cast<std::size_t>(vars[0])];
        if (v.storage != VarDecl::kStack && v.storage != VarDecl::kStatic &&
            v.storage != VarDecl::kHeap) {
          continue;
        }
        if (i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->") ||
                      tok(i - 1).is_punct("::"))) {
          continue;
        }
        // Skip the declaration itself.
        if (v.line == tok(i).line && v.lvalue == t) {
          const Token& prev = tok(i - 1);
          if (prev.kind == TokKind::kIdent || prev.is_punct("*") ||
              prev.is_punct(">") || prev.is_punct("&")) {
            continue;
          }
        }
        const std::size_t close = ts_.matching(i + 1);
        if (close >= n()) continue;
        IndexShape shape;
        classify_index(i + 2, close, v, shape, 1);
        // Postfix: [idx].field chain, then an assignment operator?
        std::size_t p = close + 1;
        while (valid(p) && (tok(p).is_punct(".") || tok(p).is_punct("->")) &&
               valid(p + 1) && tok(p + 1).kind == TokKind::kIdent) {
          p += 2;
        }
        bool write = false;
        if (valid(p) && tok(p).kind == TokKind::kPunct) {
          const std::string& op = tok(p).text;
          write = op == "=" || op == "+=" || op == "-=" || op == "*=" ||
                  op == "/=" || op == "|=" || op == "&=" || op == "^=" ||
                  op == "++" || op == "--";
        }
        if (i > 0 && (tok(i - 1).is_punct("++") || tok(i - 1).is_punct("--"))) {
          write = true;
        }
        const Guards g = guards_of(i);
        add_access(vars, write, i, g, shape);
      }
    }
  }

  /// t.load(EXPR) / t.store(EXPR): EXPR is elem_addr(base, idx), a local
  /// address-helper lambda call, or a bare chain (+ offset arithmetic).
  void analyze_address_expr(std::size_t b, std::size_t e, bool write,
                            std::size_t at, const Guards& g) {
    while (b < e && tok(b).is_punct("(")) ++b;
    if (b >= e) return;
    if (tok(b).kind == TokKind::kIdent) {
      const Chain c = ts_.read_chain(b);
      if (c.end < e && tok(c.end).is_punct("(")) {
        if (c.last == "elem_addr" || c.last == "field_addr_of") {
          const auto inner = ts_.split_args(c.end);
          if (inner.empty()) return;
          const std::vector<int> vars =
              resolve_expr(inner[0].first, inner[0].second, g);
          for (int vi : vars) {
            IndexShape shape;
            for (std::size_t a = 1; a < inner.size(); ++a) {
              classify_index(inner[a].first, inner[a].second,
                             vars_[static_cast<std::size_t>(vi)], shape, 1);
            }
            add_access({vi}, write, at, g, shape);
          }
          return;
        }
        auto lam = lambdas_.find(c.text);
        if (lam != lambdas_.end()) {
          // Address-helper lambda: attribute to the base variables named
          // in its return expressions; classify over the whole body.
          const auto [lb, le] = lam->second;
          std::set<int> bases;
          for (std::size_t k = lb; k < le; ++k) {
            if (!tok(k).is_ident("return")) continue;
            std::size_t p = k + 1;
            while (p < le && tok(p).is_punct("(")) ++p;
            if (p < le && tok(p).kind == TokKind::kIdent) {
              const Chain rc = ts_.read_chain(p);
              for (int vi : resolve_chain(rc.text, rc.last)) bases.insert(vi);
            }
          }
          for (int vi : bases) {
            IndexShape shape;
            classify_index(lb, le, vars_[static_cast<std::size_t>(vi)], shape,
                           1);
            // Also the call's own arguments.
            classify_index(b, e, vars_[static_cast<std::size_t>(vi)], shape,
                           0);
            add_access({vi}, write, at, g, shape);
          }
          return;
        }
      }
      // Bare chain + arithmetic: base resolves, rest classifies the index.
      const std::vector<int> vars = resolve_chain(c.text, c.last);
      if (!vars.empty()) {
        for (int vi : vars) {
          IndexShape shape;
          classify_index(c.end, e, vars_[static_cast<std::size_t>(vi)], shape,
                         1);
          add_access({vi}, write, at, g, shape);
        }
        return;
      }
    }
    // Leading '*' deref or unresolvable: try the table idiom.
    const std::vector<int> vars = resolve_expr(b, e, g);
    if (!vars.empty()) add_access(vars, write, at, g, IndexShape{});
  }

  // -- finding emission -------------------------------------------------

  void emit() {
    for (std::size_t vi = 0; vi < vars_.size(); ++vi) {
      const VarDecl& v = vars_[vi];
      std::vector<const Access*> serial_writes, par_acc, par_writes;
      std::set<std::string> par_regions;
      bool any_indirect = false, any_soa = false, any_per_thread_write = false;
      bool any_blocked_region = false, any_round_robin = false;
      for (const Access& a : accesses_) {
        if (a.var != static_cast<int>(vi)) continue;
        const bool serial_ctx =
            a.region == nullptr || !a.region->parallel || a.thread_guarded;
        if (a.write && serial_ctx) serial_writes.push_back(&a);
        if (!serial_ctx) {
          par_acc.push_back(&a);
          if (a.write) par_writes.push_back(&a);
          if (a.indirect) any_indirect = true;
          if (a.soa) any_soa = true;
          if (a.write && a.per_thread) any_per_thread_write = true;
          const Region& r = *a.region;
          par_regions.insert(r.name.empty() ? "<anonymous>" : r.name);
          if (r.partitioned) any_blocked_region = true;
          if (r.round_robin) any_round_robin = true;
        }
        if (a.soa) any_soa = true;
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

      // L1: serial initialization feeding parallel consumers.
      if (!serial_writes.empty() &&
          (v.storage == VarDecl::kHeap || v.storage == VarDecl::kStatic ||
           v.storage == VarDecl::kStackReg)) {
        const Access* first = *std::min_element(
            serial_writes.begin(), serial_writes.end(),
            [](const Access* a, const Access* b) { return a->line < b->line; });
        StaticFinding f;
        f.file = file_;
        f.line = first->line;
        f.decl_line = v.line;
        f.variable = v.name;
        f.kind = LintKind::kSerialFirstTouch;
        f.expected = expected;
        f.suggested = suggested;
        std::ostringstream msg;
        msg << "'" << v.name << "' is written by serial code ("
            << serial_writes.size() << " site" << (serial_writes.size() == 1 ? "" : "s")
            << ") but consumed by parallel region" << (par_regions.size() == 1 ? " " : "s ")
            << regions_str
            << "; first touch homes every page in the initializing thread's "
               "domain";
        f.message = msg.str();
        findings_.push_back(std::move(f));
      }

      // L3: a stack array escaping into parallel regions.
      if ((v.storage == VarDecl::kStack || v.storage == VarDecl::kStackReg)) {
        const Access* first = *std::min_element(
            par_acc.begin(), par_acc.end(),
            [](const Access* a, const Access* b) { return a->line < b->line; });
        StaticFinding f;
        f.file = file_;
        f.line = first->line;
        f.decl_line = v.line;
        f.variable = v.name;
        f.kind = LintKind::kStackEscape;
        f.expected = expected;
        f.suggested = suggested;
        std::ostringstream msg;
        msg << "stack array '" << v.name << "' escapes into parallel region"
            << (par_regions.size() == 1 ? " " : "s ") << regions_str
            << "; its pages live on one thread's stack and cannot be "
               "re-homed — promote it to static/heap data first";
        f.message = msg.str();
        findings_.push_back(std::move(f));
      }

      // L2: per-thread-written elements packed within one cache line.
      if (any_per_thread_write && v.elem_size > 0 && v.elem_size < 64) {
        const Access* first = nullptr;
        for (const Access* a : par_writes) {
          if (a->per_thread && (first == nullptr || a->line < first->line)) {
            first = a;
          }
        }
        if (first != nullptr) {
          StaticFinding f;
          f.file = file_;
          f.line = first->line;
          f.decl_line = v.line;
          f.variable = v.name;
          f.kind = LintKind::kFalseSharing;
          f.expected = PatternKind::kBlocked;
          f.suggested = Action::kPadAlign;
          std::ostringstream msg;
          msg << "'" << v.name << "' packs " << v.elem_size
              << "-byte per-thread-written elements within one 64-byte cache "
                 "line; pad or align each thread's element to a full line";
          f.message = msg.str();
          findings_.push_back(std::move(f));
        }
      }

      // L4: interleaving an array whose every parallel access is
      // block-local (the §8.1 POWER7 regression).
      if (v.policy.interleave && !any_indirect && !any_soa &&
          (any_blocked_region || !par_writes.empty())) {
        StaticFinding f;
        f.file = file_;
        f.line = v.line;
        f.decl_line = v.line;
        f.variable = v.name;
        f.kind = LintKind::kInterleaveMisuse;
        f.expected = PatternKind::kBlocked;
        f.suggested = Action::kBlockwiseFirstTouch;
        std::ostringstream msg;
        msg << "'" << v.name << "' may be allocated interleaved, but its "
               "parallel accesses are block-local; interleaving forfeits "
               "natural block locality — prefer a blockwise parallel first "
               "touch";
        f.message = msg.str();
        findings_.push_back(std::move(f));
      }
    }
    // Deduplicate identical findings.
    std::set<std::tuple<std::string, std::uint32_t, std::string, int>> seen;
    std::vector<StaticFinding> unique;
    for (StaticFinding& f : findings_) {
      auto key = std::make_tuple(f.file, f.line, f.variable,
                                 static_cast<int>(f.kind));
      if (seen.insert(key).second) unique.push_back(std::move(f));
    }
    findings_ = std::move(unique);
  }

  // -- state ------------------------------------------------------------

  const TokenStream& ts_;
  const ParallelScan& scan_;
  std::string file_;
  std::vector<TokenRange> code_blocks_;  // function / control-flow bodies
  std::map<std::string, StructInfo> structs_;
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, std::pair<std::size_t, std::size_t>> lambdas_;
  std::map<std::string, Policy> policies_;
  std::map<std::string, std::string> range_iters_;  // iter -> table
  std::vector<VarDecl> vars_;
  std::vector<Access> accesses_;
  std::map<std::string, std::vector<int>> by_last_;
  std::map<std::string, int> by_lvalue_;
  std::vector<StaticFinding> findings_;
  LintStats stats_;
};

}  // namespace

FilePhase1 lint_file_phase1(std::string_view source, std::string file) {
  const TokenStream tokens(source);
  const ParallelScan scan = scan_parallel(tokens);
  FilePhase1 out;
  out.local = FileAnalyzer(tokens, scan, file).run();
  out.summary =
      dataflow::summarize(ir::build_ir(tokens, scan, std::move(file)));
  return out;
}

namespace {

/// Folds phase-1 parts in the given order, then runs phase 2: the
/// whole-program propagation is serial and deterministic, so the result
/// depends only on the parts, never on how many threads produced them.
LintResult fold(std::vector<FilePhase1> parts) {
  LintResult out;
  std::vector<dataflow::FileSummary> summaries;
  summaries.reserve(parts.size());
  for (FilePhase1& one : parts) {
    out.stats.files += one.local.stats.files;
    out.stats.lines += one.local.stats.lines;
    out.stats.tokens += one.local.stats.tokens;
    out.findings.insert(out.findings.end(),
                        std::make_move_iterator(one.local.findings.begin()),
                        std::make_move_iterator(one.local.findings.end()));
    summaries.push_back(std::move(one.summary));
  }
  std::vector<StaticFinding> inter =
      dataflow::propagate_and_check(std::move(summaries));
  out.findings.insert(out.findings.end(),
                      std::make_move_iterator(inter.begin()),
                      std::make_move_iterator(inter.end()));
  dataflow::sort_findings(out.findings);
  return out;
}

}  // namespace

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
