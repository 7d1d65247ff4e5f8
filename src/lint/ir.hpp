// The per-file model of numalint.
//
// `build_ir` reads one lexed translation unit (lint/lexer.hpp) and its
// parallel-region/guard scan (lint/regions.hpp) into a FileIr, the only
// model the checks read. It holds the variables the file declares (heap
// and static allocations, DSL table rows, stack arrays, each with its
// placement policy and size identifiers), the globals it declares, and
// per function the parameters, allocations, pointer aliases, call sites
// and touches. A touch is one read or write, annotated with the declared
// variable it resolves to, the C++ root symbol it names, its parallel
// context (region, schedule, thread guard), one reading of its index,
// and its place on a per-function control-flow graph, so "first touch"
// means first in execution order, not first in the file.
//
// The per-file checks L1-L4 (numalint.cpp) are a query over the touches
// grouped by declared variable. The whole-program pass
// (lint/dataflow.hpp) propagates the touches that name a C++ root
// across functions and files.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/regions.hpp"

namespace numaprof::lint::ir {

using lint::Schedule;

struct Param {
  std::string name;
  bool pointer_like = false;  // T*, T&, T[], or a DSL address (VAddr)
};

/// Placement a variable may be allocated under; a policy expression may
/// name several (a ternary, a reassigned PolicySpec).
struct Policy {
  bool interleave = false;
  bool first_touch = false;
  bool bind = false;
};

/// A variable the file declares: an allocation (malloc, t.malloc, new[],
/// define_static), a DSL table row naming one, a registered stack
/// variable, or a plain array.
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

enum class TouchKind : std::uint8_t {
  kAlloc,  // symbol assigned from malloc / new[] / t.malloc
  kWrite,
  kRead,
};

/// One reading of the index a touch addresses its variable with.
struct Index {
  bool indirect = false;    // gathered: through an unknown call, or the
                            // loop variable inside a nested subscript
  bool soa = false;         // scales by an allocation-size identifier
  bool per_thread = false;  // selected by a thread id
  bool full_range = false;  // in parallel, each thread spans the extent
                            // (read at subscripts, line ranges and mem*
                            // calls; a DSL address never claims it)
};

/// One access inside a function body.
struct Touch {
  /// The C++ root as written in this function (a parameter, a local
  /// allocation or a global); empty when the access names none, and then
  /// only the per-file checks read the touch.
  std::string symbol;
  int var = -1;  // the declared variable (FileIr::vars), -1 for none
  TouchKind kind = TouchKind::kRead;
  std::uint32_t line = 0;
  int region = -1;              // innermost FileIr::regions entry, or -1
  bool parallel = false;        // inside a parallel region, unguarded
  bool thread_guarded = false;  // under an `if (tid == 0)`-style guard
  Schedule sched = Schedule::kNone;
  int chunk = 0;             // explicit static/dynamic chunk size, 0 = none
  bool blocked = false;      // region partitions with block_slice/schedule
  Index index;
  bool via_alias = false;    // reached through a local pointer alias
  int block = 0;             // owning CFG basic block
  std::size_t pos = 0;       // token position (intra-block order)
};

/// A call to a named function, with the symbols passed as bare arguments
/// (empty string for non-symbol expressions) and the parallel context of
/// the call site — a serial helper called from a parallel loop touches
/// memory in parallel, which no single function shows.
struct CallSite {
  std::string callee;
  std::uint32_t line = 0;
  std::vector<std::string> args;
  bool parallel = false;
  bool thread_guarded = false;
  Schedule sched = Schedule::kNone;
  int chunk = 0;
  bool blocked = false;
  int block = 0;
  std::size_t pos = 0;
};

/// CFG basic block: a run of straight-line statements. Blocks are
/// numbered in construction order; `rpo` gives the reverse-post-order
/// rank used to linearize touches into execution order.
struct BasicBlock {
  std::vector<int> succ;
  int rpo = 0;
};

struct Function {
  std::string name;
  std::string file;
  std::uint32_t line = 0;
  /// Internal linkage: `static` at namespace scope, or in an unnamed
  /// namespace. Calls from other files never reach it while their own
  /// file or an external definition supplies the name.
  bool internal = false;
  std::vector<Param> params;
  std::vector<Touch> touches;
  std::vector<CallSite> calls;
  std::vector<BasicBlock> blocks;
  /// Locals assigned from an allocation call (allocation roots).
  std::vector<std::string> local_allocs;
  /// Local pointer aliases: alias name -> root symbol in this function.
  std::map<std::string, std::string> aliases;

  int param_index(std::string_view name) const noexcept;
  bool is_local_alloc(std::string_view name) const noexcept;
  /// Execution-order key of a touch/call: (block rpo, token position).
  std::pair<int, std::size_t> order_of(int block, std::size_t pos) const;
};

/// A file-scope data symbol. Extern declarations are kept — they are what
/// gives a cross-TU symbol its identity in the referencing file — but the
/// defining declaration wins when provenance needs "where it lives".
/// An internal one (`static` at namespace scope, or in an unnamed
/// namespace) is a different symbol from every other file's.
struct Global {
  std::string name;
  std::uint32_t line = 0;
  bool is_extern = false;
  bool internal = false;
};

struct FileIr {
  std::string file;
  std::vector<Function> functions;
  /// File-scope data symbols: static/global arrays and pointers, extern
  /// declarations included (they give cross-TU symbols their identity).
  std::vector<Global> globals;
  /// Declared variables, in declaration order; Touch::var indexes it.
  std::vector<VarDecl> vars;
  /// The scan's parallel constructs, by value; Touch::region indexes it.
  std::vector<Region> regions;
};

/// Reads one lexed translation unit and its region scan into the IR.
/// Never throws on malformed input; unrecognized constructs simply
/// contribute nothing.
FileIr build_ir(const TokenStream& tokens, const ParallelScan& scan,
                std::string file);

}  // namespace numaprof::lint::ir
