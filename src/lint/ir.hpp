// Declaration/def-use IR for the numalint interprocedural engine.
//
// The L1-L4 recognizer (numalint.cpp) works on token shapes within one
// translation unit; anything split across a function or file boundary is
// invisible to it. This layer reads the same TokenStream (lint/lexer.hpp)
// and the same parallel-region/guard scan (lint/regions.hpp) into a small
// whole-program-ready IR instead: per file, the functions it defines
// (with parameters), the globals it declares, and per function the
// allocations, pointer aliases, call sites, and reads/writes of named
// symbols — each access annotated with its parallel context (region,
// schedule, thread guard) and positioned on a per-function control-flow
// graph so "first touch" means first in execution order, not first in
// the file. src/lint/dataflow.hpp turns this IR into function summaries
// and propagates them across translation units.
#pragma once

#include <cstdint>
#include <map>
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

enum class TouchKind : std::uint8_t {
  kAlloc,  // symbol assigned from malloc / new[] / t.malloc
  kWrite,
  kRead,
};

/// One access to a named symbol inside a function body.
struct Touch {
  std::string symbol;  // name as written in this function
  TouchKind kind = TouchKind::kRead;
  std::uint32_t line = 0;
  bool parallel = false;        // inside a parallel region, unguarded
  bool thread_guarded = false;  // under an `if (tid == 0)`-style guard
  Schedule sched = Schedule::kNone;
  int chunk = 0;             // explicit static/dynamic chunk size, 0 = none
  bool blocked = false;      // region partitions with block_slice/schedule
  bool full_range = false;   // each thread spans the whole extent
  bool via_alias = false;    // reached through a local pointer alias
  std::string alias;         // the alias name used (message material)
  int block = 0;             // owning CFG basic block
  std::size_t pos = 0;       // token position (intra-block order)
};

/// A call to a named function, with the symbols passed as bare arguments
/// (empty string for non-symbol expressions) and the parallel context of
/// the call site — a serial helper called from a parallel loop touches
/// memory in parallel, which is exactly what the per-TU pass misses.
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
struct Global {
  std::string name;
  std::uint32_t line = 0;
  bool is_extern = false;
};

struct FileIr {
  std::string file;
  std::vector<Function> functions;
  /// File-scope data symbols: static/global arrays and pointers, extern
  /// declarations included (they give cross-TU symbols their identity).
  std::vector<Global> globals;
};

/// Reads one lexed translation unit and its region scan into the IR.
/// Never throws on malformed input; unrecognized constructs simply
/// contribute nothing.
FileIr build_ir(const TokenStream& tokens, const ParallelScan& scan,
                std::string file);

}  // namespace numaprof::lint::ir
