// Interprocedural dataflow over the lint IR.
//
// Per function, `summarize` reduces the IR to effects: which parameters,
// globals, and local allocation roots the function allocates, writes, or
// reads, and in what parallel context. `propagate_and_check` then runs a
// whole-program fixpoint over every file's summary: parameter effects are
// lifted through call sites into the caller's symbols (so a helper that
// serially initializes its pointer argument charges the initialization to
// whatever the caller passed), global effects are re-contextualized when
// a serial helper is invoked from inside a parallel region, and each hop
// is recorded as provenance. The aggregated per-symbol picture drives the
// four interprocedural checks:
//
//   L5 cross-function serial first touch   (alloc / init / consume split
//                                           across functions or files)
//   L6 parallel-init / parallel-consume schedule mismatch
//   L7 alias-obscured first touch          (init through a pointer alias
//                                           or a wrapper call chain)
//   L8 read-mostly replication candidate   (written once serially, read
//                                           by every thread, full range)
//
// Findings come out in the advisor's StaticFinding/Action vocabulary so
// core::fuse_findings consumes them exactly like the per-TU L1-L4 ones.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "lint/ir.hpp"

namespace numaprof::lint::dataflow {

/// One call-chain step in a lifted effect's provenance: at `file:line`
/// (in the function owning the effect) control passes into `callee`.
struct Hop {
  std::string callee;
  std::string file;
  std::uint32_t line = 0;
};

/// One memory effect a function has on a named symbol. `target` says how
/// the symbol is addressed from the owning function's frame; the
/// file/line/touch_fn triple always names the REAL touch site, however
/// many call hops away it is.
struct Effect {
  enum class Target : std::uint8_t {
    kParam,   // through parameter `param` of the owning function
    kGlobal,  // a file-scope symbol
    kLocal,   // an allocation root local to the owning function
  };
  Target target = Target::kGlobal;
  int param = -1;
  std::string symbol;  // symbol name in the owning function's frame
  ir::TouchKind kind = ir::TouchKind::kRead;
  bool parallel = false;
  bool guarded = false;
  bool full_range = false;
  bool via_alias = false;
  ir::Schedule sched = ir::Schedule::kNone;
  int chunk = 0;
  bool blocked = false;
  std::string file;      // where the touch physically is
  std::uint32_t line = 0;
  std::string touch_fn;  // function containing the physical touch
  /// Execution-order key within the OWNING function (block rpo, token
  /// position of the touch, or of the call site for lifted effects).
  std::pair<int, std::size_t> order{0, 0};
  std::vector<Hop> chain;  // call path from the owning fn to the touch
};

/// A call site, reduced to what propagation needs.
struct Call {
  std::string callee;
  std::uint32_t line = 0;
  std::vector<std::string> args;  // resolved symbol per position, "" = expr
  bool parallel = false;
  bool guarded = false;
  ir::Schedule sched = ir::Schedule::kNone;
  int chunk = 0;
  bool blocked = false;
  std::pair<int, std::size_t> order{0, 0};
};

struct FunctionSummary {
  std::string name;
  std::string file;
  std::uint32_t line = 0;
  std::vector<std::string> param_names;  // "" for unnamed positions
  std::vector<std::string> local_allocs;
  std::vector<Call> calls;
  std::vector<Effect> effects;
};

struct FileSummary {
  std::string file;
  std::vector<ir::Global> globals;
  std::vector<FunctionSummary> functions;
};

/// Phase 1 (embarrassingly parallel, per file): IR -> summary.
FileSummary summarize(const ir::FileIr& ir);

/// Phase 2 (whole program, deterministic): fixpoint propagation over all
/// summaries, then the L5-L8 checks. Input order does not matter; files
/// are processed in path order internally so output is byte-identical
/// regardless of how the summaries were produced.
std::vector<core::StaticFinding> propagate_and_check(
    std::vector<FileSummary> files);

/// Sorts findings by (file, line, variable, kind), the order of every
/// numalint result.
void sort_findings(std::vector<core::StaticFinding>& findings);

}  // namespace numaprof::lint::dataflow
