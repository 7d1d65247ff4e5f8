// Parallel regions and thread guards, scanned once per file.
//
// Both numalint passes need to know which tokens run in parallel and
// which run on one thread: the L1-L4 recognizer (numalint.cpp) and the
// IR builder (ir.cpp). `scan_parallel` reads the two source idioms once
// — simulator DSL calls (`parallel_region`, `parallel_for`) and
// `#pragma omp` directives — plus every `if (...)` statement, and gives
// each construct one reading that both passes share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace numaprof::lint {

/// Loop-iteration-to-thread mapping of a parallel loop: which thread
/// touches element i. Static mappings are predictable (the first-touch
/// thread equals the consuming thread when schedules match); dynamic and
/// runtime mappings are not.
enum class Schedule : std::uint8_t {
  kNone,         // no explicit schedule / not a partitioned loop
  kStaticBlock,  // omp schedule(static) or DSL block_slice: one block each
  kStaticChunk,  // omp schedule(static, c) or DSL round-robin striding
  kDynamic,      // omp schedule(dynamic[, c]) / guided: first-come-first-served
  kRuntime,      // omp schedule(runtime): unknowable statically
};

std::string_view to_string(Schedule s) noexcept;

/// A parallel construct: a DSL parallel_region/parallel_for call, or an
/// `#pragma omp` directive followed by a brace block or a loop.
struct Region {
  std::string name;  // DSL: first string literal in the call; omp: "omp"
                     // followed by every directive word
  std::size_t begin = 0;  // first body token (the keyword of a loop)
  /// One past the body: a brace block's '}'; for a loop, the end of its
  /// body (see loop_body_end in regions.cpp).
  std::size_t body_end = 0;
  bool parallel = false;  // runs on many threads: DSL COUNT is not the
                          // literal 1; always set for a pragma
  // Body facts, over [begin, body_end):
  bool partitioned = false;  // names block_slice or schedule
  /// Strides `+=` by the thread count, matched on the chain text after
  /// its last '.': `ctx.nthreads` matches, `ctx.threads[0]` does not.
  bool round_robin = false;
  // The iteration mapping: omp for is blocked and defaults to
  // schedule(static); a DSL body is blocked when it partitions or strides.
  bool blocked = false;
  Schedule sched = Schedule::kNone;
  int chunk = 0;
  std::string loop_var;  // omp for: the induction variable, if known
};

/// An `if (...)` statement.
struct IfStmt {
  TokenRange cond;  // condition tokens inside the parentheses
  TokenRange body;  // brace block, or through the first ';' outside
                    // brackets
};

struct ParallelScan {
  /// Sorted by `begin`: every DSL call, and every pragma that names
  /// `parallel` or `for` outside its clauses and is neither single/
  /// master/critical nor num_threads(1).
  std::vector<Region> regions;
  std::vector<IfStmt> ifs;
  /// Token ranges that run on one thread: omp single/master/critical
  /// bodies and `if` bodies testing tid == 0 or 0 == tid (chain text
  /// after its last '.' or ':').
  std::vector<TokenRange> guards;

  /// The innermost region holding token `pos`, or null.
  const Region* region_at(std::size_t pos) const noexcept;
  /// Whether token `pos` lies in a guard range.
  bool guarded(std::size_t pos) const noexcept;
};

ParallelScan scan_parallel(const TokenStream& ts);

}  // namespace numaprof::lint
