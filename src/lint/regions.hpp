// Parallel regions and thread guards, scanned once per file.
//
// Both numalint passes need to know which tokens run in parallel and
// which run on one thread: the L1-L4 recognizer (numalint.cpp) and the
// IR builder (ir.cpp). `scan_parallel` reads the two source idioms once
// — simulator DSL calls (`parallel_region`, `parallel_for`) and
// `#pragma omp` directives — plus every `if (...)` statement. Where the
// two passes read a construct differently, the record keeps both
// readings and each pass picks its own (see the field comments).
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
  bool pragma = false;  // `#pragma omp` (else a DSL call)
  std::size_t begin = 0;  // first body token (the keyword of a loop)
  /// One past the body: a brace block's '}'; for a loop, the end of its
  /// body (see loop_body_end in regions.cpp).
  std::size_t body_end = 0;
  bool parallel = false;  // runs on many threads: DSL COUNT is not the
                          // literal 1; always set for a pragma
  // Directive words read outside num_threads(...)/schedule(...) (the IR):
  bool omp_parallel = false;
  bool omp_for = false;
  bool one_thread = false;       // single / master / critical
  bool num_threads_one = false;  // num_threads(1) exactly
  // Directive words read everywhere (the recognizer):
  bool any_parallel = false;
  bool any_serial = false;  // single / master / critical, or num_threads
                            // whose first argument token is 1
  std::string count_last;   // DSL: trailing identifier of COUNT
  // Body facts, over [begin, body_end):
  bool partitioned = false;  // names block_slice or schedule
  /// Strides `+=` by the thread count, matched on the chain's last
  /// identifier (recognizer) or on the chain text after its last '.' (IR):
  /// `ctx.threads[0]` and `cfg::nthreads` match only the first.
  bool round_robin = false;
  bool round_robin_dotted = false;
  // The IR's iteration mapping: omp for is blocked and defaults to
  // schedule(static); a DSL body is blocked when it partitions or strides.
  bool blocked = false;
  Schedule sched = Schedule::kNone;
  int chunk = 0;
  std::string loop_var;  // omp for: the induction variable, if known
};

/// An `if (...)` statement as the recognizer reads it.
struct IfStmt {
  TokenRange cond;  // condition tokens inside the parentheses
  TokenRange body;  // brace block, or through the first ';' outside ()/{}
  /// `<chain> == 0` where the chain's last identifier names a thread.
  bool tid_eq_zero = false;
};

struct ParallelScan {
  /// DSL calls first, then pragmas, each in token order. Each pass keeps
  /// its own subset (see numalint.cpp and ir.cpp).
  std::vector<Region> regions;
  std::vector<IfStmt> ifs;
  /// Token ranges that run on one thread (the IR's reading): omp single/
  /// master/critical bodies and `if` bodies testing tid == 0 or 0 == tid
  /// (chain text after its last '.' or ':').
  std::vector<TokenRange> guards;
};

ParallelScan scan_parallel(const TokenStream& ts);

}  // namespace numaprof::lint
