// The whole-program pass of numalint: interprocedural dataflow over every
// file's IR (lint/ir.hpp).
//
// `propagate_and_check` reads each function's touches of a C++ root as
// effects: which parameters, globals, and local allocation roots the
// function allocates, writes, or reads, and in what parallel context. A
// whole-program fixpoint then lifts parameter effects through call sites
// into the caller's symbols (so a helper that serially initializes its
// pointer argument charges the initialization to whatever the caller
// passed), re-contextualizes global effects when a serial helper is
// invoked from inside a parallel region, and records each hop as
// provenance. The aggregated per-symbol picture drives the four
// interprocedural checks:
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
// core::fuse_findings consumes them exactly like the per-file L1-L4 ones.
#pragma once

#include <vector>

#include "core/advisor.hpp"
#include "lint/ir.hpp"

namespace numaprof::lint::dataflow {

/// Fixpoint propagation over all files' IR, then the L5-L8 checks. Files
/// are processed sorted by name (in input order among equal names), so
/// the output does not depend on which thread built which IR. Names
/// resolve under C++ linkage: a file's internal globals, functions and
/// local allocation roots are its own, and a call reaches the caller's
/// file's internal function first.
std::vector<core::StaticFinding> propagate_and_check(
    std::vector<ir::FileIr> files);

/// Sorts findings by (file, line, variable, kind), the order of every
/// numalint result.
void sort_findings(std::vector<core::StaticFinding>& findings);

}  // namespace numaprof::lint::dataflow
