// One checked file write for every output the tools produce in a single
// piece (profiles, shards, report files, export artifacts).
#pragma once

#include <string>
#include <string_view>

#include "support/error.hpp"

namespace numaprof::support {

/// Replaces the contents of `path` with `bytes`, then flushes and closes
/// the file. Any failure — opening, writing, flushing or closing, such as
/// a full device — throws Error(kind, path, "file", 0, "cannot write
/// <what> '<path>': <reason>"), so no output is ever lost silently.
void write_file(const std::string& path, std::string_view bytes,
                ErrorKind kind, std::string_view what);

}  // namespace numaprof::support
