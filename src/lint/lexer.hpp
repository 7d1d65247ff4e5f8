// The token layer of numalint (no libclang dependency).
//
// `lex` produces a flat token stream with line numbers: identifiers,
// literals, and (multi-char aware) punctuation. Comments vanish;
// preprocessor directives stay in the stream ('#' is a punct token) so
// `#pragma omp parallel` stays visible. This is deliberately NOT a full
// C++ front end — the IR builder works on token shapes, which is all the
// antipattern catalog needs.
//
// `TokenStream` is what the IR builder (ir.cpp) reads: one file lexed
// once, its bracket-match table, and the readers — member chains,
// argument lists, statement and construct boundaries, brace kinds, and
// preprocessor directives. lint/regions.hpp scans it for parallel regions
// and thread guards.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace numaprof::lint {

enum class TokKind : std::uint8_t {
  kIdent,   // identifiers and keywords
  kNumber,  // integer / float literals (incl. suffixes)
  kString,  // "..." and R"(...)" — text holds the *contents*, unescaped
  kChar,    // '...'
  kPunct,   // operators and punctuation, multi-char merged ("::", "->", ...)
};

/// Number of TokKind enumerators.
inline constexpr int kTokKindCount = 5;

std::string_view to_string(TokKind k) noexcept;

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::uint32_t line = 1;

  bool is(std::string_view t) const noexcept { return text == t; }
  bool is_ident(std::string_view t) const noexcept {
    return kind == TokKind::kIdent && text == t;
  }
  bool is_punct(std::string_view t) const noexcept {
    return kind == TokKind::kPunct && text == t;
  }
};

struct LexResult {
  std::vector<Token> tokens;
  std::uint32_t lines = 0;  // total source lines seen
};

/// Tokenizes `source`. Never throws on malformed input: unterminated
/// strings/comments lex to end-of-file (lint must survive any input).
LexResult lex(std::string_view source);

/// A member/scope chain read forward from an identifier:
/// ident ('::'|'.'|'->' ident | '[...]' -> "[]")*.
struct Chain {
  std::string text;   // canonical text: "run.x", "ns::v", "a[].b"
  std::string first;  // leading identifier
  std::string last;   // trailing identifier
  std::size_t end = 0;  // one past the last consumed token
};

/// A chain that ends at a given token, read backwards.
struct BackChain {
  std::string text;
  std::string first;
  std::string last;
  std::size_t start = SIZE_MAX;  // index of the leading identifier
  bool deref = false;  // a unary '*' precedes it at statement position
  bool ok = false;
};

/// Half-open token ranges [first, second).
using TokenRange = std::pair<std::size_t, std::size_t>;

class TokenStream {
 public:
  explicit TokenStream(std::string_view source);

  std::size_t size() const noexcept { return toks_.size(); }
  bool valid(std::size_t i) const noexcept { return i < toks_.size(); }
  const Token& operator[](std::size_t i) const noexcept { return toks_[i]; }
  /// Total source lines seen by the lexer.
  std::uint32_t lines() const noexcept { return lines_; }

  /// The bracket matching the one at `i`, or size() when unmatched.
  /// Imbalanced input is tolerated: a closer pops openers until one of
  /// its own shape.
  std::size_t matching(std::size_t i) const noexcept {
    return match_[i] == SIZE_MAX ? size() : match_[i];
  }

  Chain read_chain(std::size_t i) const;
  /// Reads the chain that ENDS at token `e` (inclusive); `ok` is false
  /// when no chain ends there.
  BackChain read_chain_back(std::size_t e) const;

  /// Depth-1 comma-separated argument ranges of the call or brace group
  /// whose opener is at `open`.
  std::vector<TokenRange> split_args(std::size_t open) const;

  /// Contents of the first string literal in [b, e).
  std::optional<std::string> first_string_in(std::size_t b,
                                             std::size_t e) const;

  /// Start of the statement containing `i` (one past the previous ';',
  /// '{' or '}').
  std::size_t stmt_start(std::size_t i) const noexcept;
  /// The last '=' between the statement start and `i`, or SIZE_MAX.
  std::size_t assignment_before(std::size_t i) const noexcept;

  /// Token range of the construct starting at `p`: the inside of a brace
  /// block, or tokens through the first top-level ';' (bracket groups
  /// skipped).
  TokenRange construct_range(std::size_t p) const noexcept;

  /// Kind of the brace block opening at `open`: 'c' code (function or
  /// control-flow body), 'n' namespace, 's' struct/class/union/enum,
  /// 'i' initializer.
  char brace_kind(std::size_t open) const noexcept;

  /// One past the '#' directive starting at `i`, following `\` line
  /// continuations.
  std::size_t skip_directive(std::size_t i) const noexcept;

 private:
  std::vector<Token> toks_;
  std::vector<std::size_t> match_;
  std::uint32_t lines_ = 0;
};

/// Identifiers that name a thread index (`tid`, `index`, `rank`, ...).
bool thread_id_name(std::string_view s) noexcept;

/// Calls that keep an index expression linear (known helpers).
bool known_linear_call(std::string_view s) noexcept;

/// C++ keywords that are never symbols or callees.
bool is_keyword(std::string_view s) noexcept;

/// Builtin type names and declaration specifiers.
bool is_type_name(std::string_view s) noexcept;

/// Keywords after which `name[` indexes an array instead of declaring one.
bool is_non_type_keyword(std::string_view s) noexcept;

}  // namespace numaprof::lint
