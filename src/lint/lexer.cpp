#include "lint/lexer.hpp"

#include <array>
#include <cctype>
#include <set>

namespace numaprof::lint {

std::string_view to_string(TokKind k) noexcept {
  switch (k) {
    case TokKind::kIdent: return "ident";
    case TokKind::kNumber: return "number";
    case TokKind::kString: return "string";
    case TokKind::kChar: return "char";
    case TokKind::kPunct: return "punct";
  }
  return "?";
}

namespace {

bool ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) noexcept {
  return std::isdigit(static_cast<unsigned char>(c));
}

/// Multi-char punctuation, longest first within each leading char.
constexpr std::array<std::string_view, 24> kMultiPunct = {
    "<<=", ">>=", "->*", "...", "::", "->", "==", "!=", "<=", ">=",
    "&&",  "||",  "<<",  ">>",  "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "++",  "--"};

}  // namespace

LexResult lex(std::string_view src) {
  LexResult out;
  std::uint32_t line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto push = [&](TokKind kind, std::string text, std::uint32_t at) {
    out.tokens.push_back(Token{kind, std::move(text), at});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Raw strings: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(' && src[p] != '\n' && delim.size() < 16) {
        delim += src[p++];
      }
      if (p < n && src[p] == '(') {
        const std::string close = ")" + delim + "\"";
        const std::size_t start = p + 1;
        const std::size_t end = src.find(close, start);
        const std::size_t stop = end == std::string_view::npos ? n : end;
        std::string body(src.substr(start, stop - start));
        const std::uint32_t at = line;
        for (char b : body) {
          if (b == '\n') ++line;
        }
        push(TokKind::kString, std::move(body), at);
        i = stop == n ? n : stop + close.size();
        continue;
      }
      // 'R' not starting a raw string: fall through as identifier below.
    }
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(src[p])) ++p;
      push(TokKind::kIdent, std::string(src.substr(i, p - i)), line);
      i = p;
      continue;
    }
    if (digit(c) || (c == '.' && i + 1 < n && digit(src[i + 1]))) {
      std::size_t p = i;
      bool hex = false;
      if (c == '0' && i + 1 < n && (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        hex = true;
        p += 2;
      }
      while (p < n) {
        const char d = src[p];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.') {
          ++p;
          continue;
        }
        // C++14 digit separator: part of the number only when a digit (or
        // hex digit) follows; a trailing ' starts a char literal instead.
        if (d == '\'' && p + 1 < n &&
            std::isalnum(static_cast<unsigned char>(src[p + 1]))) {
          p += 2;
          continue;
        }
        // Exponent signs: 1e-5, 0x1p+3.
        if ((d == '+' || d == '-') && p > i) {
          const char prev = static_cast<char>(
              std::tolower(static_cast<unsigned char>(src[p - 1])));
          if ((!hex && prev == 'e') || (hex && prev == 'p')) {
            ++p;
            continue;
          }
        }
        break;
      }
      push(TokKind::kNumber, std::string(src.substr(i, p - i)), line);
      i = p;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string body;
      std::size_t p = i + 1;
      const std::uint32_t at = line;
      while (p < n && src[p] != quote) {
        if (src[p] == '\\' && p + 1 < n) {
          // Backslash-newline is a line splice, not an escape: the line
          // count must advance or every later token misreports its line.
          if (src[p + 1] == '\n') {
            ++line;
            p += 2;
            continue;
          }
          body += src[p + 1];
          p += 2;
          continue;
        }
        if (src[p] == '\n') ++line;  // unterminated; keep going defensively
        body += src[p++];
      }
      push(quote == '"' ? TokKind::kString : TokKind::kChar, std::move(body),
           at);
      i = p < n ? p + 1 : n;
      continue;
    }
    // Punctuation: merge multi-char operators.
    std::string_view matched;
    for (std::string_view m : kMultiPunct) {
      if (src.substr(i, m.size()) == m) {
        matched = m;
        break;
      }
    }
    if (!matched.empty()) {
      push(TokKind::kPunct, std::string(matched), line);
      i += matched.size();
    } else {
      push(TokKind::kPunct, std::string(1, c), line);
      ++i;
    }
  }
  out.lines = line;
  return out;
}

TokenStream::TokenStream(std::string_view source) {
  LexResult lexed = lex(source);
  toks_ = std::move(lexed.tokens);
  lines_ = lexed.lines;
  match_.assign(size(), SIZE_MAX);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < size(); ++i) {
    if (toks_[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks_[i].text;
    if (t == "(" || t == "{" || t == "[") {
      stack.push_back(i);
    } else if (t == ")" || t == "}" || t == "]") {
      const char open = t == ")" ? '(' : (t == "}" ? '{' : '[');
      while (!stack.empty() && toks_[stack.back()].text[0] != open) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        match_[stack.back()] = i;
        match_[i] = stack.back();
        stack.pop_back();
      }
    }
  }
}

Chain TokenStream::read_chain(std::size_t i) const {
  Chain c;
  if (!valid(i) || toks_[i].kind != TokKind::kIdent) {
    c.end = i;
    return c;
  }
  c.first = c.last = c.text = toks_[i].text;
  std::size_t p = i + 1;
  while (valid(p)) {
    const Token& t = toks_[p];
    if (t.kind == TokKind::kPunct &&
        (t.text == "." || t.text == "->" || t.text == "::") && valid(p + 1) &&
        toks_[p + 1].kind == TokKind::kIdent) {
      c.text += t.text == "::" ? "::" : ".";
      c.text += toks_[p + 1].text;
      c.last = toks_[p + 1].text;
      p += 2;
      continue;
    }
    if (t.is_punct("[") && matching(p) < size()) {
      c.text += "[]";
      p = matching(p) + 1;
      continue;
    }
    break;
  }
  c.end = p;
  return c;
}

BackChain TokenStream::read_chain_back(std::size_t e) const {
  BackChain bc;
  if (!valid(e)) return bc;
  std::size_t i = e;
  while (true) {
    const Token& t = toks_[i];
    if (t.is_punct("]") && matching(i) < i) {
      i = matching(i);
      if (i == 0) return bc;
      --i;
      continue;
    }
    if (t.kind != TokKind::kIdent) return bc;
    if (i > 0 && (toks_[i - 1].is_punct(".") || toks_[i - 1].is_punct("->") ||
                  toks_[i - 1].is_punct("::"))) {
      if (i < 2) return bc;
      i -= 2;
      continue;
    }
    bc.start = i;
    break;
  }
  const Chain fwd = read_chain(bc.start);
  if (fwd.end <= e) return bc;  // didn't reach the anchor; reject
  bc.text = fwd.text;
  bc.first = fwd.first;
  bc.last = fwd.last;
  bc.ok = true;
  if (bc.start > 0 && toks_[bc.start - 1].is_punct("*")) {
    const std::size_t s = bc.start - 1;
    bc.deref = s == 0 || toks_[s - 1].is_punct(";") ||
               toks_[s - 1].is_punct("{") || toks_[s - 1].is_punct("}") ||
               toks_[s - 1].is_punct("(");
  }
  return bc;
}

std::vector<TokenRange> TokenStream::split_args(std::size_t open) const {
  std::vector<TokenRange> args;
  const std::size_t close = matching(open);
  if (close >= size()) return args;
  std::size_t start = open + 1;
  std::size_t depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks_[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks_[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (t == "," && depth == 0) {
      args.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < close || close > open + 1) args.emplace_back(start, close);
  return args;
}

std::optional<std::string> TokenStream::first_string_in(std::size_t b,
                                                       std::size_t e) const {
  for (std::size_t i = b; i < e && i < size(); ++i) {
    if (toks_[i].kind == TokKind::kString) return toks_[i].text;
  }
  return std::nullopt;
}

std::size_t TokenStream::stmt_start(std::size_t i) const noexcept {
  while (i > 0) {
    const Token& t = toks_[i - 1];
    if (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) break;
    --i;
  }
  return i;
}

std::size_t TokenStream::assignment_before(std::size_t i) const noexcept {
  std::size_t eq = SIZE_MAX;
  for (std::size_t k = stmt_start(i); k < i; ++k) {
    if (toks_[k].is_punct("=")) eq = k;
  }
  return eq;
}

TokenRange TokenStream::construct_range(std::size_t p) const noexcept {
  if (!valid(p)) return {p, p};
  if (toks_[p].is_punct("{") && matching(p) < size()) {
    return {p + 1, matching(p)};
  }
  std::size_t q = p;
  int guard = 0;
  while (valid(q) && !toks_[q].is_punct(";") && guard++ < 4096) {
    if ((toks_[q].is_punct("(") || toks_[q].is_punct("{") ||
         toks_[q].is_punct("[")) &&
        matching(q) < size()) {
      q = matching(q);
    }
    ++q;
  }
  return {p, q};
}

char TokenStream::brace_kind(std::size_t open) const noexcept {
  if (open > 0 && (toks_[open - 1].is_punct(")") ||
                   toks_[open - 1].is_ident("else") ||
                   toks_[open - 1].is_ident("do") ||
                   toks_[open - 1].is_ident("try"))) {
    return 'c';
  }
  for (std::size_t k = stmt_start(open); k < open; ++k) {
    if (toks_[k].is_ident("namespace")) return 'n';
    if (toks_[k].is_ident("struct") || toks_[k].is_ident("class") ||
        toks_[k].is_ident("union") || toks_[k].is_ident("enum")) {
      return 's';
    }
  }
  return 'i';
}

std::size_t TokenStream::skip_directive(std::size_t i) const noexcept {
  std::uint32_t line = toks_[i].line;
  for (++i; valid(i) && toks_[i].line == line; ++i) {
    if (toks_[i].is_punct("\\") && valid(i + 1) &&
        toks_[i + 1].line == line + 1) {
      ++line;
    }
  }
  return i;
}

bool thread_id_name(std::string_view s) noexcept {
  return s == "tid" || s == "index" || s == "thread_id" || s == "thread_num" ||
         s == "rank" || s == "me" || s == "worker";
}

bool known_linear_call(std::string_view s) noexcept {
  return s == "elem_addr" || s == "block_slice" || s == "min" || s == "max" ||
         s == "size" || s == "begin" || s == "end" || s == "data" ||
         s == "sizeof";
}

bool is_keyword(std::string_view s) noexcept {
  static const std::set<std::string_view> kw = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "new",      "delete",   "throw",
      "alignof",  "decltype", "alignas",  "noexcept", "operator",
      "case",     "goto",     "do",       "else",     "co_return",
      "co_await", "static_assert"};
  return kw.count(s) > 0;
}

bool is_type_name(std::string_view s) noexcept {
  static const std::set<std::string_view> ty = {
      "void",     "bool",    "char",     "short",    "int",      "long",
      "unsigned", "signed",  "float",    "double",   "auto",     "size_t",
      "int8_t",   "int16_t", "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t", "ptrdiff_t", "intptr_t", "uintptr_t",
      "const",    "static",  "volatile", "constexpr", "extern",  "register",
      "mutable",  "inline",  "std",      "VAddr"};
  return ty.count(s) > 0;
}

bool is_non_type_keyword(std::string_view s) noexcept {
  static const std::set<std::string_view> kw = {
      "return",  "case",  "co_return", "co_await", "delete", "sizeof",
      "typedef", "using", "new",       "goto",     "throw",  "else"};
  return kw.count(s) > 0;
}

}  // namespace numaprof::lint
