#include "lint/regions.hpp"

#include <algorithm>
#include <cstdlib>

namespace numaprof::lint {

std::string_view to_string(Schedule s) noexcept {
  switch (s) {
    case Schedule::kNone: return "none";
    case Schedule::kStaticBlock: return "static";
    case Schedule::kStaticChunk: return "static-chunk";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kRuntime: return "runtime";
  }
  return "?";
}

namespace {

bool strides_by_threads(std::string_view last, std::string_view count_last) {
  return !last.empty() && (last == count_last || last == "threads" ||
                           last == "nthreads" || last == "num_threads");
}

/// `text` after its last character from `seps` (all of it when none).
std::string_view tail_after(std::string_view text, std::string_view seps) {
  const std::size_t cut = text.find_last_of(seps);
  return cut == std::string_view::npos ? text : text.substr(cut + 1);
}

void scan_body(const TokenStream& ts, Region& r) {
  const std::size_t stop = std::min(r.body_end, ts.size());
  for (std::size_t k = r.begin; k < stop; ++k) {
    if (ts[k].is_ident("block_slice") || ts[k].is_ident("schedule")) {
      r.partitioned = true;
    }
    if (ts[k].is_punct("+=") && ts.valid(k + 1)) {
      const Chain c = ts.read_chain(k + 1);
      r.round_robin |= strides_by_threads(c.last, r.count_last);
      r.round_robin_dotted |=
          strides_by_threads(tail_after(c.text, "."), r.count_last);
    }
  }
}

/// DSL: parallel_region(machine, COUNT, "name", base, lambda) and
/// parallel_for(machine, COUNT, "name", base, total, sched, chunk, body).
void scan_dsl(const TokenStream& ts, std::vector<Region>& out) {
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!(ts[i].is_ident("parallel_region") ||
          ts[i].is_ident("parallel_for")) ||
        !ts[i + 1].is_punct("(")) {
      continue;
    }
    const auto args = ts.split_args(i + 1);
    if (args.size() < 3) continue;
    Region r;
    const auto [cb, ce] = args[1];
    r.parallel = !(ce == cb + 1 && ts[cb].kind == TokKind::kNumber &&
                   ts[cb].text == "1");
    for (std::size_t k = cb; k < ce; ++k) {
      if (ts[k].kind == TokKind::kIdent) r.count_last = ts[k].text;
    }
    r.name = ts.first_string_in(args[0].first, ts.matching(i + 1))
                 .value_or("");
    // Body: first '{' inside the last argument.
    const auto [lb, le] = args.back();
    for (std::size_t k = lb; k < le; ++k) {
      if (ts[k].is_punct("{") && ts.matching(k) < ts.size()) {
        r.begin = k + 1;
        r.body_end = ts.matching(k);
        break;
      }
    }
    if (r.begin == 0 || r.begin >= r.body_end) continue;
    // Explicit schedule idents in the non-body arguments.
    for (std::size_t a = 2; a + 1 < args.size(); ++a) {
      for (std::size_t k = args[a].first; k < args[a].second; ++k) {
        if (ts[k].kind != TokKind::kIdent) continue;
        const std::string& w = ts[k].text;
        if (w == "dynamic" || w == "kDynamic" || w == "guided") {
          r.sched = Schedule::kDynamic;
        } else if ((w == "static" || w == "kStatic" ||
                    w == "kStaticBlock") &&
                   r.sched == Schedule::kNone) {
          r.sched = Schedule::kStaticBlock;
        }
      }
    }
    scan_body(ts, r);
    r.blocked = r.partitioned || r.round_robin_dotted;
    if (r.partitioned && r.sched == Schedule::kNone) {
      r.sched = Schedule::kStaticBlock;
    } else if (r.round_robin_dotted && !r.partitioned) {
      r.sched = Schedule::kStaticChunk;
      r.chunk = 1;
    }
    out.push_back(std::move(r));
  }
}

/// One past the body of the `for`/`while` loop whose keyword is at `p`:
/// after the header parentheses, a brace block ends at its '}', a nested
/// loop ends where its own body does, and any other statement ends at its
/// first ';' outside brackets.
std::size_t loop_body_end(const TokenStream& ts, std::size_t p) {
  std::size_t q = p;
  while (ts.valid(q) && (ts[q].is_ident("for") || ts[q].is_ident("while"))) {
    ++q;
    if (ts.valid(q) && ts[q].is_punct("(")) q = ts.matching(q) + 1;
  }
  if (ts.valid(q) && ts[q].is_punct("{")) return ts.matching(q);
  while (ts.valid(q) && !ts[q].is_punct(";")) {
    if ((ts[q].is_punct("(") || ts[q].is_punct("{") || ts[q].is_punct("[")) &&
        ts.matching(q) < ts.size()) {
      q = ts.matching(q);
    }
    ++q;
  }
  return q;
}

/// Reads the num_threads(...)/schedule(...) clause whose name is at `p`.
void read_clause(const TokenStream& ts, std::size_t p, Region& r) {
  const auto args = ts.split_args(p + 1);
  if (ts[p].is("num_threads")) {
    r.num_threads_one |= !args.empty() &&
                         args[0].second == args[0].first + 1 &&
                         ts[args[0].first].text == "1";
    return;
  }
  if (args.empty() || ts[args[0].first].kind != TokKind::kIdent) return;
  const std::string& k = ts[args[0].first].text;
  if (k == "static") {
    r.sched = Schedule::kStaticBlock;
  } else if (k == "dynamic" || k == "guided") {
    r.sched = Schedule::kDynamic;
  } else {
    r.sched = Schedule::kRuntime;  // runtime / auto
  }
  if (args.size() > 1 && args[1].first < args[1].second &&
      ts[args[1].first].kind == TokKind::kNumber) {
    r.chunk = static_cast<int>(
        std::strtol(ts[args[1].first].text.c_str(), nullptr, 0));
    if (k == "static" && r.chunk > 0) r.sched = Schedule::kStaticChunk;
  }
}

/// OpenMP: `#pragma omp ...` with `\` continuations. single/master/
/// critical bodies become guard ranges; a following block or loop becomes
/// a region.
void scan_pragmas(const TokenStream& ts, ParallelScan& out) {
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!ts[i].is_punct("#") || !ts[i + 1].is_ident("pragma") ||
        !ts[i + 2].is_ident("omp")) {
      continue;
    }
    Region r;
    r.pragma = true;
    r.parallel = true;
    r.name = "omp";
    const std::size_t p = std::max(i + 3, ts.skip_directive(i));
    std::size_t clause_end = 0;  // one past the last clause's ')'
    for (std::size_t k = i + 3; k < p; ++k) {
      if (ts[k].kind != TokKind::kIdent) continue;
      const std::string& w = ts[k].text;
      const bool serial_word =
          w == "single" || w == "master" || w == "critical";
      r.name += " " + w;
      r.any_parallel |= w == "parallel";
      r.any_serial |= serial_word || (w == "num_threads" && ts.valid(k + 2) &&
                                      ts[k + 1].is_punct("(") &&
                                      ts[k + 2].text == "1");
      if (k < clause_end) continue;
      r.omp_parallel |= w == "parallel";
      r.omp_for |= w == "for";
      r.one_thread |= serial_word;
      if ((w == "num_threads" || w == "schedule") && ts.valid(k + 1) &&
          ts[k + 1].is_punct("(") && ts.matching(k + 1) < ts.size()) {
        read_clause(ts, k, r);
        clause_end = ts.matching(k + 1) + 1;
      }
    }
    if (!ts.valid(p)) continue;
    if (r.one_thread && !r.num_threads_one) {
      const TokenRange g = ts.construct_range(p);
      if (g.first < g.second) out.guards.push_back(g);
    }
    if (ts[p].is_punct("{")) {
      if (ts.matching(p) >= ts.size()) continue;
      r.begin = p + 1;
      r.body_end = ts.matching(p);
    } else if (ts[p].is_ident("for") || ts[p].is_ident("while")) {
      r.begin = p;
      r.body_end = loop_body_end(ts, p);
      if (ts[p].is_ident("for") && ts.valid(p + 1) &&
          ts[p + 1].is_punct("(")) {
        const std::size_t hclose = ts.matching(p + 1);
        for (std::size_t k = p + 2; k + 1 < hclose && k + 1 < ts.size();
             ++k) {
          if (ts[k].is_punct(";")) break;
          if (ts[k].kind == TokKind::kIdent && ts[k + 1].is_punct("=")) {
            r.loop_var = ts[k].text;
            break;
          }
        }
      }
    } else {
      continue;
    }
    if (r.begin >= r.body_end) continue;
    if (r.omp_for) {
      r.blocked = true;
      if (r.sched == Schedule::kNone) r.sched = Schedule::kStaticBlock;
    }
    scan_body(ts, r);
    out.regions.push_back(std::move(r));
  }
}

/// Every `if (...)`: the recognizer's statement and the IR's guard range.
void scan_ifs(const TokenStream& ts, ParallelScan& out) {
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_ident("if") || !ts[i + 1].is_punct("(")) continue;
    const std::size_t cond_close = ts.matching(i + 1);
    if (cond_close >= ts.size()) continue;
    IfStmt stmt;
    stmt.cond = {i + 2, cond_close};
    std::size_t p = cond_close + 1;
    if (ts.valid(p) && ts[p].is_punct("{")) {
      stmt.body = {p + 1, ts.matching(p)};
    } else {
      stmt.body.first = p;
      while (ts.valid(p) && !ts[p].is_punct(";")) {
        if (ts[p].is_punct("(") || ts[p].is_punct("{")) {
          p = ts.matching(p) < ts.size() ? ts.matching(p) : p;
        }
        ++p;
      }
      stmt.body.second = p;
    }
    bool thread_zero = false;
    for (std::size_t k = i + 2; k < cond_close; ++k) {
      if (ts[k].kind != TokKind::kIdent) continue;
      const Chain c = ts.read_chain(k);
      const bool eq_zero = ts.valid(c.end + 1) && ts[c.end].is_punct("==") &&
                           ts[c.end + 1].text == "0";
      stmt.tid_eq_zero |= eq_zero && thread_id_name(c.last);
      if (thread_id_name(tail_after(c.text, ".:"))) {
        thread_zero |= eq_zero || (k >= 2 && ts[k - 1].is_punct("==") &&
                                   ts[k - 2].text == "0");
      }
      k = c.end > k ? c.end - 1 : k;
    }
    out.ifs.push_back(stmt);
    if (thread_zero) {
      const TokenRange g = ts.construct_range(cond_close + 1);
      if (g.first < g.second) out.guards.push_back(g);
    }
  }
}

}  // namespace

ParallelScan scan_parallel(const TokenStream& ts) {
  ParallelScan out;
  scan_dsl(ts, out.regions);
  scan_pragmas(ts, out);
  scan_ifs(ts, out);
  return out;
}

}  // namespace numaprof::lint
