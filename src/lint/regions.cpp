#include "lint/regions.hpp"

#include <algorithm>
#include <cstdint>
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

/// The last name of a chain: `text` after its last '.' or ':' (all of it
/// when none), so `ctx.nthreads` and `cfg::nthreads` both read `nthreads`.
std::string_view last_name(std::string_view text) {
  const std::size_t cut = text.find_last_of(".:");
  return cut == std::string_view::npos ? text : text.substr(cut + 1);
}

/// `count_last`: the trailing identifier of a DSL call's COUNT.
void scan_body(const TokenStream& ts, std::string_view count_last,
               Region& r) {
  const std::size_t stop = std::min(r.body_end, ts.size());
  for (std::size_t k = r.begin; k < stop; ++k) {
    if (ts[k].is_ident("block_slice") || ts[k].is_ident("schedule")) {
      r.partitioned = true;
    }
    if (ts[k].is_punct("+=") && ts.valid(k + 1)) {
      r.round_robin |= strides_by_threads(
          last_name(ts.read_chain(k + 1).text), count_last);
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
    std::string_view count_last;
    for (std::size_t k = cb; k < ce; ++k) {
      if (ts[k].kind == TokKind::kIdent) count_last = ts[k].text;
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
    scan_body(ts, count_last, r);
    r.blocked = r.partitioned || r.round_robin;
    if (r.partitioned && r.sched == Schedule::kNone) {
      r.sched = Schedule::kStaticBlock;
    } else if (r.round_robin && !r.partitioned) {
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

/// Reads the num_threads(...)/schedule(...) clause whose name is at `p`;
/// sets `one` for num_threads(1) exactly.
void read_clause(const TokenStream& ts, std::size_t p, Region& r, bool& one) {
  const auto args = ts.split_args(p + 1);
  if (ts[p].is("num_threads")) {
    one |= !args.empty() && args[0].second == args[0].first + 1 &&
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

/// OpenMP: `#pragma omp ...` with `\` continuations; words inside
/// num_threads(...)/schedule(...) are not directive words. single/master/
/// critical bodies become guard ranges; a following block or loop becomes
/// a region unless the directive runs one thread or names neither
/// `parallel` nor `for`.
void scan_pragmas(const TokenStream& ts, ParallelScan& out) {
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!ts[i].is_punct("#") || !ts[i + 1].is_ident("pragma") ||
        !ts[i + 2].is_ident("omp")) {
      continue;
    }
    Region r;
    r.parallel = true;
    r.name = "omp";
    bool parallel = false, omp_for = false, one_thread = false;
    bool num_threads_one = false;
    const std::size_t p = std::max(i + 3, ts.skip_directive(i));
    std::size_t clause_end = 0;  // one past the last clause's ')'
    for (std::size_t k = i + 3; k < p; ++k) {
      if (ts[k].kind != TokKind::kIdent) continue;
      const std::string& w = ts[k].text;
      r.name += " " + w;
      if (k < clause_end) continue;
      parallel |= w == "parallel";
      omp_for |= w == "for";
      one_thread |= w == "single" || w == "master" || w == "critical";
      if ((w == "num_threads" || w == "schedule") && ts.valid(k + 1) &&
          ts[k + 1].is_punct("(") && ts.matching(k + 1) < ts.size()) {
        read_clause(ts, k, r, num_threads_one);
        clause_end = ts.matching(k + 1) + 1;
      }
    }
    if (!ts.valid(p)) continue;
    if (one_thread && !num_threads_one) {
      const TokenRange g = ts.construct_range(p);
      if (g.first < g.second) out.guards.push_back(g);
    }
    if (one_thread || num_threads_one || !(parallel || omp_for)) continue;
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
    if (omp_for) {
      r.blocked = true;
      if (r.sched == Schedule::kNone) r.sched = Schedule::kStaticBlock;
    }
    scan_body(ts, {}, r);
    out.regions.push_back(std::move(r));
  }
}

/// Every `if (...)`; one testing a thread id against 0 guards its body.
void scan_ifs(const TokenStream& ts, ParallelScan& out) {
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_ident("if") || !ts[i + 1].is_punct("(")) continue;
    const std::size_t cond_close = ts.matching(i + 1);
    if (cond_close >= ts.size()) continue;
    const IfStmt stmt{{i + 2, cond_close},
                      ts.construct_range(cond_close + 1)};
    out.ifs.push_back(stmt);
    bool thread_zero = false;
    for (std::size_t k = i + 2; k < cond_close; ++k) {
      if (ts[k].kind != TokKind::kIdent) continue;
      const Chain c = ts.read_chain(k);
      if (thread_id_name(last_name(c.text))) {
        thread_zero |= (ts.valid(c.end + 1) && ts[c.end].is_punct("==") &&
                        ts[c.end + 1].text == "0") ||
                       (k >= 2 && ts[k - 1].is_punct("==") &&
                        ts[k - 2].text == "0");
      }
      k = c.end > k ? c.end - 1 : k;
    }
    if (thread_zero && stmt.body.first < stmt.body.second) {
      out.guards.push_back(stmt.body);
    }
  }
}

}  // namespace

ParallelScan scan_parallel(const TokenStream& ts) {
  ParallelScan out;
  scan_dsl(ts, out.regions);
  scan_pragmas(ts, out);
  scan_ifs(ts, out);
  std::sort(out.regions.begin(), out.regions.end(),
            [](const Region& a, const Region& b) {
              return a.begin < b.begin;
            });
  return out;
}

const Region* ParallelScan::region_at(std::size_t pos) const noexcept {
  const Region* best = nullptr;
  std::size_t best_span = SIZE_MAX;
  for (const Region& r : regions) {
    if (r.begin > pos) break;  // sorted by begin
    if (pos < r.body_end && r.body_end - r.begin < best_span) {
      best = &r;
      best_span = r.body_end - r.begin;
    }
  }
  return best;
}

bool ParallelScan::guarded(std::size_t pos) const noexcept {
  return std::any_of(guards.begin(), guards.end(), [pos](TokenRange g) {
    return g.first <= pos && pos < g.second;
  });
}

}  // namespace numaprof::lint
