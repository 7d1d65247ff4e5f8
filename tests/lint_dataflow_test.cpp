// Tests for the interprocedural dataflow engine (src/lint/ir +
// src/lint/dataflow): cross-TU first-touch provenance (L5), schedule
// mismatch (L6), alias-hidden first touch (L7), read-mostly replication
// (L8), C++ linkage (file-local symbols stay file-local), plus the
// production driver contracts — --jobs determinism, SARIF export
// (golden-locked for the four case-study workloads), and the baseline
// gate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/export/schema.hpp"
#include "lint/baseline.hpp"
#include "lint/ir.hpp"
#include "lint/lexer.hpp"
#include "lint/numalint.hpp"
#include "lint/regions.hpp"
#include "lint/sarif.hpp"

namespace numaprof::lint {
namespace {

namespace fs = std::filesystem;

using core::Action;
using core::LintKind;
using core::PatternKind;
using core::StaticFinding;

// --- fixtures ------------------------------------------------------------

// The canonical cross-TU shape from ISSUE acceptance: allocation in
// a.cpp, serial first touch in b.cpp, parallel consumption in c.cpp —
// only visible to an analysis that follows the pointer across files.
constexpr const char* kXtuA = R"lint(double* make_grid(long n);
void init_grid(double* g, long n);
void relax(double* g, long n);

double* grid_global = nullptr;

int main() {
  long n = 1 << 20;
  grid_global = make_grid(n);
  init_grid(grid_global, n);
  relax(grid_global, n);
}
)lint";

constexpr const char* kXtuB = R"lint(#include <cstdlib>

double* make_grid(long n) {
  double* g = (double*)malloc(n * sizeof(double));
  return g;
}

void init_grid(double* g, long n) {
  for (long i = 0; i < n; ++i) g[i] = 0.0;
}
)lint";

constexpr const char* kXtuC = R"lint(void relax(double* g, long n) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) {
    g[i] = g[i] * 0.5 + 1.0;
  }
}
)lint";

// L6: parallel init with schedule(static,4), parallel consume with
// schedule(dynamic) — different first-touch and consuming threads.
constexpr const char* kL6Source = R"lint(static double field[1 << 18];

void init_field(long n) {
  #pragma omp parallel for schedule(static, 4)
  for (long i = 0; i < n; ++i) field[i] = 0.0;
}

void consume_field(long n) {
  #pragma omp parallel for schedule(dynamic)
  for (long i = 0; i < n; ++i) field[i] += 1.0;
}
)lint";

// L7: the serial first touch happens through a pointer alias (`p`), so
// the allocation site looks clean to a per-declaration scan.
constexpr const char* kL7Source = R"lint(#include <cstdlib>
static double* big = nullptr;

void fill() {
  double* p = big;
  for (long i = 0; i < 100000; ++i) p[i] = 0.0;
}

void setup() {
  big = (double*)malloc(100000 * sizeof(double));
  fill();
}

void consume(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) big[i] *= 2.0;
}
)lint";

// L8: one serial writer, parallel readers whose index is data-dependent
// (every thread reaches the whole extent) — replication candidate.
constexpr const char* kL8Source = R"lint(static double lut[4096];

void build_lut() {
  for (long i = 0; i < 4096; ++i) lut[i] = i * 0.5;
}

double apply(const double* in, double* out, long n) {
  double acc = 0.0;
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) {
    out[i] = lut[(int)(in[i] * 4096) & 4095];
  }
  return acc;
}
)lint";

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name, const std::string& body) const {
    const std::string full = (fs::path(path) / name).string();
    std::ofstream out(full, std::ios::binary);
    out << body;
    return full;
  }
  std::string path;
};

const StaticFinding* find(const std::vector<StaticFinding>& findings,
                          std::string_view variable, LintKind kind) {
  for (const StaticFinding& f : findings) {
    if (f.variable == variable && f.kind == kind) return &f;
  }
  return nullptr;
}

// --- cross-TU propagation (L5) -------------------------------------------

TEST(LintDataflow, CrossTuSerialFirstTouchCarriesProvenance) {
  TempDir dir("numaprof_lint_xtu");
  const std::vector<std::string> paths = {dir.file("a.cpp", kXtuA),
                                          dir.file("b.cpp", kXtuB),
                                          dir.file("c.cpp", kXtuC)};
  const LintResult result = lint_paths(paths);
  const StaticFinding* f =
      find(result.findings, "grid_global", LintKind::kCrossSerialInit);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  // The finding anchors at the actual first-touch site, not the alloc.
  EXPECT_EQ(f->file, "b.cpp");
  EXPECT_EQ(f->line, 9u);
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
  EXPECT_EQ(f->expected, PatternKind::kBlocked);
  // Full provenance chain in the message: alloc site, serial touch site
  // with the call path that reached it, and the parallel consumer.
  EXPECT_NE(f->message.find("allocated at a.cpp:5"), std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("first touched serially at b.cpp:9"),
            std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("via main -> init_grid"), std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("consumed in parallel at c.cpp:4"),
            std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("schedule(static)"), std::string::npos)
      << f->message;
}

TEST(LintDataflow, MergedTranslationUnitFindsTheSameDefect) {
  // The same program concatenated into one file must produce an
  // equivalent L5 on the same variable with the same fix vocabulary.
  const std::string merged =
      std::string(kXtuB) + "\n" + kXtuC + "\n" + kXtuA;
  const LintResult result = lint_source(merged, "merged.cpp");
  const StaticFinding* f =
      find(result.findings, "grid_global", LintKind::kCrossSerialInit);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
  EXPECT_EQ(f->expected, PatternKind::kBlocked);
  EXPECT_NE(f->message.find("via main -> init_grid"), std::string::npos)
      << f->message;
}

TEST(LintDataflow, JobsCountNeverChangesOutput) {
  TempDir dir("numaprof_lint_jobs");
  const std::vector<std::string> paths = {
      dir.file("a.cpp", kXtuA), dir.file("b.cpp", kXtuB),
      dir.file("c.cpp", kXtuC), dir.file("l6.cpp", kL6Source),
      dir.file("l7.cpp", kL7Source), dir.file("l8.cpp", kL8Source)};
  std::string first;
  for (unsigned jobs : {1u, 2u, 8u}) {
    PipelineOptions options;
    options.jobs = jobs;
    const LintResult result = lint_paths(paths, options);
    const std::string rendered = render_findings(result.findings);
    if (first.empty()) {
      first = rendered;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(rendered, first) << "jobs=" << jobs;
    }
  }
}

// --- C++ linkage: file-local symbols stay file-local ---------------------

// Two translation units, each with its own `static` buffer: one.cpp
// writes its copy serially, two.cpp initializes and reads its copy in
// parallel. Neither copy has a serial first touch with a parallel use.
constexpr const char* kStaticBufOne = R"lint(static double buf[4096];
void init_one() {
  for (long i = 0; i < 4096; ++i) buf[i] = 1.0;
}
)lint";

constexpr const char* kStaticBufTwo = R"lint(static double buf[4096];

void init_two() {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < 4096; ++i) buf[i] = 0.0;
}

void use_two(double* out) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < 4096; ++i) out[i] = buf[i] * 2.0;
}
)lint";

// Two translation units, each with its own `static fill`: one.cpp's is
// serial, two.cpp's is parallel, and two.cpp's refill calls its own.
constexpr const char* kStaticFillOne = R"lint(#include <cstdlib>
static void fill(double* p, long n) {
  for (long i = 0; i < n; ++i) p[i] = 0.0;
}

double* make_one(long n) {
  double* a = (double*)malloc(n * sizeof(double));
  fill(a, n);
  return a;
}
)lint";

constexpr const char* kStaticFillTwo = R"lint(static double grid[1 << 16];

static void fill(double* p, long n) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) p[i] = 0.0;
}

void refill(long n) {
  fill(grid, n);
}

void relax(long n) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) grid[i] = grid[i] * 0.5;
}
)lint";

// The `fill` split again, through unnamed namespaces, with an external
// `grid`: each file's `fill` is its own.
constexpr const char* kUnnamedFillOne = R"lint(#include <cstdlib>
namespace {
void fill(double* p, long n) {
  for (long i = 0; i < n; ++i) p[i] = 0.0;
}
}  // namespace

double* make_one(long n) {
  double* a = (double*)malloc(n * sizeof(double));
  fill(a, n);
  return a;
}
)lint";

constexpr const char* kUnnamedFillTwo = R"lint(double grid[1 << 16];

namespace {
void fill(double* p, long n) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) p[i] = 0.0;
}
}  // namespace

void refill(long n) {
  fill(grid, n);
}

void relax(long n) {
  #pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) grid[i] = grid[i] * 0.5;
}
)lint";

/// Lints each source alone and the pair together; every run must be clean.
void expect_no_findings_alone_or_together(const std::string& dir_name,
                                          const char* one, const char* two) {
  TempDir dir(dir_name);
  const std::vector<std::string> paths = {dir.file("one.cpp", one),
                                          dir.file("two.cpp", two)};
  for (const std::string& path : paths) {
    const LintResult alone = lint_paths({path});
    EXPECT_TRUE(alone.findings.empty())
        << path << ":\n" << render_findings(alone.findings);
  }
  const LintResult together = lint_paths(paths);
  EXPECT_TRUE(together.findings.empty())
      << render_findings(together.findings);
}

TEST(LintLinkage, StaticGlobalsOfTwoFilesAreTwoSymbols) {
  expect_no_findings_alone_or_together("numaprof_lint_static_buf",
                                       kStaticBufOne, kStaticBufTwo);
}

TEST(LintLinkage, CallReachesItsOwnFilesStaticFunction) {
  expect_no_findings_alone_or_together("numaprof_lint_static_fill",
                                       kStaticFillOne, kStaticFillTwo);
}

TEST(LintLinkage, UnnamedNamespaceSymbolsStayInTheirFile) {
  expect_no_findings_alone_or_together("numaprof_lint_unnamed",
                                       kUnnamedFillOne, kUnnamedFillTwo);
}

TEST(LintLinkage, ArgumentResolvesInTheCallersFile) {
  // two.cpp hands its own `grid` to a serial helper; the write must land
  // on two.cpp's grid, not on one.cpp's, which only parallel code reads.
  expect_no_findings_alone_or_together(
      "numaprof_lint_static_arg",
      "static double grid[1 << 16];\n"
      "double use_one(long n) {\n"
      "  double s = 0.0;\n"
      "  #pragma omp parallel for schedule(static)\n"
      "  for (long i = 0; i < n; ++i) s += grid[i];\n"
      "  return s;\n"
      "}\n",
      "static double grid[1 << 16];\n"
      "void zero(double* p, long n) {\n"
      "  for (long i = 0; i < n; ++i) p[i] = 0.0;\n"
      "}\n"
      "void setup_two(long n) { zero(grid, n); }\n");
}

TEST(LintLinkage, HeaderStaticHelperStillReachesItsIncluder) {
  // A header's `static` helper is compiled into every file that includes
  // it, so a call from another file with no definition of its own still
  // resolves to it.
  TempDir dir("numaprof_lint_header_static");
  const std::vector<std::string> paths = {
      dir.file("grid.cpp",
               "#include \"util.hpp\"\n"
               "static double grid[1 << 16];\n"
               "void setup(long n) { zero(grid, n); }\n"
               "void relax(long n) {\n"
               "  #pragma omp parallel for schedule(static)\n"
               "  for (long i = 0; i < n; ++i) grid[i] += 1.0;\n"
               "}\n"),
      dir.file("util.hpp",
               "static inline void zero(double* p, long n) {\n"
               "  for (long i = 0; i < n; ++i) p[i] = 0.0;\n"
               "}\n")};
  const LintResult result = lint_paths(paths);
  const StaticFinding* f =
      find(result.findings, "grid", LintKind::kCrossSerialInit);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  EXPECT_EQ(f->file, "util.hpp");
  EXPECT_NE(f->message.find("via setup -> zero"), std::string::npos)
      << f->message;
}

TEST(LintLinkage, IrMarksNamespaceScopeStaticsAndUnnamedNamespaces) {
  const TokenStream tokens(
      "static double a[8];\n"
      "double b[8];\n"
      "namespace { void f() {} }\n"
      "namespace ns { static void g() {} void h() {} }\n"
      "namespace ns { namespace { void p() {} } }\n"
      "struct S { static void q() {} };\n"
      "static void k() {}\n"
      "void m() {}\n");
  const ir::FileIr ir = ir::build_ir(tokens, scan_parallel(tokens), "t.cpp");
  std::map<std::string, bool> internal;
  for (const ir::Global& g : ir.globals) internal[g.name] = g.internal;
  for (const ir::Function& fn : ir.functions) internal[fn.name] = fn.internal;
  const std::map<std::string, bool> want = {
      {"a", true}, {"b", false}, {"f", true}, {"g", true},  {"h", false},
      {"p", true}, {"q", false}, {"k", true}, {"m", false}};
  EXPECT_EQ(internal, want);
}

// --- L6/L7/L8 ------------------------------------------------------------

TEST(LintDataflow, ScheduleMismatchBetweenInitAndConsume) {
  const LintResult result = lint_source(kL6Source, "l6.cpp");
  const StaticFinding* f =
      find(result.findings, "field", LintKind::kScheduleMismatch);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  EXPECT_EQ(f->line, 5u);  // anchored at the initializing loop
  EXPECT_NE(f->message.find("schedule(static-chunk,4)"), std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("schedule(dynamic)"), std::string::npos)
      << f->message;
  // A dynamic consumer has no stable partitioning to match: interleave.
  EXPECT_EQ(f->suggested, Action::kInterleave);
  EXPECT_EQ(f->expected, PatternKind::kIrregular);
}

TEST(LintDataflow, AliasObscuredFirstTouch) {
  const LintResult result = lint_source(kL7Source, "l7.cpp");
  const StaticFinding* f =
      find(result.findings, "big", LintKind::kAliasHiddenInit);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  EXPECT_EQ(f->line, 6u);  // the aliased store, not the handoff
  EXPECT_NE(f->message.find("pointer alias"), std::string::npos)
      << f->message;
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
  // The plain L5 must NOT double-report the same defect.
  EXPECT_EQ(find(result.findings, "big", LintKind::kCrossSerialInit),
            nullptr);
}

TEST(LintDataflow, ReadMostlyReplicationCandidate) {
  const LintResult result = lint_source(kL8Source, "l8.cpp");
  const StaticFinding* f =
      find(result.findings, "lut", LintKind::kReadMostly);
  ASSERT_NE(f, nullptr) << render_findings(result.findings);
  EXPECT_NE(f->message.find("replication candidate"), std::string::npos)
      << f->message;
  EXPECT_EQ(f->expected, PatternKind::kFullRange);
  EXPECT_EQ(f->suggested, Action::kInterleave);
  // Read-mostly is the weaker claim; it must not also escalate to L5.
  EXPECT_EQ(find(result.findings, "lut", LintKind::kCrossSerialInit),
            nullptr);
}

// --- one reading of each shared construct --------------------------------

// L1-L4 and L5-L8 share one reading of each parallel construct and thread
// guard (lint/regions.hpp); each finding below depends on it, so a change
// that gives one pass its own reading again fails here even when every
// golden still holds. The passes still read one thing apart: an index
// through an unknown call (chunked's to_string: linear for L1-L4, a
// gather for L5-L8).
//   sweep    a single-statement loop body holding a ';' inside a lambda
//            runs to the ';' after the lambda (grid is consumed there)
//   braced   a braced `omp parallel for` ends at its closing brace, so
//            the serial `tail[0] = 0.0` after it is no parallel consumer
//   masters  `parallel master` is no region but a thread guard, and a
//            nested `omp single` is a guard too: every owner write is
//            serial, so owner has no parallel consumer
//   chunked  a backslash-continued schedule(static, 4); num_threads(1)
//            is no region but num_threads(1 + n) is one (solo is
//            consumed there); `0 == tid` guards like `tid == 0`, so
//            flag has no parallel consumer
//   strided  a round-robin stride matches on the chain's last name,
//            after its last '.' or ':': cfg::nthreads counts as the
//            thread count, so ring is round-robin (expected full-range
//            for L1-L4, schedule(static-chunk,1) for L5-L8), but
//            ctx.threads[0] does not, so wrap is not (expected irregular)
constexpr const char* kSplitReadings = R"lint(#include <cstdlib>
#include <string>
static double grid[4096];
static double halo[4096];
static double lut[4096];
static double tail[4096];
static int owner[64];
static double cells[8192];
static double solo[1024];
static double ring[4096];
static double wrap[4096];
static double flag[64];
void seed(long n) {
  for (long i = 0; i < n; ++i) grid[i] = 0.0;
  for (long i = 0; i < n; ++i) halo[i] = 1.0;
  for (long i = 0; i < n; ++i) lut[i] = 2.0;
  for (long i = 0; i < n; ++i) tail[i] = 3.0;
  for (long i = 0; i < n; ++i) cells[i] = 4.0;
  for (long i = 0; i < n; ++i) solo[i] = 5.0;
  for (long i = 0; i < n; ++i) ring[i] = 6.0;
  for (long i = 0; i < n; ++i) wrap[i] = 7.0;
  for (long i = 0; i < 64; ++i) owner[i] = 0;
  for (long i = 0; i < 64; ++i) flag[i] = 0.0;
}
void sweep(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) run([&] { step(i); grid[i] += 1.0; });
}
void braced(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) { halo[i] *= 2.0; }
  tail[0] = 0.0;
}
void masters(long n) {
  #pragma omp parallel master
  { owner[0] = 1; }
  #pragma omp parallel
  {
    #pragma omp single
    { owner[1] = 2; }
  }
}
void chunked(long n, int tid) {
  #pragma omp parallel for \
      schedule(static, 4)
  for (long i = 0; i < n; ++i) cells[i] += lut[to_string(i).size()];
  #pragma omp parallel num_threads(1)
  { solo[0] = 1.0; }
  #pragma omp parallel num_threads(1 + n)
  { solo[1] = 1.0; }
  #pragma omp parallel
  {
    if (0 == tid) flag[0] = 1.0;
    if (tid == 0) grid[1] = 0.0;
  }
}
void strided(SimMachine& m, Ctx& ctx) {
  parallel_region(m, ctx.threads, "stride", 0, [&](SimThread& t, uint32_t index) {
    for (long i = index; i < 4096; i += ctx.threads[0]) wrap[i] += 1.0;
  });
  parallel_region(m, cfg::nthreads, "ns-stride", 0, [&](SimThread& t, uint32_t index) {
    for (long i = index; i < 4096; i += cfg::nthreads) ring[i] += 1.0;
  });
}
)lint";

constexpr const char* kSplitReadingsFindings =
    "split_readings.cpp:14 [L1 serial-first-touch] grid\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 3)\n"
    "    'grid' is written by serial code (2 sites) but consumed by "
    "parallel region 'omp parallel for'; first touch homes every page "
    "in the initializing thread's domain\n"
    "split_readings.cpp:14 [L5 cross-fn-serial-first-touch] grid\n"
    "    expected blocked, suggest blockwise-first-touch (declared at "
    "line 3)\n"
    "    grid: allocated at split_readings.cpp:3; first touched "
    "serially at split_readings.cpp:14 (seed); consumed in parallel at "
    "split_readings.cpp:27 (sweep) with schedule(static). All pages "
    "land on the initializing thread's domain; initialize in parallel "
    "with the consumer's partitioning so each block is first touched "
    "by the thread that uses it.\n"
    "split_readings.cpp:15 [L1 serial-first-touch] halo\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 4)\n"
    "    'halo' is written by serial code (1 site) but consumed by "
    "parallel region 'omp parallel for'; first touch homes every page "
    "in the initializing thread's domain\n"
    "split_readings.cpp:15 [L5 cross-fn-serial-first-touch] halo\n"
    "    expected blocked, suggest blockwise-first-touch (declared at "
    "line 4)\n"
    "    halo: allocated at split_readings.cpp:4; first touched "
    "serially at split_readings.cpp:15 (seed); consumed in parallel at "
    "split_readings.cpp:31 (braced) with schedule(static). All pages "
    "land on the initializing thread's domain; initialize in parallel "
    "with the consumer's partitioning so each block is first touched "
    "by the thread that uses it.\n"
    "split_readings.cpp:16 [L1 serial-first-touch] lut\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 5)\n"
    "    'lut' is written by serial code (1 site) but consumed by "
    "parallel region 'omp parallel for schedule static'; first touch "
    "homes every page in the initializing thread's domain\n"
    "split_readings.cpp:16 [L8 read-mostly-replicable] lut\n"
    "    expected full-range, suggest interleave (declared at line 5)\n"
    "    lut: allocated at split_readings.cpp:5; first touched "
    "serially at split_readings.cpp:16 (seed); consumed in parallel at "
    "split_readings.cpp:46 (chunked) with schedule(static-chunk,4). "
    "Every thread reads the whole extent but only one thread ever "
    "writes it: a replication candidate — interleave the pages (or "
    "replicate per domain) instead of leaving them on the initializing "
    "thread's node.\n"
    "split_readings.cpp:18 [L1 serial-first-touch] cells\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 8)\n"
    "    'cells' is written by serial code (1 site) but consumed by "
    "parallel region 'omp parallel for schedule static'; first touch "
    "homes every page in the initializing thread's domain\n"
    "split_readings.cpp:18 [L5 cross-fn-serial-first-touch] cells\n"
    "    expected blocked, suggest blockwise-first-touch (declared at "
    "line 8)\n"
    "    cells: allocated at split_readings.cpp:8; first touched "
    "serially at split_readings.cpp:18 (seed); consumed in parallel at "
    "split_readings.cpp:46 (chunked) with schedule(static-chunk,4). "
    "All pages land on the initializing thread's domain; initialize in "
    "parallel with the consumer's partitioning so each block is first "
    "touched by the thread that uses it.\n"
    "split_readings.cpp:19 [L1 serial-first-touch] solo\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 9)\n"
    "    'solo' is written by serial code (2 sites) but consumed by "
    "parallel region 'omp parallel num_threads n'; first touch homes "
    "every page in the initializing thread's domain\n"
    "split_readings.cpp:19 [L5 cross-fn-serial-first-touch] solo\n"
    "    expected full-range, suggest blockwise-first-touch (declared "
    "at line 9)\n"
    "    solo: allocated at split_readings.cpp:9; first touched "
    "serially at split_readings.cpp:19 (seed); consumed in parallel at "
    "split_readings.cpp:50 (chunked). All pages land on the "
    "initializing thread's domain; initialize in parallel with the "
    "consumer's partitioning so each block is first touched by the "
    "thread that uses it.\n"
    "split_readings.cpp:20 [L1 serial-first-touch] ring\n"
    "    expected full-range, suggest blockwise-first-touch (declared "
    "at line 10)\n"
    "    'ring' is written by serial code (1 site) but consumed by "
    "parallel region 'ns-stride'; first touch homes every page in the "
    "initializing thread's domain\n"
    "split_readings.cpp:20 [L5 cross-fn-serial-first-touch] ring\n"
    "    expected blocked, suggest blockwise-first-touch (declared "
    "at line 10)\n"
    "    ring: allocated at split_readings.cpp:10; first touched "
    "serially at split_readings.cpp:20 (seed); consumed in parallel at "
    "split_readings.cpp:62 (strided) with schedule(static-chunk,1). All "
    "pages land on the "
    "initializing thread's domain; initialize in parallel with the "
    "consumer's partitioning so each block is first touched by the "
    "thread that uses it.\n"
    "split_readings.cpp:21 [L1 serial-first-touch] wrap\n"
    "    expected irregular, suggest blockwise-first-touch (declared "
    "at line 11)\n"
    "    'wrap' is written by serial code (1 site) but consumed by "
    "parallel region 'stride'; first touch homes every page in the "
    "initializing thread's domain\n"
    "split_readings.cpp:21 [L5 cross-fn-serial-first-touch] wrap\n"
    "    expected full-range, suggest blockwise-first-touch (declared "
    "at line 11)\n"
    "    wrap: allocated at split_readings.cpp:11; first touched "
    "serially at split_readings.cpp:21 (seed); consumed in parallel at "
    "split_readings.cpp:59 (strided). All pages land on the "
    "initializing thread's domain; initialize in parallel with the "
    "consumer's partitioning so each block is first touched by the "
    "thread that uses it.\n";

TEST(LintReadings, EachPassKeepsItsReadingOfSharedConstructs) {
  const LintResult result = lint_source(kSplitReadings, "split_readings.cpp");
  EXPECT_EQ(render_findings(result.findings), kSplitReadingsFindings);
}

// A parallel loop's region ends where its body does, for both passes.
TEST(LintRegions, BracedParallelForEndsAtItsClosingBrace) {
  // The serial `later` used to fall inside par's region for L5-L8, which
  // reported b as consumed in parallel there.
  const LintResult result = lint_source(
      "static double b[1 << 16]; static double c[1 << 16];\n"
      "void init(long n) { for (long i = 0; i < n; ++i) b[i] = 0.0; }\n"
      "void par(long n) {\n"
      "  #pragma omp parallel for\n"
      "  for (long i = 0; i < n; ++i) { c[i] *= 2.0; }\n"
      "}\n"
      "void later(long n) { for (long i = 0; i < n; ++i) b[i] += 1; }\n",
      "later.cpp");
  EXPECT_TRUE(result.findings.empty()) << render_findings(result.findings);
}

TEST(LintRegions, NestedLoopBodyBelongsToTheParallelLoop) {
  // L1-L4 used to end the region at the nested header's first ';'.
  const LintResult result = lint_source(
      "static double m[1 << 16];\n"
      "void init(long n) { for (long i = 0; i < n; ++i) m[i] = 0.0; }\n"
      "void par(long n) {\n"
      "  #pragma omp parallel for\n"
      "  for (long i = 0; i < n; ++i)\n"
      "    for (long j = 0; j < 8; ++j) { double t = 1.0; m[i * 8 + j] += t; "
      "}\n"
      "}\n",
      "nested.cpp");
  const StaticFinding* l1 =
      find(result.findings, "m", LintKind::kSerialFirstTouch);
  ASSERT_NE(l1, nullptr) << render_findings(result.findings);
  EXPECT_NE(l1->message.find("'omp parallel for'"), std::string::npos);
  EXPECT_NE(find(result.findings, "m", LintKind::kCrossSerialInit), nullptr);
}

// --- SARIF export --------------------------------------------------------

void check_sarif_golden(const std::string& app) {
  const LintResult result =
      lint_paths({NUMAPROF_SOURCE_DIR "/src/apps/" + app + ".cpp"});
  const std::string sarif = render_sarif(result.findings);
  // The bundled schema checker must accept our own emission.
  const std::vector<std::string> problems = core::check_sarif_json(sarif);
  EXPECT_TRUE(problems.empty())
      << app << ": " << (problems.empty() ? "" : problems.front());
  const std::string golden_path = NUMAPROF_SOURCE_DIR
      "/tests/golden/export/lint_" + app + ".sarif";
  if (std::getenv("NUMAPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << sarif;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (regenerate with NUMAPROF_REGEN_GOLDEN=1)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(sarif, buffer.str())
      << app << " SARIF drifted; if intentional, rerun with "
      << "NUMAPROF_REGEN_GOLDEN=1";
}

TEST(LintSarif, GoldenLulesh) { check_sarif_golden("minilulesh"); }
TEST(LintSarif, GoldenAmg) { check_sarif_golden("miniamg"); }
TEST(LintSarif, GoldenUmt) { check_sarif_golden("miniumt"); }
TEST(LintSarif, GoldenBlackscholes) { check_sarif_golden("miniblackscholes"); }

TEST(LintSarif, DocumentShapeAndRuleTable) {
  const LintResult result = lint_source(kL7Source, "l7.cpp");
  const std::string sarif = render_sarif(result.findings);
  EXPECT_TRUE(core::check_sarif_json(sarif).empty());
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  // The full rule table is present even for rules that did not fire.
  for (const char* rule :
       {"\"id\":\"L1\"", "\"id\":\"L2\"", "\"id\":\"L3\"", "\"id\":\"L4\"",
        "\"id\":\"L5\"", "\"id\":\"L6\"", "\"id\":\"L7\"", "\"id\":\"L8\""}) {
    EXPECT_NE(sarif.find(rule), std::string::npos) << rule;
  }
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);  // L7
}

TEST(LintSarif, SeverityTiers) {
  EXPECT_EQ(severity_of(LintKind::kSerialFirstTouch), Severity::kError);
  EXPECT_EQ(severity_of(LintKind::kCrossSerialInit), Severity::kError);
  EXPECT_EQ(severity_of(LintKind::kAliasHiddenInit), Severity::kError);
  EXPECT_EQ(severity_of(LintKind::kFalseSharing), Severity::kWarning);
  EXPECT_EQ(severity_of(LintKind::kStackEscape), Severity::kWarning);
  EXPECT_EQ(severity_of(LintKind::kInterleaveMisuse), Severity::kWarning);
  EXPECT_EQ(severity_of(LintKind::kScheduleMismatch), Severity::kWarning);
  EXPECT_EQ(severity_of(LintKind::kReadMostly), Severity::kNote);
}

std::optional<Severity> werror_of(const std::vector<std::string>& args) {
  support::CliParser cli("numa_lint", "test");
  cli.add_optional_value_flag("--werror", "gate", "SEV");
  cli.parse(args);
  return parse_werror(cli);
}

TEST(LintWerror, ParsesEverySeverityAndRejectsOtherValues) {
  EXPECT_EQ(werror_of({}), std::nullopt);
  EXPECT_EQ(werror_of({"--werror"}), Severity::kWarning);
  EXPECT_EQ(werror_of({"--werror=note"}), Severity::kNote);
  EXPECT_EQ(werror_of({"--werror=warning"}), Severity::kWarning);
  EXPECT_EQ(werror_of({"--werror=error"}), Severity::kError);
  try {
    werror_of({"--werror=fatal"});
    FAIL() << "--werror=fatal was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    EXPECT_NE(std::string(e.what()).find("--werror expects note, warning, or "
                                         "error"),
              std::string::npos)
        << e.what();
  }
  // The gate itself: a note-level L8 trips --werror=note, not =warning.
  StaticFinding l8;
  l8.kind = LintKind::kReadMostly;
  EXPECT_TRUE(any_at_or_above({l8}, Severity::kNote));
  EXPECT_FALSE(any_at_or_above({l8}, Severity::kWarning));
  EXPECT_FALSE(any_at_or_above({}, Severity::kNote));
}

// --- baseline ------------------------------------------------------------

TEST(LintBaseline, RoundTripSuppressesExactlyTheAcceptedSet) {
  const LintResult result = lint_source(kL6Source, "l6.cpp");
  ASSERT_FALSE(result.findings.empty());
  const Baseline baseline = make_baseline(result.findings);
  const std::string rendered = render_baseline(baseline);
  std::string error;
  const auto reparsed = parse_baseline(rendered, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->counts, baseline.counts);
  EXPECT_EQ(render_baseline(*reparsed), rendered);

  std::size_t suppressed = 0;
  const auto remaining =
      apply_baseline(*reparsed, result.findings, &suppressed);
  EXPECT_TRUE(remaining.empty()) << render_findings(remaining);
  EXPECT_EQ(suppressed, result.findings.size());
}

TEST(LintBaseline, NewFindingSurvivesTheBaseline) {
  const Baseline baseline =
      make_baseline(lint_source(kL6Source, "l6.cpp").findings);
  // Inject a fresh antipattern: the same file grows a second defect on a
  // new variable — the baseline must let exactly that one through.
  const std::string grown =
      std::string(kL6Source) +
      "static double fresh[1 << 10];\n"
      "void init_fresh(long n) { for (long i = 0; i < n; ++i) fresh[i] = "
      "1.0; }\n"
      "void use_fresh(long n) {\n"
      "  #pragma omp parallel for\n"
      "  for (long i = 0; i < n; ++i) fresh[i] += 1.0;\n"
      "}\n";
  std::size_t suppressed = 0;
  const auto remaining = apply_baseline(
      baseline, lint_source(grown, "l6.cpp").findings, &suppressed);
  ASSERT_FALSE(remaining.empty());
  EXPECT_GT(suppressed, 0u);
  for (const StaticFinding& f : remaining) {
    EXPECT_EQ(f.variable, "fresh") << render_findings({f});
  }
}

TEST(LintBaseline, MalformedInputsAreRejectedWithAMessage) {
  std::string error;
  EXPECT_FALSE(parse_baseline("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_baseline("{\"version\":2,\"suppressions\":[]}", &error)
                   .has_value());
  EXPECT_FALSE(
      parse_baseline("{\"version\":1,\"suppressions\":[{\"file\":1}]}",
                     &error)
          .has_value());
  const auto empty =
      parse_baseline("{\"version\":1,\"suppressions\":[]}", &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(empty->counts.empty());
}

// --- control characters ----------------------------------------------------

// Every numalint JSON writer shares the one escaper: a finding whose
// strings hold CR and a raw control byte gives valid JSON on every output
// path and reads back byte-exact.
const std::string kControlBytes = "\r\x01";

StaticFinding control_char_finding() {
  const LintResult result = lint_source(kL6Source, "l6.cpp");
  EXPECT_FALSE(result.findings.empty());
  StaticFinding f = result.findings.empty() ? StaticFinding{}
                                            : result.findings.front();
  f.file = "dir" + kControlBytes + "/l6.cpp";
  f.variable = "grid" + kControlBytes;
  f.message = "first" + kControlBytes + "second";
  return f;
}

TEST(LintControlChars, BaselineRoundTripsByteExact) {
  const Baseline baseline = make_baseline({control_char_finding()});
  const std::string rendered = render_baseline(baseline);
  std::string error;
  const auto reparsed = parse_baseline(rendered, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->counts, baseline.counts);
  EXPECT_EQ(render_baseline(*reparsed), rendered);
}

TEST(LintControlChars, SarifIsValidAndKeepsTheBytes) {
  const StaticFinding f = control_char_finding();
  const std::string sarif = render_sarif({f});
  const std::vector<std::string> problems = core::check_sarif_json(sarif);
  EXPECT_TRUE(problems.empty()) << problems.front();
  std::string error;
  const auto root = core::parse_json(sarif, &error);
  ASSERT_TRUE(root.has_value()) << error;
  const core::JsonNode& result =
      root->find("runs")->items.at(0).find("results")->items.at(0);
  EXPECT_EQ(result.find("message")->find("text")->string, f.message);
  EXPECT_EQ(result.find("locations")
                ->items.at(0)
                .find("physicalLocation")
                ->find("artifactLocation")
                ->find("uri")
                ->string,
            f.file);
  EXPECT_EQ(result.find("properties")->find("variable")->string, f.variable);
}

TEST(LintControlChars, FindingsJsonIsValidAndKeepsTheBytes) {
  const StaticFinding f = control_char_finding();
  const std::string json = render_findings_json({f});
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // still one finding a line
  std::string error;
  const auto root = core::parse_json(json, &error);
  ASSERT_TRUE(root.has_value()) << error;
  EXPECT_EQ(root->find("file")->string, f.file);
  EXPECT_EQ(root->find("variable")->string, f.variable);
  EXPECT_EQ(root->find("message")->string, f.message);
}

}  // namespace
}  // namespace numaprof::lint
