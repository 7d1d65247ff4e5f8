// matrix_kernels: record + analyze throughput of the four grid kernels.
//
// Each scenario from the regression matrix (hash-join, graph, KV cache,
// order book) is recorded broken and fixed on the SNC preset through the
// same cell recipe the grid test uses (tests/matrix_support.hpp), and the
// analyzer is timed over the resulting profile. Two stages per variant:
//   record    full simulation + profiler capture, simulated cycles/s
//   analyze   Analyzer construction + report rendering, samples/s
// Runs are validated: every kernel's broken variant must show a strictly
// higher mismatch fraction than its fixed twin — the property the grid
// asserts cell-by-cell — otherwise the numbers describe a broken setup
// and the exit status is 1.
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"matrix_kernels","kernel":"join","variant":"broken",
//          "stage":"record","samples":N,"seconds":S,"per_s":X,
//          "mismatch":M}
// and the full record set is additionally written as one JSON document to
// BENCH_matrix.json (or argv[1] if given) for the perf trajectory.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/viewer.hpp"
#include "matrix_support.hpp"

namespace {

using namespace numaprof;

constexpr const char* kTopology = "snc";

struct Record {
  std::string kernel;
  std::string variant;
  std::string stage;
  std::uint64_t samples = 0;
  double seconds = 0.0;
  double per_s = 0.0;
  double mismatch = 0.0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"matrix_kernels\",\"kernel\":\"" << r.kernel
     << "\",\"variant\":\"" << r.variant << "\",\"stage\":\"" << r.stage
     << "\",\"samples\":" << r.samples << ",\"seconds\":" << r.seconds
     << ",\"per_s\":" << r.per_s << ",\"mismatch\":" << r.mismatch << "}";
  return os.str();
}

void emit(bench::BenchRecords& records, const Record& r) {
  std::cout << "  " << r.stage << " " << r.variant << ": " << r.samples
            << " samples in " << r.seconds << " s (" << r.per_s
            << " /s, mismatch " << r.mismatch << ")\n";
  records.add(bench_json(r));
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading(
      "matrix_kernels: record + analyze throughput of the grid kernels");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_matrix.json";
  const simos::PolicySpec policy =
      matrix::policy_by_name("first-touch").spec;

  bench::BenchRecords records("matrix_kernels");
  bool shape_holds = true;

  for (const apps::Scenario& scenario : apps::matrix_scenarios()) {
    bench::subheading(std::string(scenario.name) + " on " + kTopology);
    double mismatch_of[2] = {0.0, 0.0};
    for (const bool fixed : {false, true}) {
      const char* variant = fixed ? "fixed" : "broken";

      // Record: best-of-3 full simulations; keep the last capture.
      matrix::CellResult cell;
      double best_record = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        const double s = bench::time_seconds([&] {
          cell = matrix::run_cell(scenario, kTopology, policy, fixed);
        });
        best_record = std::min(best_record, s);
      }
      const core::Analyzer analyzer(cell.data);
      const double mismatch = matrix::mismatch_fraction(analyzer);
      mismatch_of[fixed ? 1 : 0] = mismatch;
      const std::uint64_t samples = analyzer.program().samples;

      Record rec;
      rec.kernel = scenario.name;
      rec.variant = variant;
      rec.stage = "record";
      rec.samples = samples;
      rec.seconds = best_record;
      rec.per_s = best_record > 0.0
                      ? static_cast<double>(samples) / best_record
                      : 0.0;
      rec.mismatch = mismatch;
      emit(records, rec);

      // Analyze: best-of-3 full pipeline + report rendering.
      double best_analyze = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        const double s = bench::time_seconds([&] {
          const core::Analyzer an(cell.data);
          core::Viewer viewer(an);
          std::ostringstream sink;
          sink << viewer.program_summary()
               << viewer.data_centric_table(10).to_text();
        });
        best_analyze = std::min(best_analyze, s);
      }
      Record arec;
      arec.kernel = scenario.name;
      arec.variant = variant;
      arec.stage = "analyze";
      arec.samples = samples;
      arec.seconds = best_analyze;
      arec.per_s = best_analyze > 0.0
                       ? static_cast<double>(samples) / best_analyze
                       : 0.0;
      arec.mismatch = mismatch;
      emit(records, arec);
    }
    if (!(mismatch_of[0] > mismatch_of[1])) {
      shape_holds = false;
      std::cerr << scenario.name << ": broken mismatch " << mismatch_of[0]
                << " not above fixed " << mismatch_of[1] << "\n";
    }
  }

  records.write(out_path);

  if (!shape_holds) {
    std::cout << "SHAPE MISMATCH: a broken kernel did not out-mismatch its "
                 "fixed twin\n";
    return 1;
  }
  std::cout << "[SHAPE OK] every broken kernel out-mismatches its fixed "
               "twin\n";
  return 0;
}
