// Shared plumbing for the table/figure reproduction harnesses.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§8) and prints (a) the measured rows/series and (b) a
// paper-vs-measured comparison where the paper reports a number. Absolute
// values are not expected to match (the substrate is a simulator, not the
// authors' testbeds); the SHAPE — who wins, by roughly what factor, where
// crossovers fall — is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "core/analyzer.hpp"
#include "core/profiler.hpp"
#include "core/viewer.hpp"
#include "numasim/topology.hpp"
#include "simrt/machine.hpp"
#include "support/table.hpp"

namespace numaprof::bench {

inline void heading(const std::string& title) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "================================================================\n";
}

inline void subheading(const std::string& title) {
  std::cout << "\n--- " << title << " ---\n";
}

/// Wall-clock seconds of `fn()`.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Paper-vs-measured comparison rows.
class Comparison {
 public:
  Comparison() : table_({"quantity", "paper", "measured", "shape holds?"}) {}

  void add(std::string quantity, std::string paper, std::string measured,
           bool holds) {
    table_.add_row({std::move(quantity), std::move(paper),
                    std::move(measured), holds ? "yes" : "NO"});
    all_hold_ &= holds;
  }

  void print() {
    subheading("paper vs measured");
    std::cout << table_.to_text();
    std::cout << (all_hold_ ? "[SHAPE OK] all comparisons hold\n"
                            : "[SHAPE MISMATCH] see rows marked NO\n");
  }

  bool all_hold() const noexcept { return all_hold_; }

 private:
  support::Table table_;
  bool all_hold_ = true;
};

/// The BENCH records of one custom-main bench. add() echoes each record
/// as a `BENCH <json>` line; write() stores the aggregate
/// {"bench":NAME,"records":[...]} document, one record a line, for the
/// perf trajectory. Each bench renders its own record fields.
class BenchRecords {
 public:
  explicit BenchRecords(std::string bench) : bench_(std::move(bench)) {}

  void add(std::string json) {
    std::cout << "BENCH " << json << "\n";
    records_.push_back(std::move(json));
  }

  std::size_t size() const noexcept { return records_.size(); }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out << "{\"bench\":\"" << bench_ << "\",\"records\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "  " << records_[i] << (i + 1 < records_.size() ? "," : "")
          << "\n";
    }
    out << "]}\n";
    out.close();
    std::cout << "\nwrote " << path << " (" << records_.size()
              << " records)\n";
  }

 private:
  std::string bench_;
  std::vector<std::string> records_;
};

inline core::VariableId find_variable(const core::SessionData& data,
                                      std::string_view name) {
  for (const core::Variable& v : data.variables) {
    if (v.name == name) return v.id;
  }
  std::cerr << "bench: variable not found: " << name << "\n";
  return 0;
}

inline core::ProfilerConfig ibs_config(std::uint64_t period = 500) {
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kIbs);
  cfg.event.period = period;
  return cfg;
}

inline core::ProfilerConfig mrk_config(numasim::Cycles gap = 0) {
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(pmu::Mechanism::kMrk);
  cfg.event.min_sample_gap = gap;
  return cfg;
}

inline std::string speedup_str(double baseline, double variant) {
  const double pct = (baseline / variant - 1.0) * 100.0;
  return support::format_fixed(pct, 1) + "%";
}

}  // namespace numaprof::bench
