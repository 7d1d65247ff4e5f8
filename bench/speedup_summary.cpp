// §8 summary: NUMA optimization outcomes across all four case studies.
//
// One table collecting every variant's time and speedup next to the
// paper's reported numbers. The reproduction target is direction and
// ordering, not magnitude (the substrate is a simulator).

#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "bench_common.hpp"

int main() {
  using namespace numaprof;
  using namespace numaprof::bench;

  heading("§8 speedup summary across the four case studies");

  support::Table table({"application", "machine", "fix", "metric",
                        "baseline", "fixed", "measured", "paper"});

  // --- LULESH on AMD ---------------------------------------------------
  {
    apps::LuleshConfig cfg{.threads = 48,
                           .pages_per_thread = 4,
                           .timesteps = 16,
                           .variant = apps::Variant::kBaseline};
    simrt::Machine m1(numasim::amd_magny_cours());
    const auto base = run_minilulesh(m1, cfg);
    cfg.variant = apps::Variant::kBlockwise;
    simrt::Machine m2(numasim::amd_magny_cours());
    const auto block = run_minilulesh(m2, cfg);
    cfg.variant = apps::Variant::kInterleave;
    simrt::Machine m3(numasim::amd_magny_cours());
    const auto inter = run_minilulesh(m3, cfg);
    table.add_row({"LULESH", "AMD", "block-wise first touch", "compute",
                   support::format_count(base.compute_cycles),
                   support::format_count(block.compute_cycles),
                   speedup_str(static_cast<double>(base.compute_cycles),
                               static_cast<double>(block.compute_cycles)),
                   "+25%"});
    table.add_row({"LULESH", "AMD", "interleave (prior work)", "compute",
                   support::format_count(base.compute_cycles),
                   support::format_count(inter.compute_cycles),
                   speedup_str(static_cast<double>(base.compute_cycles),
                               static_cast<double>(inter.compute_cycles)),
                   "+13%"});
  }

  // --- LULESH on POWER7 --------------------------------------------------
  {
    apps::LuleshConfig cfg{.threads = 64,
                           .pages_per_thread = 3,
                           .timesteps = 6,
                           .variant = apps::Variant::kBaseline};
    simrt::Machine m1(numasim::power7());
    const auto base = run_minilulesh(m1, cfg);
    cfg.variant = apps::Variant::kBlockwise;
    simrt::Machine m2(numasim::power7());
    const auto block = run_minilulesh(m2, cfg);
    cfg.variant = apps::Variant::kInterleave;
    simrt::Machine m3(numasim::power7());
    const auto inter = run_minilulesh(m3, cfg);
    table.add_row({"LULESH", "POWER7", "block-wise first touch", "total",
                   support::format_count(base.total_cycles),
                   support::format_count(block.total_cycles),
                   speedup_str(static_cast<double>(base.total_cycles),
                               static_cast<double>(block.total_cycles)),
                   "+7.5%"});
    table.add_row({"LULESH", "POWER7", "interleave (prior work)", "total",
                   support::format_count(base.total_cycles),
                   support::format_count(inter.total_cycles),
                   speedup_str(static_cast<double>(base.total_cycles),
                               static_cast<double>(inter.total_cycles)),
                   "-16.4%"});
  }

  // --- AMG2006 -----------------------------------------------------------
  {
    apps::AmgConfig cfg{.threads = 48,
                        .rows_per_thread = 1024,
                        .nnz_per_row = 4,
                        .relax_sweeps = 5,
                        .matvec_sweeps = 1,
                        .variant = apps::Variant::kBaseline};
    simrt::Machine m1(numasim::amd_magny_cours());
    const auto base = run_miniamg(m1, cfg);
    cfg.variant = apps::Variant::kBlockwise;
    simrt::Machine m2(numasim::amd_magny_cours());
    const auto mixed = run_miniamg(m2, cfg);
    cfg.variant = apps::Variant::kInterleave;
    simrt::Machine m3(numasim::amd_magny_cours());
    const auto inter = run_miniamg(m3, cfg);
    const auto reduction = [&](const apps::AmgRun& r) {
      return std::string("-").append(support::format_percent(
          1.0 - static_cast<double>(r.solve_cycles) /
                    static_cast<double>(base.solve_cycles)));
    };
    table.add_row({"AMG2006", "AMD", "blockwise CSR + interleaved vectors",
                   "solver",
                   support::format_count(base.solve_cycles),
                   support::format_count(mixed.solve_cycles),
                   reduction(mixed), "-51% time"});
    table.add_row({"AMG2006", "AMD", "interleave everything (prior work)",
                   "solver",
                   support::format_count(base.solve_cycles),
                   support::format_count(inter.solve_cycles),
                   reduction(inter), "-36% time"});
  }

  // --- Blackscholes --------------------------------------------------------
  {
    apps::BlackscholesConfig cfg;
    cfg.threads = 48;
    cfg.variant = apps::Variant::kAosRegroup;
    cfg.aos_with_master_init = true;
    simrt::Machine m1(numasim::amd_magny_cours());
    const auto remote = run_miniblackscholes(m1, cfg);
    cfg.aos_with_master_init = false;
    simrt::Machine m2(numasim::amd_magny_cours());
    const auto fixed = run_miniblackscholes(m2, cfg);
    table.add_row({"Blackscholes", "AMD", "AoS regroup + parallel init",
                   "compute",
                   support::format_count(remote.compute_cycles),
                   support::format_count(fixed.compute_cycles),
                   speedup_str(static_cast<double>(remote.compute_cycles),
                               static_cast<double>(fixed.compute_cycles)),
                   "<+0.1%"});
  }

  // --- UMT2013 -------------------------------------------------------------
  {
    apps::UmtConfig cfg{.threads = 32,
                        .groups = 64,
                        .corners = 32,
                        .angles = 128,
                        .sweeps = 10,
                        .variant = apps::Variant::kBaseline};
    simrt::Machine m1(numasim::power7());
    const auto base = run_miniumt(m1, cfg);
    cfg.variant = apps::Variant::kParallelInit;
    simrt::Machine m2(numasim::power7());
    const auto fixed = run_miniumt(m2, cfg);
    table.add_row({"UMT2013", "POWER7", "parallel STime init", "total",
                   support::format_count(base.total_cycles),
                   support::format_count(fixed.total_cycles),
                   speedup_str(static_cast<double>(base.total_cycles),
                               static_cast<double>(fixed.total_cycles)),
                   "+7%"});
  }

  std::cout << table.to_text();
  std::cout << "\nDirections and orderings are the reproduction target;\n"
               "magnitudes differ because the substrate is a simulator\n"
               "(see EXPERIMENTS.md for the per-row discussion).\n";
  return 0;
}
