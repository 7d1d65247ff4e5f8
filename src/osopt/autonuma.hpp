// AutoNuma: an OS-level automatic page-migration baseline (mini-Carrefour
// / Linux AutoNUMA analogue).
//
// §9 contrasts the paper's approach — tool-guided SOURCE changes — with
// operating-system approaches ([6], [7]) that "ameliorate NUMA problems to
// the greatest extent possible without source code changes", and argues
// the source route "yields better code". This module implements the OS
// route so that claim can be measured: like Linux's NUMA balancing, it
// periodically write-protects live heap pages ("NUMA hint faults"); each
// fault reveals who is actually touching a page, and a page faulted
// consistently from one remote domain is migrated there, with the faulting
// thread paying the fault + copy cost.
//
// Limitations mirroring the real mechanism: migration chases the MAJORITY
// accessor, so pages shared evenly across domains ping-pong or stay put;
// the scan/fault/copy overhead is charged to application threads; and
// nothing improves until the pattern has already cost something.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "simrt/machine.hpp"

namespace numaprof::osopt {

struct AutoNumaConfig {
  /// Virtual time between protection sweeps of live heap pages.
  numasim::Cycles scan_interval = 300'000;
  /// Hint faults from the same remote domain before a page migrates.
  std::uint32_t fault_threshold = 2;
  /// OS work charged to the faulting thread per hint fault (walk + TLB).
  numasim::Cycles fault_cost = 600;
};

class AutoNumaBalancer final : public simrt::MachineObserver {
 public:
  /// Installs the balancer: registers as observer AND takes the machine's
  /// fault handler slot (incompatible with a first-touch-tracking
  /// profiler; use ProfilerConfig::track_first_touch = false alongside).
  AutoNumaBalancer(simrt::Machine& machine, AutoNumaConfig config = {});
  ~AutoNumaBalancer() override;

  AutoNumaBalancer(const AutoNumaBalancer&) = delete;
  AutoNumaBalancer& operator=(const AutoNumaBalancer&) = delete;

  /// A deadline on the running thread's clock, every scan_interval.
  simrt::Interest interest() const override;
  /// The deadline passed: sweeps, and returns the next deadline.
  simrt::NextCall on_count(const simrt::SimThread& thread,
                           std::uint64_t clock,
                           const simrt::AccessEvent* access) override;

  std::uint64_t scans() const noexcept { return scans_; }
  std::uint64_t hint_faults() const noexcept { return hint_faults_; }
  std::uint64_t migrations() const noexcept { return migrations_; }

 private:
  void on_fault(const simrt::FaultEvent& fault);

  struct PageState {
    numasim::DomainId last_domain = 0;
    std::uint32_t streak = 0;
  };

  simrt::Machine& machine_;
  AutoNumaConfig config_;
  std::unordered_map<simos::PageId, PageState> pages_;
  std::uint64_t scans_ = 0;
  std::uint64_t hint_faults_ = 0;
  std::uint64_t migrations_ = 0;
};

}  // namespace numaprof::osopt
