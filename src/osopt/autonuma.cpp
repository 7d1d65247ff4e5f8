#include "osopt/autonuma.hpp"

#include "simos/numa_api.hpp"

namespace numaprof::osopt {

AutoNumaBalancer::AutoNumaBalancer(simrt::Machine& machine,
                                   AutoNumaConfig config)
    : machine_(machine), config_(config) {
  machine_.add_observer(*this);
  machine_.set_fault_handler(
      [this](const simrt::FaultEvent& f) { on_fault(f); });
}

AutoNumaBalancer::~AutoNumaBalancer() {
  machine_.remove_observer(*this);
  machine_.set_fault_handler({});
  // Leave no page protected behind (a scan may be mid-flight).
  auto& table = machine_.memory().page_table();
  machine_.memory().heap().for_each_live([&](const simos::HeapBlock& block) {
    for (simos::PageId p = simos::page_of(block.start);
         p < simos::page_of(block.start) + block.page_count; ++p) {
      table.unprotect(p);
    }
  });
}

simrt::Interest AutoNumaBalancer::interest() const {
  simrt::Interest interest;
  interest.counts = simrt::Counts::kClock;
  interest.first = config_.scan_interval;
  return interest;
}

simrt::NextCall AutoNumaBalancer::on_count(
    const simrt::SimThread& /*thread*/, std::uint64_t clock,
    const simrt::AccessEvent* /*access*/) {
  ++scans_;
  // The periodic "task_numa_work" sweep: write-protect live heap pages so
  // the next access faults and reveals the accessing domain.
  auto& table = machine_.memory().page_table();
  machine_.memory().heap().for_each_live([&](const simos::HeapBlock& block) {
    table.protect_range(simos::page_of(block.start), block.page_count);
  });
  return clock + config_.scan_interval;
}

void AutoNumaBalancer::on_fault(const simrt::FaultEvent& fault) {
  ++hint_faults_;
  auto& table = machine_.memory().page_table();
  const simos::PageId page = simos::page_of(fault.addr);
  table.unprotect(page);
  machine_.charge(fault.tid, config_.fault_cost);

  const numasim::DomainId accessor =
      simos::numa_node_of_cpu(machine_.topology(), fault.core);
  const auto home = table.query_home(page);
  if (!home || *home == accessor) {
    pages_.erase(page);  // local access: no pressure to move
    return;
  }

  PageState& state = pages_[page];
  if (state.streak == 0 || state.last_domain != accessor) {
    state.last_domain = accessor;
    state.streak = 1;
  } else {
    ++state.streak;
  }
  if (state.streak >= config_.fault_threshold) {
    machine_.migrate_page(fault.addr, accessor, fault.tid);
    ++migrations_;
    pages_.erase(page);
  }
}

}  // namespace numaprof::osopt
