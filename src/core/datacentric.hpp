// Data-centric attribution (§5.1): resolving sampled addresses to program
// variables and anchoring them in the augmented CCT.
//
// Heap variables are discovered through the allocation wrapper (each keeps
// its full allocation call path, as HPCToolkit attributes "each sampled
// heap variable access to the full calling context where the heap variable
// was allocated"). Static variables come from the executable's symbol
// table. Stack accesses resolve to per-thread stack pseudo-variables —
// plus named stack variables registered explicitly, implementing the
// paper's future-work item of monitoring stack data directly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cct.hpp"
#include "simos/address_space.hpp"
#include "simrt/events.hpp"

namespace numaprof::core {

using VariableId = std::uint32_t;

enum class VariableKind : std::uint8_t {
  kHeap,
  kStatic,
  kStack,    // a thread's anonymous stack segment
  kStackVar, // an explicitly registered (named) stack variable
  kUnknown,
};

/// Number of VariableKind enumerators (deserializers validate against this).
inline constexpr int kVariableKindCount = 5;

std::string_view to_string(VariableKind k) noexcept;

struct Variable {
  VariableId id = 0;
  VariableKind kind = VariableKind::kUnknown;
  std::string name;
  simos::VAddr start = 0;
  std::uint64_t size = 0;        // bytes
  std::uint64_t page_count = 0;  // extent in pages
  NodeId variable_node = kRootNode;  // kVariable node in the CCT
  simrt::ThreadId alloc_tid = 0;     // heap only
  bool live = true;                  // heap only; false after free

  std::uint64_t extent_bytes() const noexcept {
    return page_count * simos::kPageBytes;
  }
};

class VariableRegistry {
 public:
  /// `space` supplies static symbols and stack layout; `cct` hosts the
  /// allocation-path and variable nodes.
  VariableRegistry(Cct& cct, const simos::AddressSpace& space);

  /// Heap allocation (from the wrapper). Builds the CCT segment
  ///   root -> [ALLOCATION] -> alloc call path -> [VARIABLE var].
  VariableId on_alloc(const simrt::AllocEvent& event);

  /// Heap free: the variable's metrics persist, but its address range no
  /// longer resolves (the pages may be reused by a later allocation).
  void on_free(const simrt::FreeEvent& event);

  /// Registers a named stack variable (paper §10 future work, implemented
  /// here): [addr, addr+size) on thread `tid`'s stack.
  VariableId register_stack_variable(std::string name, simrt::ThreadId tid,
                                     simos::VAddr addr, std::uint64_t size);

  /// Resolves an effective address to a variable, lazily materializing
  /// static / stack / unknown pseudo-variables on first contact.
  VariableId resolve(simos::VAddr addr);

  const Variable& variable(VariableId id) const { return variables_.at(id); }
  const std::vector<Variable>& all() const noexcept { return variables_; }
  std::size_t size() const noexcept { return variables_.size(); }

  /// First variable with this name (nullopt if none). Names of heap
  /// variables default to the wrapper-provided source name.
  std::optional<VariableId> find_by_name(std::string_view name) const;

  /// The CCT node of the allocation *call path leaf* for a heap variable
  /// (the "operator new[]" line of Fig. 3), i.e. the parent of its
  /// kVariable node.
  NodeId allocation_site(VariableId id) const;

 private:
  VariableId create(Variable var);
  VariableId resolve_static(simos::VAddr addr);
  VariableId resolve_stack(simos::VAddr addr);
  /// The one `<unknown>` pseudo-variable, created on first use.
  VariableId unknown();

  Cct& cct_;
  const simos::AddressSpace& space_;
  std::vector<Variable> variables_;
  std::map<simos::VAddr, VariableId> live_heap_;        // start -> id
  std::map<simos::VAddr, VariableId> named_stack_;      // start -> id
  std::map<std::string, VariableId> static_by_name_;
  std::map<simrt::ThreadId, VariableId> stack_by_tid_;
  std::optional<VariableId> unknown_;
};

}  // namespace numaprof::core
