#include "core/datacentric.hpp"

namespace numaprof::core {

std::string_view to_string(VariableKind k) noexcept {
  switch (k) {
    case VariableKind::kHeap: return "heap";
    case VariableKind::kStatic: return "static";
    case VariableKind::kStack: return "stack";
    case VariableKind::kStackVar: return "stack-var";
    case VariableKind::kUnknown: return "unknown";
  }
  return "?";
}

VariableRegistry::VariableRegistry(Cct& cct, const simos::AddressSpace& space)
    : cct_(cct), space_(space) {}

VariableId VariableRegistry::create(Variable var) {
  const auto id = static_cast<VariableId>(variables_.size());
  var.id = id;
  variables_.push_back(std::move(var));
  return id;
}

VariableId VariableRegistry::on_alloc(const simrt::AllocEvent& event) {
  Variable var;
  var.kind = VariableKind::kHeap;
  var.name = event.name.empty()
                 ? "heap#" + std::to_string(event.block.id)
                 : event.name;
  var.start = event.block.start;
  var.size = event.block.size;
  var.page_count = event.block.page_count;
  var.alloc_tid = event.tid;

  // Allocation-path CCT segment, separated by the [ALLOCATION] dummy node.
  const NodeId dummy = cct_.child(kRootNode, NodeKind::kAllocation, 0);
  const NodeId site = cct_.extend(dummy, event.stack);
  const VariableId id = create(std::move(var));
  variables_[id].variable_node = cct_.child(site, NodeKind::kVariable, id);
  live_heap_[event.block.start] = id;
  return id;
}

void VariableRegistry::on_free(const simrt::FreeEvent& event) {
  const auto it = live_heap_.find(event.block.start);
  if (it == live_heap_.end()) return;
  variables_[it->second].live = false;
  live_heap_.erase(it);
}

VariableId VariableRegistry::register_stack_variable(std::string name,
                                                     simrt::ThreadId tid,
                                                     simos::VAddr addr,
                                                     std::uint64_t size) {
  Variable var;
  var.kind = VariableKind::kStackVar;
  var.name = std::move(name);
  var.start = addr;
  var.size = size;
  var.page_count = simos::pages_covering(addr, size);
  var.alloc_tid = tid;
  const VariableId id = create(std::move(var));
  variables_[id].variable_node = cct_.child(kRootNode, NodeKind::kVariable, id);
  named_stack_[addr] = id;
  return id;
}

VariableId VariableRegistry::resolve(simos::VAddr addr) {
  switch (space_.segment_of(addr)) {
    case simos::Segment::kHeap: {
      auto it = live_heap_.upper_bound(addr);
      if (it != live_heap_.begin()) {
        --it;
        const Variable& var = variables_[it->second];
        if (addr < var.start + var.extent_bytes()) return it->second;
      }
      break;  // heap address outside any live block -> unknown
    }
    case simos::Segment::kStatic:
      return resolve_static(addr);
    case simos::Segment::kStack:
      return resolve_stack(addr);
    case simos::Segment::kUnknown:
      break;
  }
  return unknown();
}

VariableId VariableRegistry::unknown() {
  if (!unknown_) {
    Variable var;
    var.kind = VariableKind::kUnknown;
    var.name = "<unknown>";
    var.page_count = 1;
    unknown_ = create(std::move(var));
    variables_[*unknown_].variable_node =
        cct_.child(kRootNode, NodeKind::kVariable, *unknown_);
  }
  return *unknown_;
}

VariableId VariableRegistry::resolve_static(simos::VAddr addr) {
  const simos::StaticSymbol* symbol = space_.find_static(addr);
  if (symbol == nullptr) {
    return unknown();  // static segment but no symbol
  }
  const auto it = static_by_name_.find(symbol->name);
  if (it != static_by_name_.end()) return it->second;

  Variable var;
  var.kind = VariableKind::kStatic;
  var.name = symbol->name;
  var.start = symbol->start;
  var.size = symbol->size;
  var.page_count = symbol->page_count;
  const VariableId id = create(std::move(var));
  variables_[id].variable_node = cct_.child(kRootNode, NodeKind::kVariable, id);
  static_by_name_[variables_[id].name] = id;
  return id;
}

VariableId VariableRegistry::resolve_stack(simos::VAddr addr) {
  // Named stack variables take precedence over the anonymous segment.
  {
    auto it = named_stack_.upper_bound(addr);
    if (it != named_stack_.begin()) {
      --it;
      const Variable& var = variables_[it->second];
      if (addr < var.start + var.size) return it->second;
    }
  }
  const auto tid = static_cast<simrt::ThreadId>(
      (addr - simos::kStackBase) / simos::kStackBytesPerThread);
  const auto it = stack_by_tid_.find(tid);
  if (it != stack_by_tid_.end()) return it->second;

  Variable var;
  var.kind = VariableKind::kStack;
  var.name = "stack(thread " + std::to_string(tid) + ")";
  var.start = simos::kStackBase +
              static_cast<simos::VAddr>(tid) * simos::kStackBytesPerThread;
  var.size = simos::kStackBytesPerThread;
  var.page_count = simos::kStackBytesPerThread / simos::kPageBytes;
  var.alloc_tid = tid;
  const VariableId id = create(std::move(var));
  variables_[id].variable_node = cct_.child(kRootNode, NodeKind::kVariable, id);
  stack_by_tid_[tid] = id;
  return id;
}

std::optional<VariableId> VariableRegistry::find_by_name(
    std::string_view name) const {
  for (const Variable& var : variables_) {
    if (var.name == name) return var.id;
  }
  return std::nullopt;
}

NodeId VariableRegistry::allocation_site(VariableId id) const {
  const Variable& var = variables_.at(id);
  return cct_.node(var.variable_node).parent;
}

}  // namespace numaprof::core
