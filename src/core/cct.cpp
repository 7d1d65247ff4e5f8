#include "core/cct.hpp"

#include <algorithm>
#include <stdexcept>

namespace numaprof::core {

NodeId Cct::child(NodeId parent, NodeKind kind, std::uint64_t key) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (parent >= id) throw std::out_of_range("Cct::child: no such parent");
  const auto [it, added] = index_.try_emplace(Edge{key, parent, kind}, id);
  if (!added) return it->second;
  const std::uint32_t depth = nodes_[parent].depth + 1;
  nodes_.push_back(
      CctNode{.parent = parent, .kind = kind, .key = key, .depth = depth});
  CctNode& p = nodes_[parent];
  (p.first_child == kRootNode ? p.first_child
                              : nodes_[p.last_child].next_sibling) = id;
  p.last_child = id;
  return id;
}

std::optional<NodeId> Cct::assign_columns(
    std::span<const NodeId> parents, std::span<const std::uint8_t> kinds,
    std::span<const std::uint64_t> keys) {
  *this = Cct();
  nodes_.reserve(parents.size() + 1);
  index_.reserve(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    const auto id = static_cast<NodeId>(i + 1);
    if (child(parents[i], static_cast<NodeKind>(kinds[i]), keys[i]) != id) {
      *this = Cct();
      return id;
    }
  }
  return std::nullopt;
}

std::optional<NodeId> Cct::find_child(NodeId parent, NodeKind kind,
                                      std::uint64_t key) const {
  const auto it = index_.find(Edge{key, parent, kind});
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

NodeId Cct::extend(NodeId base, std::span<const simrt::FrameId> frames) {
  NodeId current = base;
  for (const simrt::FrameId frame : frames) {
    current = child(current, NodeKind::kFrame, frame);
  }
  return current;
}

std::vector<NodeId> Cct::path_to(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId cursor = id; cursor != kRootNode;
       cursor = nodes_[cursor].parent) {
    path.push_back(cursor);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void Cct::visit(NodeId id, const std::function<void(NodeId)>& fn) const {
  // Descend to the first child; at a leaf, climb to the nearest node
  // below `id` that has a next sibling and move there.
  NodeId at = id;
  while (true) {
    fn(at);
    if (nodes_.at(at).first_child != kRootNode) {
      at = nodes_[at].first_child;
      continue;
    }
    while (at != id && nodes_[at].next_sibling == kRootNode) {
      at = nodes_[at].parent;
    }
    if (at == id) return;
    at = nodes_[at].next_sibling;
  }
}

}  // namespace numaprof::core
