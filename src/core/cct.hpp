// Augmented calling context tree (CCT), §7.1.
//
// hpcrun records "a mixture of variable allocation paths, memory access
// call paths, and first touch call paths", with dummy nodes separating the
// segments recorded for different purposes. This CCT reproduces that: frame
// nodes form call paths; kAllocation/kAccess/kFirstTouch dummy nodes mark
// what the subtree below them represents; kVariable and kBin nodes hang
// data-centric attribution off allocation paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "simrt/frame.hpp"

namespace numaprof::core {

using NodeId = std::uint32_t;
inline constexpr NodeId kRootNode = 0;

enum class NodeKind : std::uint8_t {
  kRoot,
  kFrame,       // a function / loop / parallel-region in a call path
  kAllocation,  // dummy: children form the allocation call path segment
  kAccess,      // dummy: children form memory-access call path segments
  kFirstTouch,  // dummy: children form first-touch call path segments
  kVariable,    // data-centric anchor (key = VariableId)
  kBin,         // address-range bin of a variable (key = bin index), §5.2
};

/// Number of NodeKind enumerators (deserializers validate against this).
inline constexpr int kNodeKindCount = 7;

struct CctNode {
  NodeId parent = kRootNode;
  NodeKind kind = NodeKind::kRoot;
  std::uint64_t key = 0;  // FrameId / VariableId / bin index, per kind
  std::uint32_t depth = 0;
  // The children in creation order, as sibling links kept by Cct;
  // kRootNode ends a list (the root is nobody's child or sibling).
  NodeId first_child = kRootNode;
  NodeId last_child = kRootNode;
  NodeId next_sibling = kRootNode;
};

/// Children are kept in creation order. A child is always created after
/// its parent, so a child's id is larger than its parent's, and siblings
/// come in id order. Every walk follows that order. All const members
/// are safe to call from several threads at once.
class Cct {
 public:
  /// Finds or creates the child of `parent` with (kind, key).
  NodeId child(NodeId parent, NodeKind kind, std::uint64_t key);

  /// Bulk-loads the whole tree from parallel columns describing nodes
  /// 1..N (node 0 is the implied root): element i gives node i+1. This is
  /// the binary loader's path: one reserve, then the same child index
  /// child() builds. Every parent must be < its node id (the columns are
  /// topologically ordered, as the writer emits them); kinds must be
  /// valid NodeKind values. Replaces any existing contents. Returns the
  /// first node that repeats a sibling's (kind, key), leaving the tree
  /// root-only, or nullopt.
  std::optional<NodeId> assign_columns(std::span<const NodeId> parents,
                                       std::span<const std::uint8_t> kinds,
                                       std::span<const std::uint64_t> keys);

  /// Lookup without creation (for read-only consumers like the viewer).
  std::optional<NodeId> find_child(NodeId parent, NodeKind kind,
                                   std::uint64_t key) const;

  /// Extends `base` by a call path (root-to-leaf frame ids), creating frame
  /// nodes as needed; returns the leaf's node.
  NodeId extend(NodeId base, std::span<const simrt::FrameId> frames);

  const CctNode& node(NodeId id) const { return nodes_.at(id); }
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Root-to-node path of ids (includes `id`, excludes the root).
  std::vector<NodeId> path_to(NodeId id) const;

  /// Pre-order visit of the subtree at `id` (includes `id`), children in
  /// creation order. Follows the links, so it uses no stack at any depth.
  void visit(NodeId id, const std::function<void(NodeId)>& fn) const;

  /// Forward iterator over one node's children.
  struct ChildIterator {
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    const Cct* cct;
    NodeId at;  // kRootNode past the last child
    NodeId operator*() const { return at; }
    ChildIterator& operator++() {
      at = cct->nodes_[at].next_sibling;
      return *this;
    }
    ChildIterator operator++(int) {
      ChildIterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const ChildIterator& o) const { return at == o.at; }
  };

  /// The direct children of `id` in creation order, as a view.
  std::ranges::subrange<ChildIterator> children(NodeId id) const {
    return {ChildIterator{this, nodes_.at(id).first_child},
            ChildIterator{this, kRootNode}};
  }

 private:
  struct Edge {
    std::uint64_t key;
    NodeId parent;
    NodeKind kind;
    bool operator==(const Edge&) const = default;
  };
  struct EdgeHash {
    std::size_t operator()(const Edge& e) const noexcept {
      const auto kind = static_cast<std::uint64_t>(e.kind);
      return (e.key * 0x9e37'79b9'7f4a'7c15ULL) ^
             (std::uint64_t{e.parent} << 3 | kind);
    }
  };

  std::vector<CctNode> nodes_ = {CctNode{}};  // node 0 is the root
  // The one child index: (parent, kind, key) -> child.
  std::unordered_map<Edge, NodeId, EdgeHash> index_;
};

}  // namespace numaprof::core
