#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>
#include <thread>
#include <vector>

#include "core/cct.hpp"

namespace numaprof::core {
namespace {

TEST(Cct, RootExists) {
  Cct cct;
  EXPECT_EQ(cct.size(), 1u);
  EXPECT_EQ(cct.node(kRootNode).kind, NodeKind::kRoot);
  EXPECT_EQ(cct.node(kRootNode).depth, 0u);
}

TEST(Cct, ChildCreationAndDedup) {
  Cct cct;
  const NodeId a = cct.child(kRootNode, NodeKind::kFrame, 7);
  const NodeId b = cct.child(kRootNode, NodeKind::kFrame, 7);
  const NodeId c = cct.child(kRootNode, NodeKind::kFrame, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cct.node(a).parent, kRootNode);
  EXPECT_EQ(cct.node(a).key, 7u);
  EXPECT_EQ(cct.node(a).depth, 1u);
}

TEST(Cct, SameKeyDifferentKindAreDistinct) {
  Cct cct;
  const NodeId frame = cct.child(kRootNode, NodeKind::kFrame, 1);
  const NodeId var = cct.child(kRootNode, NodeKind::kVariable, 1);
  const NodeId bin = cct.child(kRootNode, NodeKind::kBin, 1);
  EXPECT_NE(frame, var);
  EXPECT_NE(var, bin);
}

TEST(Cct, DummySeparatorsPartitionSubtrees) {
  // §7.1: allocation, access, and first-touch segments coexist under
  // separate dummy nodes even when call paths share frames.
  Cct cct;
  const simrt::FrameId path[] = {1, 2, 3};
  const NodeId alloc = cct.child(kRootNode, NodeKind::kAllocation, 0);
  const NodeId access = cct.child(kRootNode, NodeKind::kAccess, 0);
  const NodeId in_alloc = cct.extend(alloc, path);
  const NodeId in_access = cct.extend(access, path);
  EXPECT_NE(in_alloc, in_access);
  EXPECT_EQ(cct.path_to(in_alloc).front(), alloc);
  EXPECT_EQ(cct.path_to(in_access).front(), access);
}

TEST(Cct, ExtendBuildsAndReusesPaths) {
  Cct cct;
  const simrt::FrameId path1[] = {10, 20, 30};
  const simrt::FrameId path2[] = {10, 20, 40};
  const NodeId leaf1 = cct.extend(kRootNode, path1);
  const std::size_t after_first = cct.size();
  const NodeId leaf1_again = cct.extend(kRootNode, path1);
  EXPECT_EQ(leaf1, leaf1_again);
  EXPECT_EQ(cct.size(), after_first);  // nothing new
  const NodeId leaf2 = cct.extend(kRootNode, path2);
  EXPECT_EQ(cct.size(), after_first + 1);  // shares the 10>20 prefix
  EXPECT_EQ(cct.node(leaf1).parent, cct.node(leaf2).parent);
}

TEST(Cct, PathToRootOrder) {
  Cct cct;
  const simrt::FrameId frames[] = {5, 6};
  const NodeId leaf = cct.extend(kRootNode, frames);
  const auto path = cct.path_to(leaf);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(cct.node(path[0]).key, 5u);
  EXPECT_EQ(cct.node(path[1]).key, 6u);
  EXPECT_TRUE(cct.path_to(kRootNode).empty());
}

TEST(Cct, VisitCoversSubtree) {
  Cct cct;
  const simrt::FrameId a[] = {1, 2};
  const simrt::FrameId b[] = {1, 3};
  cct.extend(kRootNode, a);
  cct.extend(kRootNode, b);
  std::set<NodeId> visited;
  cct.visit(kRootNode, [&](NodeId id) { visited.insert(id); });
  EXPECT_EQ(visited.size(), cct.size());
  // Subtree visit from frame 1 sees 3 nodes (1, 2, 3).
  const NodeId one = *cct.find_child(kRootNode, NodeKind::kFrame, 1);
  visited.clear();
  cct.visit(one, [&](NodeId id) { visited.insert(id); });
  EXPECT_EQ(visited.size(), 3u);
}

TEST(Cct, FindChildDoesNotCreate) {
  Cct cct;
  EXPECT_FALSE(cct.find_child(kRootNode, NodeKind::kFrame, 9).has_value());
  EXPECT_EQ(cct.size(), 1u);
  const NodeId a = cct.child(kRootNode, NodeKind::kFrame, 9);
  EXPECT_EQ(cct.find_child(kRootNode, NodeKind::kFrame, 9).value(), a);
}

std::vector<NodeId> children_of(const Cct& cct, NodeId id) {
  const auto kids = cct.children(id);
  return {kids.begin(), kids.end()};
}

std::vector<NodeId> visit_order(const Cct& cct, NodeId id) {
  std::vector<NodeId> order;
  cct.visit(id, [&](NodeId n) { order.push_back(n); });
  return order;
}

TEST(Cct, ChildrenSorted) {
  // Creation order, not key order: a later child has a larger id.
  Cct cct;
  const NodeId three = cct.child(kRootNode, NodeKind::kFrame, 3);
  const NodeId one = cct.child(kRootNode, NodeKind::kFrame, 1);
  const NodeId two = cct.child(kRootNode, NodeKind::kFrame, 2);
  EXPECT_EQ(children_of(cct, kRootNode),
            (std::vector<NodeId>{three, one, two}));
  EXPECT_LT(three, one);
  EXPECT_LT(one, two);
  EXPECT_TRUE(cct.children(three).empty());
}

/// A tree whose nodes are created out of tree order, so that its
/// pre-order differs from id order:
///   1 [ACCESS] > 2 frame 5 > 3 frame 6 > 4 frame 7
///                           > 6 frame 8
///              > 8 frame 9
///   5 [ALLOCATION] > 7 VAR 0 > 9 bin 1
///                            > 10 bin 0
Cct order_tree() {
  Cct cct;
  const NodeId access = cct.child(kRootNode, NodeKind::kAccess, 0);
  const simrt::FrameId deep[] = {5, 6, 7};
  const simrt::FrameId wide[] = {5, 8};
  const simrt::FrameId flat[] = {9};
  cct.extend(access, deep);
  const NodeId alloc = cct.child(kRootNode, NodeKind::kAllocation, 0);
  cct.extend(access, wide);
  const NodeId var = cct.child(alloc, NodeKind::kVariable, 0);
  cct.extend(access, flat);
  cct.child(var, NodeKind::kBin, 1);
  cct.child(var, NodeKind::kBin, 0);
  return cct;
}

void expect_order(const Cct& cct) {
  ASSERT_EQ(cct.size(), 11u);
  EXPECT_EQ(visit_order(cct, kRootNode),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 6, 8, 5, 7, 9, 10}));
  EXPECT_EQ(visit_order(cct, 2), (std::vector<NodeId>{2, 3, 4, 6}));
  EXPECT_EQ(visit_order(cct, 4), (std::vector<NodeId>{4}));
  EXPECT_EQ(children_of(cct, kRootNode), (std::vector<NodeId>{1, 5}));
  EXPECT_EQ(children_of(cct, 1), (std::vector<NodeId>{2, 8}));
  EXPECT_EQ(children_of(cct, 2), (std::vector<NodeId>{3, 6}));
  EXPECT_EQ(children_of(cct, 7), (std::vector<NodeId>{9, 10}));
  EXPECT_TRUE(children_of(cct, 10).empty());
}

/// The columns the binary loader hands to assign_columns for `cct`.
struct Columns {
  std::vector<NodeId> parents;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint64_t> keys;
};

Columns columns_of(const Cct& cct) {
  Columns c;
  for (NodeId id = 1; id < cct.size(); ++id) {
    c.parents.push_back(cct.node(id).parent);
    c.kinds.push_back(static_cast<std::uint8_t>(cct.node(id).kind));
    c.keys.push_back(cct.node(id).key);
  }
  return c;
}

Cct bulk_loaded(const Columns& c) {
  Cct cct;
  EXPECT_FALSE(cct.assign_columns(c.parents, c.kinds, c.keys).has_value());
  return cct;
}

TEST(Cct, OrderIsPreOrderInCreationOrder) {
  const Cct built = order_tree();
  expect_order(built);
  expect_order(bulk_loaded(columns_of(built)));
}

TEST(Cct, BulkLoadBuildsTheChildIndex) {
  const Cct cct = bulk_loaded(columns_of(order_tree()));
  EXPECT_EQ(cct.find_child(7, NodeKind::kBin, 0), NodeId{10});
  EXPECT_EQ(cct.find_child(2, NodeKind::kFrame, 8), NodeId{6});
  EXPECT_FALSE(cct.find_child(2, NodeKind::kFrame, 9).has_value());
  EXPECT_EQ(cct.node(4).depth, 4u);
}

TEST(Cct, BulkLoadRejectsARepeatedSibling) {
  Columns c = columns_of(order_tree());
  c.keys[9] = 1;  // node 10 becomes a second bin 1 of VAR 0
  Cct cct = order_tree();
  EXPECT_EQ(cct.assign_columns(c.parents, c.kinds, c.keys), NodeId{10});
  EXPECT_EQ(cct.size(), 1u);  // root-only, not half a tree
  EXPECT_TRUE(cct.children(kRootNode).empty());
  EXPECT_FALSE(cct.find_child(kRootNode, NodeKind::kAccess, 0).has_value());
}

TEST(Cct, WideKeysAreDistinct) {
  // Keys that differ only in the top byte are different children.
  constexpr std::uint64_t kLow = 42;
  constexpr std::uint64_t kHigh = kLow | (std::uint64_t{1} << 60);
  Cct cct;
  const NodeId low = cct.child(kRootNode, NodeKind::kVariable, kLow);
  const NodeId high = cct.child(kRootNode, NodeKind::kVariable, kHigh);
  EXPECT_NE(low, high);
  EXPECT_EQ(cct.node(high).key, kHigh);
  EXPECT_EQ(cct.find_child(kRootNode, NodeKind::kVariable, kHigh), high);
  EXPECT_EQ(bulk_loaded(columns_of(cct)).size(), 3u);
}

TEST(Cct, EdgesThatShareAKeyStayApart) {
  // One key under other parents and kinds, and keys that differ only
  // above bit 32 or bit 55: every edge is its own child, found again.
  constexpr std::uint64_t kKey = 0x1234;
  const std::uint64_t keys[] = {kKey, kKey | std::uint64_t{1} << 32,
                                kKey | std::uint64_t{1} << 55,
                                kKey | std::uint64_t{1} << 63};
  const NodeKind kinds[] = {NodeKind::kFrame, NodeKind::kVariable,
                            NodeKind::kBin};
  Cct cct;
  std::vector<std::pair<std::tuple<NodeId, NodeKind, std::uint64_t>, NodeId>>
      made;
  std::set<NodeId> distinct;
  for (NodeId parent = 0; parent < 3; ++parent) {
    for (const NodeKind kind : kinds) {
      for (const std::uint64_t key : keys) {
        const NodeId id = cct.child(parent, kind, key);
        made.push_back({{parent, kind, key}, id});
        distinct.insert(id);
      }
    }
  }
  EXPECT_EQ(distinct.size(), made.size());
  EXPECT_EQ(cct.size(), made.size() + 1);
  for (const auto& [edge, id] : made) {
    const auto& [parent, kind, key] = edge;
    EXPECT_EQ(cct.child(parent, kind, key), id);
    EXPECT_EQ(cct.find_child(parent, kind, key), id);
    EXPECT_EQ(cct.node(id).key, key);
  }
  EXPECT_FALSE(cct.find_child(0, NodeKind::kFrame, kKey | 1).has_value());
  EXPECT_FALSE(cct.find_child(1, NodeKind::kAccess, kKey).has_value());
  EXPECT_FALSE(cct.find_child(3, NodeKind::kFrame, kKey).has_value());
}

TEST(Cct, IdsAndOrderSurviveGrowth) {
  // Enough children to grow the child index several times: ids stay the
  // creation order, every edge is found again, misses stay misses, and a
  // bulk load of the same columns gives the same tree.
  constexpr std::uint64_t kChildren = 5000;
  Cct cct;
  std::vector<NodeId> ids;
  for (std::uint64_t k = 0; k < kChildren; ++k) {
    const NodeId parent = k < 100 ? kRootNode : ids[k % 100];
    ids.push_back(cct.child(parent, NodeKind::kFrame, k << 40));
    EXPECT_EQ(ids.back(), NodeId(k + 1));
  }
  for (std::uint64_t k = 0; k < kChildren; ++k) {
    const NodeId parent = k < 100 ? kRootNode : ids[k % 100];
    EXPECT_EQ(cct.find_child(parent, NodeKind::kFrame, k << 40), ids[k]);
    EXPECT_FALSE(
        cct.find_child(parent, NodeKind::kFrame, k << 40 | 1).has_value());
    EXPECT_FALSE(cct.find_child(parent, NodeKind::kBin, k << 40).has_value());
  }
  EXPECT_EQ(children_of(cct, ids[7]).front(), ids[107]);
  const Cct loaded = bulk_loaded(columns_of(cct));
  ASSERT_EQ(loaded.size(), cct.size());
  EXPECT_EQ(visit_order(loaded, kRootNode), visit_order(cct, kRootNode));
  for (std::uint64_t k = 0; k < kChildren; k += 97) {
    EXPECT_EQ(loaded.find_child(loaded.node(ids[k]).parent, NodeKind::kFrame,
                                k << 40),
              ids[k]);
  }
}

TEST(Cct, BulkLoadReportsALateRepeatAtItsId) {
  // A repeat far into a large load, under a parent that also has many
  // children with keys equal in their low 32 bits.
  Columns c;
  for (std::uint64_t k = 0; k < 3000; ++k) {
    c.parents.push_back(kRootNode);
    c.kinds.push_back(static_cast<std::uint8_t>(NodeKind::kFrame));
    c.keys.push_back(k << 32 | 7);
  }
  c.parents.push_back(kRootNode);
  c.kinds.push_back(static_cast<std::uint8_t>(NodeKind::kFrame));
  c.keys.push_back(std::uint64_t{1234} << 32 | 7);
  Cct cct;
  EXPECT_EQ(cct.assign_columns(c.parents, c.kinds, c.keys), NodeId{3001});
  EXPECT_EQ(cct.size(), 1u);
  c.keys.back() = std::uint64_t{5000} << 32 | 7;  // now new
  EXPECT_FALSE(cct.assign_columns(c.parents, c.kinds, c.keys).has_value());
  EXPECT_EQ(cct.size(), 3002u);
}

TEST(Cct, ConcurrentReadsOfABulkLoadedTree) {
  // Every const member is a plain read, so readers on several threads
  // need no lock, even on the first lookup after a bulk load.
  const Cct cct = bulk_loaded(columns_of(order_tree()));
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&cct] {
      for (int round = 0; round < 100; ++round) {
        EXPECT_EQ(cct.find_child(7, NodeKind::kBin, 1), NodeId{9});
        EXPECT_EQ(children_of(cct, 1), (std::vector<NodeId>{2, 8}));
        EXPECT_EQ(visit_order(cct, kRootNode).size(), 11u);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
}

TEST(Cct, VisitOfADeepChainUsesNoStack) {
  // A chain far deeper than a recursive walk could survive.
  constexpr std::uint32_t kDepth = 300'000;
  Cct cct;
  const std::vector<simrt::FrameId> frames(kDepth, 0);
  const NodeId leaf = cct.extend(kRootNode, frames);
  EXPECT_EQ(cct.node(leaf).depth, kDepth);
  std::size_t visited = 0;
  NodeId last = kRootNode;
  cct.visit(kRootNode, [&](NodeId id) {
    ++visited;
    last = id;
  });
  EXPECT_EQ(visited, cct.size());
  EXPECT_EQ(last, leaf);
}

TEST(Cct, DeepPathDepths) {
  Cct cct;
  std::vector<simrt::FrameId> frames;
  for (simrt::FrameId f = 0; f < 100; ++f) frames.push_back(f);
  const NodeId leaf = cct.extend(kRootNode, frames);
  EXPECT_EQ(cct.node(leaf).depth, 100u);
}

}  // namespace
}  // namespace numaprof::core
