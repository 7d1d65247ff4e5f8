// Large loads into the CCT's child index and the address-centric
// tracker's entry index, with keys that differ only in their high bits:
// a hash that dropped those bits would pile every key into a few probe
// runs and make these loads quadratic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/addrcentric.hpp"
#include "core/cct.hpp"

namespace numaprof::core {
namespace {

constexpr std::uint32_t kCount = 200'000;

TEST(FlatTableStress, CctLoadOfHighBitOnlyKeys) {
  // Half the nodes are children of the root, half of node 1; the keys
  // differ only above bit 40.
  std::vector<NodeId> parents;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    parents.push_back(i < 2 ? kRootNode : NodeId{i % 2});
    kinds.push_back(static_cast<std::uint8_t>(NodeKind::kFrame));
    keys.push_back(std::uint64_t{i} << 40);
  }
  Cct loaded;
  ASSERT_FALSE(loaded.assign_columns(parents, kinds, keys).has_value());
  Cct built;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(built.child(parents[i], NodeKind::kFrame, keys[i]), i + 1);
  }
  ASSERT_EQ(loaded.size(), kCount + 1);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(loaded.find_child(parents[i], NodeKind::kFrame, keys[i]),
              NodeId{i + 1});
    ASSERT_EQ(built.child(parents[i], NodeKind::kFrame, keys[i]), i + 1);
  }
  EXPECT_FALSE(loaded.find_child(1, NodeKind::kFrame, keys[2]).has_value());
  EXPECT_EQ(built.size(), kCount + 1);
}

TEST(FlatTableStress, AddressCentricLoadOfHighBitOnlyKeys) {
  // Every key field varies only in its top bits.
  const auto key_of = [](std::uint32_t i) {
    return BinKey{.context = (i & 0x3ff) << 22,
                  .variable = (i >> 10 & 0x7) << 29,
                  .bin = (i >> 13 & 0x7) << 29,
                  .tid = (i >> 16) << 28};
  };
  AddressCentric ac(5);
  BinStats stats;
  stats.update(0x1000, 1.0);
  for (std::uint32_t i = 0; i < kCount; ++i) ac.insert(key_of(i), stats);
  ASSERT_EQ(ac.entry_count(), kCount);
  for (std::uint32_t i = 0; i < kCount; i += 2) ac.insert(key_of(i), stats);
  ASSERT_EQ(ac.entry_count(), kCount);
  std::uint32_t at = 0;
  bool in_order = true;
  ac.for_each([&](const BinKey& key, const BinStats& s) {
    in_order &= key == key_of(at) && s.count == (at % 2 == 0 ? 2u : 1u);
    ++at;
  });
  EXPECT_TRUE(in_order);
  EXPECT_EQ(at, kCount);
}

}  // namespace
}  // namespace numaprof::core
