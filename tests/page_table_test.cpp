#include <gtest/gtest.h>

#include "simos/page_table.hpp"

namespace numaprof::simos {
namespace {

TEST(PagePolicy, FirstTouchFollowsToucher) {
  const PolicySpec p = PolicySpec::first_touch();
  EXPECT_EQ(resolve_home(p, 0, 10, 4, 2), 2u);
  EXPECT_EQ(resolve_home(p, 9, 10, 4, 3), 3u);
}

TEST(PagePolicy, InterleaveRoundRobinByPage) {
  const PolicySpec p = PolicySpec::interleave();
  EXPECT_EQ(resolve_home(p, 0, 8, 4, 0), 0u);
  EXPECT_EQ(resolve_home(p, 1, 8, 4, 0), 1u);
  EXPECT_EQ(resolve_home(p, 5, 8, 4, 0), 1u);
  EXPECT_EQ(resolve_home(p, 7, 8, 4, 0), 3u);
}

TEST(PagePolicy, BindIgnoresToucher) {
  const PolicySpec p = PolicySpec::bind(2);
  EXPECT_EQ(resolve_home(p, 0, 8, 4, 3), 2u);
  EXPECT_EQ(resolve_home(PolicySpec::bind(9), 0, 8, 4, 0), 1u);  // mod 4
}

TEST(PagePolicy, BlockwiseEqualContiguousBlocks) {
  const PolicySpec p = PolicySpec::blockwise();
  // 8 pages over 4 domains: pages 0-1 -> 0, 2-3 -> 1, ...
  EXPECT_EQ(resolve_home(p, 0, 8, 4, 9), 0u);
  EXPECT_EQ(resolve_home(p, 1, 8, 4, 9), 0u);
  EXPECT_EQ(resolve_home(p, 2, 8, 4, 9), 1u);
  EXPECT_EQ(resolve_home(p, 7, 8, 4, 9), 3u);
}

TEST(PagePolicy, BlockwiseUnevenPagesClamped) {
  const PolicySpec p = PolicySpec::blockwise();
  // 3 pages over 4 domains never exceeds domain 3.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_LT(resolve_home(p, i, 3, 4, 0), 4u);
  }
}

TEST(PagePolicy, ToString) {
  EXPECT_EQ(to_string(PolicySpec::first_touch()), "first-touch");
  EXPECT_EQ(to_string(PolicySpec::interleave()), "interleave");
  EXPECT_EQ(to_string(PolicySpec::bind(3)), "bind(domain 3)");
  EXPECT_EQ(to_string(PolicySpec::blockwise()), "blockwise");
}

TEST(PageTable, DefaultIsFirstTouch) {
  PageTable pt(4);
  EXPECT_EQ(pt.home_of(100, 2), 2u);
  // Sticky: a later toucher does not move the page.
  EXPECT_EQ(pt.home_of(100, 3), 2u);
}

TEST(PageTable, RegionPolicyApplies) {
  PageTable pt(4);
  pt.register_region(10, 8, PolicySpec::interleave());
  EXPECT_EQ(pt.home_of(10, 3), 0u);
  EXPECT_EQ(pt.home_of(11, 3), 1u);
  EXPECT_EQ(pt.home_of(17, 3), 3u);
  // Outside the region: first touch.
  EXPECT_EQ(pt.home_of(18, 3), 3u);
}

TEST(PageTable, OverlappingRegionThrows) {
  PageTable pt(4);
  pt.register_region(10, 8, PolicySpec::first_touch());
  EXPECT_THROW(pt.register_region(17, 2, PolicySpec::first_touch()),
               std::invalid_argument);
  EXPECT_THROW(pt.register_region(5, 6, PolicySpec::first_touch()),
               std::invalid_argument);
  // Adjacent is fine.
  EXPECT_NO_THROW(pt.register_region(18, 2, PolicySpec::first_touch()));
}

TEST(PageTable, UnregisterFreesPagesAndAllowsReuse) {
  PageTable pt(4);
  pt.register_region(10, 4, PolicySpec::bind(1));
  EXPECT_EQ(pt.home_of(10, 0), 1u);
  pt.unregister_region(10);
  EXPECT_FALSE(pt.query_home(10).has_value());  // home dropped
  // Reusable with a different policy.
  pt.register_region(10, 4, PolicySpec::bind(2));
  EXPECT_EQ(pt.home_of(10, 0), 2u);
}

TEST(PageTable, QueryHomeDoesNotAssign) {
  PageTable pt(4);
  // move_pages on an untouched page reports "not present" (§4.1).
  EXPECT_FALSE(pt.query_home(55).has_value());
  pt.home_of(55, 1);
  EXPECT_EQ(pt.query_home(55).value(), 1u);
}

TEST(PageTable, SetRegionPolicyBeforeFirstTouch) {
  PageTable pt(4);
  pt.register_region(0, 4, PolicySpec::first_touch());
  EXPECT_TRUE(pt.set_region_policy(2, PolicySpec::bind(3)));
  EXPECT_EQ(pt.home_of(1, 0), 3u);
  EXPECT_FALSE(pt.set_region_policy(100, PolicySpec::bind(0)));
}

TEST(PageTable, SetRegionPolicyKeepsExistingHomes) {
  PageTable pt(4);
  pt.register_region(0, 4, PolicySpec::first_touch());
  pt.home_of(0, 1);  // touched -> domain 1
  pt.set_region_policy(0, PolicySpec::bind(3));
  EXPECT_EQ(pt.home_of(0, 2), 1u);  // unchanged
  EXPECT_EQ(pt.home_of(1, 2), 3u);  // new policy for untouched pages
}

TEST(PageTable, MigrateOverridesHome) {
  PageTable pt(4);
  pt.home_of(7, 0);
  pt.migrate(7, 3);
  EXPECT_EQ(pt.query_home(7).value(), 3u);
}

TEST(PageTable, ProtectionLifecycle) {
  PageTable pt(4);
  pt.register_region(0, 4, PolicySpec::first_touch());
  EXPECT_FALSE(pt.any_protected());
  pt.protect_range(0, 4);
  EXPECT_TRUE(pt.any_protected());
  EXPECT_TRUE(pt.is_protected(0));
  EXPECT_TRUE(pt.is_protected(3));
  EXPECT_FALSE(pt.is_protected(4));
  pt.unprotect(0);
  EXPECT_FALSE(pt.is_protected(0));
  EXPECT_TRUE(pt.any_protected());
  for (PageId p = 1; p < 4; ++p) pt.unprotect(p);
  EXPECT_FALSE(pt.any_protected());
  // Idempotent unprotect.
  pt.unprotect(0);
  EXPECT_FALSE(pt.any_protected());
}

TEST(PageTable, UnregisterClearsProtection) {
  PageTable pt(4);
  pt.register_region(0, 4, PolicySpec::first_touch());
  pt.protect_range(0, 4);
  pt.unregister_region(0);
  EXPECT_FALSE(pt.any_protected());
}

TEST(PageTable, TouchedPagesCount) {
  PageTable pt(2);
  EXPECT_EQ(pt.touched_pages(), 0u);
  pt.home_of(1, 0);
  pt.home_of(2, 0);
  pt.home_of(1, 1);  // repeat
  EXPECT_EQ(pt.touched_pages(), 2u);

  // Protecting creates entries but homes no page: only touches count.
  pt.protect_range(10, 8);
  EXPECT_EQ(pt.touched_pages(), 2u);
  for (PageId p = 10; p < 13; ++p) {
    pt.unprotect(p);
    pt.home_of(p, 1);
  }
  EXPECT_EQ(pt.touched_pages(), 5u);
}

TEST(PageTable, PlacementHistogramCountsTouchedPages) {
  PageTable pt(4);
  pt.register_region(0, 8, PolicySpec::interleave());
  for (PageId p = 0; p < 6; ++p) pt.home_of(p, 0);  // touch 6 of 8
  const auto histogram = pt.placement_histogram();
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 2u);  // pages 0, 4
  EXPECT_EQ(histogram[1], 2u);  // pages 1, 5
  EXPECT_EQ(histogram[2], 1u);  // page 2
  EXPECT_EQ(histogram[3], 1u);  // page 3
  std::uint64_t total = 0;
  for (const auto h : histogram) total += h;
  EXPECT_EQ(total, pt.touched_pages());
}

// Property: under interleave, an N-page region spreads pages across all
// domains within one page of perfectly even.
class InterleaveBalance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterleaveBalance, PagesSpreadEvenly) {
  const std::uint64_t pages = GetParam();
  const std::uint32_t domains = 4;
  PageTable pt(domains);
  pt.register_region(0, pages, PolicySpec::interleave());
  std::vector<std::uint64_t> counts(domains, 0);
  for (PageId p = 0; p < pages; ++p) ++counts[pt.home_of(p, 0)];
  const auto [min, max] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*max - *min, 1u) << pages << " pages";
}

INSTANTIATE_TEST_SUITE_P(Sizes, InterleaveBalance,
                         ::testing::Values(1u, 4u, 7u, 64u, 1001u));

}  // namespace
}  // namespace numaprof::simos
