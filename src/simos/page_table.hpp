// Page table: lazy home-domain assignment, region policies, page protection.
//
// This is the OS state the paper's tool interrogates and manipulates:
//  - move_pages(2)-style queries ("which domain owns this page?", §4.1),
//  - placement policies applied to allocations (§2),
//  - read/write protection used to trap first touches (§6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "numasim/types.hpp"
#include "simos/page_policy.hpp"
#include "simos/types.hpp"

namespace numaprof::simos {

/// Per-page OS state. A page exists in the table only once something has
/// been recorded about it (policy region membership is tracked separately).
struct PageEntry {
  std::optional<numasim::DomainId> home;  // unset until first touch
  bool protected_ = false;                // r/w masked (first-touch trap)
};

class PageTable {
 public:
  explicit PageTable(std::uint32_t domain_count) noexcept
      : domain_count_(domain_count) {}

  /// Registers [start_page, start_page+pages) as one policy region, e.g. a
  /// heap allocation or a static variable's extent. Later-registered
  /// regions may not overlap earlier live ones.
  void register_region(PageId start_page, std::uint64_t pages,
                       PolicySpec policy);

  /// Removes a region (heap free). Page homes are dropped with it, matching
  /// the OS returning frames to the free pool.
  void unregister_region(PageId start_page);

  /// Replaces the policy of the region containing `page` (numactl-style
  /// rebinding before first touch). Pages already homed keep their homes.
  bool set_region_policy(PageId page, PolicySpec policy);

  /// The domain that owns `page`, assigning it on first touch by `toucher`
  /// according to the containing region's policy (default: first-touch).
  numasim::DomainId home_of(PageId page, numasim::DomainId toucher);

  /// move_pages(2) query semantics: domain if assigned, nullopt when the
  /// page has never been touched (Linux reports -ENOENT for those).
  std::optional<numasim::DomainId> query_home(PageId page) const;

  /// Forces a page's home (page-migration support). Creates the entry.
  void migrate(PageId page, numasim::DomainId home);

  // --- Protection (first-touch trapping, §6) ---
  void protect_range(PageId start_page, std::uint64_t pages);
  void unprotect(PageId page);
  bool is_protected(PageId page) const;

  /// True while any page is protected; the access hot path checks this one
  /// flag before doing per-page lookups, keeping the common case cheap.
  bool any_protected() const noexcept { return protected_pages_ != 0; }

  std::uint32_t domain_count() const noexcept { return domain_count_; }

  /// Number of pages with an assigned home (touched pages). A page that is
  /// only protected has an entry but no home, and does not count.
  std::size_t touched_pages() const noexcept;

  /// numastat-style placement histogram: touched pages homed per domain.
  std::vector<std::uint64_t> placement_histogram() const;

 private:
  struct Region {
    std::uint64_t pages = 0;
    PolicySpec policy;
  };

  /// Region containing `page`, or nullptr.
  const Region* region_of(PageId page, PageId* start_out) const;

  std::uint32_t domain_count_;
  std::map<PageId, Region> regions_;  // keyed by start page
  std::unordered_map<PageId, PageEntry> entries_;
  std::size_t protected_pages_ = 0;
};

}  // namespace numaprof::simos
