#include "simos/page_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace numaprof::simos {

void PageTable::register_region(PageId start_page, std::uint64_t pages,
                                PolicySpec policy) {
  if (pages == 0) return;
  PageId existing_start = 0;
  if (region_of(start_page, &existing_start) != nullptr ||
      region_of(start_page + pages - 1, &existing_start) != nullptr) {
    throw std::invalid_argument("page region overlaps a live region");
  }
  regions_[start_page] = Region{.pages = pages, .policy = policy};
}

void PageTable::unregister_region(PageId start_page) {
  const auto it = regions_.find(start_page);
  if (it == regions_.end()) return;
  for (PageId p = start_page; p < start_page + it->second.pages; ++p) {
    const auto entry = entries_.find(p);
    if (entry != entries_.end()) {
      if (entry->second.protected_) --protected_pages_;
      entries_.erase(entry);
    }
  }
  regions_.erase(it);
}

bool PageTable::set_region_policy(PageId page, PolicySpec policy) {
  PageId start = 0;
  const Region* region = region_of(page, &start);
  if (region == nullptr) return false;
  regions_[start].policy = policy;
  return true;
}

const PageTable::Region* PageTable::region_of(PageId page,
                                              PageId* start_out) const {
  auto it = regions_.upper_bound(page);
  if (it == regions_.begin()) return nullptr;
  --it;
  if (page >= it->first + it->second.pages) return nullptr;
  *start_out = it->first;
  return &it->second;
}

numasim::DomainId PageTable::home_of(PageId page, numasim::DomainId toucher) {
  auto [it, inserted] = entries_.try_emplace(page);
  PageEntry& entry = it->second;
  if (entry.home) return *entry.home;

  PageId region_start = 0;
  const Region* region = region_of(page, &region_start);
  const PolicySpec policy = region ? region->policy : PolicySpec::first_touch();
  const std::uint64_t region_pages = region ? region->pages : 1;
  const std::uint64_t index = region ? page - region_start : 0;
  entry.home = resolve_home(policy, index, region_pages, domain_count_, toucher);
  return *entry.home;
}

std::optional<numasim::DomainId> PageTable::query_home(PageId page) const {
  const auto it = entries_.find(page);
  if (it == entries_.end()) return std::nullopt;
  return it->second.home;
}

void PageTable::migrate(PageId page, numasim::DomainId home) {
  entries_[page].home = home % domain_count_;
}

void PageTable::protect_range(PageId start_page, std::uint64_t pages) {
  for (PageId p = start_page; p < start_page + pages; ++p) {
    PageEntry& entry = entries_[p];
    if (!entry.protected_) {
      entry.protected_ = true;
      ++protected_pages_;
    }
  }
}

void PageTable::unprotect(PageId page) {
  const auto it = entries_.find(page);
  if (it != entries_.end() && it->second.protected_) {
    it->second.protected_ = false;
    --protected_pages_;
  }
}

bool PageTable::is_protected(PageId page) const {
  const auto it = entries_.find(page);
  return it != entries_.end() && it->second.protected_;
}

std::size_t PageTable::touched_pages() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [](const auto& entry) { return entry.second.home.has_value(); }));
}

std::vector<std::uint64_t> PageTable::placement_histogram() const {
  std::vector<std::uint64_t> histogram(domain_count_, 0);
  for (const auto& [page, entry] : entries_) {
    if (entry.home) ++histogram[*entry.home];
  }
  return histogram;
}

}  // namespace numaprof::simos
