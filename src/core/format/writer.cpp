#include "core/format/writer.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace numaprof::core::format {

namespace {

/// Regroups `records` thread-major, keeping their relative order within a
/// thread, and returns the shard offsets: thread t's records end up in
/// [begin[t], begin[t + 1]). Records of a thread with no shard are dropped,
/// since no shard carries them.
template <typename T, typename TidOf>
std::vector<std::size_t> group_by_thread(std::vector<T>& records,
                                         std::size_t shards, TidOf tid_of) {
  std::vector<std::size_t> begin(shards + 1, 0);
  for (const T& r : records) {
    if (tid_of(r) < shards) ++begin[tid_of(r) + 1];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<T> grouped(begin.back());
  std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
  for (T& r : records) {
    if (tid_of(r) < shards) grouped[next[tid_of(r)]++] = std::move(r);
  }
  records = std::move(grouped);
  return begin;
}

}  // namespace

WritePlan::WritePlan(const SessionData& data, std::size_t shards)
    : data_(&data),
      shards_(shards),
      empty_store_(data.domain_count),
      addrcentric_(data.address_centric.sorted_entries()),
      first_touches_(data.first_touches) {
  zero_totals_.per_domain.assign(data.domain_count, 0);
  // Canonical record order: a live snapshot logs first touches in global
  // chronological order, while shard merging concatenates each thread's
  // records. Sorting makes both serialize to the same bytes.
  std::sort(first_touches_.begin(), first_touches_.end(),
            [](const FirstTouchRecord& a, const FirstTouchRecord& b) {
              return std::tie(a.variable, a.page, a.tid, a.domain, a.node) <
                     std::tie(b.variable, b.page, b.tid, b.domain, b.node);
            });
  if (shards_ == 0) return;
  addrcentric_begin_ = group_by_thread(
      addrcentric_, shards_, [](const AddrEntry& e) { return e.first.tid; });
  first_touch_begin_ =
      group_by_thread(first_touches_, shards_,
                      [](const FirstTouchRecord& r) { return r.tid; });
  trace_ = data.trace;
  trace_begin_ = group_by_thread(trace_, shards_,
                                 [](const TraceEvent& e) { return e.tid; });
}

WritePlan WritePlan::whole(const SessionData& data) {
  return WritePlan(data, 0);
}

WritePlan WritePlan::thread_shards(const SessionData& data) {
  return WritePlan(data, std::max<std::size_t>(data.totals.size(), 1));
}

const SessionData& ProfileView::data() const noexcept { return plan_->data(); }

const ThreadTotals& ProfileView::totals(std::size_t tid) const noexcept {
  return in_shard(tid) ? data().totals[tid] : plan_->zero_totals_;
}

const MetricStore& ProfileView::store(std::size_t tid) const noexcept {
  return in_shard(tid) && tid < data().stores.size() ? data().stores[tid]
                                                     : plan_->empty_store_;
}

std::uint64_t ProfileView::pebs_ll_events() const noexcept {
  return in_shard(0) ? data().pebs_ll_events : 0;
}

std::span<const DegradationEvent> ProfileView::degradations() const noexcept {
  if (!in_shard(0)) return {};
  return data().degradations;
}

template <typename T>
std::span<const T> ProfileView::slice(
    const std::vector<T>& all, const std::vector<std::size_t>& begin) const {
  if (!shard_) return all;
  return std::span<const T>(all).subspan(
      begin[*shard_], begin[*shard_ + 1] - begin[*shard_]);
}

std::span<const AddrEntry> ProfileView::addrcentric() const noexcept {
  return slice(plan_->addrcentric_, plan_->addrcentric_begin_);
}

std::span<const FirstTouchRecord> ProfileView::first_touches()
    const noexcept {
  return slice(plan_->first_touches_, plan_->first_touch_begin_);
}

std::span<const TraceEvent> ProfileView::trace() const noexcept {
  if (!shard_) return data().trace;
  return slice(plan_->trace_, plan_->trace_begin_);
}

}  // namespace numaprof::core::format
