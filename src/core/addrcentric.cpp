#include "core/addrcentric.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace numaprof::core {

std::uint32_t AddressCentric::bins_for(const Variable& variable) const noexcept {
  return variable.page_count > kBinPageThreshold ? default_bins_ : 1;
}

std::uint32_t AddressCentric::bin_of(const Variable& variable,
                                     simos::VAddr addr) const noexcept {
  const std::uint64_t extent = variable.extent_bytes();
  if (extent == 0 || addr < variable.start) return 0;
  const std::uint64_t offset = addr - variable.start;
  if (offset >= extent) return bins_for(variable) - 1;
  const std::uint32_t bins = bins_for(variable);
  return static_cast<std::uint32_t>(offset * bins / extent);
}

void AddressCentric::record(std::span<const simrt::FrameId> stack,
                            const Variable& variable, simrt::ThreadId tid,
                            simos::VAddr addr, double latency) {
  const std::uint32_t bin = bin_of(variable, addr);
  const auto touch = [&](simrt::FrameId context) {
    entry(BinKey{
        .context = context, .variable = variable.id, .bin = bin, .tid = tid})
        .update(addr, latency);
  };
  touch(kWholeProgram);
  // Every procedure/loop/region along the call path gets its own bounds
  // update (§5.2). Duplicate frames (recursion) are touched once.
  simrt::FrameId previous = kWholeProgram;
  for (const simrt::FrameId frame : stack) {
    if (frame != previous) touch(frame);
    previous = frame;
  }
}

std::vector<BinStats> AddressCentric::bins(const Variable& variable,
                                           simrt::FrameId context,
                                           simrt::ThreadId tid) const {
  std::vector<BinStats> result(bins_for(variable));
  for_each_of(variable.id, [&](const BinKey& key, const BinStats& stats) {
    if (key.context == context && key.tid == tid && key.bin < result.size()) {
      result[key.bin] = stats;
    }
  });
  return result;
}

std::vector<ThreadRange> AddressCentric::thread_ranges(
    const Variable& variable, simrt::FrameId context,
    double hot_fraction) const {
  // Gather per-thread bin stats for this (variable, context).
  std::map<simrt::ThreadId, std::vector<std::pair<std::uint32_t, BinStats>>>
      per_thread;
  for_each_of(variable.id, [&](const BinKey& key, const BinStats& stats) {
    if (key.context == context) {
      per_thread[key.tid].emplace_back(key.bin, stats);
    }
  });

  const double extent = static_cast<double>(variable.extent_bytes());
  std::vector<ThreadRange> result;
  result.reserve(per_thread.size());
  for (auto& [tid, bin_list] : per_thread) {
    // Hot bins: count-descending prefix covering >= hot_fraction of the
    // thread's sampled accesses. Cold bins (stray accesses) are ignored so
    // the reported pattern reflects where the thread's traffic really goes.
    std::sort(bin_list.begin(), bin_list.end(),
              [](const auto& a, const auto& b) {
                if (a.second.count != b.second.count)
                  return a.second.count > b.second.count;
                return a.first < b.first;
              });
    std::uint64_t total = 0;
    for (const auto& [bin, stats] : bin_list) total += stats.count;

    ThreadRange range{.tid = tid};
    BinStats merged;
    std::uint64_t covered = 0;
    for (const auto& [bin, stats] : bin_list) {
      merged.merge(stats);
      covered += stats.count;
      if (static_cast<double>(covered) >=
          hot_fraction * static_cast<double>(total)) {
        break;
      }
    }
    range.count = total;
    range.latency = merged.latency;
    if (extent > 0 && merged.count > 0 && merged.hi >= variable.start) {
      range.lo = static_cast<double>(merged.lo - variable.start) / extent;
      range.hi = static_cast<double>(merged.hi - variable.start) / extent;
      range.lo = std::clamp(range.lo, 0.0, 1.0);
      range.hi = std::clamp(range.hi, 0.0, 1.0);
    }
    result.push_back(range);
  }
  return result;
}

std::optional<BinStats> AddressCentric::merged_range(
    const Variable& variable, simrt::FrameId context) const {
  BinStats merged;
  bool any = false;
  for_each_of(variable.id, [&](const BinKey& key, const BinStats& stats) {
    if (key.context != context) return;
    merged.merge(stats);
    any = true;
  });
  if (!any) return std::nullopt;
  return merged;
}

double AddressCentric::context_latency(const Variable& variable,
                                       simrt::FrameId context) const {
  double total = 0.0;
  for_each_of(variable.id, [&](const BinKey& key, const BinStats& stats) {
    if (key.context == context) total += stats.latency;
  });
  return total;
}

std::vector<std::pair<simrt::FrameId, double>> AddressCentric::contexts_of(
    const Variable& variable) const {
  std::map<simrt::FrameId, double> latencies;
  for_each_of(variable.id, [&](const BinKey& key, const BinStats& stats) {
    if (key.context != kWholeProgram) latencies[key.context] += stats.latency;
  });
  std::vector<std::pair<simrt::FrameId, double>> result(latencies.begin(),
                                                        latencies.end());
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return result;
}

void AddressCentric::for_each(
    const std::function<void(const BinKey&, const BinStats&)>& fn) const {
  for (const auto& [key, stats] : entries_) fn(key, stats);
}

std::vector<std::pair<BinKey, BinStats>> AddressCentric::sorted_entries()
    const {
  std::vector<std::pair<BinKey, BinStats>> result(entries_.begin(),
                                                  entries_.end());
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) {
              const BinKey& x = a.first;
              const BinKey& y = b.first;
              return std::tie(x.context, x.variable, x.bin, x.tid) <
                     std::tie(y.context, y.variable, y.bin, y.tid);
            });
  return result;
}

void AddressCentric::insert(const BinKey& key, const BinStats& stats) {
  entry(key).merge(stats);
}

void AddressCentric::merge_from(const AddressCentric& other) {
  entries_.reserve(entries_.size() + other.entries_.size());
  for (const auto& [key, stats] : other.entries_) entry(key).merge(stats);
}

BinStats& AddressCentric::entry(const BinKey& key) {
  const auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) keys_of_[key.variable].push_back(key);
  return it->second;
}

}  // namespace numaprof::core
