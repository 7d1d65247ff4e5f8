// Address-centric attribution (§5.2): per-thread accessed address ranges,
// binned, per calling context.
//
// For each sampled access the tracker updates the [min,max] accessed range
// of the touched variable — in the whole-program context AND in every
// enclosing frame on the call path ("update the lower and upper bounds of x
// accessed for each procedure along the call path"). A variable wider than
// five pages is split into bins (default 5, NUMAPROF_BINS overrides); each
// bin is a synthetic variable with its own attribution, so hot sub-ranges
// are distinguishable from cold ones, and per-thread patterns are computed
// from hot bins only.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/datacentric.hpp"
#include "simos/types.hpp"
#include "simrt/frame.hpp"
#include "support/flat_index.hpp"

namespace numaprof::core {

/// Context sentinel: statistics aggregated over the whole program rather
/// than one frame.
inline constexpr simrt::FrameId kWholeProgram = simrt::kInvalidFrame;

/// Variables whose extent exceeds this many pages get binned (§5.2).
inline constexpr std::uint64_t kBinPageThreshold = 5;

struct BinStats {
  simos::VAddr lo = ~0ULL;  // min accessed address
  simos::VAddr hi = 0;      // max accessed address (inclusive)
  std::uint64_t count = 0;
  double latency = 0.0;

  void update(simos::VAddr addr, double access_latency) noexcept {
    lo = addr < lo ? addr : lo;
    hi = addr > hi ? addr : hi;
    ++count;
    latency += access_latency;
  }
  /// [min,max] merge — the custom reduction hpcprof needed (§7.2).
  void merge(const BinStats& other) noexcept {
    lo = other.lo < lo ? other.lo : lo;
    hi = other.hi > hi ? other.hi : hi;
    count += other.count;
    latency += other.latency;
  }
};

/// One record key: (context frame, variable, bin, thread).
struct BinKey {
  simrt::FrameId context = kWholeProgram;
  VariableId variable = 0;
  std::uint32_t bin = 0;
  simrt::ThreadId tid = 0;

  bool operator==(const BinKey&) const = default;
};

/// Per-thread accessed range of a variable in one context, normalized to
/// the variable's extent ([0,1]) — one row of the hpcviewer address-
/// centric plot (Fig. 3 top right).
struct ThreadRange {
  simrt::ThreadId tid = 0;
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
  double latency = 0.0;
};

class AddressCentric {
 public:
  explicit AddressCentric(std::uint32_t default_bins = 5)
      : default_bins_(default_bins == 0 ? 1 : default_bins) {}

  /// Records one sampled access. `stack` is the sample's call path.
  void record(std::span<const simrt::FrameId> stack, const Variable& variable,
              simrt::ThreadId tid, simos::VAddr addr, double latency);

  /// Bin count used for `variable` (1 below the page threshold).
  std::uint32_t bins_for(const Variable& variable) const noexcept;

  /// Bin index of `addr` within `variable`.
  std::uint32_t bin_of(const Variable& variable,
                       simos::VAddr addr) const noexcept;

  /// Per-thread normalized ranges for (variable, context), computed over
  /// the *hot* bins: the smallest count-descending set of bins covering at
  /// least `hot_fraction` of the thread's accesses. Sorted by tid.
  std::vector<ThreadRange> thread_ranges(
      const Variable& variable,
      simrt::FrameId context = kWholeProgram,
      double hot_fraction = 0.9) const;

  /// Raw per-bin stats for (variable, context, tid); index = bin.
  std::vector<BinStats> bins(const Variable& variable, simrt::FrameId context,
                             simrt::ThreadId tid) const;

  /// [min,max]-merged accessed range over ALL threads for (variable,
  /// context): the cross-thread reduction of §7.2. nullopt if unsampled.
  std::optional<BinStats> merged_range(const Variable& variable,
                                       simrt::FrameId context) const;

  /// Total sampled latency attributed to (variable, context) — the weight
  /// used to pick which context's pattern should guide optimization (§5.2,
  /// the AMG parallel-region analysis).
  double context_latency(const Variable& variable,
                         simrt::FrameId context) const;

  /// Contexts (frames) with samples for `variable`, with their aggregate
  /// latency, descending.
  std::vector<std::pair<simrt::FrameId, double>> contexts_of(
      const Variable& variable) const;

  /// Calls fn(key, stats) for every entry of `variable` (any context, bin
  /// and thread), in first-insertion order. Every (variable, context)
  /// query walks this one variable's list instead of the whole table.
  template <typename Fn>
  void for_each_of(VariableId variable, Fn&& fn) const {
    const auto chain = chains_.find(variable);
    if (chain == chains_.end()) return;
    for (std::uint32_t id = chain->second.head; id != 0;) {
      const Entry& e = entries_[id - 1];
      fn(e.key, e.stats);
      id = e.next;
    }
  }

  /// Iterates every (key, stats) entry in first-insertion order.
  void for_each(
      const std::function<void(const BinKey&, const BinStats&)>& fn) const;

  /// Every entry in (context, variable, bin, tid) order. The serializer
  /// writes this order so a saved profile is byte-stable regardless of
  /// the tracker's insertion history (e.g. serial vs parallel merges
  /// producing the same entries).
  std::vector<std::pair<BinKey, BinStats>> sorted_entries() const;

  /// Inserts a raw entry (deserialization support).
  void insert(const BinKey& key, const BinStats& stats);

  /// Folds every entry of `other` into this tracker — the cross-thread
  /// half of the §7.2 reduction ([min,max] on bounds, sum on counts and
  /// latency, per key).
  void merge_from(const AddressCentric& other);

  std::size_t entry_count() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    BinKey key;
    BinStats stats;
    std::uint32_t next = 0;  // id of the variable's next entry; 0 ends
  };
  /// A variable's entries as a list through Entry::next, oldest first.
  struct Chain {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };

  /// The entry for `key`, created and linked on first use.
  BinStats& entry(const BinKey& key);

  std::uint32_t default_bins_;
  /// Every entry in first-insertion order; entry id i is entries_[i - 1],
  /// so id 0 can mark a free index slot and the end of a chain.
  std::vector<Entry> entries_;
  support::FlatIndex index_;  // BinKey -> entry id
  std::unordered_map<VariableId, Chain> chains_;
};

}  // namespace numaprof::core
