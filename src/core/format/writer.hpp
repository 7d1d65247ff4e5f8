// The write side of both profile encodings (docs/format.md), internal to
// src/core/format.
//
// One write call — a whole-session profile, or one shard per thread —
// builds one WritePlan. The plan puts the session's address-centric
// entries and first touches into their canonical orders once, groups
// them (and the trace) by thread when shards are requested, and hands
// out one ProfileView per profile. ProfileView is the single statement
// of what a shard carries; both encoders read the session only through
// it, and each encodes the sections every profile of the call shares
// (frames, CCT, variables) once. Nothing outlives the call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"

namespace numaprof::core::format {

using AddrEntry = std::pair<BinKey, BinStats>;

class WritePlan;

/// What one serialized profile contains: the whole session, or the shard
/// of one thread. The shard of thread `t`:
///  - keeps every thread's slot, so thread ids stay aligned and the merge
///    is a plain element-wise sum, but only thread `t`'s slot carries its
///    totals and metric rows; the others hold zero totals and no rows;
///  - carries only thread `t`'s address-centric, first-touch and trace
///    records;
///  - carries the run-level absolutes (`pebs_ll_events`) and the
///    collection history (`degradations`) only when `t` is 0, so the
///    merge neither double-counts nor duplicates them;
///  - always carries the program structure and the fault context.
class ProfileView {
 public:
  const SessionData& data() const noexcept;
  std::size_t thread_count() const noexcept { return data().totals.size(); }

  const ThreadTotals& totals(std::size_t tid) const noexcept;
  const MetricStore& store(std::size_t tid) const noexcept;
  std::uint64_t pebs_ll_events() const noexcept;
  std::span<const DegradationEvent> degradations() const noexcept;

  /// Records in canonical order: address-centric entries by (context,
  /// variable, bin, tid), first touches by (variable, page, tid, domain,
  /// node), trace events as recorded.
  std::span<const AddrEntry> addrcentric() const noexcept;
  std::span<const FirstTouchRecord> first_touches() const noexcept;
  std::span<const TraceEvent> trace() const noexcept;

 private:
  friend class WritePlan;
  ProfileView(const WritePlan& plan, std::optional<std::size_t> shard)
      : plan_(&plan), shard_(shard) {}

  bool in_shard(std::size_t tid) const noexcept {
    return !shard_ || *shard_ == tid;
  }
  /// Records [begin[t], begin[t + 1]) of `all`, or all of them unsharded.
  template <typename T>
  std::span<const T> slice(const std::vector<T>& all,
                           const std::vector<std::size_t>& begin) const;

  const WritePlan* plan_;
  std::optional<std::size_t> shard_;  // nullopt: the whole session
};

/// The profiles one write call emits, with the session-wide work done once.
class WritePlan {
 public:
  /// One profile: the whole session.
  static WritePlan whole(const SessionData& data);
  /// One profile per thread; a session without threads still yields one.
  static WritePlan thread_shards(const SessionData& data);

  // Views point into the plan, so it stays where it was built.
  WritePlan(const WritePlan&) = delete;
  WritePlan& operator=(const WritePlan&) = delete;

  const SessionData& data() const noexcept { return *data_; }
  std::size_t size() const noexcept { return shards_ ? shards_ : 1; }
  ProfileView view(std::size_t i) const {
    return shards_ ? ProfileView(*this, i) : ProfileView(*this, std::nullopt);
  }

 private:
  friend class ProfileView;
  WritePlan(const SessionData& data, std::size_t shards);

  const SessionData* data_;
  std::size_t shards_;  // 0: one whole-session profile
  ThreadTotals zero_totals_;
  MetricStore empty_store_;
  std::vector<AddrEntry> addrcentric_;
  std::vector<FirstTouchRecord> first_touches_;
  std::vector<TraceEvent> trace_;  // grouped copy; sharded plans only
  // Sharded plans: shard t's records are [begin[t], begin[t + 1]).
  std::vector<std::size_t> addrcentric_begin_;
  std::vector<std::size_t> first_touch_begin_;
  std::vector<std::size_t> trace_begin_;
};

/// Receives each serialized profile as soon as it is complete, so a caller
/// that writes it out holds one profile at a time.
using ProfileSink = std::function<void(std::string profile)>;

/// Serializes every profile of `plan`, in plan order, into `sink`.
void encode_text(const WritePlan& plan, const ProfileSink& sink);
void encode_binary(const WritePlan& plan, const ProfileSink& sink);

}  // namespace numaprof::core::format
