#include "support/telemetry.hpp"

#include <algorithm>

namespace numaprof::support {

std::string_view to_string(TelemetryCounter c) noexcept {
  switch (c) {
    case TelemetryCounter::kSamples: return "samples";
    case TelemetryCounter::kMemorySamples: return "memory-samples";
    case TelemetryCounter::kDroppedSamples: return "dropped-samples";
    case TelemetryCounter::kCorruptedSamples: return "corrupted-samples";
    case TelemetryCounter::kFirstTouchTraps: return "first-touch-traps";
    case TelemetryCounter::kHeapRegistrations: return "heap-registrations";
    case TelemetryCounter::kHeapFrees: return "heap-frees";
    case TelemetryCounter::kMatchSamples: return "match-samples";
    case TelemetryCounter::kMismatchSamples: return "mismatch-samples";
    case TelemetryCounter::kInstructions: return "instructions";
    case TelemetryCounter::kEventsDropped: return "events-dropped";
    case TelemetryCounter::kLatencyCycles: return "latency-cycles";
    case TelemetryCounter::kRemoteLatencyCycles:
      return "remote-latency-cycles";
  }
  return "unknown";
}

std::string_view to_string(TelemetryEventKind k) noexcept {
  switch (k) {
    case TelemetryEventKind::kMechanismUnavailable:
      return "mechanism-unavailable";
    case TelemetryEventKind::kMechanismFallback: return "mechanism-fallback";
    case TelemetryEventKind::kPeriodRetune: return "period-retune";
    case TelemetryEventKind::kThreadStart: return "thread-start";
    case TelemetryEventKind::kThreadFinish: return "thread-finish";
    case TelemetryEventKind::kIngestDegraded: return "ingest-degraded";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// Groups raw hot rows by (key, domain), sums counts, then keeps the
/// kHotTopK hottest rows per domain, sorted (domain asc, count desc,
/// mismatch desc, key asc) for deterministic rendering.
std::vector<HotCounter> fold_hot(std::vector<HotCounter> raw) {
  std::sort(raw.begin(), raw.end(),
            [](const HotCounter& a, const HotCounter& b) {
              if (a.domain != b.domain) return a.domain < b.domain;
              return a.key < b.key;
            });
  std::vector<HotCounter> merged;
  for (HotCounter& row : raw) {
    if (!merged.empty() && merged.back().domain == row.domain &&
        merged.back().key == row.key) {
      merged.back().count += row.count;
      merged.back().mismatch += row.mismatch;
      if (merged.back().label.empty()) {
        merged.back().label = std::move(row.label);
      }
    } else {
      merged.push_back(std::move(row));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const HotCounter& a, const HotCounter& b) {
              if (a.domain != b.domain) return a.domain < b.domain;
              if (a.count != b.count) return a.count > b.count;
              if (a.mismatch != b.mismatch) return a.mismatch > b.mismatch;
              return a.key < b.key;
            });
  std::vector<HotCounter> out;
  std::uint32_t current_domain = 0;
  std::size_t in_domain = 0;
  for (HotCounter& row : merged) {
    if (out.empty() || row.domain != current_domain) {
      current_domain = row.domain;
      in_domain = 0;
    }
    if (in_domain < kHotTopK) {
      out.push_back(std::move(row));
      ++in_domain;
    }
  }
  return out;
}

}  // namespace

TelemetryRing::TelemetryRing(std::uint32_t tid, std::uint32_t domain_count,
                             std::size_t event_capacity)
    : tid_(tid),
      domain_match_(domain_count == 0 ? 1 : domain_count),
      domain_mismatch_(domain_count == 0 ? 1 : domain_count),
      slots_(round_up_pow2(event_capacity)),
      mask_(slots_.size() - 1) {
  for (auto& c : domain_match_) c.store(0, std::memory_order_relaxed);
  for (auto& c : domain_mismatch_) c.store(0, std::memory_order_relaxed);
}

bool TelemetryRing::publish(const TelemetryEvent& event) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    // Newest-loses: dropping here keeps already-queued history intact and
    // never blocks the measurement path.
    add(TelemetryCounter::kEventsDropped);
    return false;
  }
  slots_[head & mask_] = event;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void TelemetryRing::store_label(HotSlot& slot,
                                std::string_view label) noexcept {
  char bytes[kHotLabelBytes] = {};
  const std::size_t n =
      label.size() < kHotLabelBytes - 1 ? label.size() : kHotLabelBytes - 1;
  // An empty view may carry a null data(); memcpy must not see it.
  if (n > 0) std::memcpy(bytes, label.data(), n);
  for (std::size_t w = 0; w < slot.label.size(); ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + w * 8, 8);
    slot.label[w].store(word, std::memory_order_relaxed);
  }
}

void TelemetryRing::add_hot(HotTableKind table, std::uint64_t key,
                            std::uint32_t domain, bool mismatch,
                            std::string_view label) noexcept {
  HotTable& slots = hot_[static_cast<std::size_t>(table)];
  // Existing (key, domain) entry: bump in place.
  for (HotSlot& s : slots) {
    if (s.used.load(std::memory_order_relaxed) != 0 &&
        s.key.load(std::memory_order_relaxed) == key &&
        s.domain.load(std::memory_order_relaxed) == domain) {
      s.count.fetch_add(1, std::memory_order_relaxed);
      if (mismatch) s.mismatch.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Free slot: claim it (label and identity first, `used` released last so
  // the consumer never reads a half-written slot as live).
  for (HotSlot& s : slots) {
    if (s.used.load(std::memory_order_relaxed) != 0) continue;
    s.key.store(key, std::memory_order_relaxed);
    s.domain.store(domain, std::memory_order_relaxed);
    s.count.store(1, std::memory_order_relaxed);
    s.mismatch.store(mismatch ? 1 : 0, std::memory_order_relaxed);
    store_label(s, label);
    s.used.store(1, std::memory_order_release);
    return;
  }
  // Full: Space-Saving replacement of the minimum-count slot. The new key
  // inherits min+1 so a genuinely hot key overtakes the noise floor.
  HotSlot* victim = &slots[0];
  std::uint64_t min_count = victim->count.load(std::memory_order_relaxed);
  for (HotSlot& s : slots) {
    const std::uint64_t c = s.count.load(std::memory_order_relaxed);
    if (c < min_count) {
      min_count = c;
      victim = &s;
    }
  }
  victim->used.store(0, std::memory_order_release);
  victim->key.store(key, std::memory_order_relaxed);
  victim->domain.store(domain, std::memory_order_relaxed);
  victim->count.store(min_count + 1, std::memory_order_relaxed);
  victim->mismatch.store(mismatch ? 1 : 0, std::memory_order_relaxed);
  store_label(*victim, label);
  victim->used.store(1, std::memory_order_release);
}

void TelemetryRing::collect_hot(HotTableKind table,
                                std::vector<HotCounter>& out) const {
  const HotTable& slots = hot_[static_cast<std::size_t>(table)];
  for (const HotSlot& s : slots) {
    if (s.used.load(std::memory_order_acquire) == 0) continue;
    HotCounter row;
    row.key = s.key.load(std::memory_order_relaxed);
    row.domain = s.domain.load(std::memory_order_relaxed);
    row.count = s.count.load(std::memory_order_relaxed);
    row.mismatch = s.mismatch.load(std::memory_order_relaxed);
    char bytes[kHotLabelBytes];
    for (std::size_t w = 0; w < s.label.size(); ++w) {
      const std::uint64_t word = s.label[w].load(std::memory_order_relaxed);
      std::memcpy(bytes + w * 8, &word, 8);
    }
    bytes[kHotLabelBytes - 1] = '\0';
    row.label = bytes;
    out.push_back(std::move(row));
  }
}

void TelemetryRing::drain(std::vector<TelemetryEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  for (; tail != head; ++tail) {
    out.push_back(slots_[tail & mask_]);
  }
  tail_.store(tail, std::memory_order_release);
}

TelemetryHub::TelemetryHub(TelemetryConfig config) : config_(config) {
  if (config_.domain_count == 0) config_.domain_count = 1;
}

TelemetryHub::~TelemetryHub() {
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

TelemetryRing& TelemetryHub::ring(std::uint32_t tid) {
  // Out-of-range publishers share the last slot rather than being lost:
  // an overflow ring mislabels the thread but keeps the totals honest.
  const std::uint32_t slot_index = tid < kMaxThreads ? tid : kMaxThreads - 1;
  std::atomic<TelemetryRing*>& slot = rings_[slot_index];
  if (TelemetryRing* existing = slot.load(std::memory_order_acquire)) {
    return *existing;
  }
  std::lock_guard<std::mutex> lock(growth_);
  if (TelemetryRing* existing = slot.load(std::memory_order_acquire)) {
    return *existing;
  }
  auto* created = new TelemetryRing(slot_index, config_.domain_count,
                                    config_.event_capacity);
  slot.store(created, std::memory_order_release);
  return *created;
}

std::size_t TelemetryHub::ring_count() const noexcept {
  std::size_t count = 0;
  for (const auto& slot : rings_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

TelemetrySnapshot TelemetryHub::snapshot(std::uint64_t time) {
  TelemetrySnapshot snap;
  snap.sequence = ++sequence_;
  snap.time = time;
  snap.domain_match.assign(config_.domain_count, 0);
  snap.domain_mismatch.assign(config_.domain_count, 0);
  std::vector<HotCounter> raw_pages;
  std::vector<HotCounter> raw_vars;

  for (std::uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    TelemetryRing* ring = rings_[tid].load(std::memory_order_acquire);
    if (ring == nullptr) continue;

    ThreadTelemetry row;
    row.tid = ring->tid();
    for (std::size_t c = 0; c < kTelemetryCounterCount; ++c) {
      row.counters[c] = ring->counter(static_cast<TelemetryCounter>(c));
      snap.totals[c] += row.counters[c];
    }
    const std::uint32_t domains = ring->domain_count();
    row.domain_match.resize(domains);
    row.domain_mismatch.resize(domains);
    for (std::uint32_t d = 0; d < domains; ++d) {
      row.domain_match[d] = ring->domain_match(d);
      row.domain_mismatch[d] = ring->domain_mismatch(d);
      if (d < snap.domain_match.size()) {
        snap.domain_match[d] += row.domain_match[d];
        snap.domain_mismatch[d] += row.domain_mismatch[d];
      }
    }
    ring->collect_hot(HotTableKind::kPages, raw_pages);
    ring->collect_hot(HotTableKind::kVariables, raw_vars);
    ring->collect_hot(HotTableKind::kPaths, row.hot_paths);
    std::sort(row.hot_paths.begin(), row.hot_paths.end(),
              [](const HotCounter& a, const HotCounter& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.key < b.key;
              });
    if (row.hot_paths.size() > kHotTopK) row.hot_paths.resize(kHotTopK);
    snap.threads.push_back(std::move(row));
    ring->drain(snap.events);
  }
  snap.hot_pages = fold_hot(std::move(raw_pages));
  snap.hot_vars = fold_hot(std::move(raw_vars));

  // Per-ring drains are FIFO; the cross-ring order is made deterministic
  // by (time, tid, kind) — stable so same-key events keep queue order.
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TelemetryEvent& a, const TelemetryEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return snap;
}

}  // namespace numaprof::support
