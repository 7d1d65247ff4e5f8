// Open-addressing index of 32-bit ids, for tables that keep their own
// keys in a vector.
//
// The owner stores its records densely (the CCT's nodes, the address-
// centric tracker's entries) and names each by a nonzero 32-bit id; the
// index maps a key's hash to the id. Slots are a power of two, probed
// linearly, and at most half full. Each slot holds the id and the low 32
// bits of its key's hash: a probe asks the owner to compare keys only
// when those bits agree, and growing rehashes without reading the owner.
// Id 0 marks an empty slot. Const members only read, so several threads
// may call find() at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace numaprof::support {

/// The splitmix64 finalizer: a bijection in which every input bit reaches
/// every output bit, so keys that differ only in high bits still spread.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58'476d'1ce4'e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

/// Hash of a 128-bit key given as two words; uses all 128 bits.
constexpr std::uint64_t hash128(std::uint64_t hi, std::uint64_t lo) noexcept {
  return mix64(lo ^ mix64(hi));
}

class FlatIndex {
 public:
  /// The id stored under `hash` for which `is_key(id)` holds, or 0.
  template <typename IsKey>
  std::uint32_t find(std::uint64_t hash, IsKey&& is_key) const {
    if (slots_.empty()) return 0;
    const auto tag = static_cast<std::uint32_t>(hash);
    for (std::size_t at = tag & mask();; at = (at + 1) & mask()) {
      const Slot slot = slots_[at];
      if (slot.id == 0) return 0;
      if (slot.tag == tag && is_key(slot.id)) return slot.id;
    }
  }

  /// As find(); on a miss stores the nonzero `id` under `hash` and returns
  /// it, so the caller knows to create the record `id` names.
  template <typename IsKey>
  std::uint32_t find_or_add(std::uint64_t hash, std::uint32_t id,
                            IsKey&& is_key) {
    if (const std::uint32_t found = find(hash, is_key)) return found;
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * (size_ + 1));
    place(Slot{static_cast<std::uint32_t>(hash), id});
    ++size_;
    return id;
  }

  /// Makes room for `ids` ids in all, so adding up to that many never
  /// rehashes.
  void reserve(std::size_t ids) {
    if (2 * ids > slots_.size()) rehash(2 * ids);
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = 0;
  };

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  void place(Slot slot) {
    std::size_t at = slot.tag & mask();
    while (slots_[at].id != 0) at = (at + 1) & mask();
    slots_[at] = slot;
  }

  /// Moves every id to a table of at least `min_slots` slots.
  void rehash(std::size_t min_slots) {
    std::size_t count = 16;
    while (count < min_slots) count *= 2;
    std::vector<Slot> old(count);
    old.swap(slots_);
    for (const Slot slot : old) {
      if (slot.id != 0) place(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace numaprof::support
