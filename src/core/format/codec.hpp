// Little-endian byte codec shared by the binary profile writer and
// loader (internal to src/core/format — not part of the public surface),
// built on the integer codec the ingest transport also uses
// (support/bytes.hpp).
//
// The writer side is append-only and byte-deterministic; the reader side
// is a bounds-checked cursor that throws ProfileError on any overrun, so
// a truncated or hostile payload can never read out of bounds. Column
// accessors hand back zero-copy spans into the underlying (memory-
// mapped) bytes when the platform representation matches the wire format
// (little-endian, aligned); otherwise they decode element-by-element
// into an arena.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "core/profile_io.hpp"
#include "support/arena.hpp"
#include "support/bytes.hpp"

namespace numaprof::core::format {

using support::get_u32;
using support::get_u64;
using support::put_u32;
using support::put_u64;

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Pads `out` with zero bytes until its size is a multiple of `align`.
inline void pad_to(std::string& out, std::size_t align) {
  while (out.size() % align != 0) out.push_back('\0');
}

/// Bounds-checked forward cursor over one section's payload. `base` is
/// the payload's offset within the whole file, so errors report absolute
/// byte offsets; `section` names the section in every error field.
class Cursor {
 public:
  Cursor(std::string_view payload, std::size_t base, std::string_view section)
      : payload_(payload), base_(base), section_(section) {}

  std::size_t offset() const noexcept { return base_ + at_; }
  std::size_t remaining() const noexcept { return payload_.size() - at_; }

  [[noreturn]] void fail(std::string_view field,
                         const std::string& message) const {
    throw ProfileError(std::string(section_) + "/" + std::string(field),
                       offset(), message);
  }

  std::uint8_t u8(std::string_view field) {
    need(1, field);
    const auto v = static_cast<std::uint8_t>(
        static_cast<unsigned char>(payload_[at_]));
    at_ += 1;
    return v;
  }

  std::uint32_t u32(std::string_view field) {
    need(4, field);
    const std::uint32_t v = get_u32(payload_, at_);
    at_ += 4;
    return v;
  }

  std::uint64_t u64(std::string_view field) {
    need(8, field);
    const std::uint64_t v = get_u64(payload_, at_);
    at_ += 8;
    return v;
  }

  double f64(std::string_view field) {
    return std::bit_cast<double>(u64(field));
  }

  std::string_view raw(std::size_t count, std::string_view field) {
    need(count, field);
    const std::string_view v = payload_.substr(at_, count);
    at_ += count;
    return v;
  }

  /// Skips the zero padding the writer emitted to align the next column.
  /// Alignment is relative to the FILE, which works because every
  /// section payload starts at an 8-aligned file offset.
  void align(std::size_t alignment, std::string_view field) {
    while (offset() % alignment != 0) {
      if (u8(field) != 0) fail(field, "nonzero alignment padding");
    }
  }

  /// A whole column of `count` fixed-width elements. Zero-copy when the
  /// bytes are usable in place (little-endian host, aligned mapping);
  /// otherwise decoded into `arena`. T is u32/u64/double.
  template <typename T>
  std::span<const T> column(std::size_t count, std::string_view field,
                            support::Arena& arena) {
    align(alignof(T), field);
    const std::string_view bytes = raw(count * sizeof(T), field);
    if constexpr (std::endian::native == std::endian::little) {
      if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) == 0) {
        return std::span<const T>(reinterpret_cast<const T*>(bytes.data()),
                                  count);
      }
    }
    std::span<T> staged = arena.make_span<T>(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t raw_bits = 0;
      if constexpr (sizeof(T) == 4) {
        raw_bits = get_u32(bytes, i * 4);
        staged[i] = std::bit_cast<T>(static_cast<std::uint32_t>(raw_bits));
      } else {
        raw_bits = get_u64(bytes, i * 8);
        staged[i] = std::bit_cast<T>(raw_bits);
      }
    }
    return staged;
  }

  /// A u8 column: always a direct view (bytes need no decoding).
  std::span<const std::uint8_t> bytes_column(std::size_t count,
                                             std::string_view field) {
    const std::string_view v = raw(count, field);
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.data()), count);
  }

 private:
  void need(std::size_t count, std::string_view field) const {
    if (count > remaining()) {
      fail(field, "truncated: need " + std::to_string(count) +
                      " bytes, have " + std::to_string(remaining()));
    }
  }

  std::string_view payload_;
  std::size_t at_ = 0;
  std::size_t base_;
  std::string_view section_;
};

/// Bounds a claimed element count the same way the text loader does: a
/// corrupt header claiming a gigantic count must be rejected before any
/// reserve() happens. Binary records have a known minimum width, so the
/// remaining payload also caps the claim.
inline std::size_t checked_count(Cursor& c, const LoadOptions& options,
                                 std::size_t min_bytes_per_record,
                                 std::string_view field) {
  const std::uint64_t raw_count = c.u64(field);
  if (raw_count > options.max_count) {
    c.fail(field, "count " + std::to_string(raw_count) + " exceeds limit " +
                      std::to_string(options.max_count));
  }
  if (min_bytes_per_record > 0 &&
      raw_count > c.remaining() / min_bytes_per_record) {
    c.fail(field, "count " + std::to_string(raw_count) +
                      " exceeds remaining payload");
  }
  return static_cast<std::size_t>(raw_count);
}

}  // namespace numaprof::core::format
