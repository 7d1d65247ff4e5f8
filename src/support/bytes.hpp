// Little-endian integer codec for the tool's byte formats: the binary
// profile (core/format), the ingest frame transport and the ingest WAL.
// All three store integers least-significant byte first, whatever the
// host, and checksum with support::crc32 (support/hash.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace numaprof::support {

// One append per value: the byte loop compiles to a single store.
inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.append(bytes, sizeof(bytes));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.append(bytes, sizeof(bytes));
}

/// The value stored at bytes[at, at + 4); the caller checks the bounds.
inline std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

/// The value stored at bytes[at, at + 8); the caller checks the bounds.
inline std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

}  // namespace numaprof::support
