// The framed, checksummed shard/telemetry transport of the ingestion
// service (numaprofd).
//
// Recorder clients stream profile shards to the daemon as length-prefixed
// frames. Each frame carries a magic, a type, the sending client's id, a
// per-client sequence number, and a CRC32 over everything, so the receiver
// can detect truncation, bit flips, duplication, and reordering without
// trusting a single byte of the stream. The codec is pure and
// deterministic — the same Frame always encodes to the same bytes — which
// keeps spooled client streams and the golden tests byte-stable.
//
// Wire layout (all integers little-endian):
//   0   4  magic "NPF1"
//   4   1  type (FrameType)
//   5   3  reserved, zero
//   8   4  client id
//   12  8  sequence number
//   20  4  payload length N (bounded by kMaxFramePayload)
//   24  N  payload
//   24+N 4 CRC32 (IEEE, over bytes [0, 24+N))
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace numaprof::ingest {

inline constexpr char kFrameMagic[4] = {'N', 'P', 'F', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 24;
inline constexpr std::size_t kFrameTrailerBytes = 4;
/// Hard ceiling on one frame's payload; a corrupt length field claiming
/// gigabytes is rejected before any buffering happens.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 24;

enum class FrameType : std::uint8_t {
  kHello,      // client -> server: session open; payload "shards=N"
  kShard,      // client -> server: one serialized per-thread shard
  kTelemetry,  // client -> server: one telemetry JSONL line
  kBye,        // client -> server: session complete
  kAck,        // server -> client: sequence = highest contiguous accepted
  kNack,       // server -> client: sequence = next expected; payload why
  kBusy,       // server -> client: backpressure, retry after backoff
};
inline constexpr int kFrameTypeCount = 7;

std::string_view to_string(FrameType t) noexcept;

struct Frame {
  FrameType type = FrameType::kShard;
  std::uint32_t client = 0;
  std::uint64_t sequence = 0;
  std::string payload;
};

/// Serializes a frame. Throws numaprof::Error (kind kIngest) when the
/// payload exceeds kMaxFramePayload.
std::string encode_frame(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kOk,        // frame is valid; `consumed` covers it entirely
  kNeedMore,  // buffer ends mid-frame; feed more bytes (consumed == 0)
  kBadMagic,  // bytes do not start a frame
  kBadType,   // type byte outside FrameType
  kBadLength, // payload length exceeds kMaxFramePayload
  kBadCrc,    // checksum mismatch (bit flip in header or payload)
};

std::string_view to_string(DecodeStatus s) noexcept;

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;              // populated when status == kOk
  std::size_t consumed = 0; // bytes to drop from the front of the buffer
};

/// Decodes the first frame of `buffer`. On any corruption the result
/// consumes up to the next plausible magic (or the whole buffer), so a
/// caller can skip the damaged region and resynchronize on the following
/// frame; a false magic inside a payload is rejected by its CRC and the
/// scan continues. kNeedMore consumes nothing.
DecodeResult decode_frame(std::string_view buffer);

}  // namespace numaprof::ingest
