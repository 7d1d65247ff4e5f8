#include "ingest/frame.hpp"

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace numaprof::ingest {

namespace {

using support::get_u32;
using support::get_u64;
using support::put_u32;
using support::put_u64;

/// Offset of the next magic at or after `from`, or npos.
std::size_t find_magic(std::string_view buffer, std::size_t from) {
  return buffer.find(std::string_view(kFrameMagic, 4), from);
}

/// A corrupt prefix consumes up to the next possible frame start so the
/// caller can resynchronize. Never consumes zero (that would spin).
std::size_t resync_consumed(std::string_view buffer) {
  const std::size_t next = find_magic(buffer, 1);
  return next == std::string_view::npos ? buffer.size() : next;
}

}  // namespace

std::string_view to_string(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kShard: return "shard";
    case FrameType::kTelemetry: return "telemetry";
    case FrameType::kBye: return "bye";
    case FrameType::kAck: return "ack";
    case FrameType::kNack: return "nack";
    case FrameType::kBusy: return "busy";
  }
  return "unknown";
}

std::string_view to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

std::string encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw Error(ErrorKind::kIngest, {}, "frame", 0,
                "frame payload of " + std::to_string(frame.payload.size()) +
                    " bytes exceeds the " +
                    std::to_string(kMaxFramePayload) + "-byte limit");
  }
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  out.append(kFrameMagic, 4);
  out.push_back(static_cast<char>(frame.type));
  out.append(3, '\0');
  put_u32(out, frame.client);
  put_u64(out, frame.sequence);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  put_u32(out, support::crc32(out));
  return out;
}

DecodeResult decode_frame(std::string_view buffer) {
  DecodeResult result;
  if (buffer.size() < kFrameHeaderBytes) {
    // A short buffer that cannot grow into a frame (wrong magic already)
    // is corrupt, not incomplete.
    const std::size_t check = std::min<std::size_t>(buffer.size(), 4);
    if (std::string_view(kFrameMagic, check) != buffer.substr(0, check)) {
      result.status = DecodeStatus::kBadMagic;
      result.consumed = resync_consumed(buffer);
      return result;
    }
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  if (buffer.substr(0, 4) != std::string_view(kFrameMagic, 4)) {
    result.status = DecodeStatus::kBadMagic;
    result.consumed = resync_consumed(buffer);
    return result;
  }
  const auto type_raw = static_cast<unsigned char>(buffer[4]);
  if (type_raw >= kFrameTypeCount) {
    result.status = DecodeStatus::kBadType;
    result.consumed = resync_consumed(buffer);
    return result;
  }
  const std::uint32_t payload_len = get_u32(buffer, 20);
  if (payload_len > kMaxFramePayload) {
    result.status = DecodeStatus::kBadLength;
    result.consumed = resync_consumed(buffer);
    return result;
  }
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (buffer.size() < total) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  const std::uint32_t want =
      support::crc32(buffer.substr(0, kFrameHeaderBytes + payload_len));
  const std::uint32_t got = get_u32(buffer, kFrameHeaderBytes + payload_len);
  if (want != got) {
    result.status = DecodeStatus::kBadCrc;
    result.consumed = resync_consumed(buffer);
    return result;
  }
  result.status = DecodeStatus::kOk;
  result.frame.type = static_cast<FrameType>(type_raw);
  result.frame.client = get_u32(buffer, 8);
  result.frame.sequence = get_u64(buffer, 12);
  result.frame.payload =
      std::string(buffer.substr(kFrameHeaderBytes, payload_len));
  result.consumed = total;
  return result;
}

}  // namespace numaprof::ingest
