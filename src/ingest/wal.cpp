#include "ingest/wal.hpp"

#include <cstdlib>
#include <filesystem>

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace numaprof::ingest {

namespace {

using support::get_u32;
using support::get_u64;
using support::put_u32;
using support::put_u64;

}  // namespace

std::string encode_wal_record(const WalRecord& record,
                              std::uint64_t log_sequence) {
  if (record.payload.size() > kMaxWalPayload) {
    throw Error(ErrorKind::kIngest, {}, "wal", 0,
                "WAL payload of " + std::to_string(record.payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxWalPayload) +
                    "-byte limit");
  }
  std::string out;
  out.reserve(kWalHeaderBytes + record.payload.size() + kWalTrailerBytes);
  out.append(kWalMagic, 4);
  put_u64(out, log_sequence);
  out.push_back(static_cast<char>(record.type));
  put_u32(out, record.client);
  put_u64(out, record.sequence);
  put_u32(out, static_cast<std::uint32_t>(record.payload.size()));
  out += record.payload;
  put_u32(out, support::crc32(out));
  return out;
}

WalWriter::WalWriter(std::string path)
    : WalWriter(std::move(path), Options{}) {}

WalWriter::WalWriter(std::string path, Options options,
                     std::uint64_t existing_bytes,
                     std::uint64_t existing_records)
    : path_(std::move(path)),
      options_(options),
      out_(path_, std::ios::binary | std::ios::app),
      bytes_(existing_bytes),
      records_(existing_records),
      appends_until_crash_(options.crash_after_appends) {
  if (!out_) {
    throw Error(ErrorKind::kIngest, path_, "wal", 0,
                "cannot open write-ahead log for append: " + path_);
  }
}

bool WalWriter::append(const WalRecord& record) {
  const std::string bytes = encode_wal_record(record, records_ + 1);
  if (options_.faults != nullptr &&
      options_.faults->wal_write_fails(bytes_, bytes.size())) {
    ++rejected_;
    return false;
  }
  if (appends_until_crash_ > 0 && --appends_until_crash_ == 0) {
    // The injected kill point: half a record reaches the disk, then the
    // process dies without unwinding — exactly what a power cut or OOM
    // kill does to a real daemon. Recovery must truncate this tail.
    out_.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    out_.flush();
    std::_Exit(42);
  }
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_) {
    throw Error(ErrorKind::kIngest, path_, "wal", 0,
                "write-ahead log append failed: " + path_);
  }
  bytes_ += bytes.size();
  ++records_;
  return true;
}

namespace {

WalReplay scan_wal(const std::string& path) {
  WalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) return replay;  // no log yet: clean empty replay
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::size_t at = 0;
  std::uint64_t expected_log_seq = 1;
  const std::string_view view(bytes);
  const auto stop = [&](const std::string& why) {
    replay.torn_bytes = bytes.size() - at;
    replay.stop_reason = why;
  };
  while (at < bytes.size()) {
    const std::string_view rest = view.substr(at);
    if (rest.size() < kWalHeaderBytes) {
      stop("torn record header (" + std::to_string(rest.size()) +
           " trailing bytes)");
      break;
    }
    if (rest.substr(0, 4) != std::string_view(kWalMagic, 4)) {
      stop("bad record magic");
      break;
    }
    const std::uint64_t log_seq = get_u64(rest, 4);
    if (log_seq != expected_log_seq) {
      stop("log sequence " + std::to_string(log_seq) + " where " +
           std::to_string(expected_log_seq) + " was expected");
      break;
    }
    const auto type_raw = static_cast<unsigned char>(rest[12]);
    if (type_raw >= kWalRecordTypeCount) {
      stop("bad record type " + std::to_string(type_raw));
      break;
    }
    const std::uint32_t payload_len = get_u32(rest, 25);
    if (payload_len > kMaxWalPayload) {
      stop("payload length " + std::to_string(payload_len) +
           " exceeds limit");
      break;
    }
    const std::size_t total =
        kWalHeaderBytes + payload_len + kWalTrailerBytes;
    if (rest.size() < total) {
      stop("torn record body (" + std::to_string(rest.size()) + " of " +
           std::to_string(total) + " bytes)");
      break;
    }
    const std::uint32_t want =
        support::crc32(rest.substr(0, kWalHeaderBytes + payload_len));
    if (want != get_u32(rest, kWalHeaderBytes + payload_len)) {
      stop("record checksum mismatch");
      break;
    }
    WalRecord record;
    record.type = static_cast<WalRecordType>(type_raw);
    record.client = get_u32(rest, 13);
    record.sequence = get_u64(rest, 17);
    record.payload = std::string(rest.substr(kWalHeaderBytes, payload_len));
    replay.records.push_back(std::move(record));
    at += total;
    ++expected_log_seq;
  }
  replay.valid_bytes = at;
  return replay;
}

}  // namespace

WalReplay replay_wal(const std::string& path) { return scan_wal(path); }

WalReplay recover_wal(const std::string& path) {
  WalReplay replay = scan_wal(path);
  if (replay.torn_bytes > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, replay.valid_bytes, ec);
    if (ec) {
      throw Error(ErrorKind::kIngest, path, "wal", 0,
                  "cannot truncate torn write-ahead log tail: " +
                      ec.message());
    }
  }
  return replay;
}

}  // namespace numaprof::ingest
