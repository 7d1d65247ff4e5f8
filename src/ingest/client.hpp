// The recorder-side ingestion client.
//
// An IngestClient turns a recorded session into framed shard traffic and
// delivers it through a Transport, surviving every fault the transport can
// throw at it: dropped frames are retried with jittered exponential
// backoff (support/retry.hpp), corrupted frames are retransmitted when the
// server NACKs, busy servers are backed off from, and disconnects resume
// from the last acknowledged sequence number. Sequence numbers make every
// retransmit idempotent — a duplicate is acknowledged, never double
// counted. When the retry budget (attempts or session deadline) is
// exhausted the client gives up GRACEFULLY: it reports what was delivered
// and what was lost instead of aborting, and the server degrades the
// merged analysis accordingly.
//
// Time is abstract: backoff delays are accounted ticks, not wall-clock
// sleeps, so every schedule — and therefore every golden test — is
// deterministic given the retry seed and the fault plan seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "ingest/frame.hpp"
#include "support/faultinject.hpp"
#include "support/retry.hpp"

namespace numaprof::core {
struct SessionData;
}  // namespace numaprof::core

namespace numaprof::ingest {

/// Where encoded frames go. Implementations are deterministic and
/// in-process (a loopback into an IngestServer, a spool file, a test
/// double); the lock-step exchange() boundary stands in for a socket
/// without introducing wall-clock nondeterminism.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Delivers `bytes` (zero or more encoded frames, possibly damaged by
  /// fault injection) to the peer and returns whatever response frames the
  /// peer produced, as raw bytes. One-way transports return "".
  virtual std::string exchange(std::string_view bytes) = 0;

  /// Tears down and re-establishes the connection. The peer discards any
  /// buffered partial frame; in-flight responses are lost.
  virtual void reconnect() {}
};

/// A one-way Transport that appends every byte to a string — the spool
/// format `record_app --daemon-spool` writes and `numaprofd` replays.
class SpoolTransport final : public Transport {
 public:
  std::string exchange(std::string_view bytes) override {
    spooled_.append(bytes);
    return {};
  }
  const std::string& spooled() const noexcept { return spooled_; }
  std::string take() noexcept { return std::move(spooled_); }

 private:
  std::string spooled_;
};

struct ClientOptions {
  /// Distinguishes this recorder among a daemon's clients; every frame
  /// carries it.
  std::uint32_t client_id = 1;
  support::RetryPolicy retry{};
  /// Seeds the backoff jitter (support::Rng); same seed, same schedule.
  std::uint64_t retry_seed = 1;
  /// Client-side transport faults (frame-drop / frame-corrupt / stall /
  /// disconnect). Null injects nothing.
  support::FaultPlan* faults = nullptr;
  /// True (default) for two-way transports: wait for ACK/NACK/BUSY and
  /// retry. False for one-way spool streams: fire and forget, no retries
  /// (there is nobody to answer).
  bool expect_acks = true;
  /// Encoding of the shards send_session() serializes. The server's
  /// merge autodetects per shard, so clients can switch independently;
  /// kBinary shrinks the wire traffic and the daemon's spool.
  ProfileFormat shard_format = ProfileFormat::kText;
};

/// What one session transfer accomplished — the client-side half of
/// graceful degradation. Everything here is deterministic given the seeds.
struct SendReport {
  std::uint64_t shards_total = 0;
  /// Shards the server acknowledged (== shards_total on a clean run).
  /// Without acks: shards actually written to the transport (drops and
  /// stalls excluded — delivery is unknowable one-way).
  std::uint64_t shards_delivered = 0;
  std::uint64_t frames_sent = 0;  // includes retransmits, hello and bye
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t retries = 0;
  std::uint64_t rewinds = 0;          // NACK-driven retransmit runs
  std::uint64_t busy_deferrals = 0;   // BUSY responses absorbed
  std::uint64_t reconnects = 0;
  std::uint64_t backoff_ticks = 0;    // simulated ticks spent backing off
  /// True when hello, every shard, and bye were all acknowledged (or, for
  /// a one-way stream, fully written).
  bool complete = false;
  /// Why the transfer degraded (empty when complete): attempts exhausted,
  /// deadline exhausted, or transport stalled.
  std::string give_up_reason;
};

class IngestClient {
 public:
  IngestClient(Transport& transport, ClientOptions options);

  /// Serializes `data` into per-thread shards (ProfileWriter::
  /// thread_shards, in options.shard_format) and streams hello, shards,
  /// telemetry, bye.
  SendReport send_session(const core::SessionData& data,
                          const std::vector<std::string>& telemetry = {});

  /// Lower-level: streams explicit shard payloads. `telemetry` lines ride
  /// along fire-and-forget (lossy by design, never retried).
  SendReport send_shards(const std::vector<std::string>& shards,
                         const std::vector<std::string>& telemetry = {});

 private:
  enum class Delivery { kDelivered, kRewind, kGaveUp };

  /// Encodes and transmits one frame, applying client-side faults.
  /// Returns the peer's response bytes ("" when dropped or one-way).
  std::string transmit(const Frame& frame);
  /// Delivers one frame reliably (retry loop). Sets rewind_to_ on NACK.
  Delivery deliver(const Frame& frame);

  Transport& transport_;
  ClientOptions options_;
  support::RetrySchedule schedule_;
  SendReport report_;
  std::uint64_t last_acked_ = 0;   // highest contiguous server-acked seq
  std::uint64_t rewind_to_ = 0;    // NACK target (next seq to resend)
  bool stalled_ = false;           // stall fault fired: client is dead
  bool last_write_ok_ = false;     // last frame fully reached the wire
};

/// Encodes a complete one-way client stream (hello, shards, telemetry,
/// bye) with client-side faults applied — the bytes a spool file holds.
std::string encode_client_stream(const std::vector<std::string>& shards,
                                 std::uint32_t client_id,
                                 support::FaultPlan* faults = nullptr,
                                 const std::vector<std::string>& telemetry = {});

}  // namespace numaprof::ingest
