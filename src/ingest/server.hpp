// The daemon-side ingestion server (the heart of numaprofd).
//
// An IngestServer accepts framed shard traffic from any number of
// recorder clients, journals every accepted shard to a write-ahead log
// BEFORE acknowledging it, and finally folds everything through the
// analyzer's quorum-checked merge. It is built to degrade, never to
// abort: corrupt frame regions are skipped and counted, sequence gaps are
// NACKed so clients retransmit, per-client queues are bounded and answer
// BUSY under pressure, clients that stall mid-frame are evicted, and a
// full disk downgrades durability instead of dropping data. Whatever is
// still missing when the session ends surfaces as DegradationEvents in
// the merged analysis — computed as a pure function of the final ingest
// state, so a daemon killed mid-ingest and restarted from its WAL
// produces a byte-identical report.
//
// Determinism: the server has no clock. "Time" is a tick counter advanced
// by tick() (the loopback transport ticks once per exchange), so queue
// drain, backpressure, and eviction are reproducible in tests.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_io.hpp"
#include "ingest/client.hpp"
#include "ingest/frame.hpp"
#include "ingest/wal.hpp"
#include "support/faultinject.hpp"
#include "support/telemetry.hpp"

namespace numaprof::ingest {

struct ServerOptions {
  /// Write-ahead log path; empty disables journaling (in-memory only —
  /// fine for tests, reckless for a daemon).
  std::string wal_path;
  /// Server-side faults (disk-full). Null injects nothing.
  support::FaultPlan* faults = nullptr;
  /// Accepted-but-unprocessed shards allowed per client before the server
  /// answers BUSY (backpressure). Only enforced on two-way connections; a
  /// one-way stream replay has nobody to push back on.
  std::size_t queue_capacity = 64;
  /// Shards moved from each client's queue to the merge index per tick();
  /// 0 processes immediately (no queue buildup).
  std::uint64_t drain_per_tick = 0;
  /// A connection stuck mid-frame (buffered partial bytes, no complete
  /// frame) for this many ticks is evicted as a stalled client.
  std::uint64_t evict_after_ticks = 64;
  /// Crash injection, forwarded to WalWriter::Options (recovery tests).
  std::uint64_t crash_after_appends = 0;
  /// Live observability: ingest degradations are published here as they
  /// happen (ring events), independent of the merged report. Optional.
  support::TelemetryHub* telemetry = nullptr;
};

/// Monotonic counters of everything the server saw (reports and tests).
struct ServerStats {
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_duplicate = 0;   // idempotent retransmits absorbed
  std::uint64_t corrupt_regions = 0;    // damaged byte regions skipped
  std::uint64_t sequence_nacks = 0;     // gap NACKs sent
  std::uint64_t busy_rejections = 0;    // frames refused with BUSY
  std::uint64_t protocol_errors = 0;    // nonsense frames (bad direction)
  std::uint64_t clients_evicted = 0;
  std::uint64_t telemetry_lines = 0;
  std::uint64_t bytes_ingested = 0;     // accepted shard payload bytes
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_torn_bytes = 0;     // truncated on recovery
  std::uint64_t wal_rejections = 0;     // appends refused (disk-full)
};

/// One client's final ingest state (test and status introspection).
struct ClientSummary {
  std::uint32_t id = 0;
  std::uint64_t announced = 0;  // shard count promised by hello (0 unknown)
  std::uint64_t accepted = 0;   // distinct shard sequences accepted
  std::uint64_t contiguous = 0; // highest gap-free sequence
  bool done = false;            // bye received
  bool evicted = false;
  std::uint64_t not_durable = 0;  // accepted shards the WAL refused
};

class IngestServer {
 public:
  /// Opening with a wal_path that holds a previous (possibly torn) log
  /// recovers it: the valid prefix is replayed into the ingest state, the
  /// torn tail is truncated, and new appends continue after it.
  explicit IngestServer(ServerOptions options = {});

  /// Opens a connection; feed() bytes into it. Thread-safe.
  using ConnectionId = std::uint64_t;
  ConnectionId connect();
  /// Drops a connection and any buffered partial frame (client went away).
  void disconnect(ConnectionId id);

  /// Feeds raw transport bytes into a connection. Complete valid frames
  /// are handled; damaged regions are skipped (and counted) up to the
  /// next plausible frame start. When `responses` is non-null (two-way
  /// transport) ACK/NACK/BUSY frames are appended to it as encoded bytes.
  void feed(ConnectionId id, std::string_view bytes, std::string* responses);

  /// One scheduling tick: drains bounded queues (drain_per_tick per
  /// client) and evicts connections stalled mid-frame too long.
  void tick();

  /// Replays a complete one-way client stream (a spool file). Capacity
  /// limits do not apply; a stream ending mid-frame is a stalled client.
  void ingest_stream(std::string_view bytes);

  /// Ends the session: evicts every connection still stuck mid-frame and
  /// drains all queues. Idempotent; merge() calls it implicitly.
  void finish();

  /// Writes every accepted shard into `spool_dir` (deterministic names,
  /// (client, sequence) order) and runs the analyzer's quorum-checked
  /// merge over them. Ingest-level losses — missing shards, corrupt
  /// regions, evicted clients, non-durable WAL records — are appended to
  /// the merged data as DegradationEvents, derived purely from the final
  /// ingest state so recovery replays reproduce them bit-for-bit.
  core::MergeResult merge(const std::string& spool_dir,
                          const PipelineOptions& options = PipelineOptions());

  ServerStats stats() const;
  /// Final per-client state, ascending client id.
  std::vector<ClientSummary> client_summaries() const;
  /// Reason WAL recovery stopped (empty for a clean or absent log).
  const std::string& wal_stop_reason() const noexcept {
    return wal_stop_reason_;
  }

 private:
  struct ClientState {
    std::uint64_t announced = 0;
    std::uint64_t contiguous = 0;
    std::set<std::uint64_t> seen;  // every accepted shard sequence
    std::deque<std::pair<std::uint64_t, std::string>> pending;
    bool hello_walled = false;
    bool done_walled = false;
    bool done = false;
    bool evicted = false;
    std::uint64_t not_durable = 0;
  };
  struct ConnState {
    std::string buffer;
    bool open = true;
    std::uint32_t last_client = 0;
    bool saw_client = false;
    std::uint64_t last_progress_tick = 0;
  };

  void replay(const WalReplay& replay);
  void handle_frame(const Frame& frame, std::string* responses);
  bool wal_append(WalRecordType type, std::uint32_t client,
                  std::uint64_t sequence, const std::string& payload,
                  ClientState& state);
  void drain_client(std::uint32_t id, ClientState& state,
                    std::uint64_t limit);
  void evict(ConnState& conn);
  void finish_locked();
  void publish_event(std::string_view detail, std::uint64_t value);
  void respond(std::string* responses, FrameType type, std::uint32_t client,
               std::uint64_t sequence, std::string payload = {});

  mutable std::mutex mutex_;
  ServerOptions options_;
  std::unique_ptr<WalWriter> wal_;
  std::string wal_stop_reason_;
  std::map<std::uint32_t, ClientState> clients_;
  /// The merge index: every accepted-and-processed shard payload.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> shards_;
  std::map<ConnectionId, ConnState> conns_;
  ConnectionId next_conn_ = 1;
  std::uint64_t tick_ = 0;
  ServerStats stats_;
};

/// Client-side Transport looped straight into an in-process IngestServer.
/// Each exchange advances the server by one tick — the deterministic
/// stand-in for time passing on the wire — so backpressure drains and
/// eviction sweeps happen while clients back off.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(IngestServer& server, bool tick_on_exchange = true)
      : server_(server),
        tick_(tick_on_exchange),
        conn_(server.connect()) {}

  std::string exchange(std::string_view bytes) override {
    if (tick_) server_.tick();
    std::string responses;
    server_.feed(conn_, bytes, &responses);
    return responses;
  }

  void reconnect() override {
    server_.disconnect(conn_);
    conn_ = server_.connect();
  }

 private:
  IngestServer& server_;
  bool tick_;
  IngestServer::ConnectionId conn_;
};

}  // namespace numaprof::ingest
