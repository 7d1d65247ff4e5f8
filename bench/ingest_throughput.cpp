// ingest_throughput: the crash-safe ingestion service under load.
//
// Measures shards/second through the full client -> server path — frame
// encoding, CRC verification, sequence tracking, WAL journaling, and ack
// processing — as the number of concurrent recorder clients scales
// (1, 2, 4, 8), both on a clean transport and under injected faults
// (frame drops and frame corruption force retransmits and resyncs).
// Clean runs are validated: every shard sent must be accepted exactly
// once, or the numbers are meaningless.
//
// Each timing is emitted as a machine-readable line:
//   BENCH {"bench":"ingest_throughput","clients":C,"faults":F,
//          "shards":N,"seconds":S,"shards_per_s":X,"mb_per_s":Y}
// and the full record set is additionally written as one JSON document to
// BENCH_ingest.json (or argv[1] if given) for the perf trajectory.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ingest/server.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"

namespace {

using namespace numaprof;

constexpr std::size_t kShardsPerClient = 64;
constexpr std::size_t kShardBytes = 4096;  // a typical per-thread shard

/// Deterministic pseudo-shard payloads sized like real thread shards.
std::vector<std::string> make_shards(std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::string> shards;
  shards.reserve(kShardsPerClient);
  for (std::size_t s = 0; s < kShardsPerClient; ++s) {
    std::string payload;
    payload.reserve(kShardBytes);
    while (payload.size() < kShardBytes) {
      payload.push_back(static_cast<char>('!' + rng.next_below(94)));
    }
    shards.push_back(std::move(payload));
  }
  return shards;
}

struct FaultCase {
  const char* name;
  const char* spec;  // "" = clean transport
};

struct Record {
  unsigned clients = 0;
  std::string faults;
  std::size_t shards = 0;
  double seconds = 0.0;
  double shards_per_s = 0.0;
  double mb_per_s = 0.0;
};

std::string bench_json(const Record& r) {
  std::ostringstream os;
  os << "{\"bench\":\"ingest_throughput\",\"clients\":" << r.clients
     << ",\"faults\":\"" << r.faults << "\",\"shards\":" << r.shards
     << ",\"seconds\":" << r.seconds
     << ",\"shards_per_s\":" << r.shards_per_s
     << ",\"mb_per_s\":" << r.mb_per_s << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading(
      "ingest_throughput: WAL-backed shard ingest vs client count");

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_ingest.json";
  const auto wal_dir =
      std::filesystem::temp_directory_path() / "numaprof_ingest_bench";
  std::filesystem::create_directories(wal_dir);

  const std::vector<FaultCase> fault_cases = {
      {"none", ""},
      {"frame-drop=0.05", "frame-drop=0.05"},
      {"frame-corrupt=0.05", "frame-corrupt=0.05"},
  };
  bench::BenchRecords records("ingest_throughput");
  bool all_valid = true;

  for (const FaultCase& fc : fault_cases) {
    bench::subheading(std::string("faults: ") + fc.name);
    for (const unsigned clients : {1u, 2u, 4u, 8u}) {
      const std::size_t total_shards = clients * kShardsPerClient;
      double best = 1e100;
      std::uint64_t accepted = 0;
      for (int rep = 0; rep < 2; ++rep) {
        const std::string wal =
            (wal_dir / ("bench_" + std::string(fc.name) + "_" +
                        std::to_string(clients) + ".wal"))
                .string();
        std::filesystem::remove(wal);
        ingest::ServerOptions options;
        options.wal_path = wal;
        ingest::IngestServer server(options);

        // Per-client fault plans: seeded per client so every run injects
        // the same faults, independent of thread interleaving.
        std::vector<support::FaultPlan> plans(clients);
        for (unsigned c = 0; c < clients; ++c) {
          plans[c] = support::FaultPlan::parse(
              fc.spec[0] == '\0'
                  ? ""
                  : "seed=" + std::to_string(c + 1) + ";" + fc.spec);
        }

        const double s = bench::time_seconds([&] {
          std::vector<std::thread> workers;
          workers.reserve(clients);
          for (unsigned c = 0; c < clients; ++c) {
            workers.emplace_back([&, c] {
              ingest::LoopbackTransport loop(server);
              ingest::ClientOptions client_options;
              client_options.client_id = c + 1;
              if (plans[c].enabled()) client_options.faults = &plans[c];
              ingest::IngestClient client(loop, client_options);
              (void)client.send_shards(make_shards(0xB000 + c));
            });
          }
          for (std::thread& w : workers) w.join();
        });
        best = std::min(best, s);
        accepted = server.stats().frames_accepted;
        if (fc.spec[0] == '\0' && accepted != total_shards) {
          all_valid = false;  // a clean transport must lose nothing
          std::cerr << "clean run accepted " << accepted << " of "
                    << total_shards << " shards\n";
        }
      }
      Record record;
      record.clients = clients;
      record.faults = fc.name;
      record.shards = accepted;
      record.seconds = best;
      record.shards_per_s =
          best > 0.0 ? static_cast<double>(accepted) / best : 0.0;
      record.mb_per_s = record.shards_per_s * kShardBytes / 1.0e6;
      std::cout << clients << " client(s): " << accepted << " shards in "
                << best << " s (" << record.shards_per_s << " shards/s, "
                << record.mb_per_s << " MB/s)\n";
      records.add(bench_json(record));
    }
  }
  std::filesystem::remove_all(wal_dir);

  records.write(out_path);

  if (!all_valid) {
    std::cout << "VALIDITY FAILURE: clean transport lost shards\n";
    return 1;
  }
  return 0;
}
