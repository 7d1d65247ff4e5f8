// Whole recordings, pinned: minilulesh at record_app's sizes under each
// sampling mechanism on its Table 1 host, through core::Profiler, digested
// as the profile bytes ProfileWriter emits. One case also runs the
// sampling watchdog, one also streams telemetry to a JSONL trace. The
// SampleStream fingerprints pin each sampler on a small fixed workload;
// these pin the machine, the sampler, the watchdog and the streamer
// together on a full-size run, so a change to how the machine delivers
// events to any of them moves a digest here.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "apps/minilulesh.hpp"
#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "core/telemetry_stream.hpp"
#include "numasim/topology.hpp"
#include "support/faultinject.hpp"
#include "support/hash.hpp"
#include "support/telemetry.hpp"

namespace numaprof {
namespace {

struct Recording {
  std::uint64_t profile = 0;
  std::uint64_t jsonl = 0;  // 0 when no telemetry was streamed
  core::SessionData data;
};

struct Options {
  bool watchdog = false;
  std::uint64_t period = 0;  // 0: record_app's period
  std::uint64_t telemetry_interval = 0;  // 0: no streamer
};

/// Records `record_app lulesh baseline <mechanism>` on `host`: the same
/// sizes and sampling settings, a fault plan that injects nothing and
/// five address bins (so neither NUMAPROF_FAULTS nor NUMAPROF_BINS can
/// move a digest).
Recording record(pmu::Mechanism mechanism, numasim::Topology host,
                 Options options = {}) {
  simrt::Machine machine(std::move(host));
  support::FaultPlan no_faults;
  core::ProfilerConfig cfg;
  cfg.event = pmu::EventConfig::mini(mechanism);
  const bool event_filtered = pmu::capabilities_of(mechanism).event_filtered;
  cfg.event.period = std::min<std::uint64_t>(cfg.event.period,
                                             event_filtered ? 50 : 500);
  cfg.event.min_sample_gap =
      std::min<numasim::Cycles>(cfg.event.min_sample_gap, 20'000);
  if (options.period != 0) cfg.event.period = options.period;
  cfg.faults = &no_faults;
  cfg.address_bins = 5;
  cfg.enable_watchdog = options.watchdog;

  support::TelemetryHub hub;
  std::ostringstream jsonl;
  std::optional<core::TelemetryStreamer> streamer;
  if (options.telemetry_interval != 0) {
    machine.set_telemetry(&hub);
    cfg.telemetry = &hub;
  }
  core::Profiler profiler(machine, cfg);
  if (options.telemetry_interval != 0) {
    core::TelemetryStreamer::Config stream_cfg;
    stream_cfg.interval_instructions = options.telemetry_interval;
    stream_cfg.jsonl = &jsonl;
    stream_cfg.mechanism = profiler.sampler().mechanism();
    streamer.emplace(hub, stream_cfg);
    machine.add_observer(*streamer);
  }

  apps::run_minilulesh(machine, {.threads = 48,
                                 .pages_per_thread = 4,
                                 .timesteps = 12,
                                 .variant = apps::Variant::kBaseline});
  if (streamer) {
    streamer->flush(machine.elapsed());
    machine.remove_observer(*streamer);
  }

  Recording r;
  r.data = profiler.snapshot();
  r.profile = support::fnv1a64(core::ProfileWriter().bytes(r.data));
  if (streamer) r.jsonl = support::fnv1a64(jsonl.str());
  return r;
}

/// The IBS profile, with or without a telemetry streamer attached.
constexpr std::uint64_t kIbsDigest = 0xb77862bfd06408d5ull;

void expect_digest(const Recording& r, std::uint64_t expected) {
  EXPECT_GT(r.data.cct.size(), 2u);
  EXPECT_EQ(r.profile, expected) << "profile digest 0x" << std::hex
                                 << r.profile;
}

TEST(Recording, IbsOnMagnyCours) {
  expect_digest(record(pmu::Mechanism::kIbs, numasim::amd_magny_cours()),
                kIbsDigest);
}

TEST(Recording, MrkOnPower7) {
  expect_digest(record(pmu::Mechanism::kMrk, numasim::power7()),
                0x46a2ff45f779ea78ull);
}

TEST(Recording, PebsOnHarpertown) {
  expect_digest(record(pmu::Mechanism::kPebs, numasim::xeon_harpertown()),
                0x07f5ad7542f14ea5ull);
}

TEST(Recording, DearOnItanium2) {
  expect_digest(record(pmu::Mechanism::kDear, numasim::itanium2()),
                0xe9f14997a32363f8ull);
}

TEST(Recording, PebsLlOnIvyBridge) {
  const Recording r =
      record(pmu::Mechanism::kPebsLl, numasim::ivy_bridge());
  expect_digest(r, 0x2f9a53b78a24433dull);
  EXPECT_EQ(r.data.pebs_ll_events, 1031079u);
}

TEST(Recording, SoftIbsOnMagnyCours) {
  expect_digest(
      record(pmu::Mechanism::kSoftIbs, numasim::amd_magny_cours()),
      0x7954af2c28424d78ull);
}

// SPE postdates Table 1; it runs on record_app's default host.
TEST(Recording, SpeOnMagnyCours) {
  expect_digest(record(pmu::Mechanism::kSpe, numasim::amd_magny_cours()),
                0xa5b5f134c0612893ull);
}

// IBS at period 10 samples above the watchdog's rate ceiling, so the
// period is retuned mid-run and each retune lands at a pinned reload.
TEST(Recording, IbsWithWatchdog) {
  const Recording r =
      record(pmu::Mechanism::kIbs, numasim::amd_magny_cours(),
             {.watchdog = true, .period = 10});
  EXPECT_FALSE(r.data.degradations.empty());
  expect_digest(r, 0xb918b6a525891185ull);
}

// The telemetry trace of `record_app --telemetry-interval 100000 lulesh
// baseline ibs`; streaming leaves the profile as a plain run writes it.
TEST(Recording, IbsWithTelemetryStream) {
  const Recording r = record(pmu::Mechanism::kIbs,
                             numasim::amd_magny_cours(),
                             {.telemetry_interval = 100'000});
  expect_digest(r, kIbsDigest);
  EXPECT_EQ(r.jsonl, 0x5b3144a1957b32e4ull)
      << "jsonl digest 0x" << std::hex << r.jsonl;
}

}  // namespace
}  // namespace numaprof
