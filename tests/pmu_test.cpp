#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/profile_io.hpp"
#include "core/profiler.hpp"
#include "numasim/topology.hpp"
#include "pmu/sampler.hpp"
#include "simrt/machine.hpp"
#include "support/faultinject.hpp"

namespace numaprof::pmu {
namespace {

using numasim::test_machine;
using simrt::Machine;
using simrt::ScopedFrame;
using simrt::SimThread;
using simrt::Task;

/// Runs a simple load loop under `sampler`, returns collected samples and,
/// through `counted`, the events the machine counted for the sampler.
std::vector<Sample> run_loads(Sampler& sampler, std::uint64_t loads,
                              std::uint64_t exec_per_load = 0,
                              bool stores_instead = false,
                              std::uint64_t* counted = nullptr) {
  Machine m(test_machine(2, 2));
  m.add_observer(sampler);
  std::vector<Sample> samples;
  sampler.set_sink([&](const Sample& s) { samples.push_back(s); });
  m.spawn([=](SimThread& t) -> Task {
    for (std::uint64_t i = 0; i < loads; ++i) {
      const simos::VAddr addr = simos::kHeapBase + i * 64;
      stores_instead ? t.store(addr) : t.load(addr);
      if (exec_per_load != 0) t.exec(exec_per_load);
      if (i % 64 == 0) co_await t.tick();
    }
  });
  m.run();
  if (counted != nullptr) *counted = m.counted(sampler);
  return samples;
}

TEST(Capabilities, MatchesPaperTaxonomy) {
  // §3/§10: IBS and PEBS-LL report latency + data source; MRK and DEAR are
  // event-filtered; PEBS has imprecise IP; Soft-IBS is instrumentation.
  EXPECT_TRUE(capabilities_of(Mechanism::kIbs).reports_latency);
  EXPECT_TRUE(capabilities_of(Mechanism::kIbs).reports_data_source);
  EXPECT_TRUE(capabilities_of(Mechanism::kIbs).samples_all_instructions);
  EXPECT_FALSE(capabilities_of(Mechanism::kMrk).reports_latency);
  EXPECT_TRUE(capabilities_of(Mechanism::kMrk).event_filtered);
  EXPECT_FALSE(capabilities_of(Mechanism::kPebs).precise_ip);
  EXPECT_TRUE(capabilities_of(Mechanism::kDear).reports_latency);
  EXPECT_FALSE(capabilities_of(Mechanism::kDear).reports_data_source);
  EXPECT_TRUE(capabilities_of(Mechanism::kPebsLl).reports_data_source);
  EXPECT_TRUE(capabilities_of(Mechanism::kSoftIbs).software_instrumentation);
}

TEST(EventConfig, Table1Values) {
  EXPECT_EQ(EventConfig::table1(Mechanism::kIbs).period, 64u * 1024u);
  EXPECT_EQ(EventConfig::table1(Mechanism::kPebs).period, 1'000'000u);
  EXPECT_EQ(EventConfig::table1(Mechanism::kDear).event_name,
            "DATA_EAR_CACHE_LAT4");
  EXPECT_EQ(EventConfig::table1(Mechanism::kPebsLl).period, 500'000u);
  EXPECT_EQ(EventConfig::table1(Mechanism::kSoftIbs).period, 10'000'000u);
  EXPECT_GT(EventConfig::table1(Mechanism::kMrk).min_sample_gap, 0u);
}

TEST(Ibs, SamplesRoughlyEveryPeriod) {
  EventConfig cfg = EventConfig::mini(Mechanism::kIbs);
  cfg.period = 100;
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 5000);
  // 5000 memory instructions, period 100 (+-12.5% jitter).
  EXPECT_NEAR(static_cast<double>(samples.size()), 50.0, 15.0);
  for (const Sample& s : samples) {
    EXPECT_TRUE(s.is_memory);
    EXPECT_TRUE(s.latency.has_value());
    EXPECT_TRUE(s.data_source.has_value());
    EXPECT_TRUE(s.ip_precise);
  }
}

TEST(Ibs, SamplesNonMemoryInstructionsToo) {
  EventConfig cfg = EventConfig::mini(Mechanism::kIbs);
  cfg.period = 100;
  const auto sampler = make_sampler(cfg);
  // 9 ALU instructions per load: ~90% of samples should be non-memory.
  const auto samples = run_loads(*sampler, 1000, 9);
  std::size_t non_memory = 0;
  for (const Sample& s : samples) non_memory += !s.is_memory;
  ASSERT_GT(samples.size(), 50u);
  EXPECT_GT(non_memory, samples.size() / 2);
}

TEST(Ibs, JitterAvoidsAliasing) {
  EventConfig cfg = EventConfig::mini(Mechanism::kIbs);
  cfg.period = 64;
  const auto sampler = make_sampler(cfg);
  // Loop body is exactly 2 instructions (load + exec 1): a fixed period of
  // 64 would hit the same op kind forever; jitter must mix them.
  const auto samples = run_loads(*sampler, 4000, 1);
  std::size_t memory = 0;
  for (const Sample& s : samples) memory += s.is_memory;
  EXPECT_GT(memory, 0u);
  EXPECT_LT(memory, samples.size());
}

TEST(Mrk, OnlySamplesL3Misses) {
  EventConfig cfg = EventConfig::mini(Mechanism::kMrk);
  cfg.min_sample_gap = 0;
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 2000);
  ASSERT_GT(samples.size(), 0u);
  for (const Sample& s : samples) {
    EXPECT_TRUE(s.l3_miss);
    EXPECT_FALSE(s.latency.has_value());      // no latency in MRK mode
    EXPECT_FALSE(s.data_source.has_value());
  }
}

TEST(Mrk, RateLimitCapsSampleRate) {
  EventConfig fast = EventConfig::mini(Mechanism::kMrk);
  fast.min_sample_gap = 0;
  const auto unlimited = make_sampler(fast);
  const auto many = run_loads(*unlimited, 3000);

  EventConfig slow = EventConfig::mini(Mechanism::kMrk);
  slow.min_sample_gap = 50'000;
  const auto limited = make_sampler(slow);
  const auto few = run_loads(*limited, 3000);

  EXPECT_GT(many.size(), 4 * few.size());
  EXPECT_GT(few.size(), 0u);
}

TEST(Pebs, CorrectionYieldsPreciseIp) {
  EventConfig cfg = EventConfig::mini(Mechanism::kPebs);
  cfg.period = 50;
  cfg.pebs_skid_correction = true;
  cfg.skid_correction_work = 10;
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 2000);
  ASSERT_GT(samples.size(), 10u);
  for (const Sample& s : samples) {
    EXPECT_TRUE(s.ip_precise);
    EXPECT_FALSE(s.latency.has_value());  // PEBS reports no latency
  }
}

TEST(Pebs, UncorrectedSkidAttributesToNextContext) {
  // Two alternating frames; every sampled access in frame A must be
  // attributed (uncorrected) to whatever executes next — half the time
  // frame B. With correction the leaf is always the access's own frame.
  const auto run = [](bool correct) {
    EventConfig cfg = EventConfig::mini(Mechanism::kPebs);
    cfg.period = 7;
    cfg.pebs_skid_correction = correct;
    cfg.skid_correction_work = 0;
    const auto sampler = make_sampler(cfg);

    Machine m(test_machine(1, 1));
    m.add_observer(*sampler);
    std::vector<Sample> samples;
    sampler->set_sink([&](const Sample& s) { samples.push_back(s); });
    const auto frame_a = m.frames().intern("A");
    const auto frame_b = m.frames().intern("B");
    m.spawn([=](SimThread& t) -> Task {
      for (int i = 0; i < 3000; ++i) {
        {
          ScopedFrame fa(t, frame_a);
          t.load(simos::kHeapBase + i * 64);  // all accesses in frame A
        }
        {
          ScopedFrame fb(t, frame_b);
          t.exec(1);  // frame B has only ALU work
        }
        if (i % 64 == 0) co_await t.tick();
      }
    });
    m.run();
    std::size_t memory_in_b = 0;
    std::size_t memory = 0;
    for (const Sample& s : samples) {
      if (!s.is_memory) continue;
      ++memory;
      memory_in_b += s.leaf_frame == frame_b;
    }
    return std::pair{memory, memory_in_b};
  };

  const auto [mem_corrected, wrong_corrected] = run(true);
  ASSERT_GT(mem_corrected, 20u);
  EXPECT_EQ(wrong_corrected, 0u);

  const auto [mem_skid, wrong_skid] = run(false);
  ASSERT_GT(mem_skid, 20u);
  EXPECT_GT(wrong_skid, 0u);  // off-by-1 mis-attribution observable
  for (const auto precise : {false}) {
    (void)precise;  // documented: uncorrected samples are marked imprecise
  }
}

TEST(Dear, FiltersByLatencyThresholdAndLoadsOnly) {
  EventConfig cfg = EventConfig::mini(Mechanism::kDear);
  cfg.period = 1;
  cfg.latency_threshold = 50;  // only misses qualify
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 500);
  ASSERT_GT(samples.size(), 0u);
  for (const Sample& s : samples) {
    EXPECT_GE(*s.latency, 50u);
    EXPECT_FALSE(s.is_write);
    EXPECT_FALSE(s.data_source.has_value());
  }
  // Stores never sampled.
  const auto sampler2 = make_sampler(cfg);
  EXPECT_TRUE(run_loads(*sampler2, 500, 0, /*stores=*/true).empty());
}

TEST(PebsLl, CountsEventsAndSamplesWithSources) {
  EventConfig cfg = EventConfig::mini(Mechanism::kPebsLl);
  cfg.period = 10;
  cfg.latency_threshold = 50;
  const auto sampler = make_sampler(cfg);
  std::uint64_t counted = 0;
  const auto samples = run_loads(*sampler, 2000, 0, false, &counted);
  ASSERT_GT(samples.size(), 0u);
  EXPECT_GT(counted, samples.size());
  for (const Sample& s : samples) {
    EXPECT_TRUE(s.latency.has_value());
    EXPECT_TRUE(s.data_source.has_value());
  }
}

TEST(SoftIbs, RecordsEveryNthAccess) {
  EventConfig cfg = EventConfig::mini(Mechanism::kSoftIbs);
  cfg.period = 100;
  cfg.instrumentation_work = 0;
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 1000);
  EXPECT_EQ(samples.size(), 10u);  // exact: no jitter in software decimation
  for (const Sample& s : samples) {
    EXPECT_FALSE(s.latency.has_value());  // software sees addresses only
    EXPECT_FALSE(s.data_source.has_value());
  }
}

TEST(SoftIbs, FixedPeriodAliasesOnRegularLoops) {
  // §3: address sampling must "guarantee that memory accesses are
  // uniformly sampled". Soft-IBS decimates deterministically (every n-th
  // access), so when n shares a factor with a loop's accesses-per-
  // iteration, every sample lands on the SAME instruction — here a loop
  // of [load A, load B] sampled with an even period only ever sees one of
  // the two. Hardware mechanisms avoid this by randomizing low period
  // bits (cf. Ibs.JitterAvoidsAliasing above).
  const auto loads_of_b = [](std::uint64_t period) {
    EventConfig cfg = EventConfig::mini(Mechanism::kSoftIbs);
    cfg.period = period;
    cfg.instrumentation_work = 0;
    const auto sampler = make_sampler(cfg);
    Machine m(test_machine(1, 1));
    m.add_observer(*sampler);
    std::size_t b_count = 0;
    std::size_t total = 0;
    sampler->set_sink([&](const Sample& s) {
      ++total;
      b_count += (s.addr % 128) != 0;  // B addresses are odd lines
    });
    m.spawn([](SimThread& t) -> Task {
      for (int i = 0; i < 8000; ++i) {
        t.load(simos::kHeapBase + (i % 50) * 128);       // A: even lines
        t.load(simos::kHeapBase + (i % 50) * 128 + 64);  // B: odd lines
        if (i % 64 == 0) co_await t.tick();
      }
    });
    m.run();
    return std::pair{b_count, total};
  };

  const auto [b_even, total_even] = loads_of_b(100);  // gcd(100, 2) = 2
  ASSERT_GT(total_even, 50u);
  // Perfect aliasing: every sample is the same op kind.
  EXPECT_TRUE(b_even == 0 || b_even == total_even);

  const auto [b_odd, total_odd] = loads_of_b(101);  // coprime with 2
  ASSERT_GT(total_odd, 50u);
  // Uniform: both ops sampled in fair proportion.
  EXPECT_GT(b_odd, total_odd / 4);
  EXPECT_LT(b_odd, 3 * total_odd / 4);
}

TEST(Spe, SamplesAtExactFixedPeriodWithLatency) {
  // ARM-SPE-style statistical profiling: operation sampling at a FIXED
  // interval (PMSIRR has no hardware jitter), every sampled memory op
  // annotated with latency + data source and a precise PC.
  EventConfig cfg = EventConfig::mini(Mechanism::kSpe);
  cfg.period = 100;
  const auto sampler = make_sampler(cfg);
  const auto samples = run_loads(*sampler, 5000);
  EXPECT_EQ(samples.size(), 50u);  // no jitter: exactly every 100 ops
  for (const Sample& s : samples) {
    EXPECT_TRUE(s.ip_precise);
    if (s.is_memory) {
      EXPECT_TRUE(s.latency.has_value());
      EXPECT_TRUE(s.data_source.has_value());
    }
  }
}

TEST(Spe, FixedPeriodAliasesOnRegularLoops) {
  // The behavioral difference from IBS: on a loop whose body length
  // divides the period, SPE's fixed interval locks onto ONE op kind —
  // IBS's jitter mixes them (Ibs.JitterAvoidsAliasing above).
  EventConfig cfg = EventConfig::mini(Mechanism::kSpe);
  cfg.period = 64;
  const auto sampler = make_sampler(cfg);
  // Loop body is exactly 2 instructions (load + exec 1).
  const auto samples = run_loads(*sampler, 4000, 1);
  ASSERT_GT(samples.size(), 50u);
  std::size_t memory = 0;
  for (const Sample& s : samples) memory += s.is_memory;
  EXPECT_TRUE(memory == 0 || memory == samples.size())
      << "fixed-period SPE mixed op kinds on a regular loop: " << memory
      << "/" << samples.size();
}

TEST(SoftIbs, WorksOnEveryEvaluationPlatform) {
  // Table 1, footnote 1: "Soft-IBS works on all of listed platforms" —
  // software instrumentation needs no PMU, so it must collect on every
  // registered preset (iterated by name: catalog positions shift as
  // presets are added, names do not).
  for (const std::string& name : numasim::preset_names()) {
    EventConfig cfg = EventConfig::mini(Mechanism::kSoftIbs);
    cfg.period = 64;
    cfg.instrumentation_work = 0;
    const auto sampler = make_sampler(cfg);
    Machine m(numasim::topology_by_name(name));
    m.add_observer(*sampler);
    m.spawn([](SimThread& t) -> Task {
      for (int i = 0; i < 1000; ++i) {
        t.load(simos::kHeapBase + i * 64);
        if (i % 128 == 0) co_await t.tick();
      }
    });
    m.run();
    EXPECT_GT(sampler->samples_emitted(), 10u) << name;
  }
}

TEST(Factory, BuildsEveryMechanism) {
  for (const Mechanism mech :
       {Mechanism::kIbs, Mechanism::kMrk, Mechanism::kPebs, Mechanism::kDear,
        Mechanism::kPebsLl, Mechanism::kSoftIbs, Mechanism::kSpe}) {
    const auto sampler = make_sampler(EventConfig::mini(mech));
    ASSERT_NE(sampler, nullptr);
    EXPECT_EQ(sampler->mechanism(), mech);
  }
}

/// FNV-1a over 64-bit words: a stable digest of a sample stream.
struct StreamHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const Sample& s) {
    add(static_cast<std::uint64_t>(s.mechanism));
    add(s.tid);
    add(s.core);
    add(s.is_memory);
    add(s.addr);
    add(s.is_write);
    add(s.latency.has_value());
    add(s.latency.value_or(0));
    add(s.data_source.has_value());
    add(s.data_source ? static_cast<std::uint64_t>(*s.data_source) : 0);
    add(s.l3_miss);
    add(s.time);
    add(s.op_index);
    add(s.leaf_frame);
    add(s.stack.size());
    for (const simrt::FrameId f : s.stack) add(f);
    add(s.ip_precise);
  }
};

/// The fixed workload every fingerprint records: four threads on two
/// domains mix exec batches of 1..120 instructions with loads and stores
/// over their own first-touched pages and over their neighbour's, plus
/// cache-hitting reloads, under a call path whose leaf changes every 50
/// iterations.
void fingerprint_workload(Machine& m) {
  const auto main_f = m.frames().intern("main");
  const auto even_f = m.frames().intern("even");
  const auto odd_f = m.frames().intern("odd");
  for (std::uint64_t k = 0; k < 4; ++k) {
    m.spawn(
        [=](SimThread& t) -> Task {
          const simos::VAddr own = simos::kHeapBase + k * (1u << 20);
          const simos::VAddr next =
              simos::kHeapBase + ((k + 1) % 4) * (1u << 20);
          for (std::uint64_t i = 0; i < 3000; ++i) {
            ScopedFrame leaf(t, (i / 50) % 2 == 0 ? even_f : odd_f);
            const simos::VAddr a = own + (i * 97 % 2048) * 64;
            if (i % 3 == 0) {
              t.store(a);
            } else {
              t.load(a);
            }
            if (i % 5 == 0) t.load(next + (i * 61 % 2048) * 64);
            if (i % 7 == 0) t.load(a);  // a cache hit
            if (i % 4 == 1) t.exec(1 + (i * 37) % 120);
            if (i % 32 == 0) co_await t.tick();
          }
        },
        std::nullopt, {main_f});
  }
  m.run();
}

/// Digest of every sample `config`'s sampler emits on the fixed workload,
/// followed by its samples_emitted() count.
std::uint64_t stream_fingerprint(const EventConfig& config) {
  const auto sampler = make_sampler(config);
  Machine m(test_machine(2, 2));
  m.add_observer(*sampler);
  StreamHash hash;
  sampler->set_sink([&](const Sample& s) { hash.add(s); });
  fingerprint_workload(m);
  EXPECT_GT(sampler->samples_emitted(), 20u) << to_string(config.mechanism);
  hash.add(sampler->samples_emitted());
  return hash.h;
}

/// Digest of the text profile a Profiler writes for the fixed workload.
std::uint64_t profile_fingerprint(core::ProfilerConfig config,
                                  core::SessionData& data) {
  support::FaultPlan no_faults;
  config.faults = &no_faults;
  config.address_bins = 5;
  Machine m(test_machine(2, 2));
  core::Profiler profiler(m, config);
  fingerprint_workload(m);
  profiler.stop();
  data = profiler.snapshot();
  StreamHash hash;
  for (const char c : core::ProfileWriter().bytes(data)) {
    hash.add(static_cast<unsigned char>(c));
  }
  return hash.h;
}

EventConfig fingerprint_config(Mechanism m, std::uint64_t period) {
  EventConfig cfg = EventConfig::mini(m);
  cfg.period = period;
  cfg.instrumentation_work = 0;
  cfg.skid_correction_work = 0;
  return cfg;
}

TEST(SampleStream, FingerprintsArePinned) {
  // Every field of every sample each mechanism emits on one fixed
  // workload, pinned: a change to any trigger, filter, reload or jitter
  // draw moves a digest here before it reaches a golden profile.
  struct Case {
    const char* name;
    EventConfig config;
    std::uint64_t expected;
  };
  EventConfig pebs_skid = fingerprint_config(Mechanism::kPebs, 50);
  pebs_skid.pebs_skid_correction = false;
  EventConfig mrk_gap = fingerprint_config(Mechanism::kMrk, 1);
  mrk_gap.min_sample_gap = 2'000;
  EventConfig mrk = fingerprint_config(Mechanism::kMrk, 3);
  mrk.min_sample_gap = 0;
  // Thresholds equal to latencies the workload produces (an L1 hit, a
  // local DRAM load), so the filter's >= is pinned too.
  EventConfig dear = fingerprint_config(Mechanism::kDear, 7);
  dear.latency_threshold = 3;
  EventConfig pebs_ll = fingerprint_config(Mechanism::kPebsLl, 7);
  pebs_ll.latency_threshold = 144;
  const Case cases[] = {
      {"ibs", fingerprint_config(Mechanism::kIbs, 50), 0x3e58c9d638570588ull},
      {"mrk", mrk, 0x873aa08f75e73582ull},
      {"pebs", fingerprint_config(Mechanism::kPebs, 50), 0x9e09abb4b41417cbull},
      {"dear", dear, 0x7b299090113e4b77ull},
      {"pebs-ll", pebs_ll, 0xe25b610abbe4f972ull},
      {"soft-ibs", fingerprint_config(Mechanism::kSoftIbs, 41),
       0xc7ef08ed776e5a8aull},
      {"spe", fingerprint_config(Mechanism::kSpe, 50), 0x235e63cac6c2cce2ull},
      {"pebs-skid", pebs_skid, 0x29c2744d6e8152a2ull},
      {"mrk-gap", mrk_gap, 0xd7b2d7a1e40c30c9ull},
  };
  for (const Case& c : cases) {
    const std::uint64_t got = stream_fingerprint(c.config);
    EXPECT_EQ(got, c.expected) << c.name << " digest 0x" << std::hex << got;
  }

  // PEBS-LL's free-running qualifying-event count (Eq. 3's E) reaches
  // the profile through Profiler::snapshot.
  core::ProfilerConfig counted;
  counted.event = pebs_ll;
  core::SessionData data;
  const std::uint64_t pebs_ll_digest = profile_fingerprint(counted, data);
  EXPECT_EQ(data.pebs_ll_events, 10342u);
  EXPECT_EQ(pebs_ll_digest, 0x79c80b3bd767a27aull)
      << "0x" << std::hex << pebs_ll_digest;

  // The watchdog retunes the period mid-run; each retune takes effect at
  // a reload, so the digest pins where reloads read the period.
  core::ProfilerConfig watched;
  watched.event = fingerprint_config(Mechanism::kIbs, 10);
  watched.enable_watchdog = true;
  const std::uint64_t watched_digest = profile_fingerprint(watched, data);
  EXPECT_FALSE(data.degradations.empty());
  EXPECT_EQ(watched_digest, 0x93476f9486b910d3ull)
      << "0x" << std::hex << watched_digest;
}

/// Hands the machine's calls on to a sampler and counts them.
class CallCounter final : public simrt::MachineObserver {
 public:
  explicit CallCounter(Sampler& sampler) : sampler_(sampler) {}
  simrt::Interest interest() const override { return sampler_.interest(); }
  simrt::NextCall on_count(const SimThread& thread, std::uint64_t counted,
                           const simrt::AccessEvent* access) override {
    ++calls;
    return sampler_.on_count(thread, counted, access);
  }
  void on_thread_finish(const SimThread& thread) override {
    sampler_.on_thread_finish(thread);
  }
  std::uint64_t calls = 0;

 private:
  Sampler& sampler_;
};

TEST(SampleStream, SamplersAreCalledOnlyWhenTheyFire) {
  // The machine counts a sampler's events down inline and calls it on a
  // thread's first counted event and at each fire point, so a sampler
  // runs at most once per sample plus once per thread, where it used to
  // run on every access. On the fingerprint workload (periods far denser
  // than record_app's) that is a pinned number of calls, for the same
  // sample streams FingerprintsArePinned pins.
  struct Case {
    const char* name;
    EventConfig config;
    std::uint64_t digest;
    std::uint64_t calls;
  };
  EventConfig mrk = fingerprint_config(Mechanism::kMrk, 3);
  mrk.min_sample_gap = 0;
  // Period 1 fires on every L3 miss, but inside the rate-limit gap no fire
  // can sample, so the machine stays quiet until the gap ends.
  EventConfig mrk_gap = fingerprint_config(Mechanism::kMrk, 1);
  mrk_gap.min_sample_gap = 2'000;
  const Case cases[] = {
      {"ibs", fingerprint_config(Mechanism::kIbs, 50), 0x3e58c9d638570588ull,
       2691},
      {"mrk", mrk, 0x873aa08f75e73582ull, 4779},
      {"mrk-gap", mrk_gap, 0xd7b2d7a1e40c30c9ull, 1180},
  };
  for (const Case& c : cases) {
    const auto sampler = make_sampler(c.config);
    CallCounter counter(*sampler);
    Machine m(test_machine(2, 2));
    m.add_observer(counter);
    StreamHash hash;
    sampler->set_sink([&](const Sample& s) { hash.add(s); });
    fingerprint_workload(m);
    hash.add(sampler->samples_emitted());
    EXPECT_EQ(hash.h, c.digest) << c.name;
    EXPECT_EQ(counter.calls, c.calls) << c.name;
    EXPECT_LE(counter.calls, sampler->samples_emitted() + 4) << c.name;
    EXPECT_LT(counter.calls * 3, m.total_accesses()) << c.name;
  }

  // PEBS-LL's qualifying loads, counted by the machine alone: the count
  // the profile records as Eq. 3's E.
  EventConfig pebs_ll = fingerprint_config(Mechanism::kPebsLl, 7);
  pebs_ll.latency_threshold = 144;
  const auto sampler = make_sampler(pebs_ll);
  Machine m(test_machine(2, 2));
  m.add_observer(*sampler);
  fingerprint_workload(m);
  EXPECT_EQ(m.counted(*sampler), 10342u);
}

TEST(Sampler, StacksAreCopiedIntoSamples) {
  EventConfig cfg = EventConfig::mini(Mechanism::kIbs);
  cfg.period = 10;
  const auto sampler = make_sampler(cfg);

  Machine m(test_machine(1, 1));
  m.add_observer(*sampler);
  std::vector<Sample> samples;
  sampler->set_sink([&](const Sample& s) { samples.push_back(s); });
  const auto main_f = m.frames().intern("main");
  const auto leaf_f = m.frames().intern("leaf");
  m.spawn(
      [=](SimThread& t) -> Task {
        ScopedFrame leaf(t, leaf_f);
        for (int i = 0; i < 200; ++i) t.load(simos::kHeapBase + i * 64);
        co_return;
      },
      std::nullopt, {main_f});
  m.run();
  ASSERT_GT(samples.size(), 5u);
  for (const Sample& s : samples) {
    if (!s.is_memory) continue;
    ASSERT_EQ(s.stack.size(), 2u);
    EXPECT_EQ(s.stack[0], main_f);
    EXPECT_EQ(s.stack[1], leaf_f);
  }
}

}  // namespace
}  // namespace numaprof::pmu
