#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "support/env.hpp"
#include "support/flat_index.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace numaprof::support {
namespace {

TEST(Crc32, MatchesCanonicalVectors) {
  // IEEE 802.3 / zlib check values; these are persisted in binary
  // profiles and ingest frames, so they can never change.
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, ChainedEqualsOneShotAtEverySplit) {
  // The slicing-by-8 fast path kicks in at 8-byte granularity; splitting
  // at every offset crosses the fast/tail boundary in both halves.
  const std::string message = "columnar profiles checksum in sections!";
  const std::uint32_t whole = crc32(message);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    EXPECT_EQ(crc32(message.substr(split), crc32(message.substr(0, split))),
              whole)
        << "split at " << split;
  }
}

TEST(FlatIndex, FindsWhatItAddedAcrossGrowthAndSameHashes) {
  // The owner's keys live outside the index; ids name them. Every key
  // here hashes to one of four values, so probes must ask the owner.
  std::vector<std::uint64_t> keys = {0};  // id 0 is never stored
  const auto hash_of = [](std::uint64_t key) { return key % 4; };
  FlatIndex index;
  const auto add = [&](std::uint64_t key) {
    const auto id = static_cast<std::uint32_t>(keys.size());
    const std::uint32_t got =
        index.find_or_add(hash_of(key), id,
                          [&](std::uint32_t i) { return keys[i] == key; });
    if (got == id) keys.push_back(key);
    return got;
  };
  const auto find = [&](std::uint64_t key) {
    return index.find(hash_of(key),
                      [&](std::uint32_t i) { return keys[i] == key; });
  };
  EXPECT_EQ(find(5), 0u);
  for (std::uint64_t key = 100; key < 400; ++key) {
    EXPECT_EQ(add(key), key - 99);
  }
  for (std::uint64_t key = 100; key < 400; ++key) {
    EXPECT_EQ(add(key), key - 99);
    EXPECT_EQ(find(key), key - 99);
  }
  EXPECT_EQ(find(400), 0u);
  EXPECT_EQ(index.size(), 300u);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);  // sanity: covers the interval
  EXPECT_GT(max, 0.95);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool(0.25);
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator left, right, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 1.7 - 20;
    (i % 2 ? left : right).add(v);
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Accumulator b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, OfUnsorted) {
  EXPECT_DOUBLE_EQ(percentile_of({3, 1, 2}, 100), 3.0);
}

TEST(Imbalance, UniformIsOne) {
  const std::vector<std::uint64_t> even = {10, 10, 10, 10};
  EXPECT_DOUBLE_EQ(imbalance(even), 1.0);
}

TEST(Imbalance, CentralizedIsDomainCount) {
  const std::vector<std::uint64_t> one = {40, 0, 0, 0};
  EXPECT_DOUBLE_EQ(imbalance(one), 4.0);
}

TEST(Imbalance, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(imbalance({}), 1.0);
  const std::vector<std::uint64_t> zeros = {0, 0};
  EXPECT_DOUBLE_EQ(imbalance(zeros), 1.0);
}

TEST(Table, TextAlignsAndSeparates) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  // Numeric column right-aligned: "22" ends at same column as " 1".
  std::istringstream is(text);
  std::string header, sep, row1, row2;
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(row1.size(), row2.size());
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.to_text().find("only"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_fixed(1.2345, 2), "1.23");
  EXPECT_EQ(format_percent(0.5), "50.0%");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12), "12");
  EXPECT_EQ(format_count(123), "123");
  EXPECT_EQ(format_count(1234), "1,234");
}

TEST(LooksNumeric, Classification) {
  EXPECT_TRUE(looks_numeric("123"));
  EXPECT_TRUE(looks_numeric("-1.5%"));
  EXPECT_TRUE(looks_numeric("1,234"));
  EXPECT_FALSE(looks_numeric("abc"));
  EXPECT_FALSE(looks_numeric(""));
  EXPECT_FALSE(looks_numeric("..."));
}

TEST(Env, IntParsingAndFallback) {
  ::setenv("NUMAPROF_TEST_ENV", "42", 1);
  EXPECT_EQ(env_int("NUMAPROF_TEST_ENV").value(), 42);
  EXPECT_EQ(env_int_or("NUMAPROF_TEST_ENV", 5), 42);
  ::setenv("NUMAPROF_TEST_ENV", "junk", 1);
  EXPECT_FALSE(env_int("NUMAPROF_TEST_ENV").has_value());
  EXPECT_EQ(env_int_or("NUMAPROF_TEST_ENV", 5), 5);
  ::unsetenv("NUMAPROF_TEST_ENV");
  EXPECT_FALSE(env_string("NUMAPROF_TEST_ENV").has_value());
  EXPECT_EQ(env_int_or("NUMAPROF_TEST_ENV", 7), 7);
  // Lower bound clamps.
  ::setenv("NUMAPROF_TEST_ENV", "-3", 1);
  EXPECT_EQ(env_int_or("NUMAPROF_TEST_ENV", 5, 1), 1);
  ::unsetenv("NUMAPROF_TEST_ENV");
}

}  // namespace
}  // namespace numaprof::support
