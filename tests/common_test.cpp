// Unit tests for common utilities: error macros, RNG, stats, units, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace prs {
namespace {

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(PRS_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(PRS_REQUIRE(true, "ok"));
}

TEST(Error, CheckThrowsInternalError) {
  EXPECT_THROW(PRS_CHECK(false, "bug"), InternalError);
}

TEST(Error, MessageContainsLocationAndText) {
  try {
    PRS_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(r.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng r(11);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50000; ++i) counts[r.uniform_index(5)]++;
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
  EXPECT_THROW(r.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng r(42);
  StatsAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParamsScales) {
  Rng r(42);
  StatsAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next() == c2.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, DiscardEqualsNextCalls) {
  for (const std::uint64_t k : {0u, 1u, 2u, 1000u}) {
    Rng a(31), b(31);
    a.normal();  // a pending cached normal must stay pending
    b.normal();
    a.discard(k);
    for (std::uint64_t i = 0; i < k; ++i) b.next();
    EXPECT_TRUE(a == b) << "k=" << k;
    EXPECT_EQ(a.normal(), b.normal()) << "k=" << k;
    EXPECT_EQ(a.next(), b.next()) << "k=" << k;
  }
}

TEST(Rng, EqualityIgnoresAConsumedCachedNormalButNotAPendingOne) {
  // a's cache holds a stale, consumed value; b never cached one.
  Rng a(5), b(5);
  a.normal();
  a.normal();
  b.discard(2);
  EXPECT_TRUE(a == b);

  // Same state, but only c holds a pending normal.
  Rng c(5);
  c.normal();
  EXPECT_FALSE(c == b);

  // Same state, both pending, different values; equal again once both
  // values are consumed.
  Rng d(5), e(5);
  d.discard(2);
  d.normal();
  e.normal();
  e.discard(2);
  EXPECT_FALSE(d == e);
  d.normal();
  e.normal();
  EXPECT_TRUE(d == e);
}

TEST(Stats, AccumulatorBasics) {
  StatsAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatsAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
  EXPECT_THROW(percentile(xs, 101), InvalidArgument);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 10.0), 0.0);
  EXPECT_GT(relative_error(1.0, 0.0), 1e6);  // guarded by eps
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::gb_per_s(8.0), 8e9);
  EXPECT_DOUBLE_EQ(units::gflops(1.5), 1.5e9);
  EXPECT_DOUBLE_EQ(units::usec(3.0), 3e-6);
  EXPECT_DOUBLE_EQ(units::msec(3.0), 3e-3);
}

TEST(Units, TimeFormatting) {
  EXPECT_EQ(units::format_time(2.0), "2 s");
  EXPECT_EQ(units::format_time(2e-3), "2 ms");
  EXPECT_EQ(units::format_time(2e-6), "2 us");
  EXPECT_EQ(units::format_time(2e-9), "2 ns");
}

TEST(Units, ByteAndRateFormatting) {
  EXPECT_EQ(units::format_bytes(2048), "2 KiB");
  EXPECT_EQ(units::format_flops(1.03e12), "1.03 Tflop/s");
  EXPECT_EQ(units::format_bandwidth(4e10), "40 GB/s");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, NumFormatsCompactly) {
  EXPECT_EQ(TextTable::num(2.5), "2.5");
  EXPECT_EQ(TextTable::num(1234.5678, 6), "1234.57");
}

}  // namespace
}  // namespace prs
