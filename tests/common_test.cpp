// Unit tests for src/common: units, RNG, statistics, intervals, config,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/interval.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/units.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sketch.hpp"

namespace harl {
namespace {

using namespace harl::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, ParsesPlainBytes) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("512"), 512u);
}

TEST(Units, ParsesBinarySuffixes) {
  EXPECT_EQ(parse_size("64K"), 64 * KiB);
  EXPECT_EQ(parse_size("2M"), 2 * MiB);
  EXPECT_EQ(parse_size("1G"), 1 * GiB);
  EXPECT_EQ(parse_size("3T"), 3 * 1024 * GiB);
}

TEST(Units, ParsesVerboseSuffixes) {
  EXPECT_EQ(parse_size("64KB"), 64 * KiB);
  EXPECT_EQ(parse_size("64KiB"), 64 * KiB);
  EXPECT_EQ(parse_size("64k"), 64 * KiB);
  EXPECT_EQ(parse_size("512B"), 512u);
}

TEST(Units, RejectsMalformedInput) {
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("K"), std::invalid_argument);
  EXPECT_THROW(parse_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_size("12KXB"), std::invalid_argument);
  EXPECT_THROW(parse_size("99999999999999999999G"), std::invalid_argument);
}

TEST(Units, RejectsOverflow) {
  EXPECT_THROW(parse_size("18014398509481984G"), std::invalid_argument);
}

TEST(Units, FormatsExactMultiples) {
  EXPECT_EQ(format_size(64 * KiB), "64K");
  EXPECT_EQ(format_size(2 * MiB), "2M");
  EXPECT_EQ(format_size(3 * GiB), "3G");
  EXPECT_EQ(format_size(1000), "1000");
}

TEST(Units, FormatRoundTripsThroughParse) {
  for (Bytes v : {4_KiB, 36_KiB, 148_KiB, 1_MiB, 7_GiB, Bytes{123}}) {
    EXPECT_EQ(parse_size(format_size(v)), v);
  }
}

TEST(Units, LiteralsMatchConstants) {
  EXPECT_EQ(1_KiB, KiB);
  EXPECT_EQ(1_MiB, MiB);
  EXPECT_EQ(1_GiB, GiB);
}

TEST(Units, FormatsThroughput) {
  EXPECT_EQ(format_throughput(117.0 * 1024 * 1024), "117.0 MB/s");
  EXPECT_EQ(format_throughput(0.0), "0.0 MB/s");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, Uniform01MeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversFullRangeInclusive) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u64(10, 13));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 13u);
}

TEST(Rng, UniformU64SingletonRange) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(5, 5), 5u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  Rng parent2(21);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());
  // Child differs from a fresh parent stream.
  Rng fresh(21);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += child.next() == fresh.next();
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------- stats ----

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
  EXPECT_EQ(rs.cv(), 0.0);
}

TEST(RunningStats, MatchesClosedFormOnKnownSample) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(rs.cv(), 0.4);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
  EXPECT_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, ConstantSampleHasZeroCv) {
  RunningStats rs;
  for (int i = 0; i < 50; ++i) rs.add(512.0);
  EXPECT_DOUBLE_EQ(rs.cv(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, ResetClearsEverything) {
  RunningStats rs;
  rs.add(1.0);
  rs.add(2.0);
  rs.reset();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  // min/max must not leak across a reset: an all-negative second window
  // would otherwise report the stale max from the first.
  EXPECT_EQ(rs.min(), 0.0);
  EXPECT_EQ(rs.max(), 0.0);
  rs.add(-3.0);
  EXPECT_EQ(rs.min(), -3.0);
  EXPECT_EQ(rs.max(), -3.0);
}

TEST(RunningStats, SingleSampleHasZeroCv) {
  RunningStats rs;
  rs.add(7.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.cv(), 0.0);
  EXPECT_EQ(rs.min(), 7.5);
  EXPECT_EQ(rs.max(), 7.5);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats rs;
  const double base = 1e12;
  for (double x : {base + 1, base + 2, base + 3}) rs.add(x);
  EXPECT_NEAR(rs.mean(), base + 2, 1e-3);
  EXPECT_NEAR(rs.variance(), 2.0 / 3.0, 1e-6);
}

TEST(Summarize, AgreesWithRunningStats) {
  std::vector<double> xs = {1, 5, 2, 8, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.8);
  EXPECT_DOUBLE_EQ(s.sum, 19.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 8.0);
}

TEST(Percentile, HandlesEdgesAndInterpolation) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

// ------------------------------------------------------- quantile sketch ----

// The metrics registry builds sketches at two resolutions: kHistogramSubBits
// for histogram families and the recorder's wait/service tracks,
// kSketchSubBits for sketch families.  Each single-sketch check below runs
// at both: the LogHistogram suite, named after the type the 5-bit sketches
// replaced, at kHistogramSubBits, and the QuantileSketch suite at
// kSketchSubBits.  The merge checks loop over both.
constexpr unsigned kSubBits[] = {obs::MetricsRegistry::kHistogramSubBits,
                                 obs::MetricsRegistry::kSketchSubBits};

void check_envelope_and_body(unsigned bits) {
  obs::QuantileSketch s(bits);
  for (double x : {1e-6, 3e-3, 3e-3, 0.5, 12.0}) s.add(x);
  EXPECT_EQ(s.sub_bits(), bits);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1e-6);
  EXPECT_DOUBLE_EQ(s.max(), 12.0);
  EXPECT_DOUBLE_EQ(s.sum(), 1e-6 + 3e-3 + 3e-3 + 0.5 + 12.0);
  // Quantiles interpolate inside a log bucket: relative error bounded by
  // 1/2^sub_bits, and always inside the exact [min, max] envelope.
  EXPECT_NEAR(s.percentile(50.0), 3e-3, 3e-3 / (1 << s.sub_bits()));
  EXPECT_GE(s.quantile(0.0), s.min());
  EXPECT_LE(s.quantile(1.0), s.max());
  EXPECT_LE(s.percentile(99.0), s.percentile(99.9));
}

TEST(LogHistogram, TracksExactEnvelopeAndBucketedBody) {
  check_envelope_and_body(obs::MetricsRegistry::kHistogramSubBits);
}

TEST(QuantileSketch, TracksExactEnvelopeAndBucketedBody) {
  check_envelope_and_body(obs::MetricsRegistry::kSketchSubBits);
}

void check_non_positives(unsigned bits) {
  obs::QuantileSketch s(bits);
  s.add(0.0);
  s.add(-1.5);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.non_positive(), 2u);
  std::uint64_t bucketed = 0;
  for (const auto& b : s.buckets()) bucketed += b.count;
  EXPECT_EQ(bucketed, 1u);
  // Non-positives sort below every bucket at the value 0: the median of
  // {-1.5, 0, 2} is exactly 0.
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
}

TEST(LogHistogram, CountsNonPositivesSeparately) {
  check_non_positives(obs::MetricsRegistry::kHistogramSubBits);
}

TEST(QuantileSketch, CountsNonPositivesSeparately) {
  check_non_positives(obs::MetricsRegistry::kSketchSubBits);
}

void check_buckets_contain_samples(unsigned bits) {
  // Every sample must land in exactly one exported bucket whose [lo, hi)
  // bounds contain it, and bucket counts must sum to count().
  obs::QuantileSketch s(bits);
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(1e-5 * i * i);
  for (double x : xs) s.add(x);
  std::uint64_t total = 0;
  for (const auto& b : s.buckets()) {
    EXPECT_LT(b.lo, b.hi);
    total += b.count;
  }
  EXPECT_EQ(total, s.count());
  for (double x : xs) {
    bool contained = false;
    for (const auto& b : s.buckets()) {
      if (x >= b.lo && x < b.hi) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "sample " << x << " in no bucket";
  }
}

TEST(LogHistogram, SummaryRoundTripsThroughBuckets) {
  check_buckets_contain_samples(obs::MetricsRegistry::kHistogramSubBits);
}

TEST(QuantileSketch, BucketsContainEverySample) {
  check_buckets_contain_samples(obs::MetricsRegistry::kSketchSubBits);
}

/// Shards `xs` three ways, merges them as a·b·c and c·b·a, and returns both.
std::pair<obs::QuantileSketch, obs::QuantileSketch> merge_both_ways(
    const std::vector<double>& xs, unsigned bits) {
  obs::QuantileSketch a(bits), b(bits), c(bits);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(xs[i]);
  }
  obs::QuantileSketch abc = a;
  abc.merge(b);
  abc.merge(c);
  obs::QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  return {abc, cba};
}

TEST(QuantileSketch, StateIsAPureFunctionOfTheSampleMultiset) {
  // The property the MetricsRegistry's merge relies on: sharding a stream
  // and merging in ANY order reproduces the single-stream sketch exactly —
  // default operator==, every member.  Dyadic sample values keep the sum
  // bit-exact under reassociation, so even sum_ must match.
  for (const unsigned bits : kSubBits) {
    SCOPED_TRACE(bits);
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i) xs.push_back(0.25 * i);
    obs::QuantileSketch whole(bits);
    for (double x : xs) whole.add(x);
    const auto [abc, cba] = merge_both_ways(xs, bits);
    EXPECT_EQ(abc, whole);
    EXPECT_EQ(cba, whole);
    // Growth must stay exact: no amortized slack may leak into the state.
    EXPECT_EQ(abc.buckets().size(), whole.buckets().size());
  }
}

TEST(QuantileSketch, NonDyadicMergeDiffersOnlyInSumRounding) {
  // Summing doubles is not associative, so for arbitrary samples only the
  // sum may differ (by rounding) between merge orders; the buckets, the
  // counts and the envelope still match the single stream exactly.
  for (const unsigned bits : kSubBits) {
    SCOPED_TRACE(bits);
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i) xs.push_back(0.37 * i);
    obs::QuantileSketch whole(bits);
    for (double x : xs) whole.add(x);
    const auto [abc, cba] = merge_both_ways(xs, bits);
    for (const obs::QuantileSketch* merged : {&abc, &cba}) {
      EXPECT_EQ(merged->count(), whole.count());
      EXPECT_EQ(merged->non_positive(), whole.non_positive());
      EXPECT_EQ(merged->min(), whole.min());
      EXPECT_EQ(merged->max(), whole.max());
      const auto mb = merged->buckets();
      const auto wb = whole.buckets();
      ASSERT_EQ(mb.size(), wb.size());
      for (std::size_t i = 0; i < mb.size(); ++i) {
        EXPECT_EQ(mb[i].lo, wb[i].lo);
        EXPECT_EQ(mb[i].count, wb[i].count);
      }
      EXPECT_NEAR(merged->sum(), whole.sum(), 1e-9 * whole.sum());
    }
  }
}

void check_cross_thread_merge(unsigned bits) {
  // Shards filled concurrently at several pool widths, merged in index
  // order, must be bit-identical to serially filled shards — thread
  // interleaving must leave no residue (the parallel-replica guarantee).
  constexpr int kShards = 4;
  constexpr int kPerShard = 5000;
  auto fill = [](obs::QuantileSketch& s, int t) {
    for (int i = 0; i < kPerShard; ++i) {
      s.add(1e-4 * (static_cast<double>(t) * kPerShard + i + 1));
    }
  };
  std::vector<obs::QuantileSketch> serial_shards(kShards,
                                                 obs::QuantileSketch(bits));
  for (int t = 0; t < kShards; ++t) fill(serial_shards[t], t);
  obs::QuantileSketch serial(bits);
  for (const auto& s : serial_shards) serial.merge(s);

  for (const std::size_t width : {1u, 2u, 4u, 7u}) {
    std::vector<obs::QuantileSketch> shards(kShards, obs::QuantileSketch(bits));
    {
      ThreadPool pool(width);
      pool.parallel_for(kShards, [&](std::size_t t) {
        fill(shards[t], static_cast<int>(t));
      });
    }
    obs::QuantileSketch merged(bits);
    for (const auto& s : shards) merged.merge(s);
    EXPECT_EQ(merged, serial) << "pool width " << width;
  }
  EXPECT_EQ(serial.count(), static_cast<std::uint64_t>(kShards) * kPerShard);
}

TEST(LogHistogram, CrossThreadMergeIsDeterministic) {
  check_cross_thread_merge(obs::MetricsRegistry::kHistogramSubBits);
}

TEST(QuantileSketch, CrossThreadMergeIsDeterministic) {
  check_cross_thread_merge(obs::MetricsRegistry::kSketchSubBits);
}

void check_reset(unsigned bits) {
  obs::QuantileSketch s(bits);
  s.add(4.0);
  s.add(-1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.non_positive(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s, obs::QuantileSketch(bits));  // resolution survives reset
}

TEST(LogHistogram, ResetForgetsEverything) {
  check_reset(obs::MetricsRegistry::kHistogramSubBits);
}

TEST(QuantileSketch, ResetForgetsEverything) {
  check_reset(obs::MetricsRegistry::kSketchSubBits);
}

TEST(QuantileSketch, RejectsMismatchedMergeAndExcessiveResolution) {
  EXPECT_THROW(obs::QuantileSketch(13), std::invalid_argument);
  obs::QuantileSketch coarse(kSubBits[0]), fine(kSubBits[1]);
  coarse.add(1.0);
  fine.add(1.0);
  EXPECT_THROW(coarse.merge(fine), std::invalid_argument);
  EXPECT_THROW(fine.merge(coarse), std::invalid_argument);
}

TEST(QuantileSketch, OnePassQuantilesEqualQuantileBitForBit) {
  // quantiles() resumes one bucket walk from q to q; every value must be
  // the double quantile() computes on its own, for any sample mix: empty,
  // a single sample, non-positives below every bucket, ties on one bucket
  // and q at the ends.
  const std::vector<double> qs = {0.0,  0.001, 0.25, 0.5, 0.5,
                                  0.95, 0.99,  0.999, 1.0};
  std::mt19937_64 rng(23);
  std::lognormal_distribution<double> body(-7.0, 2.0);
  for (const unsigned bits : kSubBits) {
    for (int trial = 0; trial < 40; ++trial) {
      obs::QuantileSketch s(bits);
      const int n = trial == 0 ? 0 : trial == 1 ? 1 : 1 + trial * 37;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t kind = rng() % 10;
        s.add(kind == 0 ? 0.0 : kind == 1 ? 3e-3 : body(rng));
      }
      std::vector<double> got(qs.size());
      s.quantiles(qs, got);
      for (std::size_t k = 0; k < qs.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(s.quantile(qs[k])))
            << "bits " << bits << " n " << n << " q " << qs[k];
      }
    }
  }
  obs::QuantileSketch s;
  std::vector<double> out(2);
  const std::vector<double> descending = {0.9, 0.1};
  EXPECT_THROW(s.quantiles(descending, out), std::invalid_argument);
  const std::vector<double> outside = {0.1, 1.5};
  EXPECT_THROW(s.quantiles(outside, out), std::invalid_argument);
  std::vector<double> short_out(1);
  EXPECT_THROW(s.quantiles(qs, short_out), std::invalid_argument);
}

/// [lo, hi) of the bucket holding x > 0, from the frexp definition: x =
/// m * 2^e with m in [0.5, 1), cell = floor((2m - 1) * 2^bits).
std::pair<double, double> frexp_bucket(double x, unsigned bits) {
  int e = 0;
  const double m = std::frexp(x, &e);
  const int sub = 1 << bits;
  const int cell =
      std::clamp(static_cast<int>((m * 2.0 - 1.0) * sub), 0, sub - 1);
  const auto low = [sub](int exp, int c) {
    return std::ldexp(1.0 + static_cast<double>(c) / sub, exp - 1);
  };
  return {low(e, cell), cell + 1 == sub ? std::ldexp(1.0, e)
                                        : low(e, cell + 1)};
}

TEST(QuantileSketch, BucketIndexMatchesFrexpAtEveryResolution) {
  // The sketch reads the bucket from a normal double's exponent and top
  // mantissa bits; it must agree with the frexp arithmetic everywhere,
  // including the subnormals it hands to frexp and the extremes.
  std::vector<double> xs = {std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::nextafter(std::numeric_limits<double>::min(),
                                           0.0),
                            1.0, 1.5, 3.0, 1e-3, 0.1};
  for (int k = -1074; k <= 1023; ++k) {
    const double p = std::ldexp(1.0, k);
    xs.insert(xs.end(), {p, std::nextafter(p, 0.0),
                         std::nextafter(p, HUGE_VAL)});
  }
  std::mt19937_64 rng(17);
  for (int i = 0; i < 4000; ++i) {
    // Random bit patterns with the sign cleared: normals of every exponent
    // plus whatever subnormals land; inf/NaN patterns are skipped.
    const double x = std::bit_cast<double>(rng() >> 1);
    if (std::isfinite(x) && x > 0.0) xs.push_back(x);
  }
  for (int i = 0; i < 200; ++i) {  // subnormals
    xs.push_back(std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (unsigned bits = 0; bits <= 12; ++bits) {
    for (double x : xs) {
      if (!(x > 0.0)) continue;
      obs::QuantileSketch s(bits);
      s.add(x);
      const auto buckets = s.buckets();
      ASSERT_EQ(buckets.size(), 1u);
      const auto [lo, hi] = frexp_bucket(x, bits);
      ASSERT_EQ(buckets[0].lo, lo) << "x=" << x << " bits=" << bits;
      ASSERT_EQ(buckets[0].hi, hi) << "x=" << x << " bits=" << bits;
      if (x >= std::numeric_limits<double>::min()) {
        // Subnormal bucket bounds round; normal ones are exact.
        ASSERT_LE(lo, x);
        ASSERT_LT(x, hi);
      }
    }
    // +inf is clamped to DBL_MAX before bucketing.
    obs::QuantileSketch s(bits);
    s.add(HUGE_VAL);
    const auto [lo, hi] =
        frexp_bucket(std::numeric_limits<double>::max(), bits);
    ASSERT_EQ(s.buckets().size(), 1u);
    EXPECT_EQ(s.buckets()[0].lo, lo);
    EXPECT_EQ(s.buckets()[0].hi, hi);
  }
}

// ------------------------------------------------------------- interval ----

TEST(Interval, BasicPredicates) {
  const ByteInterval iv{10, 20};
  EXPECT_EQ(iv.length(), 10u);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(10));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_TRUE(iv.contains(ByteInterval{12, 18}));
  EXPECT_FALSE(iv.contains(ByteInterval{12, 21}));
  EXPECT_TRUE(iv.contains(ByteInterval{5, 5}));  // empty is contained
}

TEST(Interval, OverlapAndIntersection) {
  const ByteInterval a{0, 10};
  const ByteInterval b{5, 15};
  const ByteInterval c{10, 20};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // half-open: touching is disjoint
  EXPECT_EQ(intersect(a, b), (ByteInterval{5, 10}));
  EXPECT_TRUE(intersect(a, c).empty());
}

TEST(Interval, IntervalOfBuildsHalfOpenRange) {
  EXPECT_EQ(interval_of(100, 50), (ByteInterval{100, 150}));
  EXPECT_TRUE(interval_of(100, 0).empty());
}

// --------------------------------------------------------------- config ----

TEST(Config, ParsesKeyValuePairs) {
  const auto cfg = Config::from_args({"a=1", "b=hello", "size=64K"});
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_or("b", ""), "hello");
  EXPECT_EQ(cfg.get_size("size", 0), 64 * KiB);
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
}

TEST(Config, LaterDuplicatesWin) {
  const auto cfg = Config::from_args({"x=1", "x=2"});
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, BooleansAcceptCommonSpellings) {
  const auto cfg = Config::from_args({"t=yes", "f=OFF"});
  EXPECT_TRUE(cfg.get_bool("t", false));
  EXPECT_FALSE(cfg.get_bool("f", true));
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

TEST(Config, RejectsMalformedEntries) {
  EXPECT_THROW(Config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"=x"}), std::invalid_argument);
  const auto cfg = Config::from_args({"b=maybe"});
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Config, TypedGettersConsumeTheWholeValueAndNameTheKey) {
  const auto cfg = Config::from_args(
      {"procs=16x", "spread=2x", "threads=abc", "file=1Gx", "health=yes",
       "nan=nan", "empty=", "ok=-3", "d=0.125"});
  EXPECT_EQ(invalid_argument_message([&] { cfg.get_int("procs", 0); })
                .rfind("procs: ", 0),
            0u);
  EXPECT_EQ(invalid_argument_message([&] { cfg.get_double("spread", 0); })
                .rfind("spread: ", 0),
            0u);
  EXPECT_NE(invalid_argument_message([&] { cfg.get_int("threads", 0); })
                .find("threads"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] { cfg.get_size("file", 0); })
                .find("file"),
            std::string::npos);
  EXPECT_THROW(cfg.get_double("nan", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("empty", 0), std::invalid_argument);
  EXPECT_TRUE(cfg.get_bool("health", false));
  EXPECT_EQ(cfg.get_int("ok", 0), -3);
  EXPECT_EQ(cfg.get_double("d", 0), 0.125);
}

TEST(Config, ParseUintTakesDigitsOnly) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_uint(bad), std::invalid_argument) << "'" << bad << "'";
  }
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string runtime_error_message(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(FieldReader, ReadsEveryFieldStrictly) {
  FieldReader row("test CSV", 3, "read,7,0.5,a,b");
  EXPECT_EQ(row.text("op"), "read");
  EXPECT_EQ(row.u64("size", 7), 7u);
  EXPECT_EQ(row.number("t"), 0.5);
  EXPECT_TRUE(row.more());
  EXPECT_EQ(row.rest("name"), "a,b");
  EXPECT_FALSE(row.more());
  EXPECT_NO_THROW(row.end());
  FieldReader spaced("RST", 2, "0 4096", ' ');
  EXPECT_EQ(spaced.u64("offset"), 0u);
  EXPECT_EQ(spaced.u64("stripe"), 4096u);
  spaced.end();
}

TEST(FieldReader, ErrorsNameTheFormatLineAndField) {
  EXPECT_EQ(runtime_error_message([] {
              FieldReader("trace CSV", 3, "16x").u64("size");
            }),
            "trace CSV line 3, size: '16x' is not an unsigned integer");
  EXPECT_EQ(runtime_error_message([] {
              FieldReader("plan CSV", 4, "nan").number("factor");
            }),
            "plan CSV line 4, factor: 'nan' is not a finite number");
  EXPECT_EQ(runtime_error_message([] {
              FieldReader("plan CSV", 5, "9").u64("tier", 1);
            }),
            "plan CSV line 5, tier: 9 exceeds 1");
  EXPECT_EQ(runtime_error_message([] {
              FieldReader row("RST", 6, "1", ' ');
              row.u64("offset");
              row.u64("stripe");
            }),
            "RST line 6, stripe: missing");
  EXPECT_EQ(runtime_error_message([] {
              FieldReader row("trace CSV", 7, "1,2,");
              row.u64("pid");
              row.end();
            }),
            "trace CSV line 7: unexpected field '2'");
  // A trailing delimiter leaves one empty field, which is not a number.
  EXPECT_EQ(runtime_error_message([] {
              FieldReader row("trace CSV", 8, "1,");
              row.u64("pid");
              row.u64("rank");
            }),
            "trace CSV line 8, rank: '' is not an unsigned integer");
}

TEST(LittleEndian, RoundTripsEveryFieldTypeAndReportsTruncation) {
  std::stringstream ss;
  write_le<std::uint8_t>(ss, 0xab);
  write_le<std::uint32_t>(ss, 0x01020304u);
  write_le<std::uint64_t>(ss, 0x0102030405060708ull);
  write_le(ss, -0.375);
  EXPECT_EQ(ss.str().substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(read_le<std::uint8_t>(ss, "f"), 0xab);
  EXPECT_EQ(read_le<std::uint32_t>(ss, "f"), 0x01020304u);
  EXPECT_EQ(read_le<std::uint64_t>(ss, "f"), 0x0102030405060708ull);
  EXPECT_EQ(read_le<double>(ss, "f"), -0.375);
  EXPECT_EQ(runtime_error_message([&] { read_le<std::uint32_t>(ss, "thing"); }),
            "truncated thing");
}

// -------------------------------------------------------------- options ----

constexpr const char* kTestMode = "big";
void check_ab(const std::string& value) {
  if (value != "a" && value != "b") throw std::invalid_argument("not a or b");
}

const OptionSpec kTestOptions[] = {
    {.name = "count", .kind = OptionKind::kInt, .fallback = "4",
     .help = "a count", .min = 1, .modes = {{kTestMode, "64"}}},
    {.name = "ratio", .kind = OptionKind::kDouble, .fallback = "0.5",
     .help = "a fraction\nsecond help line", .min = 0, .max = 1,
     .min_open = true},
    {.name = "size", .kind = OptionKind::kSize, .fallback = "1M",
     .help = "a size"},
    {.name = "flag", .kind = OptionKind::kFlag, .fallback = "0",
     .help = "a flag"},
    {.name = "mode", .kind = OptionKind::kString, .fallback = "a",
     .help = "a choice", .check = check_ab},
    {.name = "items", .kind = OptionKind::kList, .fallback = "x,y",
     .help = "a list"},
};

TEST(Options, DefaultsComeFromTheRowsAndTheSelectedMode) {
  Options opts(kTestOptions, {});
  EXPECT_EQ(opts.get_int("count"), 4);
  EXPECT_EQ(opts.get_double("ratio"), 0.5);
  EXPECT_EQ(opts.get_size("size"), MiB);
  EXPECT_FALSE(opts.get_flag("flag"));
  EXPECT_EQ(opts.get_string("mode"), "a");
  EXPECT_EQ(opts.get_list("items"), (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(opts.given("count"));
  opts.select_mode(kTestMode);
  EXPECT_EQ(opts.get_int("count"), 64);
}

TEST(Options, GivenValuesWinOverEveryDefault) {
  Options opts(kTestOptions,
               {"count=9", "flag=yes", "items=p,,q", "mode=b", "size=4K"});
  opts.select_mode(kTestMode);
  EXPECT_TRUE(opts.given("count"));
  EXPECT_EQ(opts.get_int("count"), 9);
  EXPECT_TRUE(opts.get_flag("flag"));
  EXPECT_EQ(opts.get_list("items"), (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(opts.get_string("mode"), "b");
  EXPECT_EQ(opts.get_size("size"), 4 * KiB);
}

TEST(Options, RejectsUnknownMalformedAndOutOfRangeValuesNamingTheKey) {
  const auto error = [](std::vector<std::string> args) {
    return invalid_argument_message([&] { Options(kTestOptions, args); });
  };
  const std::string unknown = error({"cuont=3"});
  EXPECT_NE(unknown.find("cuont"), std::string::npos);
  EXPECT_NE(unknown.find("valid keys: count, ratio"), std::string::npos);
  EXPECT_EQ(error({"count=16x"}).rfind("count: ", 0), 0u);
  EXPECT_EQ(error({"count=0"}), "count: 0 must be >= 1");
  EXPECT_EQ(error({"count=-1"}), "count: -1 must be >= 1");
  EXPECT_EQ(error({"count=0", "count=4"}), "count: 0 must be >= 1");
  EXPECT_EQ(error({"ratio=0"}), "ratio: 0 must be in (0, 1]");
  EXPECT_EQ(error({"ratio=1.5"}), "ratio: 1.5 must be in (0, 1]");
  EXPECT_EQ(error({"ratio=nan"}).rfind("ratio: ", 0), 0u);
  EXPECT_EQ(error({"flag=2"}).rfind("flag: ", 0), 0u);
  EXPECT_EQ(error({"mode=c"}), "mode: not a or b");
  EXPECT_EQ(error({"ratio=1"}), "");
}

TEST(Options, RejectsATableWhoseDefaultBreaksItsOwnRow) {
  const OptionSpec broken[] = {{.name = "n", .kind = OptionKind::kInt,
                                .fallback = "0", .help = "h", .min = 1}};
  EXPECT_THROW(Options(broken, {}), std::invalid_argument);
}

TEST(Options, PathRejectsTheKeyValueFormOfAnOption) {
  EXPECT_EQ(Options::path("t.trace"), "t.trace");
  EXPECT_EQ(Options::path("./out=t.trace"), "./out=t.trace");
  EXPECT_EQ(Options::path("dir/a=b.csv"), "dir/a=b.csv");
  EXPECT_EQ(Options::path("=t.trace"), "=t.trace");
  const std::string error =
      invalid_argument_message([] { Options::path("out=t.trace"); });
  EXPECT_EQ(error.rfind("'out=t.trace' is a key=value option", 0), 0u);
  EXPECT_THROW(Options::path("out=dir/t.trace"), std::invalid_argument);
}

TEST(Options, HelpPrintsEveryRowWithItsDefaultsAndRange) {
  const std::string help = describe_options(kTestOptions);
  EXPECT_NE(help.find("  count        a count (4, big: 64; >= 1)\n"),
            std::string::npos);
  EXPECT_NE(help.find("  ratio        a fraction\n"
                      "               second help line (0.5; (0, 1])\n"),
            std::string::npos);
  EXPECT_NE(help.find("  mode         a choice (a)\n"), std::string::npos);
  EXPECT_NE(help.find("  items        a list (x,y)\n"), std::string::npos);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitExceptionsSurfaceThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // parallel_for is work-helping: the caller claims iterations itself, so
  // an inner parallel_for on the same pool always makes progress even when
  // every pool thread is blocked inside the outer loop.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 1 && inner == 2) {
                              throw std::runtime_error("inner boom");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForCompletesRemainingWorkAfterThrow) {
  // One failing iteration must not strand the others: every index is still
  // visited exactly once, then the first exception is rethrown.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   hits[i]++;
                                   if (i % 17 == 0) {
                                     throw std::runtime_error("sparse boom");
                                   }
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace harl
