// Validation of the HARL access cost model (paper Section III-D):
//  * exact sub-request geometry vs a brute-force byte walk (property sweep);
//  * the paper's Fig. 5 closed form for case (a);
//  * Eq. 3/4 expected-maximum startup;
//  * Eq. 7/8 cost structure and read/write asymmetry;
//  * the k = 2 closed-form fast path against Eq. 7/8 over the brute-force
//    geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/closed_form.hpp"
#include "src/core/cost_memo.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

using Stripes = std::vector<Bytes>;

/// The exact geometry of a two-tier layout, in paper Fig. 5's terms.
SubreqGeometry two_tier_geometry(Bytes o, Bytes r, StripePair hs, std::size_t M,
                                std::size_t N) {
  const std::vector<std::size_t> counts{M, N};
  const auto g = tiered_geometry(o, r, counts, Stripes{hs.h, hs.s});
  return SubreqGeometry{g[0].max_bytes, g[1].max_bytes, g[0].touched,
                        g[1].touched};
}

TEST(Geometry, ZeroRequestTouchesNothing) {
  const auto g = two_tier_geometry(123, 0, {64 * KiB, 64 * KiB}, 6, 2);
  EXPECT_EQ(g, (SubreqGeometry{0, 0, 0, 0}));
}

TEST(Geometry, SmallRequestLandsOnOneServer) {
  // 4 KiB at offset 0 with 64 KiB stripes: one HServer only.
  const auto g = two_tier_geometry(0, 4 * KiB, {64 * KiB, 64 * KiB}, 6, 2);
  EXPECT_EQ(g.m, 1u);
  EXPECT_EQ(g.n, 0u);
  EXPECT_EQ(g.s_m, 4 * KiB);
  EXPECT_EQ(g.s_n, 0u);
}

TEST(Geometry, FullPeriodTouchesEveryServerOnce) {
  const StripePair hs{64 * KiB, 256 * KiB};
  const Bytes S = 6 * hs.h + 2 * hs.s;
  const auto g = two_tier_geometry(0, S, hs, 6, 2);
  EXPECT_EQ(g.m, 6u);
  EXPECT_EQ(g.n, 2u);
  EXPECT_EQ(g.s_m, hs.h);
  EXPECT_EQ(g.s_n, hs.s);
}

TEST(Geometry, SserverOnlyLayout) {
  // h = 0: the {0K, 64K} layout of paper Section IV-B.3.
  const auto g = two_tier_geometry(0, 128 * KiB, {0, 64 * KiB}, 6, 2);
  EXPECT_EQ(g.m, 0u);
  EXPECT_EQ(g.n, 2u);
  EXPECT_EQ(g.s_m, 0u);
  EXPECT_EQ(g.s_n, 64 * KiB);
}

TEST(Geometry, MultiPeriodAggregatesPerServer) {
  // 2 servers, stripe 100 each, request of 3 full periods: 300 bytes/server.
  const auto g = two_tier_geometry(0, 600, {100, 100}, 1, 1);
  EXPECT_EQ(g.s_m, 300u);
  EXPECT_EQ(g.s_n, 300u);
}

TEST(Geometry, RejectsZeroPeriod) {
  EXPECT_THROW(two_tier_geometry(0, 10, {0, 0}, 6, 2), std::invalid_argument);
}

struct GeometryCase {
  std::size_t M;
  std::size_t N;
  Bytes h;
  Bytes s;
};

class GeometryMatchesBruteForce : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(GeometryMatchesBruteForce, OnRandomRequests) {
  const GeometryCase c = GetParam();
  Rng rng(c.M * 7919 + c.N * 104729 + c.h * 31 + c.s);
  const Bytes S = c.M * c.h + c.N * c.s;
  for (int i = 0; i < 400; ++i) {
    const Bytes offset = rng.uniform_u64(0, 20 * S);
    const Bytes size = rng.uniform_u64(1, 8 * S);
    const auto exact = two_tier_geometry(offset, size, {c.h, c.s}, c.M, c.N);
    const auto brute =
        request_geometry_reference(offset, size, {c.h, c.s}, c.M, c.N);
    ASSERT_EQ(exact, brute) << "o=" << offset << " r=" << size << " M=" << c.M
                            << " N=" << c.N << " h=" << c.h << " s=" << c.s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometryMatchesBruteForce,
    ::testing::Values(GeometryCase{6, 2, 64 * KiB, 64 * KiB},
                      GeometryCase{6, 2, 36 * KiB, 148 * KiB},
                      GeometryCase{6, 2, 0, 64 * KiB},
                      GeometryCase{6, 2, 64 * KiB, 0},
                      GeometryCase{2, 6, 4 * KiB, 512 * KiB},
                      GeometryCase{7, 1, 128 * KiB, 1 * MiB},
                      GeometryCase{1, 1, 3, 7},
                      GeometryCase{3, 3, 17, 23},
                      GeometryCase{16, 4, 8 * KiB, 32 * KiB}));

// --------------------------------------------------- Fig. 5 closed form ----

TEST(Fig5CaseA, SingleStripeRowIsAnUpperBound) {
  // dr = 0, dc = 0: the printed s_m = s_b over-approximates the exact r.
  const StripePair hs{64 * KiB, 64 * KiB};
  const Bytes offset = 10 * KiB;  // within HServer 0's stripe
  const Bytes size = 4 * KiB;
  const auto closed = fig5_case_a_geometry(offset, size, hs, 6, 2);
  const auto exact = two_tier_geometry(offset, size, hs, 6, 2);
  EXPECT_EQ(closed.m, exact.m);
  EXPECT_EQ(closed.n, 0u);
  EXPECT_GE(closed.s_m, exact.s_m);  // upper bound, not exact
  EXPECT_EQ(exact.s_m, size);
}

// Rows of the printed Fig. 5 table that are *exact* (once the fragment
// typos are corrected); the remaining rows approximate s_m or m, which we
// document rather than assert (see fig5_case_a_geometry's header).
bool fig5_row_is_exact(Bytes offset, Bytes size, StripePair hs, std::size_t M) {
  const Bytes S = M * hs.h + 2 * hs.s;
  const Bytes l_b = offset % S;
  const Bytes l_e = (offset + size) % S;
  const std::int64_t dr = static_cast<std::int64_t>((offset + size) / S) -
                          static_cast<std::int64_t>(offset / S);
  const Bytes n_b = l_b / hs.h;
  const Bytes n_e = l_e / hs.h;
  const std::int64_t dc =
      static_cast<std::int64_t>(n_e) - static_cast<std::int64_t>(n_b);
  const bool end_aligned = l_e % hs.h == 0;
  if (dr == 0) return dc >= 1 && !end_aligned;      // multi-stripe same period
  if (dc == 0) return true;                          // same-column wrap
  if (n_b + 1 == M && n_e == 0) {
    return dr == 1 && !end_aligned;                  // last-col -> first-col
  }
  return dr == 1 && dc <= -1 && !end_aligned;        // backwards wrap, 1 period
}

class Fig5CaseAExactRows : public ::testing::TestWithParam<int> {};

TEST_P(Fig5CaseAExactRows, AgreesWithExactGeometryOnExactRows) {
  const std::size_t M = 6;
  const std::size_t N = 2;
  const StripePair hs{64 * KiB, 160 * KiB};
  const Bytes S = M * hs.h + N * hs.s;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  int checked = 0;
  for (int i = 0; i < 6000 && checked < 200; ++i) {
    const Bytes offset = rng.uniform_u64(0, 5 * S);
    const Bytes size = rng.uniform_u64(1, 3 * S);
    const Bytes l_b = offset % S;
    const Bytes l_e = (offset + size) % S;
    if (l_b >= M * hs.h || l_e >= M * hs.h) continue;  // not case (a)
    if (!fig5_row_is_exact(offset, size, hs, M)) continue;
    const auto closed = fig5_case_a_geometry(offset, size, hs, M, N);
    const auto exact = two_tier_geometry(offset, size, hs, M, N);
    EXPECT_EQ(closed.s_m, exact.s_m) << "o=" << offset << " r=" << size;
    EXPECT_EQ(closed.m, exact.m) << "o=" << offset << " r=" << size;
    EXPECT_EQ(closed.s_n, exact.s_n) << "o=" << offset << " r=" << size;
    EXPECT_EQ(closed.n, exact.n) << "o=" << offset << " r=" << size;
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5CaseAExactRows, ::testing::Values(1, 2, 3));

TEST(Fig5CaseA, RejectsRequestsOutsideCaseA) {
  const StripePair hs{64 * KiB, 64 * KiB};
  // Begins on an SServer (offset in the SServer area of the period).
  EXPECT_THROW(fig5_case_a_geometry(6 * 64 * KiB, 4 * KiB, hs, 6, 2),
               std::domain_error);
  EXPECT_THROW(fig5_case_a_geometry(0, 4 * KiB, {0, 64 * KiB}, 6, 2),
               std::domain_error);
}

// ------------------------------------------------------------- startup ----

TEST(Startup, ExpectedMaxOfUniforms) {
  storage::OpProfile p{1e-3, 5e-3, 0.0};
  EXPECT_DOUBLE_EQ(startup_expected_max(p, 0), 0.0);
  EXPECT_DOUBLE_EQ(startup_expected_max(p, 1), 1e-3 + 0.5 * 4e-3);  // mean
  // k -> infinity approaches the max.
  EXPECT_NEAR(startup_expected_max(p, 1000), 5e-3, 1e-5);
  // Monotonic in k.
  for (std::size_t k = 1; k < 10; ++k) {
    EXPECT_LT(startup_expected_max(p, k), startup_expected_max(p, k + 1));
  }
}

// ------------------------------------------------------------- request ----

TieredCostParams test_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  return p;
}

TEST(RequestCost, DecomposesIntoThreeTerms) {
  // T = T_X + T_S + T_T, each term priced from the exact geometry.
  const TieredCostParams p = test_params();
  const storage::OpProfile& h = p.tiers[0].profile.read;
  const storage::OpProfile& s = p.tiers[1].profile.read;
  const auto g = two_tier_geometry(0, 512 * KiB, {64 * KiB, 64 * KiB}, 6, 2);
  const Seconds network =
      p.net_latency + static_cast<double>(p.net_hops) * p.t *
                          static_cast<double>(std::max(g.s_m, g.s_n));
  const Seconds startup = std::max(startup_expected_max(h, g.m),
                                   startup_expected_max(s, g.n));
  const Seconds transfer =
      std::max(static_cast<double>(g.s_m) * h.per_byte,
               static_cast<double>(g.s_n) * s.per_byte);
  EXPECT_GT(network, 0.0);
  EXPECT_GT(startup, 0.0);
  EXPECT_GT(transfer, 0.0);
  EXPECT_DOUBLE_EQ(
      request_cost(p, IoOp::kRead, 0, 512 * KiB, Stripes{64 * KiB, 64 * KiB}),
      network + startup + transfer);
}

TEST(RequestCost, WritesCostMoreThanReadsOnSsdOnlyLayout) {
  const TieredCostParams p = test_params();
  const Stripes ssd_only{0, 64 * KiB};
  EXPECT_GT(request_cost(p, IoOp::kWrite, 0, 128 * KiB, ssd_only),
            request_cost(p, IoOp::kRead, 0, 128 * KiB, ssd_only));
}

TEST(RequestCost, StartupTermUsesTheSlowerTier) {
  // With a free network and free transfers the cost is T_S alone.
  TieredCostParams p = test_params();
  p.t = 0.0;
  for (TierSpec& tier : p.tiers) tier.profile.read.per_byte = 0.0;
  const Bytes size = 6 * 64 * KiB + 2 * 64 * KiB;
  const auto g = two_tier_geometry(0, size, {64 * KiB, 64 * KiB}, 6, 2);
  // HServers dominate startup (their window is milliseconds vs microseconds).
  EXPECT_DOUBLE_EQ(
      request_cost(p, IoOp::kRead, 0, size, Stripes{64 * KiB, 64 * KiB}),
      startup_expected_max(p.tiers[0].profile.read, g.m));
}

TEST(RequestCost, SsdOnlyAvoidsHddStartup) {
  const TieredCostParams p = test_params();
  // Same 128 KiB request: hybrid layout pays HDD startup, SSD-only does not.
  const Seconds hybrid =
      request_cost(p, IoOp::kRead, 0, 128 * KiB, Stripes{16 * KiB, 16 * KiB});
  const Seconds ssd_only =
      request_cost(p, IoOp::kRead, 0, 128 * KiB, Stripes{0, 64 * KiB});
  EXPECT_LT(ssd_only, hybrid);
}

TEST(RequestCost, NetworkTermScalesWithMaxSubrequest) {
  // With free devices the cost is T_X alone.
  TieredCostParams p = test_params();
  for (TierSpec& tier : p.tiers) tier.profile.read = storage::OpProfile{};
  p.net_latency = 0.0;
  p.net_hops = 1;
  const Stripes hs{32 * KiB, 160 * KiB};
  const auto g = two_tier_geometry(0, 512 * KiB, {32 * KiB, 160 * KiB}, 6, 2);
  const Seconds one_hop = request_cost(p, IoOp::kRead, 0, 512 * KiB, hs);
  EXPECT_DOUBLE_EQ(one_hop,
                   p.t * static_cast<double>(std::max(g.s_m, g.s_n)));
  // Two hops double the term.
  p.net_hops = 2;
  EXPECT_DOUBLE_EQ(request_cost(p, IoOp::kRead, 0, 512 * KiB, hs),
                   2.0 * one_hop);
}

TEST(RequestCost, BiggerSserverStripeShiftsLoadOffHdds) {
  // Calibrated parameters (see harness::calibrate): startup is fitted from
  // a sequential single stream (small), while beta is the *effective* unit
  // time of request-sized random accesses — an HDD's per-access positioning
  // folds into the rate, ~25 MB/s effective vs ~90 MB/s media.  Under those
  // parameters the paper's optimized read layout {32K, 160K} beats the
  // default equal-stripe layout for 512 KiB requests (Fig. 7).
  TieredCostParams p = test_params();
  for (storage::OpProfile* prof :
       {&p.tiers[0].profile.read, &p.tiers[0].profile.write}) {
    const Seconds mean_startup = prof->startup_mean();
    prof->per_byte += mean_startup / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  const Seconds equal =
      request_cost(p, IoOp::kRead, 0, 512 * KiB, Stripes{64 * KiB, 64 * KiB});
  const Seconds optimized =
      request_cost(p, IoOp::kRead, 0, 512 * KiB, Stripes{32 * KiB, 160 * KiB});
  EXPECT_LT(optimized, equal);
}

TEST(RequestCost, PerStripeOverheadChargesStripeUnits) {
  TieredCostParams p = test_params();
  p.per_stripe_overhead = 1e-3;
  TieredCostParams base = p;
  base.per_stripe_overhead = 0.0;

  // One full period: each server holds exactly one stripe unit.
  const Stripes hs{64 * KiB, 64 * KiB};
  const Bytes S = 8 * 64 * KiB;
  EXPECT_NEAR(request_cost(p, IoOp::kRead, 0, S, hs) -
                  request_cost(base, IoOp::kRead, 0, S, hs),
              1e-3, 1e-12);
  // Four periods: the largest per-server extent merges 4 stripe units.
  EXPECT_NEAR(request_cost(p, IoOp::kRead, 0, 4 * S, hs) -
                  request_cost(base, IoOp::kRead, 0, 4 * S, hs),
              4e-3, 1e-12);
}

TEST(RequestCost, PerStripeOverheadPenalizesTinyStripes) {
  TieredCostParams p = test_params();
  p.per_stripe_overhead = 50e-6;
  // Same byte distribution per server (4K and 64K stripes at a 1:1 tier
  // ratio aggregate identically over whole periods), but the 4K layout
  // merges 16x more stripe units.
  const Seconds tiny =
      request_cost(p, IoOp::kRead, 0, 1 * MiB, Stripes{4 * KiB, 4 * KiB});
  const Seconds coarse =
      request_cost(p, IoOp::kRead, 0, 1 * MiB, Stripes{64 * KiB, 64 * KiB});
  EXPECT_GT(tiny, coarse);
}

// ------------------------------------------------------------ multi-tier ----

TEST(TieredModel, TwoTierSpecialCaseMatchesDedicatedModel) {
  // Two tiers take the O(1) closed form of paper Fig. 4/5; the paper's
  // Eq. 7/8 over the brute-force geometry must price the same cost.
  const TieredCostParams p = test_params();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Bytes offset = rng.uniform_u64(0, 64 * MiB);
    const Bytes size = rng.uniform_u64(1, 4 * MiB);
    const StripePair hs{(rng.uniform_u64(0, 16)) * 4 * KiB,
                        (rng.uniform_u64(1, 64)) * 4 * KiB};
    const auto g = request_geometry_reference(offset, size, hs, 6, 2);
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& h = p.tiers[0].profile.op(op);
      const storage::OpProfile& s = p.tiers[1].profile.op(op);
      const Seconds dedicated =
          p.net_latency +
          static_cast<double>(p.net_hops) * p.t *
              static_cast<double>(std::max(g.s_m, g.s_n)) +
          std::max(startup_expected_max(h, g.m),
                   startup_expected_max(s, g.n)) +
          std::max(static_cast<double>(g.s_m) * h.per_byte,
                   static_cast<double>(g.s_n) * s.per_byte);
      const Seconds generic =
          request_cost(p, op, offset, size, Stripes{hs.h, hs.s});
      ASSERT_NEAR(dedicated, generic, 1e-15);
    }
  }
}

TEST(TieredModel, ThreeTierGeometryCountsEveryTier) {
  const std::vector<std::size_t> counts = {2, 2, 2};
  const std::vector<Bytes> stripes = {4 * KiB, 8 * KiB, 16 * KiB};
  const Bytes S = 2 * 4 * KiB + 2 * 8 * KiB + 2 * 16 * KiB;
  const auto geo = tiered_geometry(0, S, counts, stripes);
  ASSERT_EQ(geo.size(), 3u);
  EXPECT_EQ(geo[0].touched, 2u);
  EXPECT_EQ(geo[0].max_bytes, 4 * KiB);
  EXPECT_EQ(geo[1].touched, 2u);
  EXPECT_EQ(geo[1].max_bytes, 8 * KiB);
  EXPECT_EQ(geo[2].touched, 2u);
  EXPECT_EQ(geo[2].max_bytes, 16 * KiB);
}

TEST(TieredModel, SkippedTierHasNoFootprint) {
  const std::vector<std::size_t> counts = {2, 2};
  const std::vector<Bytes> stripes = {0, 64 * KiB};
  const auto geo = tiered_geometry(0, 256 * KiB, counts, stripes);
  EXPECT_EQ(geo[0].touched, 0u);
  EXPECT_EQ(geo[1].touched, 2u);
}

TEST(TieredModel, ValidatesInputs) {
  core::TieredCostParams pk;
  pk.tiers.resize(2);
  pk.tiers[0].count = 1;
  pk.tiers[1].count = 1;
  const std::vector<Bytes> wrong = {4 * KiB};
  EXPECT_THROW(request_cost(pk, IoOp::kRead, 0, 1, wrong),
               std::invalid_argument);
  const std::vector<std::size_t> counts = {1};
  const std::vector<Bytes> stripes = {0};
  EXPECT_THROW(tiered_geometry(0, 1, counts, stripes), std::invalid_argument);
}

TEST(CostMemo, CountsHitsAndMissesPerClass) {
  CostMemo memo;
  memo.reset(16);
  int computes = 0;
  const auto compute = [&](Bytes) { ++computes; return 1.5; };
  EXPECT_EQ(memo.cost(IoOp::kRead, 64 * KiB, 0, compute), 1.5);
  EXPECT_EQ(memo.cost(IoOp::kRead, 64 * KiB, 0, compute), 1.5);
  EXPECT_EQ(memo.cost(IoOp::kRead, 64 * KiB, 0, compute), 1.5);
  // Different op, size, or residue each open a fresh class.
  memo.cost(IoOp::kWrite, 64 * KiB, 0, compute);
  memo.cost(IoOp::kRead, 128 * KiB, 0, compute);
  memo.cost(IoOp::kRead, 64 * KiB, 4 * KiB, compute);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(memo.misses(), 4u);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(CostMemo, ResetLogicallyEvictsEveryClass) {
  // reset() is the memo's eviction: the generation bump must make every
  // prior class invisible without a memset, so a stale cost can never leak
  // into the next candidate.
  CostMemo memo;
  memo.reset(8);
  EXPECT_EQ(memo.cost(IoOp::kRead, 64 * KiB, 0, [](Bytes) { return 1.0; }),
            1.0);
  memo.reset(8);
  EXPECT_EQ(memo.cost(IoOp::kRead, 64 * KiB, 0, [](Bytes) { return 2.0; }),
            2.0);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(CostMemo, MemberContextKeysNeverCoalesce) {
  // Two candidates with the same striping period but different member-device
  // prefixes pass distinct context hashes: the same (op, size, residue)
  // class must recompute under the new context — a cross-context hit would
  // price the fast-members candidate with the slow-members cost.
  CostMemo memo;
  const std::uint64_t context_full = 0x1234'5678'9abc'def0ULL;
  const std::uint64_t context_fast2 = 0x0fed'cba9'8765'4321ULL;
  memo.reset(8, context_full);
  EXPECT_EQ(memo.cost(IoOp::kRead, 256 * KiB, 0, [](Bytes) { return 3.0; }),
            3.0);
  memo.reset(8, context_fast2);
  EXPECT_EQ(memo.cost(IoOp::kRead, 256 * KiB, 0, [](Bytes) { return 4.0; }),
            4.0);
  // Back to the first context: still a fresh candidate (reset cleared it),
  // so the value is recomputed, not resurrected.
  memo.reset(8, context_full);
  EXPECT_EQ(memo.cost(IoOp::kRead, 256 * KiB, 0, [](Bytes) { return 5.0; }),
            5.0);
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(CostMemo, MixedMemberPrefixCountersStayPerCandidate) {
  // Interleaved hit/miss traffic across two candidate contexts: the
  // counters accumulate across resets (they report whole-search totals),
  // and every hit must come from the candidate's own generation.
  CostMemo memo;
  int computes = 0;
  const auto compute = [&](Bytes) { ++computes; return 7.0; };
  memo.reset(8, /*context=*/1);
  for (int i = 0; i < 3; ++i) memo.cost(IoOp::kRead, 64 * KiB, 0, compute);
  memo.reset(8, /*context=*/2);
  for (int i = 0; i < 5; ++i) memo.cost(IoOp::kRead, 64 * KiB, 0, compute);
  EXPECT_EQ(computes, 2);   // one per candidate
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 6u);  // 2 + 4 within the owning candidates
}

// ---------------------------------------------------------------------------
// The offset-minimum bound behind Algorithm 2's branch-and-bound: on
// randomized layouts it must never exceed the kernel at any residue of the
// period, which the small stripes let the test check exhaustively.
// ---------------------------------------------------------------------------

storage::OpProfile random_profile(Rng& rng) {
  storage::OpProfile p;
  p.startup_min = rng.uniform(0.0, 1e-3);
  p.startup_max = p.startup_min + rng.uniform(0.0, 1e-3);
  p.per_byte = rng.uniform(1e-7, 1e-4);
  return p;
}

TEST(OffsetMinBound, NeverExceedsTheKernelAtAnyResidue) {
  Rng rng(2015);
  int checked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t k = rng.uniform_u64(1, 3);
    std::vector<std::size_t> counts(k);
    std::vector<Bytes> stripes(k);
    std::vector<double> factors;
    std::vector<storage::OpProfile> profiles(k);
    std::vector<const storage::OpProfile*> profile_ptrs(k);
    const bool devices = rng.uniform01() < 0.5;
    Bytes S = 0;
    for (std::size_t j = 0; j < k; ++j) {
      // Member prefixes of a tier: any count, including none.
      counts[j] = rng.uniform_u64(0, 4);
      stripes[j] = rng.uniform01() < 0.2 ? 0 : rng.uniform_u64(1, 40);
      profiles[j] = random_profile(rng);
      profile_ptrs[j] = &profiles[j];
      if (devices) factors.push_back(rng.uniform(1.0, 4.0));
      S += counts[j] * stripes[j];
    }
    if (S == 0) continue;
    const Seconds t = rng.uniform(0.0, 1e-5);
    const Seconds latency =
        rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-4);
    const int hops = static_cast<int>(rng.uniform_u64(1, 2));
    const Seconds per_stripe =
        rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-3);
    // Unaligned sizes, whole periods, and sizes below one stripe.
    const Bytes size = rng.uniform01() < 0.2 ? S * rng.uniform_u64(1, 3)
                                             : rng.uniform_u64(1, 3 * S);
    OffsetMinScratch scratch;
    const Seconds bound = tiered_cost_offset_min(
        counts, profile_ptrs, factors, t, latency, hops, per_stripe, size,
        stripes, scratch);
    std::vector<TierGeometry> geometry(k);
    Seconds min_cost = std::numeric_limits<Seconds>::infinity();
    for (Bytes x = 0; x < S; ++x) {
      const Seconds cost =
          devices ? tiered_cost_kernel_devices(counts, profile_ptrs, factors,
                                               t, latency, hops, per_stripe,
                                               x, size, stripes, geometry)
                  : tiered_cost_kernel(counts, profile_ptrs, t, latency, hops,
                                       per_stripe, x, size, stripes,
                                       geometry);
      ASSERT_LE(bound, cost) << "trial " << trial << " k=" << k
                             << " S=" << S << " size=" << size << " x=" << x;
      min_cost = std::min(min_cost, cost);
    }
    // Without the piece-count relaxation the bound is the minimum over
    // real offsets, so it stays within the kernel's range.
    if (per_stripe == 0.0) {
      EXPECT_GT(bound, 0.5 * min_cost);
    }
    ++checked;
  }
  EXPECT_GT(checked, 3000);
}

// The window floor orders Algorithm 2's scan: it must never exceed the
// offset minimum it stands in for, so never the kernel at any residue
// either.  Besides OffsetMinBound's layouts, some trials zero every weight
// (no network or transfer time), where the floor's split has no crossing.
TEST(WindowFloor, NeverExceedsTheOffsetMinOrTheKernel) {
  Rng rng(2016);
  int checked = 0;
  int below_kernel_min = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t k = rng.uniform_u64(1, 3);
    const bool devices = rng.uniform01() < 0.5;
    const bool weightless = rng.uniform01() < 0.1;
    std::vector<std::size_t> counts(k);
    std::vector<Bytes> stripes(k);
    std::vector<double> factors;
    std::vector<storage::OpProfile> profiles(k);
    std::vector<const storage::OpProfile*> profile_ptrs(k);
    Bytes S = 0;
    for (std::size_t j = 0; j < k; ++j) {
      counts[j] = rng.uniform_u64(0, 4);
      stripes[j] = rng.uniform01() < 0.2 ? 0 : rng.uniform_u64(1, 40);
      profiles[j] = random_profile(rng);
      if (weightless || rng.uniform01() < 0.1) profiles[j].per_byte = 0.0;
      profile_ptrs[j] = &profiles[j];
      if (devices) factors.push_back(rng.uniform(1.0, 4.0));
      S += counts[j] * stripes[j];
    }
    if (S == 0) continue;
    const Seconds t = weightless ? 0.0 : rng.uniform(0.0, 1e-5);
    const Seconds latency =
        rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-4);
    const int hops = static_cast<int>(rng.uniform_u64(1, 2));
    const Seconds per_stripe = weightless || rng.uniform01() < 0.5
                                   ? 0.0
                                   : rng.uniform(0.0, 1e-3);
    // Unaligned sizes, whole periods, and sizes below one stripe.
    const Bytes size = rng.uniform01() < 0.2 ? S * rng.uniform_u64(1, 3)
                                             : rng.uniform_u64(1, 3 * S);
    OffsetMinScratch scratch;
    const Seconds floor = tiered_cost_window_floor(
        counts, profile_ptrs, factors, t, latency, hops, per_stripe, size,
        stripes, scratch);
    const Seconds bound = tiered_cost_offset_min(
        counts, profile_ptrs, factors, t, latency, hops, per_stripe, size,
        stripes, scratch);
    ASSERT_LE(floor, bound) << "trial " << trial << " k=" << k << " S=" << S
                            << " size=" << size;
    std::vector<TierGeometry> geometry(k);
    Seconds min_cost = std::numeric_limits<Seconds>::infinity();
    for (Bytes x = 0; x < S; ++x) {
      const Seconds cost =
          devices ? tiered_cost_kernel_devices(counts, profile_ptrs, factors,
                                               t, latency, hops, per_stripe,
                                               x, size, stripes, geometry)
                  : tiered_cost_kernel(counts, profile_ptrs, t, latency, hops,
                                       per_stripe, x, size, stripes,
                                       geometry);
      ASSERT_LE(bound, cost) << "trial " << trial << " x=" << x;
      min_cost = std::min(min_cost, cost);
    }
    if (floor < min_cost * (1.0 - 1e-6)) ++below_kernel_min;
    ++checked;
  }
  EXPECT_GT(checked, 3000);
  // A floor of 0 would pass the checks above; it must be a real bound.
  EXPECT_LT(below_kernel_min, checked / 2);
}

TEST(BoxFloor, NeverExceedsAnyMemberFloor) {
  // Random boxes of stripe vectors, on one to three tiers, with and without
  // device factors: the box floor is at most the window floor of every
  // member.  Sizes fall below the least period (q = 0), straddle it and
  // reach whole periods (q >= 1); boxes reach stripe 0, the grid's top and
  // tiers without servers.  The last trials take seven or eight tiers, too
  // many to enumerate placements over, on one-member boxes.
  Rng rng(2017);
  int boxes = 0;
  int members = 0;
  int singles = 0;
  double single_ratio = 0.0;  // box floor / floor on one-member boxes
  for (int trial = 0; trial < 4300; ++trial) {
    const bool wide = trial >= 4000;
    const std::size_t k = wide ? rng.uniform_u64(7, 8) : rng.uniform_u64(1, 3);
    const bool devices = !wide && rng.uniform01() < 0.4;
    const bool weightless = rng.uniform01() < 0.1;
    const Bytes top = rng.uniform_u64(1, 40);
    std::vector<BoxTier> box(k);
    std::vector<std::vector<double>> factors(k);
    std::vector<storage::OpProfile> profiles(k);
    std::vector<const storage::OpProfile*> profile_ptrs(k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t count =
          rng.uniform01() < 0.15 ? 0 : rng.uniform_u64(1, 4);
      BoxTier& b = box[j];
      b.lo = rng.uniform01() < 0.3 ? 0 : rng.uniform_u64(0, top);
      b.hi = rng.uniform01() < 0.3 ? top : rng.uniform_u64(b.lo, top);
      if (rng.uniform01() < 0.2) b.hi = b.lo;
      b.hi = std::min(b.hi, b.lo + 3);  // at most four stripes per tier
      if (wide) b.hi = b.lo;
      b.most = count;
      b.fewest = count;
      if (devices && count > 0) {
        for (std::size_t m = 0; m < count; ++m) {
          factors[j].push_back(rng.uniform01() < 0.3 ? 1.0
                                                     : rng.uniform(1.0, 4.0));
        }
        std::sort(factors[j].begin(), factors[j].end());
        b.fewest = rng.uniform_u64(1, count);
      }
      b.factor = storage::worst_device_factor(factors[j], b.fewest);
      profiles[j] = random_profile(rng);
      if (weightless || rng.uniform01() < 0.1) profiles[j].per_byte = 0.0;
      profile_ptrs[j] = &profiles[j];
    }
    const Seconds t = weightless ? 0.0 : rng.uniform(0.0, 1e-5);
    const Seconds latency =
        rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-4);
    const int hops = static_cast<int>(rng.uniform_u64(1, 2));
    const Seconds per_stripe =
        weightless || rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-3);
    Bytes most_period = 0;
    for (const BoxTier& b : box) most_period += b.most * b.hi;
    if (most_period == 0) continue;
    const Bytes size = rng.uniform01() < 0.2
                           ? most_period * rng.uniform_u64(1, 3)
                           : rng.uniform_u64(1, 3 * most_period);
    BoxFloorScratch box_scratch;
    const Seconds bound =
        tiered_cost_box_floor(box, profile_ptrs, t, latency, hops, per_stripe,
                              size, box_scratch);
    // Every member: a stripe per tier in its range and, on a tier with
    // device factors, a member count from fewest to most.
    std::vector<Bytes> stripes(k);
    std::vector<std::size_t> counts(k);
    std::vector<double> worst;
    OffsetMinScratch scratch;
    int box_members = 0;
    Seconds least = std::numeric_limits<Seconds>::infinity();
    auto visit = [&](auto&& self, std::size_t j) -> void {
      if (j == k) {
        Bytes S = 0;
        for (std::size_t i = 0; i < k; ++i) S += counts[i] * stripes[i];
        if (S == 0) return;
        worst.clear();
        for (std::size_t i = 0; devices && i < k; ++i) {
          worst.push_back(storage::worst_device_factor(factors[i], counts[i]));
        }
        const Seconds floor = tiered_cost_window_floor(
            counts, profile_ptrs, worst, t, latency, hops, per_stripe, size,
            stripes, scratch);
        ASSERT_LE(bound, floor) << "trial " << trial << " k=" << k
                                << " size=" << size;
        least = std::min(least, floor);
        ++box_members;
        return;
      }
      for (Bytes s = box[j].lo; s <= box[j].hi; ++s) {
        for (std::size_t m = box[j].fewest; m <= box[j].most; ++m) {
          stripes[j] = s;
          counts[j] = m;
          self(self, j + 1);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    };
    visit(visit, 0);
    if (testing::Test::HasFatalFailure()) return;
    if (!wide && box_members == 1 && least > 0.0) {
      single_ratio += bound / least;
      ++singles;
    }
    members += box_members;
    ++boxes;
  }
  EXPECT_GT(boxes, 3500);
  EXPECT_GT(members, 80000);
  // A bound of 0 would pass the checks above; on a lone candidate it must
  // come close to the candidate's own floor.
  ASSERT_GT(singles, 300);
  EXPECT_GT(single_ratio / singles, 0.9) << "singles " << singles;
}

TEST(BoxFloor, ThrowsWithoutAMemberPeriod) {
  const storage::OpProfile profile = storage::hdd_profile().read;
  const storage::OpProfile* profiles[2] = {&profile, &profile};
  BoxFloorScratch scratch;
  const BoxTier no_stripes[2] = {{0, 0, 4, 4, 1.0}, {0, 0, 2, 2, 1.0}};
  EXPECT_THROW(tiered_cost_box_floor(no_stripes, profiles, 1e-9, 0.0, 1, 0.0,
                                     MiB, scratch),
               std::invalid_argument);
  const BoxTier no_servers[2] = {{0, 0, 4, 4, 1.0}, {KiB, MiB, 0, 0, 1.0}};
  EXPECT_THROW(tiered_cost_box_floor(no_servers, profiles, 1e-9, 0.0, 1, 0.0,
                                     MiB, scratch),
               std::invalid_argument);
}

TEST(OffsetMinBound, IsTheKernelForWholePeriods) {
  // size mod S == 0: every offset sees the same geometry.
  TieredCostParams tp = test_params();
  tp.t = 1e-9;
  const std::size_t counts[2] = {6, 2};
  const Bytes stripes[2] = {56 * KiB, 344 * KiB};
  const storage::OpProfile* profiles[2] = {&tp.tiers[0].profile.read,
                                           &tp.tiers[1].profile.read};
  OffsetMinScratch scratch;
  const Seconds bound = tiered_cost_offset_min(
      counts, profiles, {}, tp.t, tp.net_latency, tp.net_hops,
      tp.per_stripe_overhead, 1 * MiB, stripes, scratch);
  const Seconds kernel =
      request_cost(tp, IoOp::kRead, 3 * MiB, 1 * MiB, stripes);
  EXPECT_LE(bound, kernel);
  EXPECT_NEAR(bound, kernel, kernel * 1e-11);
}

TEST(OffsetMinBound, RejectsAZeroPeriod) {
  const std::size_t counts[2] = {0, 2};
  const Bytes stripes[2] = {4 * KiB, 0};
  const storage::OpProfile profile;
  const storage::OpProfile* profiles[2] = {&profile, &profile};
  OffsetMinScratch scratch;
  EXPECT_THROW(tiered_cost_offset_min(counts, profiles, {}, 0.0, 0.0, 1, 0.0,
                                      64 * KiB, stripes, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace harl::core
