// Tests for the on-line re-layout advisor (paper future work #2).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/online_advisor.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

using Stripes = std::vector<Bytes>;

TieredCostParams calibrated_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  for (storage::OpProfile* prof :
       {&p.tiers[0].profile.read, &p.tiers[0].profile.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

trace::TraceRecord request(Bytes offset, Bytes size, IoOp op = IoOp::kRead) {
  trace::TraceRecord r;
  r.op = op;
  r.offset = offset;
  r.size = size;
  return r;
}

/// An RST optimized for 512 KiB requests (paper-shaped hybrid pair).
RegionStripeTable tuned_for_large_requests() {
  RegionStripeTable rst;
  rst.add(0, {28 * KiB, 172 * KiB});
  return rst;
}

TEST(OnlineAdvisor, SteadyWorkloadProducesNoRecommendation) {
  OnlineAdvisor::Options opts;
  opts.window = 64;
  OnlineAdvisor advisor(calibrated_params(), tuned_for_large_requests(), opts);

  // The workload the RST was built for: no window should clear min_gain.
  for (int w = 0; w < 3; ++w) {
    for (std::size_t i = 0; i < 64; ++i) {
      const auto rec =
          advisor.observe(request((i % 512) * 512 * KiB, 512 * KiB));
      EXPECT_FALSE(rec.has_value());
    }
  }
  EXPECT_EQ(advisor.windows_analyzed(), 3u);
  EXPECT_EQ(advisor.recommendations_made(), 0u);
}

TEST(OnlineAdvisor, WorkloadShiftTriggersRecommendation) {
  OnlineAdvisor::Options opts;
  opts.window = 64;
  OnlineAdvisor advisor(calibrated_params(), tuned_for_large_requests(), opts);

  // The workload shifts to small requests, for which the optimal layout is
  // SServer-only (paper Fig. 9) — the hybrid RST is now badly wrong.
  std::optional<OnlineAdvisor::Recommendation> rec;
  for (std::size_t i = 0; i < 64 && !rec; ++i) {
    rec = advisor.observe(request((i % 1024) * 128 * KiB, 128 * KiB));
  }
  ASSERT_TRUE(rec.has_value());
  EXPECT_GT(rec->gain, 0.10);
  EXPECT_LT(rec->optimized_cost, rec->current_cost);
  EXPECT_EQ(rec->window_requests, 64u);
  EXPECT_GT(rec->affected_extent, 0u);
  // The proposed layout is SServer-only for the small-request window.
  EXPECT_EQ(rec->rst.lookup(0).stripes[0], 0u);
}

TEST(OnlineAdvisor, AdoptInstallsTheNewTable) {
  OnlineAdvisor::Options opts;
  opts.window = 64;
  OnlineAdvisor advisor(calibrated_params(), tuned_for_large_requests(), opts);

  std::optional<OnlineAdvisor::Recommendation> rec;
  for (std::size_t i = 0; i < 64; ++i) {
    rec = advisor.observe(request((i % 1024) * 128 * KiB, 128 * KiB));
  }
  ASSERT_TRUE(rec.has_value());
  advisor.adopt(*rec);
  EXPECT_EQ(advisor.current().lookup(0).stripes, rec->rst.lookup(0).stripes);

  // After adoption the same workload no longer triggers recommendations.
  std::optional<OnlineAdvisor::Recommendation> again;
  for (std::size_t i = 0; i < 64; ++i) {
    again = advisor.observe(request((i % 1024) * 128 * KiB, 128 * KiB));
    EXPECT_FALSE(again.has_value());
  }
}

TEST(OnlineAdvisor, MinGainGatesRecommendations) {
  OnlineAdvisor::Options strict;
  strict.window = 64;
  strict.min_gain = 0.95;  // practically unreachable
  OnlineAdvisor advisor(calibrated_params(), tuned_for_large_requests(), strict);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(
        advisor.observe(request((i % 1024) * 128 * KiB, 128 * KiB)).has_value());
  }
  EXPECT_EQ(advisor.windows_analyzed(), 1u);
  EXPECT_EQ(advisor.recommendations_made(), 0u);
}

TEST(OnlineAdvisor, CostUnderUsesGoverningRegions) {
  const TieredCostParams params = calibrated_params();
  RegionStripeTable rst;
  rst.add(0, {0, 64 * KiB});
  rst.add(1 * GiB, {28 * KiB, 172 * KiB});
  std::vector<trace::TraceRecord> records = {
      request(0, 128 * KiB),
      request(2 * GiB, 512 * KiB),
  };
  const Seconds total = OnlineAdvisor::cost_under(params, rst, records);
  const Seconds expect =
      request_cost(params, IoOp::kRead, 0, 128 * KiB, Stripes{0, 64 * KiB}) +
      request_cost(params, IoOp::kRead, 2 * GiB, 512 * KiB,
                   Stripes{28 * KiB, 172 * KiB});
  EXPECT_DOUBLE_EQ(total, expect);
}

TEST(OnlineAdvisor, CostUnderPricesMembersAndDeviceFactors) {
  // An aged fleet and a member-restricted entry: the advisor must price the
  // governing entry's stripes and members through the same device-aware
  // cost the planner optimizes.
  TieredCostParams params = calibrated_params();
  params.tiers[1].device_factors = {1.0, 4.0};
  RegionStripeTable rst;
  rst.add(0, {28 * KiB, 172 * KiB}, {6, 1});
  const std::vector<std::size_t> members{6, 1};
  std::vector<trace::TraceRecord> records;
  Seconds expect = 0.0;
  for (Bytes i = 0; i < 16; ++i) {
    records.push_back(request(i * 512 * KiB, 512 * KiB));
    expect += request_cost(params, IoOp::kRead, i * 512 * KiB, 512 * KiB,
                           Stripes{28 * KiB, 172 * KiB}, members);
  }
  EXPECT_DOUBLE_EQ(OnlineAdvisor::cost_under(params, rst, records), expect);
}

TEST(OnlineAdvisor, BoundarySpanningRequestCostedByStartingRegion) {
  // Pin the convention: a request crossing a region boundary is costed with
  // the stripes of the region its *first byte* falls in, for its full size.
  const TieredCostParams params = calibrated_params();
  RegionStripeTable rst;
  rst.add(0, {0, 64 * KiB});
  rst.add(1 * GiB, {28 * KiB, 172 * KiB});

  // 96 KiB before the boundary, 32 KiB after: starting region is region 0.
  const Bytes offset = 1 * GiB - 96 * KiB;
  const std::vector<trace::TraceRecord> records = {
      request(offset, 128 * KiB, IoOp::kWrite)};
  const Seconds got = OnlineAdvisor::cost_under(params, rst, records);
  EXPECT_DOUBLE_EQ(got, request_cost(params, IoOp::kWrite, offset, 128 * KiB,
                                     Stripes{0, 64 * KiB}));
  // And NOT the crossed region's stripes.
  EXPECT_NE(got, request_cost(params, IoOp::kWrite, offset, 128 * KiB,
                              Stripes{28 * KiB, 172 * KiB}));
}

TEST(OnlineAdvisor, BoundarySpanApproximationErrorIsBounded) {
  // The starting-region convention is an approximation.  The reference is
  // the cost of splitting the request at the boundary and costing each piece
  // under its own region, serialized — an upper bound, since each piece pays
  // its own startup.  The approximation drops the boundary-crossing
  // overhead, so it must never exceed that split cost; and it must stay
  // within 4x below it (the split's double-paid startups on small pieces
  // account for the gap), keeping a window's gain estimate the right order
  // of magnitude even when every request straddled a boundary.
  const TieredCostParams params = calibrated_params();
  RegionStripeTable rst;
  rst.add(0, {0, 64 * KiB});
  rst.add(1 * GiB, {28 * KiB, 172 * KiB});

  for (const Bytes head : {96 * KiB, 80 * KiB, 72 * KiB}) {
    const Bytes size = 128 * KiB;  // head in region 0, size-head in region 1
    const Bytes offset = 1 * GiB - head;
    const std::vector<trace::TraceRecord> records = {
        request(offset, size, IoOp::kRead)};
    const Seconds approx = OnlineAdvisor::cost_under(params, rst, records);
    const Seconds split =
        request_cost(params, IoOp::kRead, offset, head, Stripes{0, 64 * KiB}) +
        request_cost(params, IoOp::kRead, 1 * GiB, size - head,
                     Stripes{28 * KiB, 172 * KiB});
    ASSERT_GT(split, 0.0);
    EXPECT_LE(approx, split)
        << "head " << head << ": approx " << approx << " vs split " << split;
    EXPECT_GE(approx, split / 4.0)
        << "head " << head << ": approx " << approx << " vs split " << split;
  }
}

TEST(OnlineAdvisor, ValidatesConstruction) {
  const TieredCostParams params = calibrated_params();
  EXPECT_THROW(OnlineAdvisor(params, RegionStripeTable{}, {}),
               std::invalid_argument);
  OnlineAdvisor::Options bad_window;
  bad_window.window = 0;
  EXPECT_THROW(OnlineAdvisor(params, tuned_for_large_requests(), bad_window),
               std::invalid_argument);
  OnlineAdvisor::Options bad_gain;
  bad_gain.min_gain = 1.5;
  EXPECT_THROW(OnlineAdvisor(params, tuned_for_large_requests(), bad_gain),
               std::invalid_argument);
}

TEST(OnlineAdvisor, AffectedExtentTracksChangedSpanOnly) {
  // Current table has two regions; the shift only invalidates the first.
  const TieredCostParams params = calibrated_params();
  RegionStripeTable rst;
  rst.add(0, {28 * KiB, 172 * KiB});
  rst.add(1 * GiB, {0, 64 * KiB});

  OnlineAdvisor::Options opts;
  opts.window = 64;
  OnlineAdvisor advisor(params, rst, opts);

  // Small requests confined to the first region.
  std::optional<OnlineAdvisor::Recommendation> rec;
  for (std::size_t i = 0; i < 64; ++i) {
    rec = advisor.observe(request((i % 512) * 128 * KiB, 128 * KiB));
  }
  ASSERT_TRUE(rec.has_value());
  // Affected extent is bounded by the window's touched span (< 512 * 128K),
  // far below the 1 GiB second region.
  EXPECT_LE(rec->affected_extent, 512 * 128 * KiB);
}

}  // namespace
}  // namespace harl::core
