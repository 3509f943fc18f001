// Tests for fixed-chunk region division, the paper's rejected strawman
// beside Algorithm 1's workload-driven division.
#include <gtest/gtest.h>

#include "src/core/planner.hpp"

namespace harl {
namespace {

trace::TraceRecord request(Bytes offset, Bytes size) {
  trace::TraceRecord r;
  r.op = IoOp::kWrite;
  r.offset = offset;
  r.size = size;
  r.t_end = 1e-3;
  return r;
}

// ----------------------------------------------------- fixed division ----

TEST(FixedDivision, SplitsAtChunkBoundaries) {
  std::vector<trace::TraceRecord> records;
  for (int i = 0; i < 32; ++i) {
    records.push_back(request(static_cast<Bytes>(i) * 4 * MiB, 4 * MiB));
  }
  const auto division = core::divide_regions_fixed(records, 64 * MiB);
  ASSERT_EQ(division.regions.size(), 2u);
  EXPECT_EQ(division.regions[0].offset, 0u);
  EXPECT_EQ(division.regions[0].end, 64 * MiB);
  EXPECT_EQ(division.regions[1].offset, 64 * MiB);
  EXPECT_EQ(division.regions[1].end, 128 * MiB);
  EXPECT_EQ(division.regions[0].request_count(), 16u);
  EXPECT_EQ(division.regions[1].request_count(), 16u);
}

TEST(FixedDivision, EmptyChunksMergeForward) {
  std::vector<trace::TraceRecord> records = {
      request(0, 1 * MiB),
      request(512 * MiB, 1 * MiB),  // chunks 1..7 empty
  };
  const auto division = core::divide_regions_fixed(records, 64 * MiB);
  ASSERT_EQ(division.regions.size(), 2u);
  EXPECT_EQ(division.regions[0].end, 512 * MiB);  // extends over empty chunks
  EXPECT_EQ(division.regions[1].offset, 512 * MiB);
}

TEST(FixedDivision, IsBlindToWorkloadChangesInsideAChunk) {
  // A size change in the middle of one chunk: Algorithm 1 splits, the fixed
  // division cannot.
  std::vector<trace::TraceRecord> records;
  Bytes base = 0;
  for (int i = 0; i < 16; ++i) {
    records.push_back(request(base, 64 * KiB));
    base += 64 * KiB;
  }
  for (int i = 0; i < 16; ++i) {
    records.push_back(request(base, 2 * MiB));
    base += 2 * MiB;
  }
  const auto fixed = core::divide_regions_fixed(records, 256 * MiB);
  EXPECT_EQ(fixed.regions.size(), 1u);

  core::DividerOptions opts;
  opts.fixed_region_size = 4 * MiB;  // extent is small; keep the cap loose
  const auto adaptive = core::divide_regions(records, opts);
  EXPECT_GE(adaptive.regions.size(), 2u);
}

TEST(FixedDivision, PlannerIntegration) {
  std::vector<trace::TraceRecord> records;
  Bytes base = 0;
  for (int i = 0; i < 64; ++i) {
    records.push_back(request(base, 512 * KiB));
    base += 512 * KiB;
  }
  core::TieredCostParams params;
  params.tiers = {core::TierSpec{6, storage::hdd_profile(), {}},
                  core::TierSpec{2, storage::pcie_ssd_profile(), {}}};
  params.t = 1.0 / (117.0 * 1024 * 1024);
  const auto plan = core::analyze_fixed_regions(records, params, 16 * MiB);
  EXPECT_GE(plan.regions.size(), 2u);
  EXPECT_FALSE(plan.rst.empty());
}

TEST(FixedDivision, ValidatesInputs) {
  std::vector<trace::TraceRecord> records = {request(0, 1)};
  EXPECT_THROW(core::divide_regions_fixed(records, 0), std::invalid_argument);
  std::vector<trace::TraceRecord> unsorted = {request(100, 1), request(0, 1)};
  EXPECT_THROW(core::divide_regions_fixed(unsorted, 64 * MiB),
               std::invalid_argument);
  EXPECT_TRUE(core::divide_regions_fixed({}, 64 * MiB).regions.empty());
}

}  // namespace
}  // namespace harl
