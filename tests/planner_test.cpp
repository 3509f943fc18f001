// Tests for the Analysis-Phase planner pipeline (trace -> regions -> RST).
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/planner.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

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

std::vector<trace::TraceRecord> two_phase_trace() {
  // Region A: 128 KiB requests; region B: 1 MiB requests.
  std::vector<trace::TraceRecord> records;
  Rng rng(17);
  Bytes base = 0;
  for (int i = 0; i < 64; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kRead;
    r.offset = base;
    r.size = 128 * KiB;
    base += r.size;
    records.push_back(r);
  }
  for (int i = 0; i < 64; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kRead;
    r.offset = base;
    r.size = 1 * MiB;
    base += r.size;
    records.push_back(r);
  }
  return records;
}

TEST(Planner, AnalyzeProducesARegionPlanWithOptimizedStripes) {
  const auto plan = analyze(two_phase_trace(), calibrated_params());
  EXPECT_GE(plan.regions.size(), 2u);
  EXPECT_FALSE(plan.rst.empty());
  // Small-request region should lean on SServers more than the big one: at
  // minimum, the two regions get different stripe pairs.
  EXPECT_NE(plan.regions.front().stripes, plan.regions.back().stripes);
  EXPECT_GT(plan.total_model_cost(), 0.0);
}

TEST(Planner, PlanRegionsCoverTheFile) {
  const auto plan = analyze(two_phase_trace(), calibrated_params());
  EXPECT_EQ(plan.regions.front().offset, 0u);
  for (std::size_t i = 0; i + 1 < plan.regions.size(); ++i) {
    EXPECT_EQ(plan.regions[i].end, plan.regions[i + 1].offset);
  }
}

TEST(Planner, MergeCollapsesEqualNeighbours) {
  // A uniform trace that Algorithm 1 may or may not split: after merging,
  // equal stripe pairs always collapse to one region.
  std::vector<trace::TraceRecord> records;
  for (int i = 0; i < 200; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kWrite;
    r.offset = static_cast<Bytes>(i) * 512 * KiB;
    r.size = 512 * KiB;
    records.push_back(r);
  }
  const auto plan = analyze(records, calibrated_params());
  EXPECT_EQ(plan.rst.size(), 1u);
  EXPECT_LE(plan.regions_after_merge, plan.regions_before_merge);
}

TEST(Planner, FileLevelAblationHasExactlyOneRegion) {
  const auto plan = analyze_file_level(two_phase_trace(), calibrated_params());
  EXPECT_EQ(plan.regions.size(), 1u);
  EXPECT_EQ(plan.rst.size(), 1u);
  EXPECT_EQ(plan.regions[0].request_count, 128u);
}

TEST(Planner, RegionLevelBeatsFileLevelOnNonUniformTraces) {
  // The core claim of the paper: per-region stripes fit per-region workloads
  // better than one file-level pair.  Compare summed model costs.
  const auto records = two_phase_trace();
  const TieredCostParams params = calibrated_params();
  const auto region_plan = analyze(records, params);
  const auto file_plan = analyze_file_level(records, params);
  EXPECT_LE(region_plan.total_model_cost(), file_plan.total_model_cost() + 1e-12);
}

TEST(Planner, SegmentLevelUsesHomogeneousStripes) {
  const auto plan = analyze_segment_level(two_phase_trace(), calibrated_params());
  for (const auto& region : plan.regions) {
    EXPECT_EQ(region.stripes[0], region.stripes[1]);
  }
}

TEST(Planner, HeterogeneousBeatsSegmentLevelOnTheModel) {
  const auto records = two_phase_trace();
  const TieredCostParams params = calibrated_params();
  const auto harl = analyze(records, params);
  const auto segment = analyze_segment_level(records, params);
  EXPECT_LE(harl.total_model_cost(), segment.total_model_cost() + 1e-12);
}

TEST(Planner, UnsortedInputIsSortedInternally) {
  auto records = two_phase_trace();
  std::reverse(records.begin(), records.end());
  const auto plan = analyze(records, calibrated_params());
  EXPECT_EQ(plan.regions.front().offset, 0u);
}

TEST(Planner, EmptyTraceThrows) {
  EXPECT_THROW(analyze({}, calibrated_params()), std::invalid_argument);
  EXPECT_THROW(analyze_file_level({}, calibrated_params()),
               std::invalid_argument);
  EXPECT_THROW(analyze_segment_level({}, calibrated_params()),
               std::invalid_argument);
}

TEST(Planner, RstMatchesRegionStripesBeforeMerge) {
  PlannerOptions opts;
  opts.merge_adjacent = false;
  const auto plan = analyze(two_phase_trace(), calibrated_params(), opts);
  ASSERT_EQ(plan.rst.size(), plan.regions.size());
  for (std::size_t i = 0; i < plan.regions.size(); ++i) {
    EXPECT_EQ(plan.rst.entry(i).offset, plan.regions[i].offset);
    EXPECT_EQ(plan.rst.entry(i).stripes, plan.regions[i].stripes);
  }
}

}  // namespace
}  // namespace harl::core
