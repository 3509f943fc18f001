// Tests for the CARL baseline (paper reference [31]): region-level
// placement where each region lives entirely on one tier.
#include <gtest/gtest.h>

#include "src/core/planner.hpp"
#include "src/harness/experiment.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

PlannerOptions fine_regions() {
  // The test traces are small (tens of MiB); lower the fixed-region cap so
  // Algorithm 1 is allowed to split them.
  PlannerOptions opts;
  opts.divider.fixed_region_size = 4 * MiB;
  return opts;
}

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

std::vector<trace::TraceRecord> two_region_trace() {
  // Region A: hot small requests (SSD-worthy); region B: cold big requests.
  std::vector<trace::TraceRecord> records;
  Bytes base = 0;
  for (int i = 0; i < 96; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kRead;
    r.offset = base;
    r.size = 128 * KiB;
    base += r.size;
    records.push_back(r);
  }
  for (int i = 0; i < 24; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kRead;
    r.offset = base;
    r.size = 2 * MiB;
    base += r.size;
    records.push_back(r);
  }
  return records;
}

TEST(Carl, EveryRegionLivesOnExactlyOneTier) {
  const auto plan =
      analyze_carl(two_region_trace(), calibrated_params(), 10 * GiB, fine_regions());
  ASSERT_FALSE(plan.regions.empty());
  for (const auto& region : plan.regions) {
    const bool ssd_only = region.stripes[0] == 0 && region.stripes[1] > 0;
    const bool hdd_only = region.stripes[1] == 0 && region.stripes[0] > 0;
    EXPECT_TRUE(ssd_only || hdd_only)
        << "region at " << region.offset << " spans both tiers";
  }
}

TEST(Carl, UnlimitedCapacityMovesBeneficialRegionsToSsd) {
  // With ample capacity every region whose SSD placement is cheaper on the
  // model goes to SServers.
  const TieredCostParams params = calibrated_params();
  const auto plan = analyze_carl(two_region_trace(), params, 1000 * GiB, fine_regions());
  std::size_t on_ssd = 0;
  for (const auto& region : plan.regions) on_ssd += region.stripes[0] == 0;
  EXPECT_GT(on_ssd, 0u);
}

TEST(Carl, ZeroCapacityKeepsEverythingOnHdds) {
  const auto plan = analyze_carl(two_region_trace(), calibrated_params(), 0, fine_regions());
  for (const auto& region : plan.regions) {
    EXPECT_GT(region.stripes[0], 0u);
    EXPECT_EQ(region.stripes[1], 0u);
  }
}

TEST(Carl, CapacityGatesTheGreedyChoice) {
  // Budget fits only the small hot region (12 MiB extent), not the big one.
  const auto records = two_region_trace();
  const auto plan = analyze_carl(records, calibrated_params(), 16 * MiB, fine_regions());
  ASSERT_GE(plan.regions.size(), 2u);
  Bytes ssd_extent = 0;
  for (const auto& region : plan.regions) {
    if (region.stripes[0] == 0) ssd_extent += region.end - region.offset;
  }
  EXPECT_LE(ssd_extent, 16 * MiB);
}

TEST(Carl, HarlModelCostIsNeverWorse) {
  // HARL can always reproduce CARL's single-tier placements (h=0 or s=0 are
  // in its candidate grid), so its model cost is a lower bound.
  const auto records = two_region_trace();
  const TieredCostParams params = calibrated_params();
  const auto carl = analyze_carl(records, params, 1000 * GiB, fine_regions());
  const auto harl = analyze(records, params, fine_regions());
  EXPECT_LE(harl.total_model_cost(), carl.total_model_cost() + 1e-12);
}

TEST(Carl, AgedFleetHalvesKeepOnlyTheirTiersFactors) {
  // Each single-tier half zeroes one tier and drops that tier's device
  // factors, so the HDD half is homogeneous and the SSD half keeps its
  // member choices.  Every region's winner is that half's own optimum; the
  // plan is stamped with the full fleet's device table.
  TieredCostParams params = calibrated_params();
  params.tiers[1].device_factors = {1.0, 4.0};
  const auto records = two_region_trace();
  const auto plan = analyze_carl(records, params, 1000 * GiB, fine_regions());
  EXPECT_EQ(plan.device_factors,
            (std::vector<std::vector<double>>{{}, {1.0, 4.0}}));
  ASSERT_FALSE(plan.regions.empty());
  for (const auto& region : plan.regions) {
    const std::size_t empty = region.stripes[0] == 0 ? 0 : 1;
    EXPECT_EQ(region.stripes[empty], 0u);
    TieredCostParams half = params;
    half.tiers[empty].count = 0;
    half.tiers[empty].device_factors.clear();
    std::vector<FileRequest> reqs;
    for (const auto& r : records) {
      if (r.offset >= region.offset && r.offset < region.end) {
        reqs.push_back(FileRequest{r.op, r.offset, r.size});
      }
    }
    const auto best = optimize_region(half, reqs, region.avg_request);
    EXPECT_EQ(region.stripes, best.stripes);
    EXPECT_EQ(region.members, best.members);
    EXPECT_EQ(region.model_cost, best.model_cost);
  }
}

TEST(Carl, SchemeIntegration) {
  harness::ExperimentOptions opts;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;
  workloads::IorConfig ior;
  ior.processes = 8;
  ior.file_size = 256 * MiB;
  ior.requests_per_process = 16;
  harness::Experiment exp(opts);
  const auto result =
      exp.run(harness::ior_bundle(ior), harness::LayoutScheme::carl(1 * GiB));
  EXPECT_EQ(result.label, "CARL");
  EXPECT_GT(result.total.throughput(), 0.0);
  ASSERT_TRUE(result.plan.has_value());
}

TEST(Carl, EmptyTraceThrows) {
  EXPECT_THROW(analyze_carl({}, calibrated_params(), 1 * GiB),
               std::invalid_argument);
}

}  // namespace
}  // namespace harl::core
