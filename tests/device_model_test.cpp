// Per-server device model: scaled profiles, canonical factor vectors, the
// device-aware cost kernel, member-prefix candidates, fingerprint coverage,
// cluster assembly, calibration, plan stamping, install-time validation, and
// the homogeneous byte-identity guarantee.
//
// The load-bearing claim: a homogeneous configuration — no factors, or all
// factors exactly 1.0 — takes the pre-device-model code paths bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/core/plan_artifact.hpp"
#include "src/core/planner.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/scheme.hpp"
#include "src/pfs/cluster.hpp"
#include "src/storage/profiles.hpp"

namespace harl {
namespace {

using core::TieredCostParams;
using core::TieredCostParams;
using core::TierSpec;

// ---------------------------------------------------------------- storage --

TEST(DeviceProfile, ScaledProfileByOneIsBitEqual) {
  const storage::TierProfile p = storage::pcie_ssd_profile();
  const storage::TierProfile s = storage::scaled_profile(p, 1.0);
  EXPECT_EQ(s.read.startup_min, p.read.startup_min);
  EXPECT_EQ(s.read.startup_max, p.read.startup_max);
  EXPECT_EQ(s.read.per_byte, p.read.per_byte);
  EXPECT_EQ(s.write.startup_min, p.write.startup_min);
  EXPECT_EQ(s.write.startup_max, p.write.startup_max);
  EXPECT_EQ(s.write.per_byte, p.write.per_byte);
}

TEST(DeviceProfile, ScaledProfileMultipliesEveryTimeParameter) {
  const storage::TierProfile p = storage::hdd_profile();
  const storage::TierProfile s = storage::scaled_profile(p, 2.0);
  EXPECT_DOUBLE_EQ(s.read.startup_min, 2.0 * p.read.startup_min);
  EXPECT_DOUBLE_EQ(s.read.startup_max, 2.0 * p.read.startup_max);
  EXPECT_DOUBLE_EQ(s.read.per_byte, 2.0 * p.read.per_byte);
  EXPECT_DOUBLE_EQ(s.write.per_byte, 2.0 * p.write.per_byte);
}

TEST(DeviceProfile, CanonicalizeSortsAscendingAndCollapsesAllOnes) {
  std::vector<double> f{2.0, 1.0, 1.0, 4.0};
  storage::canonicalize_device_factors(f);
  EXPECT_EQ(f, (std::vector<double>{1.0, 1.0, 2.0, 4.0}));

  std::vector<double> ones{1.0, 1.0, 1.0};
  storage::canonicalize_device_factors(ones);
  EXPECT_TRUE(ones.empty());

  std::vector<double> empty;
  storage::canonicalize_device_factors(empty);
  EXPECT_TRUE(empty.empty());
}

TEST(DeviceProfile, ValidFactorsAreFiniteAndPositive) {
  EXPECT_TRUE(storage::valid_device_factor(1.0));
  EXPECT_TRUE(storage::valid_device_factor(0.25));
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(storage::valid_device_factor(bad)) << bad;
  }
}

TEST(DeviceProfile, WorstDeviceFactorIsThePrefixMaximum) {
  const std::vector<double> f{1.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 0), 1.0);
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 1), 1.0);
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 2), 1.0);
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 3), 2.0);
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 4), 4.0);
  // Members beyond the vector clamp to the full tier.
  EXPECT_DOUBLE_EQ(storage::worst_device_factor(f, 9), 4.0);
  EXPECT_DOUBLE_EQ(storage::worst_device_factor({}, 3), 1.0);
}

// ----------------------------------------------------------------- kernel --

TieredCostParams two_tier_params() {
  TieredCostParams params;
  TierSpec hdd;
  hdd.count = 2;
  hdd.profile = storage::hdd_profile();
  TierSpec ssd;
  ssd.count = 4;
  ssd.profile = storage::pcie_ssd_profile();
  params.tiers = {hdd, ssd};
  params.t = 1.0 / (117.0 * 1024 * 1024);
  params.net_latency = 30e-6;
  params.net_hops = 2;
  params.per_stripe_overhead = 50e-6;
  return params;
}

TEST(DeviceKernel, AllOnesFactorsAreBitIdenticalToTheUnscaledKernel) {
  TieredCostParams params = two_tier_params();
  const std::vector<std::size_t> counts{2, 4};
  const storage::OpProfile* profiles[] = {&params.tiers[0].profile.read,
                                          &params.tiers[1].profile.read};
  const std::vector<double> ones{1.0, 1.0};
  std::vector<core::TierGeometry> scratch(2);
  for (const Bytes offset : {Bytes{0}, Bytes{96 * KiB}, Bytes{1 * MiB}}) {
    for (const Bytes size : {Bytes{4 * KiB}, Bytes{512 * KiB}, Bytes{3 * MiB}}) {
      for (const Bytes h : {Bytes{0}, Bytes{16 * KiB}, Bytes{64 * KiB}}) {
        const std::vector<Bytes> stripes{h, Bytes{128 * KiB}};
        const Seconds base = core::tiered_cost_kernel(
            counts, profiles, params.t, params.net_latency, params.net_hops,
            params.per_stripe_overhead, offset, size, stripes, scratch);
        const Seconds dev = core::tiered_cost_kernel_devices(
            counts, profiles, ones, params.t, params.net_latency,
            params.net_hops, params.per_stripe_overhead, offset, size, stripes,
            scratch);
        EXPECT_EQ(base, dev) << "offset " << offset << " size " << size
                             << " h " << h;
      }
    }
  }
}

TEST(DeviceKernel, SingleTierFactorScalesAllServerSideTerms) {
  // With the network terms zeroed, every remaining term is server-side, so
  // the device kernel must equal factor * base exactly.
  TieredCostParams params;
  TierSpec tier;
  tier.count = 1;
  tier.profile = storage::pcie_ssd_profile();
  params.tiers = {tier};
  const std::vector<std::size_t> counts{1};
  const storage::OpProfile* profiles[] = {&tier.profile.read};
  const std::vector<Bytes> stripes{64 * KiB};
  std::vector<core::TierGeometry> scratch(1);
  const Seconds base = core::tiered_cost_kernel(
      counts, profiles, /*t=*/0.0, /*net_latency=*/0.0, /*net_hops=*/1,
      /*per_stripe_overhead=*/50e-6, 0, 256 * KiB, stripes, scratch);
  for (const double f : {1.0, 1.5, 3.0}) {
    const std::vector<double> factors{f};
    const Seconds dev = core::tiered_cost_kernel_devices(
        counts, profiles, factors, 0.0, 0.0, 1, 50e-6, 0, 256 * KiB, stripes,
        scratch);
    EXPECT_DOUBLE_EQ(dev, f * base) << "factor " << f;
  }
}

TEST(DeviceKernel, NetworkTermsAreNotScaledByDeviceFactors) {
  // Pure-network parameters (zero startup and per-byte time): aging a
  // device must not change the cost at all.
  TieredCostParams params;
  TierSpec tier;
  tier.count = 2;
  tier.profile.name = "null";
  params.tiers = {tier};
  const std::vector<std::size_t> counts{2};
  const storage::OpProfile* profiles[] = {&tier.profile.read};
  const std::vector<Bytes> stripes{64 * KiB};
  std::vector<core::TierGeometry> scratch(1);
  const Seconds t = 1e-8;
  const Seconds base = core::tiered_cost_kernel(
      counts, profiles, t, 20e-6, 2, 0.0, 0, 256 * KiB, stripes, scratch);
  const std::vector<double> factors{1.0, 8.0};
  const Seconds dev = core::tiered_cost_kernel_devices(
      counts, profiles, factors, t, 20e-6, 2, 0.0, 0, 256 * KiB, stripes,
      scratch);
  EXPECT_EQ(base, dev);
}

TEST(DeviceKernel, RequestCostChargesWorstFactorOverFullMembership) {
  TieredCostParams params = two_tier_params();
  const std::vector<Bytes> stripes{64 * KiB, 128 * KiB};
  const Seconds fresh =
      core::request_cost(params, IoOp::kRead, 0, 1 * MiB, stripes);
  params.tiers[1].device_factors = {1.0, 1.0, 2.0, 2.0};
  const Seconds aged =
      core::request_cost(params, IoOp::kRead, 0, 1 * MiB, stripes);
  // Full membership touches the aged half, so the tier is charged at its
  // worst factor: strictly more expensive than the fresh fleet.
  EXPECT_GT(aged, fresh);

  // Explicit full membership must agree with the default bit for bit.
  const std::vector<std::size_t> full{2, 4};
  EXPECT_EQ(core::request_cost(params, IoOp::kRead, 0, 1 * MiB, stripes, full),
            aged);
}

TEST(DeviceKernel, MemberRestrictionAvoidsTheAgedStraggler) {
  // Transfer-dominated parameters: restricting tier 1 to its two fresh
  // members must beat spanning all four when the aged pair is 8x slower.
  TieredCostParams params = two_tier_params();
  params.t = 1e-10;  // negligible network
  params.net_latency = 0.0;
  params.per_stripe_overhead = 0.0;
  params.tiers[1].device_factors = {1.0, 1.0, 8.0, 8.0};
  const std::vector<Bytes> stripes{0, 128 * KiB};
  const std::vector<std::size_t> all{0, 4};
  const std::vector<std::size_t> fresh_only{0, 2};
  const Seconds wide =
      core::request_cost(params, IoOp::kRead, 0, 1 * MiB, stripes, all);
  const Seconds narrow = core::request_cost(params, IoOp::kRead, 0, 1 * MiB,
                                            stripes, fresh_only);
  // Wide: ~256 KiB per server at factor 8; narrow: ~512 KiB per server at
  // factor 1.  The straggler charge dominates the halved width.
  EXPECT_LT(narrow, wide);
}

// ------------------------------------------------------------ fingerprint --

TEST(DeviceFingerprint, EmptyFactorsHashExactlyAsPreDeviceModel) {
  // Empty factor vectors must reproduce the pre-device-model fingerprint
  // (pinned) — i.e. the fingerprint only depends on fields that existed
  // before the device model (regression guard for every fingerprint caller:
  // plan artifacts and cost memos).
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1e-8;
  EXPECT_EQ(core::params_fingerprint(p), 0x34c292752537c2bbULL);
}

TEST(DeviceFingerprint, DeviceFactorsChangeTheFingerprint) {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1e-8;
  const std::uint64_t fresh = core::params_fingerprint(p);
  p.tiers[1].device_factors = {1.0, 2.0};
  const std::uint64_t aged2 = core::params_fingerprint(p);
  EXPECT_NE(aged2, fresh);
  p.tiers[1].device_factors = {1.0, 4.0};
  const std::uint64_t aged4 = core::params_fingerprint(p);
  EXPECT_NE(aged4, fresh);
  EXPECT_NE(aged4, aged2);
  // The HServer tier's vector is hashed independently of the SServer one.
  p.tiers[1].device_factors = {};
  p.tiers[0].device_factors = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0};
  EXPECT_NE(core::params_fingerprint(p), fresh);
  EXPECT_NE(core::params_fingerprint(p), aged2);
}

// -------------------------------------------------------------- optimizer --

std::vector<FileRequest> uniform_requests(Bytes size, int n) {
  std::vector<FileRequest> out;
  Bytes offset = 0;
  for (int i = 0; i < n; ++i) {
    out.push_back({IoOp::kRead, offset, size});
    offset += size;
  }
  return out;
}

TEST(DeviceOptimizer, HomogeneousSearchReportsNoMemberRestriction) {
  const TieredCostParams params = two_tier_params();
  const auto requests = uniform_requests(512 * KiB, 16);
  const auto result =
      core::optimize_region(params, requests, 512.0 * KiB);
  EXPECT_TRUE(result.members.empty());
}

TEST(DeviceOptimizer, HeterogeneousSearchCrossesMemberPrefixes) {
  TieredCostParams fresh = two_tier_params();
  TieredCostParams aged = fresh;
  aged.tiers[1].device_factors = {1.0, 1.0, 4.0, 4.0};
  const auto requests = uniform_requests(512 * KiB, 16);
  const auto fresh_result =
      core::optimize_region(fresh, requests, 512.0 * KiB);
  const auto aged_result =
      core::optimize_region(aged, requests, 512.0 * KiB);
  // Factor groups {1, 1} and {4, 4} contribute prefix choices {2, 4} for
  // tier 1, so the aged grid is strictly larger than the fresh one.
  EXPECT_GT(aged_result.candidates_evaluated,
            fresh_result.candidates_evaluated);
  // A device-aware winner always states its membership, one count per tier,
  // bounded by the tier sizes.
  ASSERT_EQ(aged_result.members.size(), 2u);
  EXPECT_LE(aged_result.members[0], 2u);
  EXPECT_LE(aged_result.members[1], 4u);
  EXPECT_TRUE(aged_result.members[1] == 2u || aged_result.members[1] == 4u)
      << aged_result.members[1];
}

TEST(DeviceOptimizer, TransferBoundRegionRestrictsToTheFreshPrefix) {
  // Make the device transfer term dominate (slow media, free network): the
  // search must stripe tier 1 over only its two fresh members.
  TieredCostParams params;
  TierSpec tier;
  tier.count = 4;
  tier.profile.name = "slow";
  tier.profile.read.per_byte = 1e-6;  // 1 MB/s media
  tier.profile.write = tier.profile.read;
  tier.device_factors = {1.0, 1.0, 8.0, 8.0};
  params.tiers = {tier};
  params.t = 1e-12;
  const auto requests = uniform_requests(512 * KiB, 8);
  const auto result =
      core::optimize_region(params, requests, 512.0 * KiB);
  ASSERT_EQ(result.members.size(), 1u);
  EXPECT_EQ(result.members[0], 2u);
}

// ---------------------------------------------------------------- cluster --

TEST(DeviceCluster, EffectiveTiersCanonicalizeFactors) {
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 4;
  cfg.tiers[1].device_factors = {2.0, 1.0, 1.0, 2.0};
  const auto tiers = cfg.effective_tiers();
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_TRUE(tiers[0].device_factors.empty());
  EXPECT_EQ(tiers[1].device_factors, (std::vector<double>{1.0, 1.0, 2.0, 2.0}));

  cfg.tiers[1].device_factors = {1.0, 1.0, 1.0, 1.0};
  EXPECT_TRUE(cfg.effective_tiers()[1].device_factors.empty());

  cfg.tiers[1].device_factors = {1.0, 2.0};  // size != count
  EXPECT_THROW(cfg.effective_tiers(), std::invalid_argument);
}

TEST(DeviceCluster, ServersCarryTheirCanonicalSlotFactor) {
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 4;
  // Canonicalized to {1,1,2,2}.
  cfg.tiers[1].device_factors = {2.0, 1.0, 1.0, 2.0};
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cfg);
  ASSERT_EQ(cluster.num_servers(), 6u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(cluster.server(i).speed_factor(), 1.0) << "hserver " << i;
  }
  EXPECT_DOUBLE_EQ(cluster.server(2).speed_factor(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.server(3).speed_factor(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.server(4).speed_factor(), 2.0);
  EXPECT_DOUBLE_EQ(cluster.server(5).speed_factor(), 2.0);
}

// ------------------------------------------------------------ calibration --

TEST(DeviceCalibration, MeasuredFactorsTrackTheConfiguredAging) {
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 2;
  cfg.tiers[1].device_factors = {1.0, 2.0};
  harness::CalibrationOptions opts;
  opts.samples_per_size = 200;
  opts.beta_samples = 200;
  const TieredCostParams params = harness::calibrate(cfg, opts);
  EXPECT_TRUE(params.tiers[0].device_factors.empty());
  ASSERT_EQ(params.tiers[1].device_factors.size(), 2u);
  EXPECT_NEAR(params.tiers[1].device_factors[0], 1.0, 1e-9);
  // The probe measures the aged device's effective unit time against the
  // fresh one; the simulated device scales every time parameter, so the
  // ratio lands on the configured factor.
  EXPECT_NEAR(params.tiers[1].device_factors[1], 2.0, 0.05);
}

TEST(DeviceCalibration, DeviceBlindLeavesFactorsEmpty) {
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 2;
  cfg.tiers[1].device_factors = {1.0, 2.0};
  harness::CalibrationOptions opts;
  opts.samples_per_size = 100;
  opts.beta_samples = 100;
  opts.device_blind = true;
  const TieredCostParams params = harness::calibrate(cfg, opts);
  EXPECT_TRUE(params.tiers[0].device_factors.empty());
  EXPECT_TRUE(params.tiers[1].device_factors.empty());
}

// --------------------------------------------------- plan + install guard --

std::vector<trace::TraceRecord> small_trace() {
  std::vector<trace::TraceRecord> records;
  Bytes offset = 0;
  for (int i = 0; i < 32; ++i) {
    trace::TraceRecord r;
    r.op = IoOp::kRead;
    r.offset = offset;
    r.size = 512 * KiB;
    offset += r.size;
    records.push_back(r);
  }
  return records;
}

TieredCostParams aged_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{2, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  p.tiers[1].device_factors = {1.0, 2.0};
  return p;
}

TEST(DevicePlan, AnalyzeStampsTheDeviceTableIntoThePlan) {
  const core::Plan plan = core::analyze(small_trace(), aged_params());
  ASSERT_EQ(plan.device_factors.size(), 2u);
  EXPECT_TRUE(plan.device_factors[0].empty());
  EXPECT_EQ(plan.device_factors[1], (std::vector<double>{1.0, 2.0}));

  TieredCostParams fresh = aged_params();
  fresh.tiers[1].device_factors = {};
  const core::Plan fresh_plan = core::analyze(small_trace(), fresh);
  EXPECT_TRUE(fresh_plan.device_factors.empty());
}

TEST(DevicePlan, InstallRejectsAMismatchedFleet) {
  const TieredCostParams params = aged_params();
  const core::Plan plan = core::analyze(small_trace(), params);
  const std::string path =
      ::testing::TempDir() + "/device_model_install_test.plan";
  core::save_plan(core::PlanArtifact::from_plan(plan), path);

  pfs::ClusterConfig cluster;
  cluster.tiers[0].count = 2;
  cluster.tiers[1].count = 2;
  cluster.tiers[1].device_factors = {1.0, 2.0};
  const auto scheme = harness::LayoutScheme::from_plan_file(path);
  // Matching fleet: installs.
  EXPECT_NE(harness::build_layout(scheme, cluster, {}, params, {}), nullptr);

  // A differently aged fleet must be rejected, naming the device table.
  cluster.tiers[1].device_factors = {1.0, 4.0};
  try {
    harness::build_layout(scheme, cluster, {}, params, {});
    FAIL() << "mismatched device table was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("device"), std::string::npos)
        << e.what();
  }

  // So must a fresh fleet (the plan assumed aged devices)...
  cluster.tiers[1].device_factors = {};
  EXPECT_THROW(harness::build_layout(scheme, cluster, {}, params, {}),
               std::runtime_error);

  // ...and the converse: a homogeneous plan on an aged fleet.
  TieredCostParams fresh = params;
  fresh.tiers[1].device_factors = {};
  const core::Plan fresh_plan = core::analyze(small_trace(), fresh);
  const std::string fresh_path =
      ::testing::TempDir() + "/device_model_install_fresh.plan";
  core::save_plan(core::PlanArtifact::from_plan(fresh_plan), fresh_path);
  const auto fresh_scheme = harness::LayoutScheme::from_plan_file(fresh_path);
  cluster.tiers[1].device_factors = {};
  EXPECT_NE(harness::build_layout(fresh_scheme, cluster, {}, fresh, {}),
            nullptr);
  cluster.tiers[1].device_factors = {1.0, 2.0};
  EXPECT_THROW(harness::build_layout(fresh_scheme, cluster, {}, fresh, {}),
               std::runtime_error);
}

// ------------------------------------------- harness golden byte-identity --

harness::WorkloadBundle small_bundle() {
  workloads::IorConfig ior;
  ior.processes = 4;
  ior.request_size = 128 * KiB;
  ior.file_size = 64 * MiB;
  ior.requests_per_process = 8;
  return harness::ior_bundle(ior);
}

harness::ExperimentOptions small_options() {
  harness::ExperimentOptions options;
  options.cluster.tiers[0].count = 3;
  options.cluster.tiers[1].count = 2;
  options.cluster.num_clients = 2;
  options.calibration.samples_per_size = 50;
  options.calibration.beta_samples = 50;
  return options;
}

/// Every numeric output of a run, formatted at full precision: equal
/// strings == bit-equal results.
std::string fingerprint(const harness::SchemeResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.label << '|' << r.layout_description << '|' << r.region_count << '|'
     << r.write.makespan << '|' << r.write.bytes << '|' << r.read.makespan
     << '|' << r.read.bytes << '|' << r.total.makespan << '|' << r.total.bytes;
  for (const Seconds io_time : r.server_io_time) os << '|' << io_time;
  if (r.plan.has_value()) {
    os << '|';
    core::save_plan_csv(core::PlanArtifact::from_plan(*r.plan), os);
  }
  return os.str();
}

TEST(DeviceGolden, AllOnesFactorsAreByteIdenticalToNoFactors) {
  // The homogeneous guarantee end to end: configuring explicit 1.0 factors
  // for every device must reproduce the factor-free run bit for bit — same
  // plan (RST + fingerprint), same makespans, same per-server times.
  const harness::WorkloadBundle bundle = small_bundle();
  const std::vector<harness::LayoutScheme> schemes{
      harness::LayoutScheme::fixed(64 * KiB), harness::LayoutScheme::harl()};

  harness::Experiment plain(small_options());
  const auto want = plain.run_all(bundle, schemes);

  harness::ExperimentOptions ones = small_options();
  ones.cluster.tiers[0].device_factors = {1.0, 1.0, 1.0};
  ones.cluster.tiers[1].device_factors = {1.0, 1.0};
  harness::Experiment aged(ones);
  const auto got = aged.run_all(bundle, schemes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
        << "scheme " << schemes[i].label();
  }
  // And the plan stays a pre-device-model plan: no device table at all.
  ASSERT_TRUE(got[1].plan.has_value());
  EXPECT_TRUE(got[1].plan->device_factors.empty());
}

}  // namespace
}  // namespace harl
