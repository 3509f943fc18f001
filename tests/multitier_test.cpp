// Tests for the multi-tier extension (the paper's stated future work):
// tier-group clusters, the k-tier layout helper, and the generalized
// stripe optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/common/rng.hpp"
#include "src/core/plan_artifact.hpp"
#include "src/core/planner.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/harness/scheme.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/profiles.hpp"
#include "src/trace/record.hpp"

namespace harl {
namespace {

pfs::ClusterConfig three_tier_config() {
  pfs::ClusterConfig cfg;
  cfg.tiers = {
      pfs::TierGroup{"hdd", 4, storage::hdd_profile(), false, {}},
      pfs::TierGroup{"sata", 2, storage::sata_ssd_profile(), true, {}},
      pfs::TierGroup{"nvme", 2, storage::nvme_ssd_profile(), true, {}},
  };
  cfg.num_clients = 4;
  return cfg;
}

core::TieredCostParams three_tier_params() {
  core::TieredCostParams p;
  p.t = 1.0 / (117.0 * 1024 * 1024);
  p.tiers = {
             core::TierSpec{4, storage::hdd_profile(), {}},
      core::TierSpec{2, storage::sata_ssd_profile(), {}},
      core::TierSpec{2, storage::nvme_ssd_profile(), {}},
  };
  // Calibrated-style HDD parameters (see harness::calibrate).
  auto& hdd = p.tiers[0].profile;
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

std::vector<FileRequest> uniform_requests(Bytes size, std::size_t count) {
  Rng rng(5);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 2048) * size, size});
  }
  return reqs;
}

// ----------------------------------------------------------- cluster ----

TEST(TieredCluster, BuildsGroupsInOrder) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  EXPECT_EQ(cluster.num_servers(), 8u);
  EXPECT_EQ(cluster.num_tiers(), 3u);
  EXPECT_EQ(cluster.tier(0).name, "hdd");
  EXPECT_EQ(cluster.tier_begin(0), 0u);
  EXPECT_EQ(cluster.tier_begin(1), 4u);
  EXPECT_EQ(cluster.tier_begin(2), 6u);
  EXPECT_EQ(cluster.server(0).name(), "hdd0");
  EXPECT_EQ(cluster.server(4).name(), "sata0");
  EXPECT_EQ(cluster.server(7).name(), "nvme1");
  EXPECT_FALSE(cluster.server(3).is_ssd());
  EXPECT_TRUE(cluster.server(4).is_ssd());
  // Aggregate H/S counts still make sense.
  EXPECT_EQ(cluster.num_hservers(), 4u);
  EXPECT_EQ(cluster.num_sservers(), 4u);
}

TEST(TieredCluster, TwoTierConfigSynthesizesGroups) {
  pfs::ClusterConfig cfg;  // defaults: 6 HDD + 2 SSD
  const auto groups = cfg.effective_tiers();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].count, 6u);
  EXPECT_FALSE(groups[0].is_ssd);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_TRUE(groups[1].is_ssd);

  sim::Simulator sim;
  pfs::Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.num_tiers(), 2u);
  EXPECT_EQ(cluster.num_hservers(), 6u);
  EXPECT_EQ(cluster.num_sservers(), 2u);
}

TEST(TieredCluster, ServesIoAcrossAllTiers) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  const std::vector<std::size_t> counts = {4, 2, 2};
  const std::vector<Bytes> stripes = {16 * KiB, 64 * KiB, 128 * KiB};
  auto layout = pfs::make_tiered_layout(counts, stripes);
  const Bytes period = 4 * 16 * KiB + 2 * 64 * KiB + 2 * 128 * KiB;
  bool done = false;
  cluster.client(0).io(*layout, IoOp::kWrite, 0, period, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.server(0).bytes_written(), 16 * KiB);
  EXPECT_EQ(cluster.server(4).bytes_written(), 64 * KiB);
  EXPECT_EQ(cluster.server(7).bytes_written(), 128 * KiB);
}

TEST(TieredLayout, ValidatesShapes) {
  EXPECT_THROW(pfs::make_tiered_layout({1, 2}, {4 * KiB}),
               std::invalid_argument);
  auto layout = pfs::make_tiered_layout({2, 1}, {0, 64 * KiB});
  EXPECT_EQ(layout->server_count(), 3u);
  EXPECT_EQ(layout->period(), 64 * KiB);
}

// --------------------------------------------------------- optimizer ----

TEST(TieredOptimizer, StripesAreMonotoneAcrossTiers) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 48);
  core::OptimizerOptions opts;
  opts.step = 32 * KiB;
  const auto result = core::optimize_region(p, reqs, 1.0 * MiB, opts);
  ASSERT_EQ(result.stripes.size(), 3u);
  EXPECT_LE(result.stripes[0], result.stripes[1]);
  EXPECT_LE(result.stripes[1], result.stripes[2]);
  EXPECT_GT(result.stripes[2], 0u);
  EXPECT_GT(result.candidates_evaluated, 10u);
}

TEST(TieredOptimizer, TwoTierAgreesWithDedicatedAlgorithm2) {
  // Two tiers select the paper's Algorithm 2 grid: (h, s) with s >= h + step
  // and h = 0 allowed, the h = R extreme keeping s = R + step.  The search
  // must score exactly that grid and return its cheapest pair.
  core::TieredCostParams p2;
  p2.t = 1.0 / (117.0 * 1024 * 1024);
  auto hdd = storage::hdd_profile();
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  p2.tiers = {core::TierSpec{6, hdd, {}},
              core::TierSpec{2, storage::pcie_ssd_profile(), {}}};

  const auto reqs = uniform_requests(512 * KiB, 64);
  core::OptimizerOptions opts;
  opts.step = 8 * KiB;
  const auto found = core::optimize_region(p2, reqs, 512.0 * KiB, opts);

  const Bytes R = 512 * KiB;
  std::size_t pairs = 0;
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (Bytes h = 0; h <= R; h += opts.step) {
    for (Bytes s = h + opts.step; s <= std::max(R, h + opts.step);
         s += opts.step) {
      ++pairs;
      best = std::min(best,
                      core::region_cost(p2, reqs, std::vector<Bytes>{h, s}));
    }
  }
  EXPECT_EQ(found.candidates_evaluated, pairs);
  EXPECT_EQ(found.model_cost, best);
  EXPECT_LT(found.stripes[0], found.stripes[1]);
}

TEST(TieredOptimizer, FastTierGetsTheLargestStripes) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(2 * MiB, 32);
  core::OptimizerOptions opts;
  opts.step = 64 * KiB;
  const auto result = core::optimize_region(p, reqs, 2.0 * MiB, opts);
  // NVMe strictly outranks the HDD tier for big hybrid spreads.
  EXPECT_GT(result.stripes[2], result.stripes[0]);
}

TEST(TieredOptimizer, BeatsCollapsedTwoTierOnTheModel) {
  // Collapse SATA+NVMe into one blended tier, optimize, re-expand, and
  // compare model costs: tier awareness can only help.
  const auto p3 = three_tier_params();
  const auto reqs = uniform_requests(2 * MiB, 32);
  core::OptimizerOptions opts;
  opts.step = 64 * KiB;
  const auto aware = core::optimize_region(p3, reqs, 2.0 * MiB, opts);

  core::TieredCostParams collapsed = p3;
  storage::TierProfile blended = storage::sata_ssd_profile();
  const storage::TierProfile nvme = storage::nvme_ssd_profile();
  for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    storage::OpProfile& out = op == IoOp::kRead ? blended.read : blended.write;
    out.startup_min = 0.5 * (out.startup_min + nvme.op(op).startup_min);
    out.startup_max = 0.5 * (out.startup_max + nvme.op(op).startup_max);
    out.per_byte = 0.5 * (out.per_byte + nvme.op(op).per_byte);
  }
  collapsed.tiers = {p3.tiers[0], core::TierSpec{4, blended, {}}};
  const auto blind = core::optimize_region(collapsed, reqs, 2.0 * MiB, opts);
  // Evaluate the blind choice on the *real* three-tier cluster.
  const std::vector<Bytes> expanded = {blind.stripes[0], blind.stripes[1],
                                       blind.stripes[1]};
  const Seconds blind_cost = core::region_cost(p3, reqs, expanded);
  EXPECT_LE(aware.model_cost, blind_cost + 1e-12);
}

TEST(TieredOptimizer, CoalescedSearchIsBitIdenticalToBruteForce) {
  // The k-tier cost is periodic in the offset with period
  // sum(count_j * stripe_j); coalescing memoizes per class but sums in
  // original order, so the result matches an exhaustive region_cost scan
  // of the monotone grid bit for bit (ties to the larger stripes).
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 48);
  core::OptimizerOptions opts;
  opts.step = 64 * KiB;
  Seconds best_cost = std::numeric_limits<Seconds>::infinity();
  std::vector<Bytes> best;
  std::size_t candidates = 0;
  std::vector<Bytes> st(3);
  for (st[0] = 0; st[0] <= MiB; st[0] += opts.step) {
    for (st[1] = st[0]; st[1] <= MiB; st[1] += opts.step) {
      for (st[2] = st[1]; st[2] <= MiB; st[2] += opts.step) {
        if (st[2] == 0) continue;
        ++candidates;
        const Seconds c = core::region_cost(p, reqs, st);
        if (c < best_cost || (c == best_cost && st > best)) {
          best_cost = c;
          best = st;
        }
      }
    }
  }
  const auto got = core::optimize_region(p, reqs, 1.0 * MiB, opts);
  EXPECT_EQ(got.stripes, best);
  EXPECT_EQ(got.model_cost, best_cost);
  EXPECT_EQ(got.candidates_evaluated, candidates);
  EXPECT_GT(got.cost_evals_saved, 0u);
  EXPECT_EQ(got.cost_evals + got.cost_evals_saved,
            (got.candidates_evaluated - got.candidates_pruned) * 48u);
}

TEST(TieredOptimizer, ValidatesInputs) {
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  EXPECT_THROW(core::optimize_region(p, {}, 64.0 * KiB),
               std::invalid_argument);
  EXPECT_THROW(core::optimize_region(p, reqs, 0.0),
               std::invalid_argument);
  core::TieredCostParams empty;
  EXPECT_THROW(core::optimize_region(empty, reqs, 64.0 * KiB),
               std::invalid_argument);
  // The SServer share bound names the last of exactly two tiers.
  core::OptimizerOptions bounded;
  bounded.max_sserver_share = 0.5;
  EXPECT_THROW(core::optimize_region(p, reqs, 64.0 * KiB, bounded),
               std::invalid_argument);
}

// ------------------------------------------------- end-to-end (sim) ----

TEST(TieredIntegration, AwareLayoutBeatsUniformInSimulation) {
  // Run the same IOR-ish request stream on the three-tier cluster under a
  // uniform 64K layout and under the tier-aware optimum.
  const auto p = three_tier_params();
  const auto reqs = uniform_requests(1 * MiB, 64);
  core::OptimizerOptions opts;
  opts.step = 32 * KiB;
  const auto aware = core::optimize_region(p, reqs, 1.0 * MiB, opts);

  auto run_layout = [&](std::shared_ptr<const pfs::Layout> layout) {
    sim::Simulator sim;
    pfs::Cluster cluster(sim, three_tier_config());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      cluster.client(i % cluster.num_clients())
          .io(*layout, reqs[i].op, reqs[i].offset, reqs[i].size, [] {});
    }
    sim.run();
    return sim.now();
  };

  const std::vector<std::size_t> counts = {4, 2, 2};
  const Seconds uniform = run_layout(pfs::make_fixed_layout(8, 64 * KiB));
  const Seconds tier_aware =
      run_layout(pfs::make_tiered_layout(counts, aware.stripes));
  EXPECT_LT(tier_aware, uniform);
}

TEST(TieredIntegration, PlannerToPlacementUsesOnePath) {
  // Full three-tier pipeline on the generic tier-vector representation:
  // trace -> analyze -> Plan artifact round trip -> validated install on a
  // three-tier cluster -> simulated I/O.  Exactly the same placement code
  // the two-tier path uses.
  const auto p = three_tier_params();
  std::vector<trace::TraceRecord> records;
  {
    Rng rng(5);
    for (std::size_t i = 0; i < 128; ++i) {
      trace::TraceRecord rec;
      rec.rank = static_cast<std::uint32_t>(i % 4);
      rec.op = i % 2 ? IoOp::kRead : IoOp::kWrite;
      // Two bands with different request sizes so Algorithm 1 can split.
      if (i % 2) {
        rec.size = 64 * KiB;
        rec.offset = rng.uniform_u64(0, 255) * rec.size;
      } else {
        rec.size = 1 * MiB;
        rec.offset = 64 * MiB + rng.uniform_u64(0, 255) * rec.size;
      }
      rec.t_start = static_cast<Seconds>(i);
      records.push_back(rec);
    }
  }
  core::PlannerOptions opts;
  opts.optimizer.step = 32 * KiB;
  opts.divider.fixed_region_size = 16 * MiB;
  const core::Plan plan = core::analyze(records, p, opts);
  ASSERT_GE(plan.rst.size(), 1u);
  EXPECT_EQ(plan.rst.num_tiers(), 3u);
  EXPECT_EQ(plan.tier_counts, (std::vector<std::size_t>{4, 2, 2}));
  EXPECT_EQ(plan.calibration_fingerprint, core::params_fingerprint(p));

  // Through the artifact, as a separate Placing process would see it.
  const std::string path =
      ::testing::TempDir() + "/three_tier_roundtrip.plan";
  core::save_plan(core::PlanArtifact::from_plan(plan), path);
  const core::Plan loaded =
      harness::load_validated_plan(path, three_tier_config(), p);
  EXPECT_EQ(loaded.tier_counts, plan.tier_counts);
  EXPECT_EQ(loaded.rst.entries(), plan.rst.entries());

  sim::Simulator sim;
  pfs::Cluster cluster(sim, three_tier_config());
  const auto layout = harness::place_plan(loaded);
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->server_count(), 8u);
  EXPECT_EQ(layout->region_count(), loaded.rst.size());
  for (const auto& rec : records) {
    cluster.client(rec.rank % cluster.num_clients())
        .io(*layout, rec.op, rec.offset, rec.size, [] {});
  }
  sim.run();
  EXPECT_GT(sim.now(), 0.0);
}

TEST(TieredIntegration, InstallRejectsMismatchedTierTable) {
  // The one install check on a three-tier cluster: the plan's own artifact
  // installs; a foreign fingerprint, tier table or device table is refused
  // with an error naming the check that failed.
  const auto p = three_tier_params();
  core::PlanArtifact own;
  own.tier_counts = {4, 2, 2};
  own.calibration_fingerprint = core::params_fingerprint(p);
  own.rst.add(0, {16 * KiB, 64 * KiB, 128 * KiB}, {4, 2, 1});

  core::PlanArtifact stale = own;
  stale.calibration_fingerprint ^= 1;
  core::PlanArtifact two_tier = own;  // a two-tier plan on a 3-tier cluster
  two_tier.tier_counts = {6, 2};
  two_tier.rst = {};
  two_tier.rst.add(0, {16 * KiB, 64 * KiB});
  core::PlanArtifact aged = own;  // planned for an aged NVMe tier
  aged.device_factors = {{}, {}, {1.0, 2.0}};

  const struct {
    const char* name;
    const core::PlanArtifact& artifact;
    const char* error;  ///< nullptr: installs
  } cases[] = {{"own", own, nullptr},
               {"stale", stale, "different calibration"},
               {"two_tier", two_tier, "tier table"},
               {"aged", aged, "device-factor table"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        ::testing::TempDir() + "/three_tier_" + c.name + ".plan";
    core::save_plan(c.artifact, path);
    if (c.error == nullptr) {
      EXPECT_EQ(harness::place_plan(harness::load_validated_plan(
                                        path, three_tier_config(), p))
                    ->server_count(),
                8u);
      continue;
    }
    try {
      harness::load_validated_plan(path, three_tier_config(), p);
      ADD_FAILURE() << "installed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace harl
