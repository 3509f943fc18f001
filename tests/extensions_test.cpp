// Tests for the substrate extensions: fixed-chunk region division (the
// paper's rejected strawman), trace replay, and fault injection.
#include <gtest/gtest.h>

#include "src/core/planner.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/middleware/runner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/storage/faulty.hpp"
#include "src/storage/hdd.hpp"
#include "src/workloads/random_workload.hpp"
#include "src/workloads/replay.hpp"

namespace harl {
namespace {

trace::TraceRecord request(Bytes offset, Bytes size, std::uint32_t rank = 0,
                           IoOp op = IoOp::kWrite, Seconds t0 = 0.0) {
  trace::TraceRecord r;
  r.rank = rank;
  r.pid = rank;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = t0;
  r.t_end = t0 + 1e-3;
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

// ------------------------------------------------------------- replay ----

TEST(Replay, GroupsByRankInTemporalOrder) {
  std::vector<trace::TraceRecord> records = {
      request(0, 4 * KiB, 1, IoOp::kRead, 0.3),
      request(100 * KiB, 4 * KiB, 0, IoOp::kWrite, 0.1),
      request(200 * KiB, 4 * KiB, 1, IoOp::kRead, 0.2),
  };
  const auto programs = workloads::make_replay_programs(records);
  ASSERT_EQ(programs.size(), 2u);
  ASSERT_EQ(programs[0].size(), 1u);
  ASSERT_EQ(programs[1].size(), 2u);
  // Rank 1's requests replay in t_start order: 0.2 then 0.3.
  EXPECT_EQ(programs[1][0].extents[0].offset, 200 * KiB);
  EXPECT_EQ(programs[1][1].extents[0].offset, 0u);
}

TEST(Replay, PreserveGapsInsertsComputeActions) {
  std::vector<trace::TraceRecord> records = {
      request(0, 4 * KiB, 0, IoOp::kWrite, 0.0),      // ends at 1 ms
      request(8 * KiB, 4 * KiB, 0, IoOp::kWrite, 0.5)  // 499 ms think time
  };
  workloads::ReplayOptions opts;
  opts.preserve_gaps = true;
  const auto programs = workloads::make_replay_programs(records, opts);
  ASSERT_EQ(programs[0].size(), 3u);
  EXPECT_EQ(programs[0][1].kind, mw::IoAction::Kind::kCompute);
  EXPECT_NEAR(programs[0][1].compute, 0.499, 1e-9);
}

TEST(Replay, RoundTripsThroughTheRunner) {
  // Capture a trace, replay it, and verify the same PFS-level requests.
  workloads::RandomWorkloadConfig cfg;
  cfg.requests = 60;
  cfg.ranks = 3;
  cfg.file_size = 256 * MiB;
  const auto original = workloads::make_random_trace(cfg);

  auto run_and_collect = [](const std::vector<mw::RankProgram>& programs,
                            std::size_t ranks) {
    sim::Simulator sim;
    pfs::ClusterConfig ccfg;
    ccfg.num_clients = 2;
    pfs::Cluster cluster(sim, ccfg);
    mw::MpiWorld world(cluster, ranks);
    trace::TraceCollector collector;
    mw::ProgramRunner runner(
        world, "f", pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB),
        &collector);
    runner.run(programs);
    return collector.sorted_by_offset();
  };

  const auto first =
      run_and_collect(workloads::make_replay_programs(original), cfg.ranks);
  const auto second = run_and_collect(
      workloads::make_replay_programs(first), cfg.ranks);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].offset, second[i].offset);
    EXPECT_EQ(first[i].size, second[i].size);
    EXPECT_EQ(first[i].op, second[i].op);
  }
}

TEST(Replay, ValidatesInputs) {
  EXPECT_THROW(workloads::make_replay_programs({}), std::invalid_argument);
  std::vector<trace::TraceRecord> records = {request(0, 1, /*rank=*/5)};
  workloads::ReplayOptions opts;
  opts.ranks = 2;  // rank 5 does not fit
  EXPECT_THROW(workloads::make_replay_programs(records, opts),
               std::invalid_argument);
}

// ------------------------------------------------------------- faults ----

TEST(FaultyDevice, SlowdownScalesServiceTimes) {
  auto make = [](double slowdown) {
    return storage::FaultyDevice(
        std::make_unique<storage::HddDevice>(storage::hdd_profile(), 3),
        storage::FaultyDevice::Faults{slowdown, 0, 0.0});
  };
  auto healthy = make(1.0);
  auto degraded = make(3.0);
  // Same seed: identical underlying service streams.
  for (int i = 0; i < 50; ++i) {
    const Bytes offset = static_cast<Bytes>(i) * 10 * MiB;
    const Seconds a = healthy.service_time(IoOp::kRead, offset, 64 * KiB);
    const Seconds b = degraded.service_time(IoOp::kRead, offset, 64 * KiB);
    EXPECT_NEAR(b, 3.0 * a, 1e-12);
  }
}

TEST(FaultyDevice, HiccupsFireEveryNth) {
  storage::FaultyDevice dev(
      std::make_unique<storage::HddDevice>(storage::hdd_profile(), 4),
      storage::FaultyDevice::Faults{1.0, 5, 0.5});
  for (int i = 0; i < 20; ++i) dev.service_time(IoOp::kRead, 0, 4 * KiB);
  EXPECT_EQ(dev.accesses(), 20u);
  EXPECT_EQ(dev.hiccups(), 4u);
  dev.reset();
  EXPECT_EQ(dev.accesses(), 0u);
}

TEST(FaultyDevice, ValidatesConfiguration) {
  auto inner = std::make_unique<storage::HddDevice>(storage::hdd_profile(), 5);
  EXPECT_THROW(storage::FaultyDevice(nullptr, {}), std::invalid_argument);
  EXPECT_THROW(storage::FaultyDevice(std::move(inner),
                                     storage::FaultyDevice::Faults{0.5, 0, 0}),
               std::invalid_argument);
}

TEST(FaultInjection, DegradedServerShowsInClusterStats) {
  auto run = [](double slowdown) {
    sim::Simulator sim;
    pfs::ClusterConfig cfg;
    cfg.num_hservers = 2;
    cfg.num_sservers = 1;
    cfg.num_clients = 2;
    cfg.server_faults[0] = storage::FaultyDevice::Faults{slowdown, 0, 0.0};
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
    for (int i = 0; i < 32; ++i) {
      cluster.client(0).io(*layout, IoOp::kWrite,
                           static_cast<Bytes>(i) * 192 * KiB, 192 * KiB, [] {});
    }
    sim.run();
    return std::pair<Seconds, Seconds>(cluster.server(0).io_time(),
                                       cluster.server(1).io_time());
  };
  const auto healthy = run(1.0);
  const auto degraded = run(4.0);
  // Server 0 slows ~4x while its healthy peer is unchanged.
  EXPECT_NEAR(degraded.first / healthy.first, 4.0, 0.2);
  EXPECT_NEAR(degraded.second, healthy.second, healthy.second * 0.01);
}

}  // namespace
}  // namespace harl
