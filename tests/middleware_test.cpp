// Tests for the MPI-IO-like middleware: MPI world, program runner
// (independent I/O, barriers, two-phase collective I/O) and trace capture.
#include <gtest/gtest.h>

#include "src/middleware/mpi_world.hpp"
#include "src/middleware/runner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"
#include "src/workloads/ior.hpp"

namespace harl::mw {
namespace {

pfs::ClusterConfig small_config() {
  pfs::ClusterConfig cfg;
  cfg.num_hservers = 2;
  cfg.num_sservers = 1;
  cfg.num_clients = 2;
  return cfg;
}

TEST(MpiWorld, RoundRobinRankPlacement) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 5);
  EXPECT_EQ(world.size(), 5u);
  EXPECT_EQ(world.node_of(0), 0u);
  EXPECT_EQ(world.node_of(1), 1u);
  EXPECT_EQ(world.node_of(2), 0u);  // wraps over 2 nodes
  EXPECT_EQ(&world.client_of(2), &cluster.client(0));
}

TEST(Runner, IndependentIoCompletesAndCounts) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);

  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::io(IoOp::kWrite, 0, 128 * KiB));
  programs[1].push_back(IoAction::io(IoOp::kRead, 1 * MiB, 64 * KiB));

  const RunResult result = runner.run(programs);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_EQ(result.bytes_written, 128 * KiB);
  EXPECT_EQ(result.bytes_read, 64 * KiB);
  EXPECT_GT(result.write_throughput(), 0.0);
}

TEST(Runner, RegistersFileAtMds) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 1);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "registered.dat", layout);
  EXPECT_TRUE(cluster.mds().has_file("registered.dat"));
  EXPECT_EQ(cluster.mds().lookups_served(), 0u);
  runner.run({RankProgram{}});
  // Opening charges one MDS lookup per compute node.
  EXPECT_EQ(cluster.mds().lookups_served(), cluster.num_clients());
}

TEST(Runner, SequentialActionsSerializePerRank) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 1);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);

  std::vector<RankProgram> one(1);
  one[0].push_back(IoAction::io(IoOp::kWrite, 0, 64 * KiB));
  const Seconds single = runner.run(one).makespan;

  std::vector<RankProgram> three(1);
  for (int i = 0; i < 3; ++i) {
    three[0].push_back(IoAction::io(IoOp::kWrite, 0, 64 * KiB));
  }
  const Seconds triple = runner.run(three).makespan;
  EXPECT_GT(triple, 2.0 * single * 0.8);  // roughly 3x, allowing variance
}

TEST(Runner, ComputeActionsAdvanceTime) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::compute_for(2.0));
  programs[1].push_back(IoAction::compute_for(0.5));
  const RunResult result = runner.run(programs);
  EXPECT_GE(result.makespan, 2.0);
  EXPECT_LT(result.makespan, 2.1);
}

TEST(Runner, BarrierSynchronizesRanks) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);

  // Rank 0 computes 1 s then hits a barrier; rank 1 barriers immediately and
  // then computes 1 s.  With the barrier, total >= 2 s.
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::compute_for(1.0));
  programs[0].push_back(IoAction::barrier());
  programs[1].push_back(IoAction::barrier());
  programs[1].push_back(IoAction::compute_for(1.0));
  const RunResult result = runner.run(programs);
  EXPECT_GE(result.makespan, 2.0);
}

TEST(Runner, CollectiveWriteAggregatesIntoContiguousRequests) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  trace::TraceCollector collector;
  ProgramRunner runner(world, "f", layout, &collector);

  // Interleaved per-rank pieces forming one contiguous 512 KiB range.
  std::vector<RankProgram> programs(2);
  std::vector<Extent> rank0;
  std::vector<Extent> rank1;
  for (int i = 0; i < 8; ++i) {
    const Bytes off = static_cast<Bytes>(i) * 64 * KiB;
    ((i % 2 == 0) ? rank0 : rank1).push_back(Extent{off, 64 * KiB});
  }
  programs[0].push_back(IoAction::collective(IoOp::kWrite, rank0));
  programs[1].push_back(IoAction::collective(IoOp::kWrite, rank1));
  const RunResult result = runner.run(programs);
  EXPECT_EQ(result.bytes_written, 512 * KiB);

  // Two aggregators (one per node) -> two large contiguous trace records.
  ASSERT_EQ(collector.size(), 2u);
  const auto sorted = collector.sorted_by_offset();
  EXPECT_EQ(sorted[0].offset, 0u);
  EXPECT_EQ(sorted[0].size, 256 * KiB);
  EXPECT_EQ(sorted[1].offset, 256 * KiB);
  EXPECT_EQ(sorted[1].size, 256 * KiB);
  // All bytes really reached the servers.
  Bytes stored = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    stored += cluster.server(i).bytes_written();
  }
  EXPECT_EQ(stored, 512 * KiB);
}

TEST(Runner, CollectiveReadScattersBackToRanks) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);

  std::vector<RankProgram> programs(2);
  programs[0].push_back(
      IoAction::collective(IoOp::kRead, {Extent{0, 128 * KiB}}));
  programs[1].push_back(
      IoAction::collective(IoOp::kRead, {Extent{128 * KiB, 128 * KiB}}));
  const RunResult result = runner.run(programs);
  EXPECT_EQ(result.bytes_read, 256 * KiB);
  Bytes served = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    served += cluster.server(i).bytes_read();
  }
  EXPECT_EQ(served, 256 * KiB);
}

TEST(Runner, EmptyCollectiveReleasesAllRanks) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::collective(IoOp::kWrite, {}));
  programs[1].push_back(IoAction::collective(IoOp::kWrite, {}));
  const RunResult result = runner.run(programs);
  EXPECT_EQ(result.bytes_written, 0u);
}

TEST(Runner, MismatchedSyncPointsAreDetected) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);
  // Rank 0 has a barrier, rank 1 does not: rank 0 can never be released.
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::barrier());
  EXPECT_THROW(runner.run(programs), std::logic_error);
}

TEST(Runner, MixedBarrierAndCollectiveAtSameSyncPointThrows) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::barrier());
  programs[1].push_back(
      IoAction::collective(IoOp::kWrite, {Extent{0, 4 * KiB}}));
  EXPECT_THROW(runner.run(programs), std::logic_error);
}

TEST(Runner, TraceCaptureMatchesIndependentRequests) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  trace::TraceCollector collector;
  ProgramRunner runner(world, "f", layout, &collector);
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::io(IoOp::kWrite, 0, 64 * KiB));
  programs[1].push_back(IoAction::io(IoOp::kRead, 1 * MiB, 32 * KiB));
  runner.run(programs);
  ASSERT_EQ(collector.size(), 2u);
  for (const auto& rec : collector.records()) {
    EXPECT_LT(rec.t_start, rec.t_end);
    if (rec.op == IoOp::kWrite) {
      EXPECT_EQ(rec.offset, 0u);
      EXPECT_EQ(rec.size, 64 * KiB);
      EXPECT_EQ(rec.rank, 0u);
    } else {
      EXPECT_EQ(rec.offset, 1 * MiB);
      EXPECT_EQ(rec.rank, 1u);
    }
  }
}

TEST(Runner, WrongProgramCountThrows) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);
  EXPECT_THROW(runner.run(std::vector<RankProgram>(3)), std::invalid_argument);
}

TEST(ProgramVolume, CountsReadsAndWrites) {
  std::vector<RankProgram> programs(2);
  programs[0].push_back(IoAction::io(IoOp::kWrite, 0, 100));
  programs[0].push_back(IoAction::barrier());
  programs[1].push_back(IoAction::collective(IoOp::kRead, {Extent{0, 30},
                                                           Extent{50, 20}}));
  const ProgramVolume v = program_volume(programs);
  EXPECT_EQ(v.write, 100u);
  EXPECT_EQ(v.read, 50u);
}

TEST(Runner, CollectiveIorBundleRunsEndToEnd) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  ProgramRunner runner(world, "f", layout);

  workloads::IorConfig ior;
  ior.processes = 2;
  ior.file_size = 8 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 4;
  ior.collective = true;
  ior.random_offsets = false;
  const auto programs = workloads::make_ior_programs(ior);
  const RunResult result = runner.run(programs);
  EXPECT_EQ(result.bytes_written, 2u * 4u * 512 * KiB);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(Runner, WorksOnThreeTierClusters) {
  sim::Simulator sim;
  pfs::ClusterConfig cfg;
  cfg.tiers = {
      pfs::TierGroup{"hdd", 2, storage::hdd_profile(), false, {}},
      pfs::TierGroup{"sata", 1, storage::sata_ssd_profile(), true, {}},
      pfs::TierGroup{"nvme", 1, storage::nvme_ssd_profile(), true, {}},
  };
  cfg.num_clients = 2;
  pfs::Cluster cluster(sim, cfg);
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_tiered_layout({2, 1, 1},
                                        {16 * KiB, 64 * KiB, 128 * KiB});
  ProgramRunner runner(world, "f", layout);
  std::vector<RankProgram> programs(2);
  const Bytes period = 2 * 16 * KiB + 64 * KiB + 128 * KiB;
  programs[0].push_back(IoAction::io(IoOp::kWrite, 0, period));
  programs[1].push_back(IoAction::io(IoOp::kRead, period, period));
  const RunResult result = runner.run(programs);
  EXPECT_EQ(result.bytes_written, period);
  EXPECT_EQ(result.bytes_read, period);
  EXPECT_EQ(cluster.server(3).bytes_written(), 128 * KiB);  // nvme0
  EXPECT_EQ(cluster.server(3).bytes_read(), 128 * KiB);
}

TEST(Runner, CollectiveBufferSplitsAggregatorRanges) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, small_config());
  MpiWorld world(cluster, 2);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  trace::TraceCollector collector;
  RunnerOptions opts;
  opts.collective.buffer_size = 128 * KiB;  // each aggregator: 256K range
  ProgramRunner runner(world, "f", layout, &collector, opts);

  std::vector<RankProgram> programs(2);
  programs[0].push_back(
      IoAction::collective(IoOp::kWrite, {Extent{0, 256 * KiB}}));
  programs[1].push_back(
      IoAction::collective(IoOp::kWrite, {Extent{256 * KiB, 256 * KiB}}));
  runner.run(programs);

  // Two aggregators x (256K / 128K buffer) = 4 PFS-level requests.
  ASSERT_EQ(collector.size(), 4u);
  for (const auto& rec : collector.records()) {
    EXPECT_EQ(rec.size, 128 * KiB);
  }
  // Rounds within one aggregator are sequential.
  const auto sorted = collector.sorted_by_offset();
  EXPECT_GE(sorted[1].t_start, sorted[0].t_end);
}

}  // namespace
}  // namespace harl::mw
