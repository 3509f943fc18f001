// Tests for the first-class namespace: tenant assignment, per-region replica
// placement, namespace capacity accounting, MDS lifecycle under concurrent
// open/unlink and open storms, the shared (file, chunk) read cache, and the
// population runner — including the failure/rebuild storm and its
// determinism across ThreadPool widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/harness/population.hpp"
#include "src/middleware/rebuild.hpp"
#include "src/obs/recorder.hpp"
#include "src/pfs/cache_manager.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/mds.hpp"
#include "src/pfs/region_layout.hpp"
#include "src/pfs/replication.hpp"
#include "src/pfs/space.hpp"
#include "src/sim/simulator.hpp"

namespace harl {
namespace {

// ---------------------------------------------------------------- tenants --

TEST(AssignTenants, UniformThetaIsEvenSplit) {
  const auto t = harness::assign_tenants(8, 2, 0.0);
  ASSERT_EQ(t.size(), 8u);
  std::size_t c0 = 0;
  for (auto x : t) c0 += x == 0 ? 1 : 0;
  EXPECT_EQ(c0, 4u);
}

TEST(AssignTenants, ZipfSkewFavorsTenantZero) {
  const auto t = harness::assign_tenants(9, 3, 1.0);
  EXPECT_EQ(t.front(), 0u);  // the hot tenant claims the first file
  std::vector<std::size_t> count(3, 0);
  for (auto x : t) ++count[x];
  EXPECT_GT(count[0], count[1]);
  EXPECT_GT(count[1], count[2]);
  EXPECT_GE(count[2], 1u);  // D'Hondt still gives the cold tenant a share
  // Pure function of the spec.
  EXPECT_EQ(t, harness::assign_tenants(9, 3, 1.0));
}

TEST(MakePopulation, ShapesRotateAndNamesEncodeTenancy) {
  harness::PopulationSpec spec;
  spec.files = 4;
  spec.tenants = 2;
  spec.processes = 2;
  spec.file_size = 2 * MiB;
  spec.request_size = 128 * KiB;
  const auto pop = harness::make_population(spec);
  ASSERT_EQ(pop.size(), 4u);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_EQ(pop[i].id, i);
    EXPECT_EQ(pop[i].bundle.processes, 2u);
    const std::string name = std::string("t")
                                 .append(std::to_string(pop[i].tenant))
                                 .append("/f")
                                 .append(std::to_string(i))
                                 .append(".dat");
    EXPECT_EQ(pop[i].name, name);
    EXPECT_EQ(pop[i].bundle.name, pop[i].name);
  }
  // id % 3 == 2 is the multi-region shape: its regions sum to the file size.
  EXPECT_EQ(pop[2].size, spec.file_size);
}

TEST(MakePopulation, RejectsMoreTenantsThanFiles) {
  // Every tenant must own at least one file.
  harness::PopulationSpec spec;
  spec.files = 2;
  spec.tenants = 3;
  EXPECT_THROW(harness::make_population(spec), std::invalid_argument);
  spec.tenants = 2;
  EXPECT_NO_THROW(harness::make_population(spec));
}

TEST(Population, RejectsTenantWithoutFiles) {
  // At theta 3 the D'Hondt split hands all 4 files to tenant 0.
  harness::PopulationSpec spec;
  spec.files = 4;
  spec.tenants = 4;
  spec.tenant_theta = 3.0;
  try {
    harness::make_population(spec);
    FAIL() << "a population with empty tenants was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tenant 1 of 4 would own no file"),
              std::string::npos)
        << e.what();
  }
  // The benchmark's population keeps its 14/8/6/4 split.
  spec.files = 32;
  spec.tenant_theta = 0.8;
  spec.file_size = 2 * MiB;
  spec.request_size = 128 * KiB;
  spec.processes = 2;
  std::vector<std::size_t> owned(spec.tenants, 0);
  for (const auto& file : harness::make_population(spec)) ++owned[file.tenant];
  EXPECT_EQ(owned, (std::vector<std::size_t>{14, 8, 6, 4}));
}

// --------------------------------------------------------------- replicas --

TEST(ReplicaMap, ChainedDeclustering) {
  const auto map = pfs::ReplicaMap::chained(4);
  EXPECT_EQ(map.replica_server(0, 0), 1u);
  EXPECT_EQ(map.replica_server(0, 1), 2u);
  EXPECT_EQ(map.replica_server(3, 0), 0u);  // wraps
  // A replica never lands on its primary.
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::uint32_t r = 0; r < 8; ++r) {
      EXPECT_NE(map.replica_server(p, r), p);
    }
  }
  EXPECT_THROW(pfs::ReplicaMap::chained(1), std::invalid_argument);
}

TEST(ReplicaMap, ReplicaImageKeepsExtentMovesObjectBand) {
  const auto map = pfs::ReplicaMap::chained(4);
  pfs::SubRequest sub;
  sub.server = 2;
  sub.object = 5;
  sub.server_offset = 192 * KiB;
  sub.size = 64 * KiB;
  sub.file_offset = 1 * MiB;
  sub.pieces = 3;
  const pfs::SubRequest rep = map.replica_of(sub);
  EXPECT_EQ(rep.object, pfs::ReplicaMap::kReplicaObject + 5);
  EXPECT_NE(rep.server, sub.server);
  EXPECT_EQ(rep.server_offset, sub.server_offset);
  EXPECT_EQ(rep.size, sub.size);
  EXPECT_EQ(rep.pieces, sub.pieces);
}

TEST(ReplicaMap, TieredPlacementHonorsRegionTiers) {
  // Tiers {4, 2}: tier 0 = servers 0..3, tier 1 = servers 4..5.  Region 0
  // replicates on the SServer tier, region 1 on the HServer tier.
  const auto map = pfs::ReplicaMap::tiered({4, 2}, {1, 0});
  for (std::size_t p = 0; p < 6; ++p) {
    const std::size_t r0 = map.replica_server(p, 0);
    EXPECT_GE(r0, 4u);
    EXPECT_NE(r0, p);
    const std::size_t r1 = map.replica_server(p, 1);
    EXPECT_LT(r1, 4u);
    EXPECT_NE(r1, p);
  }
  // Regions beyond the table fall back to whole-cluster chaining.
  const auto flat = pfs::ReplicaMap::chained(6);
  EXPECT_EQ(map.replica_server(0, 7), flat.replica_server(0, 7));
}

TEST(NamespaceFootprint, SumsFilesAndChargesReplicas) {
  const auto layout = pfs::make_fixed_layout(4, 64 * KiB);
  std::vector<pfs::NamespaceFile> files;
  files.push_back({layout.get(), 1 * MiB, false});
  files.push_back({layout.get(), 1 * MiB, true});
  const pfs::SpaceUsage usage = pfs::namespace_footprint(files, 4);
  EXPECT_EQ(usage.total, 3 * MiB);  // the replicated file stores two copies
  const Bytes summed = std::accumulate(usage.per_server.begin(),
                                       usage.per_server.end(), Bytes{0});
  EXPECT_EQ(summed, usage.total);
  // A file wider than the namespace is a caller error.
  std::vector<pfs::NamespaceFile> wide = {{layout.get(), 1 * MiB, false}};
  EXPECT_THROW(pfs::namespace_footprint(wide, 2), std::invalid_argument);
}

// -------------------------------------------------------------------- MDS --

TEST(MetadataServer, RemoveWhileLookupQueuedYieldsNull) {
  sim::Simulator sim;
  pfs::MetadataServer mds(sim, 1e-4);
  const auto layout = pfs::make_fixed_layout(4, 64 * KiB);
  mds.register_file("f", layout);

  std::shared_ptr<const pfs::Layout> got = layout;
  bool called = false;
  mds.lookup("f", [&](std::shared_ptr<const pfs::Layout> l) {
    got = std::move(l);
    called = true;
  });
  // The unlink lands while the lookup is still queued: the callback must see
  // the post-unlink namespace, not a layout the MDS no longer owns.
  mds.remove_file("f");
  sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(got, nullptr);
  EXPECT_FALSE(mds.has_file("f"));
}

TEST(MetadataServer, PlacementLookupCostScalesWithRegions) {
  const Seconds kLookup = 1e-4;
  const Seconds kPerRegion = 2e-6;
  const auto regions3 = std::make_shared<pfs::RegionLayout>(
      2, 2,
      std::vector<pfs::RegionSpec>{
          {0, {64 * KiB, 64 * KiB}},
          {1 * MiB, {128 * KiB, 64 * KiB}},
          {2 * MiB, {64 * KiB, 128 * KiB}},
      });
  EXPECT_EQ(pfs::MetadataServer::region_count_of(*regions3), 3u);
  EXPECT_EQ(
      pfs::MetadataServer::region_count_of(*pfs::make_fixed_layout(4, 64 * KiB)),
      1u);

  sim::Simulator sim;
  pfs::MetadataServer mds(sim, kLookup, kPerRegion);
  mds.register_file("r", regions3);
  mds.placement_lookup("r", [](std::shared_ptr<const pfs::Layout>) {});
  sim.run();
  EXPECT_NEAR(sim.now(), kLookup + 3 * kPerRegion, 1e-12);
}

TEST(MetadataServer, OpenStormQueuesThroughTheFifo) {
  // Thousands of colliding opens serialize through the MDS FIFO, and the
  // MDS queue adds no track or series to an observing recorder.
  const std::size_t kOpens = 2000;
  sim::Simulator sim;
  obs::Recorder recorder(obs::Recorder::Options{});
  sim.set_observer(&recorder);
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 2;
  cfg.num_clients = 2;
  pfs::Cluster cluster(sim, cfg);
  const std::size_t tracks = recorder.resource_summaries().size();
  const auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  cluster.mds().register_file("f", layout);

  for (std::size_t i = 0; i < kOpens; ++i) {
    cluster.mds().lookup("f", [](std::shared_ptr<const pfs::Layout>) {});
  }
  sim.run();
  EXPECT_EQ(cluster.mds().lookups_served(), kOpens);
  // FIFO service: the storm drains in exactly kOpens * lookup_cost.
  EXPECT_NEAR(sim.now(), static_cast<double>(kOpens) * cfg.mds_lookup_cost,
              1e-9);
  EXPECT_EQ(recorder.resource_summaries().size(), tracks);
  std::ostringstream out;
  recorder.metrics().write_json(out);
  EXPECT_EQ(out.str(), "[\n]");  // no series
}

// ----------------------------------------------------------- shared cache --

pfs::ClusterConfig cache_cluster() {
  pfs::ClusterConfig cfg;
  cfg.tiers[0].count = 2;
  cfg.tiers[1].count = 2;
  cfg.num_clients = 2;
  return cfg;
}

TEST(SharedCache, FileNamespacedKeysDoNotAlias) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster());
  pfs::CacheManager::Config ccfg;
  ccfg.budget = 256 * KiB;
  ccfg.chunk = 64 * KiB;
  ccfg.tier = 1;
  ccfg.devices = 1;
  pfs::CacheManager cache(cluster, ccfg);
  cluster.client(0).set_cache(&cache);
  const auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  // The same chunk of two different files occupies two directory entries.
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {}, 0);
  sim.run();
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {}, 1);
  sim.run();
  EXPECT_EQ(cache.tier().stats().misses, 2u);
  EXPECT_EQ(cache.tier().resident(), 2u);
  // Each file then hits its own entry.
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {}, 0);
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB, [] {}, 1);
  sim.run();
  EXPECT_EQ(cache.tier().stats().hits, 2u);
}

TEST(SharedCache, HotTenantEvictsColdUnderSlru) {
  sim::Simulator sim;
  pfs::Cluster cluster(sim, cache_cluster());
  pfs::CacheManager::Config ccfg;
  ccfg.budget = 256 * KiB;  // 4 slots
  ccfg.chunk = 64 * KiB;
  ccfg.tier = 1;
  ccfg.devices = 1;
  ccfg.policy = storage::CachePolicy::kSlru;
  pfs::CacheManager cache(cluster, ccfg);
  cluster.client(0).set_cache(&cache);
  const auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  const auto read = [&](std::uint32_t file, Bytes chunk) {
    cluster.client(0).io(*layout, IoOp::kRead, chunk * 64 * KiB, 64 * KiB,
                         [] {}, file);
    sim.run();
  };

  // Cold tenant (file 1) touches two chunks once.
  read(1, 0);
  read(1, 1);
  // Hot tenant (file 0) cycles four chunks twice: the second pass promotes
  // its entries out of SLRU probation, and the shared budget (4 slots) must
  // shed the cold tenant's never-rehit entries to admit them.
  for (int pass = 0; pass < 2; ++pass) {
    for (Bytes c = 0; c < 4; ++c) read(0, c);
  }
  EXPECT_GT(cache.tier().stats().evictions, 0u);
  const auto before = cache.tier().stats();
  read(1, 0);  // the cold entry is gone — a fresh miss
  EXPECT_EQ(cache.tier().stats().misses, before.misses + 1);
  read(0, 3);  // the hot tenant's protected working set survived
  EXPECT_GT(cache.tier().stats().hits, before.hits);
}

// ------------------------------------------------------------- population --

harness::ExperimentOptions small_options() {
  harness::ExperimentOptions options;
  options.cluster.tiers[0].count = 2;
  options.cluster.tiers[1].count = 2;
  options.cluster.num_clients = 2;
  return options;
}

harness::PopulationSpec small_spec(std::size_t files) {
  harness::PopulationSpec spec;
  spec.files = files;
  spec.tenants = std::min<std::size_t>(2, files);  // every tenant owns a file
  spec.processes = 2;
  spec.file_size = 2 * MiB;
  spec.request_size = 128 * KiB;
  return spec;
}

TEST(Population, DegenerateSingleFileMovesTheSameBytes) {
  const auto pop = harness::make_population(small_spec(1));
  harness::Experiment experiment(small_options());
  harness::PopulationRunOptions popts;
  popts.replicate = false;
  const auto pr = harness::run_population(
      experiment, pop, harness::LayoutScheme::harl(), popts);
  ASSERT_EQ(pr.files.size(), 1u);

  harness::Experiment solo(small_options());
  const auto sr = solo.run(pop[0].bundle, harness::LayoutScheme::harl());
  EXPECT_EQ(pr.total.bytes, sr.total.bytes);
  EXPECT_EQ(pr.files[0].layout_description, sr.layout_description);
  EXPECT_EQ(pr.files[0].region_count, sr.region_count);

  // The population runs the write and read passes as one launch joined by a
  // barrier, so the file is opened once.  A solo run of that barrier-joined
  // program on the same trace is the population's run exactly.
  const harness::WorkloadBundle& phases = pop[0].bundle;
  ASSERT_FALSE(phases.write_programs.empty());
  ASSERT_FALSE(phases.read_programs.empty());
  harness::WorkloadBundle joined;
  joined.name = phases.name;
  joined.processes = phases.processes;
  joined.mixed_programs = phases.write_programs;
  for (std::size_t r = 0; r < joined.mixed_programs.size(); ++r) {
    auto& program = joined.mixed_programs[r];
    program.push_back(mw::IoAction::barrier());
    program.insert(program.end(), phases.read_programs[r].begin(),
                   phases.read_programs[r].end());
  }
  harness::Experiment one_open(small_options());
  const auto jr = one_open.run_with_trace(joined, harness::LayoutScheme::harl(),
                                          one_open.collect_trace(phases));
  EXPECT_EQ(jr.layout_description, sr.layout_description);
  EXPECT_EQ(pr.total.makespan, jr.total.makespan);
  EXPECT_EQ(pr.server_io_time, jr.server_io_time);
  // Experiment::run opens the file again for the read pass: one more MPI
  // open round at the MDS, so its makespan is strictly longer.
  EXPECT_GT(sr.total.makespan, pr.total.makespan);
}

/// Runs `scheme` over `pop` serially (width 0) or with a ThreadPool of
/// `width` workers driving the per-file pipelines and the planner.
harness::PopulationResult run_at_pool_width(
    harness::ExperimentOptions options,
    const std::vector<harness::PopulationFile>& pop,
    const harness::LayoutScheme& scheme, std::size_t width) {
  std::unique_ptr<ThreadPool> pool;
  if (width > 0) {
    pool = std::make_unique<ThreadPool>(width);
    options.pool = pool.get();
    options.planner.pool = pool.get();
  }
  harness::Experiment experiment(options);
  return harness::run_population(experiment, pop, scheme);
}

TEST(Population, ByteIdenticalAcrossPoolWidths) {
  const auto pop = harness::make_population(small_spec(3));
  std::vector<harness::PopulationResult> results;
  for (std::size_t width : {0u, 4u}) {
    results.push_back(run_at_pool_width(small_options(), pop,
                                        harness::LayoutScheme::harl(), width));
  }
  ASSERT_EQ(results[0].files.size(), results[1].files.size());
  EXPECT_EQ(results[0].total.makespan, results[1].total.makespan);
  EXPECT_EQ(results[0].total.bytes, results[1].total.bytes);
  for (std::size_t i = 0; i < results[0].files.size(); ++i) {
    EXPECT_EQ(results[0].files[i].total.makespan,
              results[1].files[i].total.makespan);
    EXPECT_EQ(results[0].files[i].total.bytes, results[1].files[i].total.bytes);
    EXPECT_EQ(results[0].files[i].layout_description,
              results[1].files[i].layout_description);
  }
}

TEST(Population, TelemetryOnlyRecorderKeepsNoTrace) {
  // The population runner shares the rule: a recorder armed only for the
  // telemetry plane records no trace events.
  const auto pop = harness::make_population(small_spec(2));
  harness::ExperimentOptions options = small_options();
  options.telemetry.interval = 0.01;
  harness::Experiment experiment(options);
  const auto pr =
      harness::run_population(experiment, pop, harness::LayoutScheme::harl());
  ASSERT_TRUE(pr.obs);
  ASSERT_TRUE(pr.health);
  EXPECT_GT(pr.obs->requests_completed(), 0u);
  EXPECT_EQ(pr.obs->trace_events_recorded(), 0u);
}

TEST(Population, ReplicaTierChoiceCoversEveryRegion) {
  const auto pop = harness::make_population(small_spec(1));
  harness::Experiment experiment(small_options());
  const auto sr = experiment.run(pop[0].bundle, harness::LayoutScheme::harl());
  ASSERT_TRUE(sr.plan.has_value());
  const auto tiers =
      mw::choose_replica_tiers(*sr.plan, experiment.cost_params());
  EXPECT_EQ(tiers.size(), sr.plan->rst.size());
  for (auto t : tiers) EXPECT_LT(t, 2u);
}

TEST(Population, FailureStormServesDegradedReadsAndRebuilds) {
  const auto pop = harness::make_population(small_spec(3));

  harness::ExperimentOptions clean = small_options();
  harness::Experiment base(clean);
  const auto healthy =
      harness::run_population(base, pop, harness::LayoutScheme::harl());
  EXPECT_EQ(healthy.degraded_reads, 0u);
  EXPECT_GT(healthy.replica_writes, 0u);

  harness::ExperimentOptions failing = small_options();
  failing.cluster.fail_server =
      static_cast<std::int64_t>(failing.cluster.num_servers()) - 1;
  failing.cluster.fail_at = 0.001;
  failing.telemetry.interval = 0.01;
  failing.telemetry.slo = 1.0;
  harness::Experiment experiment(failing);
  const auto stormy =
      harness::run_population(experiment, pop, harness::LayoutScheme::harl());

  // Degraded reads were served from replicas, the rebuild re-materialized
  // the failed server's share, and its traffic slowed the foreground.
  EXPECT_GT(stormy.degraded_reads, 0u);
  EXPECT_GT(stormy.rebuilt_bytes, 0u);
  EXPECT_GT(stormy.rebuild_chunks, 0u);
  EXPECT_TRUE(stormy.rebuild_done);
  EXPECT_GT(stormy.rebuild_finished_at, failing.cluster.fail_at);
  EXPECT_GT(stormy.total.makespan, healthy.total.makespan);
  // Per-tenant SLO attainment is reported for every tenant.
  ASSERT_EQ(stormy.tenant_slo.size(), 2u);
  for (double a : stormy.tenant_slo) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Population, FailureWithoutReplicasIsRejected) {
  // Failure is modelled on the replicated path only: an unreplicated file
  // on a dead server would quietly keep serving its I/O.
  const auto pop = harness::make_population(small_spec(2));
  harness::ExperimentOptions options = small_options();
  options.cluster.fail_server = 3;
  options.cluster.fail_at = 0.001;
  harness::Experiment experiment(options);
  harness::PopulationRunOptions popts;
  popts.replicate = false;
  EXPECT_THROW(harness::run_population(experiment, pop,
                                       harness::LayoutScheme::harl(), popts),
               std::invalid_argument);
}

TEST(Population, FailureStormIsDeterministicAcrossWidths) {
  const auto pop = harness::make_population(small_spec(2));
  std::vector<harness::PopulationResult> results;
  for (std::size_t width : {0u, 4u}) {
    harness::ExperimentOptions options = small_options();
    options.cluster.fail_server = 3;
    options.cluster.fail_at = 0.001;
    results.push_back(
        run_at_pool_width(options, pop, harness::LayoutScheme::harl(), width));
  }
  EXPECT_EQ(results[0].total.makespan, results[1].total.makespan);
  EXPECT_EQ(results[0].degraded_reads, results[1].degraded_reads);
  EXPECT_EQ(results[0].replica_writes, results[1].replica_writes);
  EXPECT_EQ(results[0].rebuilt_bytes, results[1].rebuilt_bytes);
  EXPECT_EQ(results[0].rebuild_finished_at, results[1].rebuild_finished_at);
}

}  // namespace
}  // namespace harl
