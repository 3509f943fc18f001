// Tests for the experiment harness: calibration, layout schemes, bundles,
// and table formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/plan_artifact.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/scheme.hpp"
#include "src/harness/table.hpp"

namespace harl::harness {
namespace {

TEST(Calibration, FitsEffectiveParameters) {
  pfs::ClusterConfig cfg;
  CalibrationOptions opts;
  opts.samples_per_size = 500;
  opts.beta_samples = 500;
  const core::TieredCostParams params = calibrate(cfg, opts);

  EXPECT_EQ(params.tiers[0].count, cfg.num_hservers);
  EXPECT_EQ(params.tiers[1].count, cfg.num_sservers);
  EXPECT_DOUBLE_EQ(params.t, cfg.network.per_byte);
  EXPECT_EQ(params.net_hops, 1);

  // Effective HDD rate includes positioning amortized over the reference
  // access size: strictly slower than the media rate.
  EXPECT_GT(params.tiers[0].profile.read.per_byte,
            cfg.hdd.read.per_byte * 1.15);
  // Sequential-stream startup fit: far below the full positioning window.
  EXPECT_LT(params.tiers[0].profile.read.startup_max,
            cfg.hdd.read.startup_max * 0.7);
  // SSD effective rate stays near its media rate (only its microsecond
  // startups amortize in, roughly doubling the 64 KiB unit time at most).
  EXPECT_LT(params.tiers[1].profile.read.per_byte, cfg.ssd.read.per_byte * 2.0);
  // SSD writes remain slower than reads.
  EXPECT_GT(params.tiers[1].profile.write.per_byte,
            params.tiers[1].profile.read.per_byte);
}

TEST(Calibration, TieredParamsMirrorTwoTier) {
  // The calibration is the paper's two-tier view: tier 0 the HServers,
  // tier 1 the SServers, each named after its role.
  pfs::ClusterConfig cfg;
  cfg.num_hservers = 5;
  cfg.num_sservers = 3;
  CalibrationOptions opts;
  opts.samples_per_size = 200;
  opts.beta_samples = 200;
  const core::TieredCostParams params = calibrate(cfg, opts);
  ASSERT_EQ(params.tiers.size(), 2u);
  EXPECT_EQ(params.tiers[0].count, 5u);
  EXPECT_EQ(params.tiers[1].count, 3u);
  EXPECT_EQ(params.tiers[0].profile.name, "hserver");
  EXPECT_EQ(params.tiers[1].profile.name, "sserver");
  // Each tier is fitted from its own device: the HDD's effective unit time
  // is far above the SSD's.
  EXPECT_GT(params.tiers[0].profile.read.per_byte,
            params.tiers[1].profile.read.per_byte * 2.0);
}

TEST(Scheme, LabelsMatchFigureLegends) {
  EXPECT_EQ(LayoutScheme::fixed(64 * KiB).label(), "64K");
  EXPECT_EQ(LayoutScheme::fixed(2 * MiB).label(), "2M");
  EXPECT_EQ(LayoutScheme::random_stripes(2).label(), "rand2");
  EXPECT_EQ(LayoutScheme::harl().label(), "HARL");
  EXPECT_EQ(LayoutScheme::file_level_harl().label(), "HARL-file");
  EXPECT_EQ(LayoutScheme::segment_level().label(), "segment");
}

TEST(Scheme, OnlyAnalysisSchemesNeedTraces) {
  EXPECT_FALSE(LayoutScheme::fixed(64 * KiB).needs_analysis());
  EXPECT_FALSE(LayoutScheme::random_stripes(1).needs_analysis());
  EXPECT_TRUE(LayoutScheme::harl().needs_analysis());
  EXPECT_TRUE(LayoutScheme::file_level_harl().needs_analysis());
  EXPECT_TRUE(LayoutScheme::segment_level().needs_analysis());
}

TEST(Scheme, FixedLayoutBuildsWithoutTrace) {
  pfs::ClusterConfig cfg;
  const auto layout =
      build_layout(LayoutScheme::fixed(64 * KiB), cfg, {}, {}, {});
  EXPECT_EQ(layout->server_count(), 8u);
  EXPECT_EQ(layout->describe(), "8x64K");
}

TEST(Scheme, RandomLayoutIsSeededAndBounded) {
  pfs::ClusterConfig cfg;
  const auto a =
      build_layout(LayoutScheme::random_stripes(7), cfg, {}, {}, {});
  const auto b =
      build_layout(LayoutScheme::random_stripes(7), cfg, {}, {}, {});
  const auto c =
      build_layout(LayoutScheme::random_stripes(8), cfg, {}, {}, {});
  EXPECT_EQ(a->describe(), b->describe());
  EXPECT_NE(a->describe(), c->describe());
  const auto* varied = dynamic_cast<const pfs::VariedStripeLayout*>(a.get());
  ASSERT_NE(varied, nullptr);
  for (Bytes st : varied->stripes()) {
    EXPECT_GE(st, 16 * KiB);
    EXPECT_LE(st, 2 * MiB);
  }
}

TEST(Scheme, AnalysisSchemeWithoutTraceThrows) {
  pfs::ClusterConfig cfg;
  EXPECT_THROW(build_layout(LayoutScheme::harl(), cfg, {}, {}, {}),
               std::invalid_argument);
}

TEST(Bundles, IorBundleHasMatchingReadAndWritePasses) {
  workloads::IorConfig cfg;
  cfg.processes = 4;
  cfg.file_size = 32 * MiB;
  cfg.requests_per_process = 16;
  const auto bundle = ior_bundle(cfg);
  EXPECT_EQ(bundle.processes, 4u);
  ASSERT_EQ(bundle.write_programs.size(), 4u);
  ASSERT_EQ(bundle.read_programs.size(), 4u);
  EXPECT_TRUE(bundle.mixed_programs.empty());
  // Same offsets, opposite ops.
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(bundle.write_programs[r].size(), bundle.read_programs[r].size());
    for (std::size_t i = 0; i < bundle.write_programs[r].size(); ++i) {
      EXPECT_EQ(bundle.write_programs[r][i].extents[0],
                bundle.read_programs[r][i].extents[0]);
      EXPECT_EQ(bundle.write_programs[r][i].op, IoOp::kWrite);
      EXPECT_EQ(bundle.read_programs[r][i].op, IoOp::kRead);
    }
  }
}

TEST(Bundles, BtioBundleIsMixed) {
  workloads::BtioConfig cfg;
  cfg.processes = 4;
  cfg.grid = 8;
  cfg.time_steps = 5;
  const auto bundle = btio_bundle(cfg);
  EXPECT_TRUE(bundle.write_programs.empty());
  EXPECT_TRUE(bundle.read_programs.empty());
  EXPECT_EQ(bundle.mixed_programs.size(), 4u);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"layout", "read MB/s"});
  t.add_row({"64K", "123.4"});
  t.add_row({"HARL", "456.7"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("layout  read MB/s"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("HARL    456.7"), std::string::npos);
}

TEST(Table, RejectsMismatchedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableCells, FormatNumbersAndRatios) {
  EXPECT_EQ(cell(123.456, 1), "123.5");
  EXPECT_EQ(cell(2.0, 0), "2");
  EXPECT_EQ(cell_ratio(150.0, 100.0), "+50.0%");
  EXPECT_EQ(cell_ratio(73.4, 100.0), "-26.6%");
  EXPECT_EQ(cell_ratio(1.0, 0.0), "n/a");
}

TEST(Experiment, FixedSchemeSmokeRun) {
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;

  Experiment exp(opts);
  const auto result = exp.run(ior_bundle(ior), LayoutScheme::fixed(64 * KiB));
  EXPECT_EQ(result.label, "64K");
  EXPECT_EQ(result.write.bytes, 4u * 16u * 512 * KiB);
  EXPECT_EQ(result.read.bytes, 4u * 16u * 512 * KiB);
  EXPECT_GT(result.write.throughput(), 0.0);
  EXPECT_GT(result.read.throughput(), 0.0);
  EXPECT_EQ(result.server_io_time.size(), 8u);
  EXPECT_EQ(result.region_count, 1u);
  EXPECT_FALSE(result.plan.has_value());
}

TEST(Experiment, HarlSchemeProducesAPlan) {
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;

  Experiment exp(opts);
  const auto result = exp.run(ior_bundle(ior), LayoutScheme::harl());
  EXPECT_EQ(result.label, "HARL");
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_GE(result.region_count, 1u);
  EXPECT_GT(result.total.throughput(), 0.0);
}

TEST(Experiment, ObservedHarlRunExportsPlannerMetrics) {
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;
  opts.observe = true;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;

  Experiment exp(opts);
  const auto result = exp.run(ior_bundle(ior), LayoutScheme::harl());
  ASSERT_TRUE(result.obs);
  ASSERT_TRUE(result.plan.has_value());
  const obs::MetricsRegistry& m = result.obs->metrics();

  // The per-region Analysis Phase counters must sum to the Plan's own
  // aggregates: the registry mirrors the planner, it does not re-measure it.
  double evals = 0.0, saved = 0.0, candidates = 0.0, pruned = 0.0;
  for (std::size_t i = 0; i < result.plan->regions.size(); ++i) {
    const auto labels = obs::LabelSet{}.region(static_cast<std::uint32_t>(i));
    evals += m.value("planner.region.cost_evals", labels);
    saved += m.value("planner.region.cost_evals_saved", labels);
    candidates += m.value("planner.region.candidates", labels);
    pruned += m.value("planner.region.candidates_pruned", labels);
  }
  EXPECT_EQ(evals, static_cast<double>(result.plan->total_cost_evals()));
  EXPECT_EQ(saved,
            static_cast<double>(result.plan->total_cost_evals_saved()));
  EXPECT_EQ(pruned,
            static_cast<double>(result.plan->total_candidates_pruned()));
  EXPECT_GT(candidates, 0.0);
  EXPECT_GT(pruned, 0.0);
  EXPECT_LT(pruned, candidates);
  EXPECT_DOUBLE_EQ(m.value("planner.total_model_cost_s"),
                   result.plan->total_model_cost());
  EXPECT_EQ(m.value("planner.regions_after_merge"),
            static_cast<double>(result.plan->regions_after_merge));

  // The measured run landed in the same registry (per-server byte counters
  // from the PFS layer), so one JSON dump carries both sides.
  std::ostringstream json;
  m.write_json(json);
  EXPECT_NE(json.str().find("planner.region.candidates_pruned"),
            std::string::npos);
  EXPECT_NE(json.str().find("planner.region.cost_evals"), std::string::npos);
  EXPECT_NE(json.str().find("pfs.server.bytes"), std::string::npos);
}

TEST(Experiment, TelemetryOnlyRecorderKeepsNoTrace) {
  // Telemetry alone (harl_sim health=1 or timeseries-out=) arms a recorder
  // only to carry the health monitor.  Nobody exports its trace, so it must
  // not buffer one; a run that asked for observation still traces.
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 100;
  opts.calibration.beta_samples = 100;
  opts.telemetry.interval = 0.01;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;

  Experiment telemetry_only(opts);
  const auto quiet =
      telemetry_only.run(ior_bundle(ior), LayoutScheme::fixed(64 * KiB));
  ASSERT_TRUE(quiet.obs);
  ASSERT_TRUE(quiet.health);
  EXPECT_GT(quiet.obs->requests_completed(), 0u);
  EXPECT_EQ(quiet.obs->trace_events_recorded(), 0u);

  opts.observe = true;
  Experiment observed(opts);
  const auto traced =
      observed.run(ior_bundle(ior), LayoutScheme::fixed(64 * KiB));
  ASSERT_TRUE(traced.obs);
  EXPECT_GT(traced.obs->trace_events_recorded(), 0u);
}

TEST(Experiment, ResultsAreDeterministic) {
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 100;
  opts.calibration.beta_samples = 100;
  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 32 * MiB;
  ior.requests_per_process = 8;

  Experiment exp(opts);
  const auto bundle = ior_bundle(ior);
  const auto a = exp.run(bundle, LayoutScheme::fixed(256 * KiB));
  const auto b = exp.run(bundle, LayoutScheme::fixed(256 * KiB));
  EXPECT_EQ(a.write.makespan, b.write.makespan);
  EXPECT_EQ(a.read.makespan, b.read.makespan);
}

TEST(Scheme, SpaceBoundedHarlCapsTheSsdShare) {
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;
  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 128 * MiB;
  ior.requests_per_process = 24;

  Experiment exp(opts);
  const auto bundle = ior_bundle(ior);
  const auto free_harl = exp.run(bundle, LayoutScheme::harl());
  const auto bounded =
      exp.run(bundle, LayoutScheme::harl_space_bounded(0.35));
  EXPECT_EQ(bounded.label, "HARL<=35%ssd");
  ASSERT_TRUE(bounded.plan.has_value());
  for (const auto& region : bounded.plan->regions) {
    const double S = 6.0 * region.stripes[0] + 2.0 * region.stripes[1];
    EXPECT_LE(2.0 * region.stripes[1] / S, 0.35 + 1e-9);
  }
  // The unconstrained plan uses more SServer share (and no less model cost).
  EXPECT_LE(free_harl.plan->total_model_cost(),
            bounded.plan->total_model_cost() + 1e-12);
}

TEST(Experiment, EmptyBundleThrows) {
  Experiment exp(ExperimentOptions{});
  WorkloadBundle empty;
  EXPECT_THROW(exp.run(empty, LayoutScheme::fixed(64 * KiB)),
               std::invalid_argument);
}

/// A small IOR run on a cluster whose last server fails mid-run.
struct FailingRun {
  ExperimentOptions options;
  WorkloadBundle bundle;

  FailingRun() {
    options.cluster.fail_server = 7;
    options.cluster.fail_at = 0.001;
    options.calibration.samples_per_size = 200;
    options.calibration.beta_samples = 200;
    workloads::IorConfig ior;
    ior.processes = 2;
    ior.file_size = 4 * MiB;
    ior.request_size = 256 * KiB;
    ior.requests_per_process = 4;
    bundle = ior_bundle(ior);
  }
};

// A single-file run places no replicas, so a dead server would quietly keep
// serving: every entry point rejects the failure instead.
TEST(Experiment, RunRejectsFailureWithoutReplicas) {
  FailingRun f;
  Experiment exp(f.options);
  EXPECT_THROW(exp.run(f.bundle, LayoutScheme::fixed(64 * KiB)),
               std::invalid_argument);
}

TEST(Experiment, RunAllRejectsFailureWithoutReplicas) {
  FailingRun f;
  Experiment exp(f.options);
  EXPECT_THROW(exp.run_all(f.bundle, {LayoutScheme::fixed(64 * KiB),
                                      LayoutScheme::harl()}),
               std::invalid_argument);
}

TEST(Scheme, LoadedPlanReproducesInProcessAnalysis) {
  // Placing Phase from the Plan artifact, as a separate process would run
  // it: the loaded scheme's simulated result must equal the in-process HARL
  // scheme's, makespan for makespan.
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;
  const auto bundle = ior_bundle(ior);

  Experiment exp(opts);
  const auto harl = exp.run(bundle, LayoutScheme::harl());
  ASSERT_TRUE(harl.plan.has_value());
  const std::string path = ::testing::TempDir() + "/harness_scheme.plan";
  core::save_plan(core::PlanArtifact::from_plan(*harl.plan), path);

  const auto scheme = LayoutScheme::from_plan_file(path);
  EXPECT_EQ(scheme.label(), "plan");
  EXPECT_FALSE(scheme.needs_analysis());
  EXPECT_TRUE(scheme.produces_plan());
  const auto loaded = exp.run(bundle, scheme);
  ASSERT_TRUE(loaded.plan.has_value());
  EXPECT_EQ(loaded.layout_description, harl.layout_description);
  EXPECT_EQ(loaded.total.makespan, harl.total.makespan);
  EXPECT_EQ(loaded.write.makespan, harl.write.makespan);
  EXPECT_EQ(loaded.read.makespan, harl.read.makespan);
  EXPECT_EQ(loaded.region_count, harl.region_count);
}

TEST(Scheme, LoadedPlanRejectsStaleCalibration) {
  // A plan computed against different calibrated parameters, another tier
  // table or another device fleet must be refused at build time, naming the
  // check that failed, not silently installed.
  ExperimentOptions opts;
  opts.cluster.num_clients = 4;
  opts.calibration.samples_per_size = 200;
  opts.calibration.beta_samples = 200;

  workloads::IorConfig ior;
  ior.processes = 4;
  ior.file_size = 64 * MiB;
  ior.request_size = 512 * KiB;
  ior.requests_per_process = 16;
  const auto bundle = ior_bundle(ior);

  Experiment exp(opts);
  const auto harl = exp.run(bundle, LayoutScheme::harl());
  ASSERT_TRUE(harl.plan.has_value());
  const core::PlanArtifact own = core::PlanArtifact::from_plan(*harl.plan);
  core::PlanArtifact stale = own;
  stale.calibration_fingerprint ^= 1;  // simulate a recalibrated cluster
  core::PlanArtifact wider = own;      // planned for 4 SServers, not 2
  wider.tier_counts = {6, 4};
  core::PlanArtifact aged = own;       // planned for an aged SServer
  aged.device_factors = {{}, {1.0, 4.0}};
  // Both foreign at once, with one region restricted to one SServer.
  core::PlanArtifact foreign;
  foreign.tier_counts = {6, 2};
  foreign.calibration_fingerprint = own.calibration_fingerprint ^ 2;
  foreign.device_factors = {{}, {1.0, 4.0}};
  foreign.rst.add(0, {16 * KiB, 64 * KiB}, {6, 1});

  const struct {
    const char* name;
    const core::PlanArtifact& artifact;
    const char* error;
  } cases[] = {{"stale", stale, "different calibration"},
               {"wider", wider, "tier table"},
               {"aged", aged, "device-factor table"},
               {"foreign", foreign, "different calibration"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        ::testing::TempDir() + "/harness_" + c.name + ".plan";
    core::save_plan(c.artifact, path);
    try {
      exp.run(bundle, LayoutScheme::from_plan_file(path));
      ADD_FAILURE() << "installed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
}

TEST(Scheme, FromPlanFileRejectsEmptyPath) {
  EXPECT_THROW(LayoutScheme::from_plan_file(""), std::invalid_argument);
}

}  // namespace
}  // namespace harl::harness
