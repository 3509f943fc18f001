// Parallel experiment harness: run_all and population planning on a thread
// pool must produce results exactly equal to the serial runs — the simulator
// is deterministic per instance and the harness orders results by index, so
// pool width can only change wall time, never a byte of output.
#include <gtest/gtest.h>

#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/population.hpp"

namespace harl::harness {
namespace {

WorkloadBundle small_bundle() {
  workloads::IorConfig ior;
  ior.processes = 4;
  ior.request_size = 128 * KiB;
  ior.file_size = 64 * MiB;
  ior.requests_per_process = 8;
  return ior_bundle(ior);
}

ExperimentOptions small_options(ThreadPool* pool) {
  ExperimentOptions options;
  options.cluster.tiers[0].count = 3;
  options.cluster.tiers[1].count = 1;
  options.cluster.num_clients = 2;
  options.calibration.samples_per_size = 50;
  options.calibration.beta_samples = 50;
  options.pool = pool;
  return options;
}

std::vector<LayoutScheme> scheme_lineup() {
  return {
      LayoutScheme::fixed(64 * KiB),
      LayoutScheme::fixed(256 * KiB),
      LayoutScheme::random_stripes(1),
      LayoutScheme::harl(),
  };
}

/// Serializes every numeric field of a result so "exactly equal" means
/// bit-for-bit equal formatted output, the property the figure tables need.
std::string fingerprint(const SchemeResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.label << '|' << r.layout_description << '|' << r.region_count << '|'
     << r.write.makespan << '|' << r.write.bytes << '|' << r.read.makespan
     << '|' << r.read.bytes << '|' << r.total.makespan << '|' << r.total.bytes;
  for (const Seconds io_time : r.server_io_time) os << '|' << io_time;
  os << '|' << r.sim_stats.events_dispatched << '|'
     << r.sim_stats.peak_queue_depth;
  return os.str();
}

TEST(HarnessParallel, RunAllMatchesSerialExactly) {
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();

  Experiment serial(small_options(nullptr));
  const auto serial_results = serial.run_all(bundle, schemes);

  ThreadPool pool(4);
  Experiment parallel(small_options(&pool));
  const auto parallel_results = parallel.run_all(bundle, schemes);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(fingerprint(serial_results[i]), fingerprint(parallel_results[i]))
        << "scheme " << schemes[i].label();
  }
}

TEST(HarnessParallel, RunAllMatchesAtEveryPoolWidth) {
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();
  Experiment serial(small_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  for (const std::size_t width : {1u, 2u, 7u}) {
    ThreadPool pool(width);
    Experiment exp(small_options(&pool));
    const auto got = exp.run_all(bundle, schemes);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
          << "width " << width << " scheme " << schemes[i].label();
    }
  }
}

/// The full flight-recorder output as one string: metrics JSON plus the
/// Chrome trace events.  Byte equality here is the strongest observability
/// claim — every trace event, async id, histogram bucket and metric sample
/// in the same order with the same values.
std::string obs_fingerprint(const SchemeResult& r) {
  std::ostringstream os;
  if (r.obs) {
    r.obs->write_metrics_json(os, 2);
    bool first = true;
    r.obs->append_trace_events(os, 1, r.label, first);
  }
  // Telemetry plane: the windowed time series (quantile sketches included)
  // and the health monitor summary ride the same byte-equality claim.
  if (r.health) {
    os << '|';
    r.health->timeseries().write_json(os, 0);
    os << '|';
    r.health->write_json(os, 0);
  }
  return os.str();
}

ExperimentOptions observed_options(ThreadPool* pool) {
  ExperimentOptions options = small_options(pool);
  options.observe = true;
  options.recorder.trace = true;
  // Arm the telemetry plane with a deterministic GC-pause straggler so the
  // byte-equality fingerprints cover windowed rollups, sketch quantiles,
  // health scoring and SLO attainment.
  options.telemetry.interval = 0.01;
  options.telemetry.slo = 0.002;
  options.cluster.gc_pause.period = 0.05;
  options.cluster.gc_pause.duration = 0.02;
  options.cluster.gc_pause.factor = 4.0;
  return options;
}

TEST(HarnessParallel, ObservedRunAllMatchesSerialByteForByte) {
  // Every measured run owns its recorder and health monitor, so a pool may
  // run the observed schemes concurrently without moving one byte of the
  // metrics, trace or telemetry output.
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();

  Experiment serial(observed_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  ThreadPool pool(4);
  Experiment parallel(observed_options(&pool));
  const auto got = parallel.run_all(bundle, schemes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
        << "scheme " << schemes[i].label();
    EXPECT_EQ(obs_fingerprint(want[i]), obs_fingerprint(got[i]))
        << "scheme " << schemes[i].label();
  }
}

TEST(HarnessParallel, PoolMayBeSharedWithPlanner) {
  // One pool for both harness-level scheme fan-out and the planner's
  // region-level parallel_for: nesting on the same (work-helping) pool must
  // neither deadlock nor change any result.
  const WorkloadBundle bundle = small_bundle();
  const auto schemes = scheme_lineup();
  Experiment serial(small_options(nullptr));
  const auto want = serial.run_all(bundle, schemes);

  ThreadPool pool(2);
  ExperimentOptions options = small_options(&pool);
  options.planner.pool = &pool;
  Experiment shared(options);
  const auto got = shared.run_all(bundle, schemes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fingerprint(want[i]), fingerprint(got[i]))
        << "scheme " << schemes[i].label();
  }
}

/// Every Algorithm 2 output of a plan, cost doubles in hex, plus the layout
/// string it installs.
std::string plan_fingerprint(const core::Plan& plan,
                             const pfs::Layout& layout) {
  std::ostringstream os;
  os << std::hexfloat << layout.describe();
  for (const core::PlannedRegion& r : plan.regions) {
    os << '|' << r.offset << '-' << r.end << ':';
    for (const Bytes s : r.stripes) os << s << ',';
    os << '/';
    for (const std::size_t m : r.members) os << m << ',';
    os << r.model_cost << ',' << r.candidates_evaluated << ','
       << r.candidates_pruned << ',' << r.cost_evals << ','
       << r.cost_evals_saved;
  }
  return os.str();
}

TEST(HarnessParallel, PopulationPlansShareOneBoundTableAtEveryPoolWidth) {
  // Two files of each of the three population shapes.  Files of one shape
  // search the same candidate grids, so the shared bound table computes
  // fewer offset minima than the per-file searches read; at width 4 the
  // files fill its slots concurrently.  Plans, layouts and both counts must
  // not depend on the width, and every plan must equal planning its file
  // alone, without a table.
  PopulationSpec spec;
  spec.files = 6;
  spec.tenants = 2;
  spec.processes = 2;
  spec.file_size = 2 * MiB;
  spec.request_size = 128 * KiB;
  const auto pop = make_population(spec);
  const LayoutScheme scheme = LayoutScheme::harl();

  std::vector<PopulationPlans> runs;
  for (const std::size_t width : {0u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (width > 0) pool = std::make_unique<ThreadPool>(width);
    ExperimentOptions options = small_options(pool.get());
    options.planner.pool = pool.get();
    Experiment experiment(options);
    runs.push_back(plan_population(experiment, pop, scheme));
  }
  EXPECT_GT(runs[0].bounds_filled, 0u);
  EXPECT_LT(runs[0].bounds_filled, runs[0].bound_reads);
  EXPECT_EQ(runs[0].bounds_filled, runs[1].bounds_filled);
  EXPECT_EQ(runs[0].bound_reads, runs[1].bound_reads);

  Experiment alone(small_options(nullptr));
  ASSERT_EQ(runs[0].plans.size(), pop.size());
  ASSERT_EQ(runs[1].plans.size(), pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    ASSERT_TRUE(runs[0].plans[i] && runs[1].plans[i]) << "file " << i;
    core::Plan plan;
    const auto layout =
        build_layout(scheme, alone.options().cluster,
                     alone.collect_trace(pop[i].bundle), alone.cost_params(),
                     alone.options().planner, &plan);
    const std::string want = plan_fingerprint(plan, *layout);
    EXPECT_EQ(plan_fingerprint(*runs[0].plans[i], *runs[0].layouts[i]), want)
        << "file " << i;
    EXPECT_EQ(plan_fingerprint(*runs[1].plans[i], *runs[1].layouts[i]), want)
        << "file " << i;
  }
}

TEST(HarnessParallel, RepeatedFilesShareOneTraceAndPlan) {
  // Sequential IOR ignores its seed, so files 0 and 3 of the six have equal
  // programs under different names: their solo traces are equal, and the
  // population traces and plans five files, file 3 sharing file 0's layout
  // and plan.  Every plan must still equal planning its file alone, and
  // neither the plans nor the measured run may depend on the pool width.
  PopulationSpec spec;
  spec.files = 6;
  spec.tenants = 2;
  spec.processes = 2;
  spec.file_size = 2 * MiB;
  spec.request_size = 128 * KiB;
  const auto pop = make_population(spec);
  const LayoutScheme scheme = LayoutScheme::harl();

  Experiment alone(small_options(nullptr));
  ASSERT_NE(pop[0].bundle.name, pop[3].bundle.name);
  EXPECT_EQ(alone.collect_trace(pop[0].bundle),
            alone.collect_trace(pop[3].bundle));

  std::vector<std::string> want;
  for (const PopulationFile& file : pop) {
    core::Plan plan;
    const auto layout = build_layout(
        scheme, alone.options().cluster, alone.collect_trace(file.bundle),
        alone.cost_params(), alone.options().planner, &plan);
    want.push_back(plan_fingerprint(plan, *layout));
  }

  std::vector<std::string> measured;
  for (const std::size_t width : {0u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::unique_ptr<ThreadPool> pool;
    if (width > 0) pool = std::make_unique<ThreadPool>(width);
    ExperimentOptions options = small_options(pool.get());
    options.planner.pool = pool.get();
    Experiment experiment(options);
    const PopulationPlans plans = plan_population(experiment, pop, scheme);
    EXPECT_EQ(plans.traced_files, 5u);
    EXPECT_EQ(plans.layouts[3], plans.layouts[0]);
    EXPECT_EQ(plans.plans[3], plans.plans[0]);
    ASSERT_EQ(plans.plans.size(), pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
      ASSERT_TRUE(plans.plans[i]) << "file " << i;
      EXPECT_EQ(plan_fingerprint(*plans.plans[i], *plans.layouts[i]), want[i])
          << "file " << i;
    }

    const PopulationResult run = run_population(experiment, pop, scheme);
    std::ostringstream os;
    os << std::hexfloat << run.total.makespan << '|' << run.total.bytes;
    for (const PopulationFileResult& f : run.files) {
      os << '|' << f.layout_description << ':' << f.total.makespan;
    }
    for (const Seconds io_time : run.server_io_time) os << '|' << io_time;
    measured.push_back(os.str());
  }
  EXPECT_EQ(measured[0], measured[1]);
}

}  // namespace
}  // namespace harl::harness
