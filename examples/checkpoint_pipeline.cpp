// Scenario: a BT-style scientific application checkpointing through
// collective MPI-IO — the workload class the paper evaluates with BTIO.
//
// This example exercises the *deployment* path of HARL rather than the
// experiment harness: the first execution is traced, the Analysis Phase
// runs offline, the resulting RST and R2F artifacts are saved next to the
// application (as the paper describes), and a later execution loads them at
// "MPI_Init" time through the HarlDriver and runs on the optimized layout.
//
// Run: ./build/examples/checkpoint_pipeline [workdir]
#include <filesystem>
#include <iostream>

#include "src/harness/calibration.hpp"
#include "src/harness/table.hpp"
#include "src/middleware/harl_driver.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/middleware/runner.hpp"
#include "src/pfs/cluster.hpp"
#include "src/trace/analysis.hpp"
#include "src/trace/trace_io.hpp"
#include "src/workloads/btio.hpp"

using namespace harl;

namespace {

constexpr char kFileName[] = "checkpoint.out";

workloads::BtioConfig app_config() {
  workloads::BtioConfig btio;
  btio.processes = 16;
  btio.grid = 48;
  btio.time_steps = 40;
  btio.write_interval = 5;
  btio.compute_per_step = 0.01;  // interleaved computation
  return btio;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "harl_checkpoint")
                     .string();
  std::filesystem::create_directories(workdir);
  const auto programs = workloads::make_btio_programs(app_config());

  // ---------------------------------------------------------------------
  // First execution: default layout, IOSIG-like collector attached.
  // ---------------------------------------------------------------------
  pfs::ClusterConfig cluster_config;
  trace::TraceCollector collector;
  Seconds first_makespan = 0.0;
  {
    sim::Simulator sim;
    pfs::Cluster cluster(sim, cluster_config);
    mw::MpiWorld world(cluster, app_config().processes);
    auto default_layout =
        pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
    mw::ProgramRunner runner(world, kFileName, default_layout, &collector);
    first_makespan = runner.run(programs).makespan;
  }
  const auto sorted = collector.sorted_by_offset();
  std::cout << "First (traced) execution on the 64K default layout: "
            << harness::cell(first_makespan, 2) << " s simulated\n";
  std::cout << trace::describe(trace::characterize(sorted)) << "\n";

  // Persist the trace like a real tracing tool would.
  const std::string trace_path = workdir + "/" + kFileName + ".trace.csv";
  trace::save_trace(trace_path, sorted);
  std::cout << "Trace saved to " << trace_path << "\n\n";

  // ---------------------------------------------------------------------
  // Analysis Phase (offline): calibrate, divide, optimize, persist RST+R2F.
  // ---------------------------------------------------------------------
  const core::TieredCostParams params = harness::calibrate(cluster_config);
  const auto loaded = trace::load_trace(trace_path);
  const core::Plan plan = core::analyze(loaded, params);
  mw::HarlDriver::save(workdir, kFileName, plan);
  std::cout << "Analysis Phase: " << plan.regions.size() << " region(s), "
            << plan.rst.size() << " after merging; RST/R2F written to "
            << workdir << "\n";
  for (const auto& region : plan.regions) {
    std::cout << "  [" << format_size(region.offset) << ", "
              << format_size(region.end) << ") -> {"
              << format_size(region.stripes[0]) << ", "
              << format_size(region.stripes[1]) << "}\n";
  }

  // ---------------------------------------------------------------------
  // Later execution: load the artifacts at init time and run optimized.
  // ---------------------------------------------------------------------
  Seconds optimized_makespan = 0.0;
  {
    sim::Simulator sim;
    pfs::Cluster cluster(sim, cluster_config);
    auto layout = mw::HarlDriver::load_and_install(workdir, kFileName, cluster);
    mw::MpiWorld world(cluster, app_config().processes);
    mw::ProgramRunner runner(world, kFileName, layout);
    optimized_makespan = runner.run(programs).makespan;
  }
  std::cout << "\nOptimized execution on the HARL layout: "
            << harness::cell(optimized_makespan, 2) << " s simulated\n";
  std::cout << "Speedup vs first execution: "
            << harness::cell(first_makespan / optimized_makespan, 2) << "x\n";
  return 0;
}
