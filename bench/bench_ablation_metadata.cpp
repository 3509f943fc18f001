// Ablation: metadata overhead of region count (paper Section III-C).
//
// Algorithm 1 can splinter a bursty trace into many regions; the paper
// bounds the count by raising the CV threshold because "too many regions
// leads to substantial extra metadata management overhead".  This bench
// makes that overhead visible: the MDS resolves the RST *per request*
// (paper Section III-F) with a per-region lookup cost, and the same
// workload runs under plans whose region-count cap is swept from strict to
// absent.
#include "bench/bench_common.hpp"

#include "src/middleware/mpi_world.hpp"
#include "src/workloads/random_workload.hpp"

namespace harl::bench {
namespace {

/// A bursty trace: short constant-size runs with frequent changes, which
/// splits aggressively at the default threshold.
std::vector<trace::TraceRecord> bursty_trace() {
  std::vector<trace::TraceRecord> records;
  Rng rng(41);
  Bytes base = 0;
  for (int run = 0; run < 160; ++run) {
    const Bytes size = (64 * KiB) << rng.uniform_u64(0, 4);  // 64K..1M
    for (int i = 0; i < 6; ++i) {
      trace::TraceRecord r;
      r.op = i % 2 ? IoOp::kRead : IoOp::kWrite;
      r.offset = base;
      r.size = size;
      base += size;
      records.push_back(r);
    }
  }
  return records;
}

double run_with_plan(const core::Plan& plan,
                     const std::vector<trace::TraceRecord>& requests,
                     Seconds per_region_cost) {
  sim::Simulator sim;
  pfs::ClusterConfig cfg;
  cfg.mds_per_region_cost = per_region_cost;
  pfs::Cluster cluster(sim, cfg);
  mw::MpiWorld world(cluster, 8);
  mw::RunnerOptions ropts;
  ropts.per_request_metadata = true;  // every request resolves via the MDS
  mw::ProgramRunner runner(world, "data", plan.rst.to_layout(6, 2), nullptr,
                           ropts);
  std::vector<mw::RankProgram> programs(8);
  Bytes total = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    programs[i % 8].push_back(
        mw::IoAction::io(requests[i].op, requests[i].offset, requests[i].size));
    total += requests[i].size;
  }
  const auto result = runner.run(programs);
  return static_cast<double>(total) / result.makespan / (1024.0 * 1024.0);
}

void run_tables() {
  pfs::ClusterConfig cluster;
  harness::CalibrationOptions copts;
  const core::TieredCostParams params = harness::calibrate(cluster, copts);
  const auto records = bursty_trace();

  std::cout << "\n== Ablation: RST size vs throughput with per-request "
               "metadata lookups ==\n";
  harness::Table table({"region cap policy", "regions", "threshold",
                        "MB/s @2us/region", "MB/s @20us/region",
                        "MB/s @50us/region"});

  struct Policy {
    std::string name;
    Bytes fixed_region_size;  // 0 = no cap
  };
  for (const Policy& policy :
       {Policy{"paper default (64M chunks)", 64 * MiB},
        Policy{"loose cap (4M chunks)", 4 * MiB},
        Policy{"no cap", 0}}) {
    core::PlannerOptions popts;
    popts.divider.fixed_region_size = policy.fixed_region_size;
    const core::Plan plan = core::analyze(records, params, popts);
    table.add_row({
        policy.name,
        std::to_string(plan.rst.size()),
        harness::cell(plan.threshold_used * 100.0, 0) + "%",
        harness::cell(run_with_plan(plan, records, 2e-6), 1),
        harness::cell(run_with_plan(plan, records, 20e-6), 1),
        harness::cell(run_with_plan(plan, records, 50e-6), 1),
    });
  }
  table.print(std::cout);
  std::cout << "(cheap metadata favours fine regions for their better layout "
               "fit; as per-region lookup cost grows, the MDS becomes the "
               "bottleneck and the paper's region-count cap wins)\n";
}

}  // namespace
}  // namespace harl::bench

void BM_PlacementLookup(benchmark::State& state) {
  harl::sim::Simulator sim;
  harl::pfs::MetadataServer mds(sim, 200e-6, 2e-6);
  mds.register_file("f", harl::pfs::make_fixed_layout(8, 64 * harl::KiB));
  for (auto _ : state) {
    mds.placement_lookup(
        "f", [](std::shared_ptr<const harl::pfs::Layout>) {});
    sim.run();
  }
}
BENCHMARK(BM_PlacementLookup);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  harl::bench::run_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
