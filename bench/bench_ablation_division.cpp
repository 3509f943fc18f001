// Ablation: Algorithm 1 (CV-driven region division) vs the fixed-chunk
// strawman the paper rejects in Section III-C ("While this method is
// simple, it is difficult to select a proper region size for varying I/O
// patterns").  The same non-uniform workload — whose phase boundaries do
// NOT align with any fixed chunk grid — is planned with both dividers and
// measured end to end.
#include "bench/bench_common.hpp"

#include "src/middleware/mpi_world.hpp"

namespace harl::bench {
namespace {

/// Three workload phases at deliberately chunk-misaligned boundaries.
std::vector<trace::TraceRecord> misaligned_trace() {
  std::vector<trace::TraceRecord> records;
  auto append = [&records](Bytes base, Bytes extent, Bytes req) {
    for (Bytes off = 0; off + req <= extent; off += req) {
      trace::TraceRecord r;
      r.op = (off / req) % 2 ? IoOp::kRead : IoOp::kWrite;
      r.offset = base + off;
      r.size = req;
      records.push_back(r);
    }
  };
  append(0, 100 * MiB, 128 * KiB);                 // ends inside chunk 1
  append(100 * MiB, 300 * MiB, 1 * MiB);           // ends inside chunk 6
  append(400 * MiB, 600 * MiB, 2 * MiB);
  return records;
}

double run_with_plan(const core::Plan& plan,
                     const std::vector<trace::TraceRecord>& requests) {
  sim::Simulator sim;
  pfs::ClusterConfig cfg;
  pfs::Cluster cluster(sim, cfg);
  mw::MpiWorld world(cluster, 16);
  mw::ProgramRunner runner(world, "data", plan.rst.to_layout(6, 2));
  std::vector<mw::RankProgram> programs(16);
  Bytes total = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    programs[i % 16].push_back(
        mw::IoAction::io(requests[i].op, requests[i].offset, requests[i].size));
    total += requests[i].size;
  }
  const auto result = runner.run(programs);
  return static_cast<double>(total) / result.makespan / (1024.0 * 1024.0);
}

void run_tables() {
  pfs::ClusterConfig cluster;
  const core::TieredCostParams params = harness::calibrate(cluster);
  const auto records = misaligned_trace();

  std::cout << "\n== Ablation: Algorithm 1 vs fixed-chunk region division ==\n";
  harness::Table table({"divider", "regions", "sim MB/s"});

  {
    const core::Plan plan = core::analyze(records, params);
    table.add_row({"Algorithm 1 (CV-driven)", std::to_string(plan.rst.size()),
                   harness::cell(run_with_plan(plan, records), 1)});
  }
  for (Bytes chunk : {64 * MiB, 256 * MiB}) {
    const core::Plan plan =
        core::analyze_fixed_regions(records, params, chunk);
    table.add_row({"fixed " + format_size(chunk) + " chunks",
                   std::to_string(plan.rst.size()),
                   harness::cell(run_with_plan(plan, records), 1)});
  }
  {
    const core::Plan plan = core::analyze_file_level(records, params);
    table.add_row({"none (file-level)", std::to_string(plan.rst.size()),
                   harness::cell(run_with_plan(plan, records), 1)});
  }
  table.print(std::cout);
  std::cout << "(among dividers, Algorithm 1 wins: fixed chunks cut inside "
               "workload phases and mix dissimilar requests.  The file-level "
               "row is competitive in this substrate because round-robin "
               "aggregation makes equal-ratio stripe pairs behave alike — "
               "see the region-level ablation discussion in EXPERIMENTS.md)\n";
}

void BM_DividerComparison(benchmark::State& state) {
  const auto records = misaligned_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::divide_regions(records));
    benchmark::DoNotOptimize(core::divide_regions_fixed(records, 64 * MiB));
  }
}
BENCHMARK(BM_DividerComparison)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  harl::bench::run_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
