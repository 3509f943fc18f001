// Model-accuracy study: how well does the paper's analytic cost (Eq. 7/8)
// predict the *simulated* completion time of a single uncontended request?
//
// For a grid of request sizes x layouts, one request is issued against an
// otherwise-idle simulated cluster and its completion latency is compared
// with the calibrated model's prediction.  This quantifies the residual the
// optimizer tolerates; see EXPERIMENTS.md ("Calibration provenance").
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "src/common/rng.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/table.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"

namespace harl::bench {
namespace {

/// Mean simulated completion latency of single requests at random aligned
/// offsets (no queueing: one request at a time).
Seconds simulated_latency(const std::vector<Bytes>& hs, IoOp op, Bytes size,
                          int samples) {
  Rng rng(77);
  Seconds total = 0.0;
  for (int i = 0; i < samples; ++i) {
    sim::Simulator sim;
    pfs::ClusterConfig cfg;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_two_tier_layout(6, hs[0], 2, hs[1]);
    const Bytes offset = rng.uniform_u64(0, 4096) * size;
    Seconds start = 0.0;
    Seconds end = 0.0;
    cluster.client(0).io(*layout, op, offset, size, [&] { end = sim.now(); });
    sim.run();
    total += end - start;
  }
  return total / samples;
}

void run_tables() {
  pfs::ClusterConfig cluster;
  const core::TieredCostParams params = harness::calibrate(cluster);

  std::cout << "\n== Model accuracy: predicted vs simulated single-request "
               "latency ==\n";
  harness::Table table({"request", "layout", "op", "model (ms)", "sim (ms)",
                        "rel. error"});
  double worst = 0.0;
  for (Bytes size : {128 * KiB, 512 * KiB, 2 * MiB}) {
    for (const std::vector<Bytes>& hs :
         {std::vector<Bytes>{64 * KiB, 64 * KiB},
          std::vector<Bytes>{32 * KiB, 160 * KiB},
          std::vector<Bytes>{0, 64 * KiB}}) {
      for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
        // Model cost averaged over the same offset distribution.
        Rng rng(77);
        Seconds model = 0.0;
        const int samples = 64;
        for (int i = 0; i < samples; ++i) {
          const Bytes offset = rng.uniform_u64(0, 4096) * size;
          model += core::request_cost(params, op, offset, size, hs);
        }
        model /= samples;
        const Seconds sim_latency = simulated_latency(hs, op, size, samples);
        const double rel = std::abs(model - sim_latency) / sim_latency;
        worst = std::max(worst, rel);
        table.add_row({
            format_size(size),
            std::string("{").append(format_size(hs[0])) + "," +
                format_size(hs[1]) + "}",
            std::string(to_string(op)),
            harness::cell(model * 1e3, 2),
            harness::cell(sim_latency * 1e3, 2),
            harness::cell(rel * 100.0, 1) + "%",
        });
      }
    }
  }
  table.print(std::cout);
  std::cout << "worst relative error: " << harness::cell(worst * 100.0, 1)
            << "% (uncontended; queueing under load adds unmodeled delay "
               "for every candidate alike)\n";
}

void BM_SingleRequestSim(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulated_latency(
        {32 * KiB, 160 * KiB}, IoOp::kRead, 512 * KiB, 4));
  }
}
BENCHMARK(BM_SingleRequestSim)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  harl::bench::run_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
