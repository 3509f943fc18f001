// Extension bench (paper future work): on-line data layout.
//
// A workload drifts mid-run: phase A issues 128 KiB requests (for which the
// offline Analysis Phase installed the SServer-only {0K, 64K} layout, paper
// Fig. 9), phase B shifts to 2 MiB requests whose optimum is a wide hybrid
// spread — on the stale layout they squeeze through two servers.  Three
// strategies are measured on phase B in the simulator:
//   * static-offline — keep the phase-A layout (what the paper's offline
//     pipeline would do);
//   * oracle-offline — re-run the offline pipeline on a phase-B trace
//     (upper bound);
//   * online-advisor — the OnlineAdvisor watches the stream, detects the
//     drift after one window, and its adopted RST serves the rest.
#include <benchmark/benchmark.h>

#include <iostream>

#include "src/common/rng.hpp"
#include "src/core/online_advisor.hpp"
#include "src/harness/calibration.hpp"
#include "src/harness/table.hpp"
#include "src/pfs/cluster.hpp"
#include "src/sim/simulator.hpp"

namespace harl::bench {
namespace {

std::vector<trace::TraceRecord> phase_requests(Bytes request_size,
                                               std::size_t count,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::TraceRecord> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::TraceRecord r;
    r.op = i % 2 ? IoOp::kRead : IoOp::kWrite;
    r.offset = rng.uniform_u64(0, 4096) * request_size;
    r.size = request_size;
    reqs.push_back(r);
  }
  return reqs;
}

double simulate(const std::vector<trace::TraceRecord>& reqs,
                std::shared_ptr<const pfs::Layout> layout) {
  sim::Simulator sim;
  pfs::ClusterConfig cfg;
  pfs::Cluster cluster(sim, cfg);
  Bytes total = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    total += reqs[i].size;
    cluster.client(i % cluster.num_clients())
        .io(*layout, reqs[i].op, reqs[i].offset, reqs[i].size, [] {});
  }
  sim.run();
  return static_cast<double>(total) / sim.now() / (1024.0 * 1024.0);
}

void run_tables() {
  pfs::ClusterConfig cluster;
  const core::TieredCostParams params = harness::calibrate(cluster);

  const auto phase_a = phase_requests(128 * KiB, 512, 31);
  const auto phase_b = phase_requests(2 * MiB, 256, 32);

  // Offline pipeline on phase A: the installed (soon stale) layout.
  const core::Plan plan_a = core::analyze(phase_a, params);
  auto static_layout = plan_a.rst.to_layout(6, 2);

  // Oracle: offline pipeline on phase B itself.
  const core::Plan plan_b = core::analyze(phase_b, params);
  auto oracle_layout = plan_b.rst.to_layout(6, 2);

  // Online advisor: watch phase B; adopt the first recommendation.
  core::OnlineAdvisor::Options aopts;
  aopts.window = 128;
  core::OnlineAdvisor advisor(params, plan_a.rst, aopts);
  std::size_t detected_after = 0;
  for (std::size_t i = 0; i < phase_b.size(); ++i) {
    if (auto rec = advisor.observe(phase_b[i])) {
      advisor.adopt(*rec);
      detected_after = i + 1;
      break;
    }
  }
  auto online_layout = advisor.current().to_layout(6, 2);

  std::cout << "\n== Extension: on-line re-layout after a workload shift "
               "(128K -> 2M requests) ==\n";
  harness::Table table(
      {"strategy", "phase-B layout", "phase-B MB/s", "vs static"});
  const double statict = simulate(phase_b, static_layout);
  const double oracle = simulate(phase_b, oracle_layout);
  const double online = simulate(phase_b, online_layout);
  table.add_row({"static-offline", static_layout->describe(),
                 harness::cell(statict, 1), "+0.0%"});
  table.add_row({"online-advisor", online_layout->describe(),
                 harness::cell(online, 1),
                 harness::cell_ratio(online, statict)});
  table.add_row({"oracle-offline", oracle_layout->describe(),
                 harness::cell(oracle, 1),
                 harness::cell_ratio(oracle, statict)});
  table.print(std::cout);
  std::cout << "(advisor detected the drift after " << detected_after
            << " requests — one analysis window)\n";
}

void BM_AdvisorObserve(benchmark::State& state) {
  pfs::ClusterConfig cluster;
  harness::CalibrationOptions copts;
  copts.samples_per_size = 300;
  copts.beta_samples = 300;
  const core::TieredCostParams params = harness::calibrate(cluster, copts);
  core::RegionStripeTable rst;
  rst.add(0, {28 * KiB, 172 * KiB});
  core::OnlineAdvisor::Options opts;
  opts.window = 256;
  core::OnlineAdvisor advisor(params, rst, opts);
  const auto stream = phase_requests(128 * KiB, 4096, 33);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor.observe(stream[i % stream.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AdvisorObserve);

}  // namespace
}  // namespace harl::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  harl::bench::run_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
