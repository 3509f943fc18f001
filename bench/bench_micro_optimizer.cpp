// Micro-benchmarks of Algorithm 2 (region stripe-size determination):
// runtime vs grid step, request count and sampling, the 1 MiB IOR region
// that dominates a single-file HARL run, and the three-tier 1 MiB region on
// the paper's 4 KiB grid.  The paper
// notes the search runs offline and "the computational overhead ... is
// acceptable"; these benches quantify that.
#include <benchmark/benchmark.h>

#include "src/common/rng.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

TieredCostParams bench_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  for (storage::OpProfile* prof :
       {&p.tiers[0].profile.read, &p.tiers[0].profile.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.4;
    prof->startup_max *= 0.4;
  }
  return p;
}

std::vector<FileRequest> requests(std::size_t n, Bytes size) {
  Rng rng(7);
  std::vector<FileRequest> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 8192) * size, size});
  }
  return reqs;
}

void BM_OptimizeRegion_StepSweep(benchmark::State& state) {
  const TieredCostParams p = bench_params();
  const auto reqs = requests(256, 512 * KiB);
  OptimizerOptions opts;
  opts.step = static_cast<Bytes>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
  // Finer steps evaluate quadratically more candidates.
  OptimizerOptions probe = opts;
  state.counters["candidates"] = static_cast<double>(
      optimize_region(p, reqs, 512.0 * KiB, probe).candidates_evaluated);
}
BENCHMARK(BM_OptimizeRegion_StepSweep)
    ->Arg(4 * KiB)
    ->Arg(16 * KiB)
    ->Arg(64 * KiB)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_RequestSweep(benchmark::State& state) {
  const TieredCostParams p = bench_params();
  const auto reqs = requests(static_cast<std::size_t>(state.range(0)), 512 * KiB);
  OptimizerOptions opts;
  opts.step = 16 * KiB;
  opts.max_requests = 0;  // no sampling: cost scales linearly with requests
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
}
BENCHMARK(BM_OptimizeRegion_RequestSweep)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_Sampling(benchmark::State& state) {
  const TieredCostParams p = bench_params();
  const auto reqs = requests(8192, 512 * KiB);
  OptimizerOptions opts;
  opts.step = 16 * KiB;
  opts.max_requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
}
BENCHMARK(BM_OptimizeRegion_Sampling)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(0)  // unsampled
    ->Unit(benchmark::kMillisecond);

// The ior-plan shape on its own: one region of 1 MiB requests, all 4,096
// scored, on a calibrated 6 + 2 cluster.  The counters show how much of the
// 32,897-candidate grid the lower bound leaves to score.
void BM_OptimizeRegion_Ior1M(benchmark::State& state) {
  const TieredCostParams p = bench_params();
  const auto reqs = requests(4096, 1 * MiB);
  RegionStripes result;
  for (auto _ : state) {
    result = optimize_region(p, reqs, 1.0 * MiB);
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] =
      static_cast<double>(result.candidates_evaluated);
  state.counters["candidates_pruned"] =
      static_cast<double>(result.candidates_pruned);
  state.counters["cost_evals"] = static_cast<double>(result.cost_evals);
}
BENCHMARK(BM_OptimizeRegion_Ior1M)->Unit(benchmark::kMillisecond);

// The three-tier 1 MiB region of bench_ext_multitier (4 HDD + 2 SATA-SSD +
// 2 NVMe, 96 requests) on the paper's 4 KiB grid: 2,862,208 candidates,
// which the box scan bounds a box at a time.
void BM_OptimizeRegion_ThreeTier1M(benchmark::State& state) {
  TieredCostParams p;
  p.t = 1.0 / (117.0 * 1024 * 1024);
  storage::TierProfile hdd = storage::hdd_profile();
  for (storage::OpProfile* prof : {&hdd.read, &hdd.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  p.tiers = {TierSpec{4, hdd, {}}, TierSpec{2, storage::sata_ssd_profile(), {}},
             TierSpec{2, storage::nvme_ssd_profile(), {}}};
  const auto reqs = requests(96, 1 * MiB);
  OptimizerOptions opts;
  opts.step = 4 * KiB;
  RegionStripes result;
  for (auto _ : state) {
    result = optimize_region(p, reqs, 1.0 * MiB, opts);
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] =
      static_cast<double>(result.candidates_evaluated);
  state.counters["candidates_scored"] = static_cast<double>(
      result.candidates_evaluated - result.candidates_pruned);
  state.counters["floors"] = static_cast<double>(result.floors_computed);
}
BENCHMARK(BM_OptimizeRegion_ThreeTier1M)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl::core

BENCHMARK_MAIN();
