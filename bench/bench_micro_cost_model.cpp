// Micro-benchmarks of the analytic cost model: geometry computation and
// full request costing.  Algorithm 2 calls these millions of times per
// region, so their per-call cost bounds the Analysis Phase runtime.
#include <benchmark/benchmark.h>

#include "src/common/rng.hpp"
#include "src/core/closed_form.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

TieredCostParams bench_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  p.per_stripe_overhead = 50e-6;
  return p;
}

void BM_RequestGeometry(benchmark::State& state) {
  const std::size_t counts[2] = {6, 2};
  const Bytes stripes[2] = {static_cast<Bytes>(state.range(0)),
                            static_cast<Bytes>(state.range(1))};
  TierGeometry geometry[2];
  Bytes offset = 0;
  for (auto _ : state) {
    offset = (offset + 1315423911u) & ((1u << 30) - 1);
    tiered_geometry_into(offset, 512 * KiB, counts, stripes, geometry);
    benchmark::DoNotOptimize(geometry);
  }
}
BENCHMARK(BM_RequestGeometry)
    ->Args({64 * KiB, 64 * KiB})
    ->Args({32 * KiB, 160 * KiB})
    ->Args({0, 64 * KiB});

void BM_RequestCost(benchmark::State& state) {
  const TieredCostParams p = bench_params();
  const Bytes stripes[2] = {static_cast<Bytes>(state.range(0)),
                            static_cast<Bytes>(state.range(1))};
  Bytes offset = 0;
  for (auto _ : state) {
    offset = (offset + 2654435761u) & ((1u << 30) - 1);
    benchmark::DoNotOptimize(
        request_cost(p, IoOp::kRead, offset, 512 * KiB, stripes));
  }
}
BENCHMARK(BM_RequestCost)
    ->Args({64 * KiB, 64 * KiB})
    ->Args({32 * KiB, 160 * KiB});

void BM_TieredRequestCost(benchmark::State& state) {
  TieredCostParams p;
  p.t = 1.0 / (117.0 * 1024 * 1024);
  TierSpec hdd{6, storage::hdd_profile(), {}};
  TierSpec sata{2, storage::sata_ssd_profile(), {}};
  TierSpec nvme{2, storage::nvme_ssd_profile(), {}};
  p.tiers = {hdd, sata, nvme};
  const std::vector<Bytes> stripes = {16 * KiB, 64 * KiB, 256 * KiB};
  Bytes offset = 0;
  for (auto _ : state) {
    offset = (offset + 97u * 4096u) & ((1u << 30) - 1);
    benchmark::DoNotOptimize(
        request_cost(p, IoOp::kRead, offset, 1 * MiB, stripes));
  }
}
BENCHMARK(BM_TieredRequestCost);

void BM_Fig5ClosedForm(benchmark::State& state) {
  const StripePair hs{64 * KiB, 160 * KiB};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fig5_case_a_geometry(10 * KiB, 100 * KiB, hs, 6, 2));
  }
}
BENCHMARK(BM_Fig5ClosedForm);

}  // namespace
}  // namespace harl::core

BENCHMARK_MAIN();
