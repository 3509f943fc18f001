// Micro-benchmarks of the Analysis-Phase planning pipeline: request-class
// coalescing in the Algorithm 2 scorer (brute force vs memoized, with
// cost-evaluation counters) and region-level parallelism across a
// multi-region trace.  The paper calls the offline analysis cost
// "acceptable"; these benches keep it that way as traces grow.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/planner.hpp"
#include "src/core/region_divider.hpp"
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

/// IOR-style uniform region: fixed-size requests at random aligned offsets.
std::vector<FileRequest> uniform_region(std::size_t n, Bytes size) {
  Rng rng(11);
  std::vector<FileRequest> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 8192) * size, size});
  }
  return reqs;
}

/// Multi-region trace: `regions` phases of distinct request sizes, each a
/// contiguous run, so Algorithm 1 splits them apart and the planner gets
/// independent per-region work.
std::vector<trace::TraceRecord> multi_region_trace(std::size_t regions,
                                                   std::size_t per_region) {
  std::vector<trace::TraceRecord> records;
  records.reserve(regions * per_region);
  Bytes base = 0;
  for (std::size_t r = 0; r < regions; ++r) {
    const Bytes size = (128 * KiB) << (r % 4);  // 128K..1M cycle
    for (std::size_t i = 0; i < per_region; ++i) {
      trace::TraceRecord rec;
      rec.op = r % 2 ? IoOp::kWrite : IoOp::kRead;
      rec.offset = base;
      rec.size = size;
      rec.t_start = static_cast<Seconds>(records.size());
      base += size;
      records.push_back(rec);
    }
  }
  return records;
}

// ------------------------------------------------ request-class coalescing

void BM_ScoreRegion_Coalescing(benchmark::State& state) {
  // One uniform region scored by the memoized scorer; cost_evals_saved
  // counts the kernel calls coalescing avoids.
  const TieredCostParams p = bench_params();
  const auto reqs =
      uniform_region(static_cast<std::size_t>(state.range(0)), 512 * KiB);
  OptimizerOptions opts;
  opts.max_requests = 0;  // score every request: the worst case coalescing fixes
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
  const auto probe = optimize_region(p, reqs, 512.0 * KiB, opts);
  state.counters["candidates"] =
      static_cast<double>(probe.candidates_evaluated);
  state.counters["cost_evals"] = static_cast<double>(probe.cost_evals);
  state.counters["cost_evals_saved"] =
      static_cast<double>(probe.cost_evals_saved);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reqs.size()) *
                          static_cast<std::int64_t>(probe.candidates_evaluated));
}
BENCHMARK(BM_ScoreRegion_Coalescing)
    ->Arg(1024)
    ->Arg(4096)
    ->ArgName("requests")
    ->Unit(benchmark::kMillisecond);

void BM_ScoreRegion_CoalescingMixedSizes(benchmark::State& state) {
  // Non-uniform region (two request sizes, read/write mix): more classes
  // per candidate, smaller but still real savings.
  const TieredCostParams p = bench_params();
  Rng rng(13);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < 2048; ++i) {
    const Bytes size = i % 3 ? 256 * KiB : 1 * MiB;
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 4096) * (64 * KiB), size});
  }
  OptimizerOptions opts;
  opts.max_requests = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
  const auto probe = optimize_region(p, reqs, 512.0 * KiB, opts);
  state.counters["cost_evals"] = static_cast<double>(probe.cost_evals);
  state.counters["cost_evals_saved"] =
      static_cast<double>(probe.cost_evals_saved);
}
BENCHMARK(BM_ScoreRegion_CoalescingMixedSizes)->Unit(benchmark::kMillisecond);

// ------------------------------------------------ region-level parallelism

void BM_Analyze_RegionParallel(benchmark::State& state) {
  // Full analyze() over a multi-region trace with the planner pool at 0
  // (serial), 2 and 4 threads.  Scaling is near-linear in hardware threads;
  // the plan is bit-identical at every width.
  const TieredCostParams p = bench_params();
  const auto records = multi_region_trace(8, 64);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads == 0 ? 1 : threads);
  PlannerOptions opts;
  opts.pool = threads == 0 ? nullptr : &pool;
  // Let Algorithm 1 keep the eight phases apart (the default 64 MiB
  // fixed-region reference would fold this small trace into one region).
  opts.divider.fixed_region_size = 4 * MiB;
  std::size_t regions = 0;
  for (auto _ : state) {
    const Plan plan = analyze(records, p, opts);
    regions = plan.regions.size();
    benchmark::DoNotOptimize(plan.rst.size());
  }
  state.counters["regions"] = static_cast<double>(regions);
}
BENCHMARK(BM_Analyze_RegionParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzeCarl_RegionParallel(benchmark::State& state) {
  // CARL runs two single-tier searches per region; the parallel grain is
  // (region, tier).
  const TieredCostParams p = bench_params();
  const auto records = multi_region_trace(8, 64);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads == 0 ? 1 : threads);
  PlannerOptions opts;
  opts.pool = threads == 0 ? nullptr : &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_carl(records, p, 4 * GiB, opts).rst.size());
  }
}
BENCHMARK(BM_AnalyzeCarl_RegionParallel)
    ->Arg(0)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ region division

void BM_RegionDivider(benchmark::State& state) {
  // Algorithm 1 over one sorted trace: the batch divide_regions walk
  // (range(1) == 0) vs the incremental StreamingDivider fed request by
  // request (range(1) == 1).  The two are bit-identical by construction
  // (tests/divider_test.cpp); this bench pins the per-request bookkeeping
  // of the streaming form that `harl_trace divide` uses.
  const auto records = multi_region_trace(
      8, static_cast<std::size_t>(state.range(0)) / 8);
  const bool streaming = state.range(1) != 0;
  const DividerOptions opts;
  std::size_t regions = 0;
  if (streaming) {
    // The streaming form takes the settled threshold as given (from a
    // full division of the same trace).
    const double threshold = divide_regions(records, opts).threshold_used;
    for (auto _ : state) {
      StreamingDivider divider(threshold);
      for (const auto& r : records) divider.add(r);
      regions = divider.finish().size();
      benchmark::DoNotOptimize(regions);
    }
  } else {
    for (auto _ : state) {
      const RegionDivision division = divide_regions(records, opts);
      regions = division.regions.size();
      benchmark::DoNotOptimize(regions);
    }
  }
  state.counters["regions"] = static_cast<double>(regions);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_RegionDivider)
    ->ArgsProduct({{4096, 16384}, {0, 1}})
    ->ArgNames({"requests", "streaming"})
    ->Unit(benchmark::kMillisecond);

void BM_Analyze_PresortedTrace(benchmark::State& state) {
  // The harness hands the planner traces already in ByOffset order; the
  // planner now detects that and skips the copy + sort.
  const TieredCostParams p = bench_params();
  auto records = multi_region_trace(8, 256);
  if (state.range(0) == 0) {
    // Reversed input forces the sorted-copy path for comparison.
    std::vector<trace::TraceRecord> reversed(records.rbegin(), records.rend());
    records = reversed;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(records, p).rst.size());
  }
}
BENCHMARK(BM_Analyze_PresortedTrace)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("presorted")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl::core

BENCHMARK_MAIN();
