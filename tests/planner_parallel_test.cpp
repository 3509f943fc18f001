// Determinism regression tests for the region-parallel planning pipeline.
//
// The contract under test: analyze()/analyze_carl()/analyze_segment_level()
// with a thread pool produce Plans that are *bit-identical* — stripe for
// stripe, cost double for cost double — to the serial baseline.
// Parallelism only reorders who computes each region, never what is
// computed.  The search's coalescing scorer is checked against an
// exhaustive region_cost scan in optimizer_test (OptimizerOracle.*); here
// its counters must add up per region.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/planner.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/storage/profiles.hpp"
#include "src/trace/record.hpp"
#include "src/workloads/btio.hpp"
#include "src/workloads/ior.hpp"

namespace harl::core {
namespace {

TieredCostParams calibrated_params() {
  TieredCostParams p;
  p.tiers = {TierSpec{6, storage::hdd_profile(), {}},
             TierSpec{2, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  for (storage::OpProfile* prof :
       {&p.tiers[0].profile.read, &p.tiers[0].profile.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

/// Flattens rank programs into trace records the way the Tracing Phase
/// would see them (one record per extent, issue order preserved via
/// t_start), without paying for a simulated execution.
void flatten(const std::vector<mw::RankProgram>& programs,
             std::vector<trace::TraceRecord>* out) {
  for (std::size_t rank = 0; rank < programs.size(); ++rank) {
    for (const auto& action : programs[rank]) {
      if (action.kind == mw::IoAction::Kind::kCompute ||
          action.kind == mw::IoAction::Kind::kBarrier) {
        continue;
      }
      for (const auto& extent : action.extents) {
        trace::TraceRecord rec;
        rec.rank = static_cast<std::uint32_t>(rank);
        rec.op = action.op;
        rec.offset = extent.offset;
        rec.size = extent.size;
        rec.t_start = static_cast<Seconds>(out->size());
        out->push_back(rec);
      }
    }
  }
}

std::vector<trace::TraceRecord> ior_trace() {
  workloads::IorConfig cfg;
  cfg.processes = 8;
  cfg.file_size = 256 * MiB;
  cfg.request_size = 512 * KiB;
  cfg.requests_per_process = 24;
  std::vector<trace::TraceRecord> records;
  cfg.op = IoOp::kWrite;
  flatten(workloads::make_ior_programs(cfg), &records);
  cfg.op = IoOp::kRead;
  flatten(workloads::make_ior_programs(cfg), &records);
  return records;
}

std::vector<trace::TraceRecord> btio_trace() {
  workloads::BtioConfig cfg;
  cfg.processes = 4;
  cfg.grid = 24;
  cfg.max_dumps = 2;
  std::vector<trace::TraceRecord> records;
  flatten(workloads::make_btio_programs(cfg), &records);
  return records;
}

std::vector<trace::TraceRecord> random_trace(std::uint64_t seed) {
  // Randomized phase structure: contiguous runs whose request sizes differ
  // phase to phase, so Algorithm 1 has real boundaries to find, with random
  // ops/ranks and a shuffled record order (exercising the sort path).
  Rng rng(seed);
  std::vector<trace::TraceRecord> records;
  Bytes base = 0;
  for (std::size_t phase = 0; phase < 4; ++phase) {
    const Bytes size = (64 * KiB) << rng.uniform_u64(0, 5);  // 64 KiB .. 1 MiB
    for (std::size_t i = 0; i < 96; ++i) {
      trace::TraceRecord rec;
      rec.rank = static_cast<std::uint32_t>(rng.uniform_u64(0, 16));
      rec.op = rng.uniform_u64(0, 2) ? IoOp::kRead : IoOp::kWrite;
      rec.offset = base;
      rec.size = size;
      base += size;
      records.push_back(rec);
    }
  }
  // Deterministic shuffle so input order differs from ByOffset order
  // (uniform_u64 bounds are inclusive).
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.uniform_u64(0, i - 1)]);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].t_start = static_cast<Seconds>(i);
  }
  return records;
}

void expect_identical(const Plan& got, const Plan& want) {
  ASSERT_EQ(got.regions.size(), want.regions.size());
  for (std::size_t i = 0; i < want.regions.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    EXPECT_EQ(got.regions[i].offset, want.regions[i].offset);
    EXPECT_EQ(got.regions[i].end, want.regions[i].end);
    EXPECT_EQ(got.regions[i].stripes, want.regions[i].stripes);
    // Bit-identical, not approximately equal: each region's search is the
    // same computation whichever thread runs it.
    EXPECT_EQ(got.regions[i].model_cost, want.regions[i].model_cost);
    EXPECT_EQ(got.regions[i].candidates_evaluated,
              want.regions[i].candidates_evaluated);
  }
  ASSERT_EQ(got.rst.size(), want.rst.size());
  for (std::size_t i = 0; i < want.rst.size(); ++i) {
    EXPECT_EQ(got.rst.entry(i).offset, want.rst.entry(i).offset);
    EXPECT_EQ(got.rst.entry(i).stripes, want.rst.entry(i).stripes);
  }
  EXPECT_EQ(got.total_model_cost(), want.total_model_cost());
}

/// Serial baseline vs pooled configuration.
struct OptionPair {
  PlannerOptions baseline;
  PlannerOptions fast;
};

OptionPair option_pair(ThreadPool* pool) {
  OptionPair pair;
  pair.fast.pool = pool;
  // Also hand the optimizer the pool: the planner must ignore it while
  // regions are the parallel grain, so this must not perturb the plan.
  pair.fast.optimizer.pool = pool;
  // Small regions so the synthetic traces divide and the parallel path has
  // real multi-region work (applied to both sides identically).
  pair.baseline.divider.fixed_region_size = 8 * MiB;
  pair.fast.divider.fixed_region_size = 8 * MiB;
  return pair;
}

/// Requests the search scores in a region of `count` (its stride sample).
std::uint64_t sampled_requests(std::size_t count, std::size_t max_requests) {
  const std::size_t stride =
      max_requests == 0 || count <= max_requests
          ? 1
          : (count + max_requests - 1) / max_requests;
  return (count + stride - 1) / stride;
}

TEST(PlannerParallel, CoalescingCountersAddUpPerRegion) {
  // Every scored candidate looks up each sampled request once in the
  // coalescing memo: a kernel call on a class miss, a saved call on a hit.
  // So per region, evals + saved == scored candidates x sampled requests,
  // at every pool width, and the plans match the serial ones.
  const TieredCostParams params = calibrated_params();
  struct Case {
    const char* name;
    std::vector<trace::TraceRecord> records;
  };
  const Case cases[] = {{"ior", ior_trace()},
                        {"btio", btio_trace()},
                        {"random", random_trace(3)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Plan serial = analyze(c.records, params, option_pair(nullptr).fast);
    for (const std::size_t width : {1, 4}) {
      SCOPED_TRACE("pool width " + std::to_string(width));
      ThreadPool pool(width);
      const PlannerOptions opts = option_pair(&pool).fast;
      const Plan plan = analyze(c.records, params, opts);
      expect_identical(plan, serial);
      std::uint64_t saved = 0;
      for (const PlannedRegion& r : plan.regions) {
        EXPECT_EQ(r.cost_evals + r.cost_evals_saved,
                  (r.candidates_evaluated - r.candidates_pruned) *
                      sampled_requests(r.request_count,
                                       opts.optimizer.max_requests))
            << "region at " << r.offset;
        saved += r.cost_evals_saved;
      }
      EXPECT_GT(saved, 0u);
    }
  }
}

TEST(PlannerParallel, BtioTraceMatchesSerial) {
  const auto records = btio_trace();
  const TieredCostParams params = calibrated_params();
  ThreadPool pool(4);
  const OptionPair opts = option_pair(&pool);
  expect_identical(analyze(records, params, opts.fast),
                   analyze(records, params, opts.baseline));
}

TEST(PlannerParallel, RandomTracesMatchSerial) {
  const TieredCostParams params = calibrated_params();
  ThreadPool pool(4);
  const OptionPair opts = option_pair(&pool);
  bool saw_multi_region = false;
  for (std::uint64_t seed : {3u, 5u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto records = random_trace(seed);
    const Plan want = analyze(records, params, opts.baseline);
    saw_multi_region = saw_multi_region || want.regions.size() > 1;
    expect_identical(analyze(records, params, opts.fast), want);
  }
  // The regression only bites if the parallel path really fans out.
  EXPECT_TRUE(saw_multi_region);
}

TEST(PlannerParallel, PresortedInputMatchesUnsorted) {
  // ensure_sorted() uses a ByOffset-ordered input in place; the plan must
  // not depend on which path ran.
  const TieredCostParams params = calibrated_params();
  auto records = random_trace(7);
  const Plan from_unsorted = analyze(records, params);
  std::sort(records.begin(), records.end(), trace::ByOffset{});
  expect_identical(analyze(records, params), from_unsorted);
}

TEST(PlannerParallel, CarlMatchesSerial) {
  // CARL's parallel grain is (region, tier): two single-tier searches per
  // region, all concurrent, reassembled by index.
  const auto records = random_trace(11);
  const TieredCostParams params = calibrated_params();
  ThreadPool pool(4);
  const OptionPair opts = option_pair(&pool);
  expect_identical(analyze_carl(records, params, 1 * GiB, opts.fast),
                   analyze_carl(records, params, 1 * GiB, opts.baseline));
}

TEST(PlannerParallel, SegmentLevelMatchesSerial) {
  const auto records = random_trace(13);
  const TieredCostParams params = calibrated_params();
  ThreadPool pool(4);
  const OptionPair opts = option_pair(&pool);
  expect_identical(analyze_segment_level(records, params, opts.fast),
                   analyze_segment_level(records, params, opts.baseline));
}

TEST(PlannerParallel, RepeatedParallelRunsAreStable) {
  // Flush out schedule-dependent nondeterminism: many parallel runs over
  // the same trace must agree exactly.
  const auto records = random_trace(29);
  const TieredCostParams params = calibrated_params();
  ThreadPool pool(4);
  PlannerOptions opts;
  opts.pool = &pool;
  opts.divider.fixed_region_size = 8 * MiB;
  const Plan first = analyze(records, params, opts);
  for (int run = 0; run < 4; ++run) {
    expect_identical(analyze(records, params, opts), first);
  }
}

TEST(PlannerParallel, SingleRegionSearchCountersMatchAtEveryPoolWidth) {
  // One region leaves the pool to the optimizer: candidate bounds are
  // sharded over it while the scan stays serial, so the search counters,
  // not just the plan, are the same at every width.
  const auto records = ior_trace();
  const TieredCostParams params = calibrated_params();
  const Plan want = analyze(records, params);
  ASSERT_EQ(want.regions.size(), 1u);
  const PlannedRegion& serial = want.regions[0];
  EXPECT_GT(serial.candidates_pruned, 0u);
  EXPECT_LT(serial.candidates_pruned, serial.candidates_evaluated);
  EXPECT_EQ(want.total_candidates_pruned(), serial.candidates_pruned);
  for (const std::size_t width : {1, 2, 4}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    ThreadPool pool(width);
    PlannerOptions opts;
    opts.pool = &pool;
    opts.optimizer.pool = &pool;
    const Plan got = analyze(records, params, opts);
    expect_identical(got, want);
    ASSERT_EQ(got.regions.size(), 1u);
    EXPECT_EQ(got.regions[0].candidates_pruned, serial.candidates_pruned);
    EXPECT_EQ(got.regions[0].cost_evals, serial.cost_evals);
    EXPECT_EQ(got.regions[0].cost_evals_saved, serial.cost_evals_saved);
  }
}

// ---------------------------------------------------------------------------
// Pinned golden plans, captured from the dedicated two-tier planning path
// before the optimizer and planner generalized to tier vectors.  The generic
// k=2 path must reproduce every field double for double: offsets, stripes,
// model costs (as exact bit patterns, written as hex floats), and grid
// sizes.  A failure here means the refactored path is no longer the same
// computation.
// ---------------------------------------------------------------------------

struct GoldenRegion {
  Bytes offset;
  Bytes end;
  Bytes h;
  Bytes s;
  Seconds model_cost;
  std::size_t candidates;
};

PlannerOptions golden_options() {
  PlannerOptions opts;
  opts.divider.fixed_region_size = 8 * MiB;
  return opts;
}

void expect_matches_golden(const Plan& plan,
                           const std::vector<GoldenRegion>& want,
                           Seconds total_cost) {
  ASSERT_EQ(plan.regions.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    EXPECT_EQ(plan.regions[i].offset, want[i].offset);
    EXPECT_EQ(plan.regions[i].end, want[i].end);
    ASSERT_EQ(plan.regions[i].stripes.size(), 2u);
    EXPECT_EQ(plan.regions[i].stripes[0], want[i].h);
    EXPECT_EQ(plan.regions[i].stripes[1], want[i].s);
    EXPECT_EQ(plan.regions[i].model_cost, want[i].model_cost);
    EXPECT_EQ(plan.regions[i].candidates_evaluated, want[i].candidates);
  }
  // None of the golden traces produce mergeable neighbours, so the RST
  // mirrors the regions row for row.
  ASSERT_EQ(plan.rst.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("rst row " + std::to_string(i));
    EXPECT_EQ(plan.rst.entry(i).offset, want[i].offset);
    EXPECT_EQ(plan.rst.entry(i).stripes,
              (std::vector<Bytes>{want[i].h, want[i].s}));
  }
  EXPECT_EQ(plan.total_model_cost(), total_cost);
  EXPECT_EQ(plan.tier_counts, (std::vector<std::size_t>{6, 2}));
}

TEST(PlannerGolden, IorTraceMatchesPreRefactorPlan) {
  const Plan plan = analyze(ior_trace(), calibrated_params(), golden_options());
  expect_matches_golden(
      plan,
      {{0ull, 267386880ull, 16384ull, 212992ull, 0x1.139c79ccdafacp+0, 8257u}},
      0x1.139c79ccdafacp+0);
}

TEST(PlannerGolden, BtioTraceMatchesPreRefactorPlan) {
  const Plan plan =
      analyze(btio_trace(), calibrated_params(), golden_options());
  expect_matches_golden(
      plan,
      {{0ull, 1105920ull, 0ull, 4096ull, 0x1.fc444dbcf21b5p-1, 2u}},
      0x1.fc444dbcf21b5p-1);
}

TEST(PlannerGolden, RandomTraceMatchesPreRefactorPlan) {
  const Plan plan =
      analyze(random_trace(3), calibrated_params(), golden_options());
  expect_matches_golden(
      plan,
      {
          {0ull, 25690112ull, 0ull, 131072ull, 0x1.2c1af41a46132p-3, 2146u},
          {25690112ull, 75563008ull, 8192ull, 106496ull, 0x1.0f54af4d1613ep-2,
           8129u},
          {75563008ull, 82837504ull, 0ull, 32768ull, 0x1.a6949d45364bfp-5,
           191u},
          {82837504ull, 182452224ull, 32768ull, 425984ull, 0x1.f25c741fe52dcp-2,
           32897u},
      },
      0x1.e6489891628a6p-1);
}

TEST(PlannerGolden, ParallelCoalescingPathMatchesGoldenToo) {
  // The same goldens through the pooled, coalescing configuration: the
  // region-parallel engine must not perturb a single bit either.
  ThreadPool pool(4);
  PlannerOptions opts = golden_options();
  opts.pool = &pool;
  opts.optimizer.pool = &pool;
  const Plan plan = analyze(ior_trace(), calibrated_params(), opts);
  expect_matches_golden(
      plan,
      {{0ull, 267386880ull, 16384ull, 212992ull, 0x1.139c79ccdafacp+0, 8257u}},
      0x1.139c79ccdafacp+0);
}

}  // namespace
}  // namespace harl::core
