// Tests for Algorithm 2: region stripe-size determination.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

using Stripes = std::vector<Bytes>;

/// Calibrated-style parameters (sequential-fit alpha, effective beta) — what
/// harness::calibrate produces; see tests/cost_model_test.cpp for rationale.
TieredCostParams calibrated_params(std::size_t M = 6, std::size_t N = 2) {
  TieredCostParams p;
  p.tiers = {TierSpec{M, storage::hdd_profile(), {}},
             TierSpec{N, storage::pcie_ssd_profile(), {}}};
  p.t = 1.0 / (117.0 * 1024 * 1024);
  for (storage::OpProfile* prof :
       {&p.tiers[0].profile.read, &p.tiers[0].profile.write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

std::vector<FileRequest> uniform_requests(Bytes size, std::size_t count,
                                          IoOp op = IoOp::kRead,
                                          std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back(FileRequest{op, rng.uniform_u64(0, 4096) * size, size});
  }
  return reqs;
}

TEST(Optimizer, PicksLargerSserverStripe) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  // Heterogeneity-aware: SServers get strictly larger stripes (or all data).
  EXPECT_GT(result.stripes[1], result.stripes[0]);
  EXPECT_GT(result.candidates_evaluated, 100u);
  EXPECT_GT(result.model_cost, 0.0);
}

TEST(Optimizer, HybridWinsForLargeRequests) {
  // Paper Fig. 7: at 512 KiB both tiers carry data ({32K, 160K}-shaped).
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_GT(result.stripes[0], 0u);
  // The winning ratio is strongly SServer-biased (paper: 160/32 = 5).
  EXPECT_GE(result.stripes[1] / std::max<Bytes>(result.stripes[0], 1), 2u);
}

TEST(Optimizer, SmallRequestsGoSsdOnly) {
  // Paper Fig. 9: at 128 KiB the optimal pair is {0K, 64K} — SServers only.
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(128 * KiB, 64);
  const auto result = optimize_region(p, reqs, 128.0 * KiB);
  EXPECT_EQ(result.stripes[0], 0u);
  EXPECT_GT(result.stripes[1], 0u);
}

TEST(Optimizer, ChosenPairBeatsEveryFixedStripeOnTheModel) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 48);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  for (Bytes stripe = 4 * KiB; stripe <= 512 * KiB; stripe += 4 * KiB) {
    const Seconds fixed = region_cost(p, reqs, Stripes{stripe, stripe});
    EXPECT_LE(result.model_cost, fixed + 1e-12) << "stripe=" << stripe;
  }
}

TEST(Optimizer, HomogeneousSearchNeverBeatsFullSearch) {
  const TieredCostParams p = calibrated_params();
  for (Bytes req : {128 * KiB, 512 * KiB, 1 * MiB}) {
    const auto reqs = uniform_requests(req, 32);
    const auto full = optimize_region(p, reqs, static_cast<double>(req));
    const auto homo =
        optimize_region_homogeneous(p, reqs, static_cast<double>(req));
    EXPECT_LE(full.model_cost, homo.model_cost + 1e-12) << "req=" << req;
    EXPECT_EQ(homo.stripes[0], homo.stripes[1]);
  }
}

TEST(Optimizer, ParallelSearchMatchesSerial) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 40);
  const auto serial = optimize_region(p, reqs, 512.0 * KiB);

  ThreadPool pool(4);
  OptimizerOptions opts;
  opts.pool = &pool;
  const auto parallel = optimize_region(p, reqs, 512.0 * KiB, opts);
  EXPECT_EQ(serial.stripes, parallel.stripes);
  EXPECT_DOUBLE_EQ(serial.model_cost, parallel.model_cost);
}

TEST(Optimizer, SamplingPreservesTheArgmin) {
  const TieredCostParams p = calibrated_params();
  // All requests identical: sampling cannot change anything.
  std::vector<FileRequest> reqs(500, FileRequest{IoOp::kRead, 0, 512 * KiB});
  OptimizerOptions sampled;
  sampled.max_requests = 10;
  const auto full = optimize_region(p, reqs, 512.0 * KiB);
  const auto sub = optimize_region(p, reqs, 512.0 * KiB, sampled);
  EXPECT_EQ(full.stripes, sub.stripes);
  EXPECT_NEAR(full.model_cost, sub.model_cost, full.model_cost * 1e-9);
}

TEST(Optimizer, StepControlsGridResolution) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(256 * KiB, 16);
  OptimizerOptions coarse;
  coarse.step = 64 * KiB;
  OptimizerOptions fine;
  fine.step = 4 * KiB;
  const auto c = optimize_region(p, reqs, 256.0 * KiB, coarse);
  const auto f = optimize_region(p, reqs, 256.0 * KiB, fine);
  EXPECT_LT(c.candidates_evaluated, f.candidates_evaluated);
  // Finer grids can only improve (the coarse grid is a subset).
  EXPECT_LE(f.model_cost, c.model_cost + 1e-12);
  // Results land on their grids.
  EXPECT_EQ(c.stripes[0] % (64 * KiB), 0u);
  EXPECT_EQ(f.stripes[0] % (4 * KiB), 0u);
}

TEST(Optimizer, WriteRegionsUseWriteCosts) {
  const TieredCostParams p = calibrated_params();
  const auto reads = uniform_requests(512 * KiB, 32, IoOp::kRead);
  const auto writes = uniform_requests(512 * KiB, 32, IoOp::kWrite);
  const auto r = optimize_region(p, reads, 512.0 * KiB);
  const auto w = optimize_region(p, writes, 512.0 * KiB);
  // SSD writes are slower than reads, so the write-optimal layout leans
  // (weakly) more on HServers; at minimum the costs must differ.
  EXPECT_NE(r.model_cost, w.model_cost);
}

TEST(Optimizer, HserverOnlyClusterStaysOnHservers) {
  const TieredCostParams p = calibrated_params(4, 0);
  const auto reqs = uniform_requests(256 * KiB, 16);
  const auto result = optimize_region(p, reqs, 256.0 * KiB);
  EXPECT_GT(result.stripes[0], 0u);
  EXPECT_EQ(result.stripes[1], 0u);
}

TEST(Optimizer, SserverOnlyClusterStaysOnSservers) {
  const TieredCostParams p = calibrated_params(0, 4);
  const auto reqs = uniform_requests(256 * KiB, 16);
  const auto result = optimize_region(p, reqs, 256.0 * KiB);
  EXPECT_EQ(result.stripes[0], 0u);
  EXPECT_GT(result.stripes[1], 0u);
}

TEST(Optimizer, SserverShareBoundIsRespected) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 32);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.4;
  const auto result = optimize_region(p, reqs, 512.0 * KiB, opts);
  const double S = 6.0 * result.stripes[0] + 2.0 * result.stripes[1];
  EXPECT_LE(2.0 * result.stripes[1] / S, 0.4 + 1e-9);
  // Constraining the search can only cost model time.
  const auto unconstrained = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_GE(result.model_cost, unconstrained.model_cost - 1e-12);
}

TEST(Optimizer, ImpossibleShareBoundFallsBackToFrugalest) {
  // On an SServer-only cluster every candidate has share 1; the bound is
  // infeasible, so the minimum-share candidates must still be searched.
  const TieredCostParams p = calibrated_params(0, 4);
  const auto reqs = uniform_requests(256 * KiB, 8);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.1;
  const auto result = optimize_region(p, reqs, 256.0 * KiB, opts);
  EXPECT_GT(result.stripes[1], 0u);
}

TEST(Optimizer, RejectsBadShareBound) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.0;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
  opts.max_sserver_share = 1.5;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
  // NaN fails every comparison; it must not pass as "no bound".
  opts.max_sserver_share = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
  EXPECT_THROW(optimize_region_homogeneous(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
}

TEST(Optimizer, ValidatesInputs) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  EXPECT_THROW(optimize_region(p, {}, 64.0 * KiB), std::invalid_argument);
  EXPECT_THROW(optimize_region(p, reqs, 0.0), std::invalid_argument);
  // Non-finite averages, and ones whose step rounding overflows Bytes.
  for (const double avg : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0x1p64,
                           0x1p64 - 0x1p11}) {
    EXPECT_THROW(optimize_region(p, reqs, avg), std::invalid_argument) << avg;
    EXPECT_THROW(optimize_region_homogeneous(p, reqs, avg),
                 std::invalid_argument)
        << avg;
  }
  OptimizerOptions bad;
  bad.step = 0;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pinned optima, captured from the dedicated two-tier optimizer before the
// grid search generalized to tier vectors.  The generic k=2 engine must
// reproduce them *bit for bit* — stripes, model cost, and grid size — so
// these fail on any change to candidate order, tie-breaking, or the cost
// kernel's accumulation order.
// ---------------------------------------------------------------------------

TEST(Optimizer, PinnedHybridOptimumAt512K) {
  // The paper's {32K, 160K}-class hybrid regime (Fig. 7, large requests).
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_EQ(result.stripes[0], 12288u);
  EXPECT_EQ(result.stripes[1], 225280u);
  EXPECT_EQ(result.model_cost, 0x1.62a0edd8cc586p-3);
  EXPECT_EQ(result.candidates_evaluated, 8257u);
}

TEST(Optimizer, PinnedSsdOnlyOptimumAt128K) {
  // The paper's {0K, 64K} SServer-only regime (Fig. 9, small requests).
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(128 * KiB, 64);
  const auto result = optimize_region(p, reqs, 128.0 * KiB);
  EXPECT_EQ(result.stripes[0], 0u);
  EXPECT_EQ(result.stripes[1], 65536u);
  EXPECT_EQ(result.model_cost, 0x1.856557900ba3fp-5);
  EXPECT_EQ(result.candidates_evaluated, 529u);
}

// ---------------------------------------------------------------------------
// The branch-and-bound against an exhaustive oracle: every grid candidate
// scored through the public cost functions, the winner chosen by the
// documented order (lower cost, then lexicographically larger stripes, then
// larger member counts, both compared from tier 0).  Stripes, members and
// cost bits must match, and the bound must actually prune.
// ---------------------------------------------------------------------------

struct OracleBest {
  Seconds cost = std::numeric_limits<Seconds>::infinity();
  std::vector<Bytes> stripes;
  std::vector<std::size_t> members;
  std::size_t candidates = 0;

  void offer(Seconds c, const std::vector<Bytes>& st,
             const std::vector<std::size_t>& mem) {
    ++candidates;
    if (c < cost ||
        (c == cost && (st > stripes || (st == stripes && mem > members)))) {
      cost = c;
      stripes = st;
      members = mem;
    }
  }
};

/// Mixed ops and sizes (some unaligned) at unaligned offsets.
std::vector<FileRequest> mixed_requests(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const Bytes sizes[] = {96 * KiB + 123, 200 * KiB, 333 * KiB + 7};
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back(FileRequest{rng.uniform01() < 0.5 ? IoOp::kRead
                                                     : IoOp::kWrite,
                               rng.uniform_u64(0, Bytes{1} << 30),
                               sizes[rng.uniform_u64(0, 2)]});
  }
  return reqs;
}

/// The two-tier grid of Algorithm 2 for M, N > 0: h in {0, step, ..., R},
/// s from h + step up to max(R, h + step).
template <typename Visit>
void for_each_two_tier_pair(Bytes R, Bytes step, Visit&& visit) {
  for (Bytes h = 0; h <= R; h += step) {
    for (Bytes s = h + step; s <= std::max(R, h + step); s += step) {
      visit(h, s);
    }
  }
}

/// Sampled member-aware cost of one candidate, scaled to the full region as
/// the optimizer reports it.
Seconds sampled_cost(const TieredCostParams& p,
                     const std::vector<FileRequest>& reqs,
                     const Stripes& stripes,
                     const std::vector<std::size_t>& members,
                     std::size_t stride) {
  Seconds total = 0.0;
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < reqs.size(); i += stride, ++sampled) {
    total += request_cost(p, reqs[i].op, reqs[i].offset, reqs[i].size,
                          stripes, members);
  }
  return total * static_cast<double>(reqs.size()) /
         static_cast<double>(sampled);
}

/// The exhaustive two-tier scan on the search's grid: region_cost's plain
/// loop on every candidate.
OracleBest exhaustive_scan(const TieredCostParams& p,
                           const std::vector<FileRequest>& reqs, Bytes R,
                           Bytes step = 4 * KiB) {
  OracleBest want;
  for_each_two_tier_pair(R, step, [&](Bytes h, Bytes s) {
    want.offer(region_cost(p, reqs, Stripes{h, s}), {h, s}, {});
  });
  return want;
}

TEST(Optimizer, CoalescedSearchIsBitIdenticalToBruteForce) {
  // Request-class coalescing memoizes request_cost per (op, size,
  // offset mod S) but accumulates in original order, so every output —
  // stripes, tie-breaks, the cost double itself — matches an exhaustive
  // region_cost scan of the paper's 4 KiB grid exactly.  Mixed ops and
  // sizes to exercise multiple classes.
  const TieredCostParams p = calibrated_params();
  Rng rng(19);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < 300; ++i) {
    const Bytes size = i % 4 ? 256 * KiB : 512 * KiB;
    reqs.push_back(FileRequest{i % 2 ? IoOp::kWrite : IoOp::kRead,
                               rng.uniform_u64(0, 2048) * (64 * KiB), size});
  }
  const OracleBest want = exhaustive_scan(p, reqs, 384 * KiB);
  const auto got = optimize_region(p, reqs, 384.0 * KiB);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.model_cost, want.cost);  // exact, not approximate
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  // Counter accounting: one memo lookup per scored candidate and request,
  // a kernel call on a class miss, a saved one on a hit.
  EXPECT_GT(got.cost_evals_saved, 0u);
  EXPECT_EQ(got.cost_evals + got.cost_evals_saved,
            (got.candidates_evaluated - got.candidates_pruned) * 300u);
}

TEST(Optimizer, CoalescedShardedSearchMatchesBruteForce) {
  // Window floors computed sharded over a pool: the same winner, cost
  // bits and counters as the serial search and the exhaustive scan.
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  ThreadPool pool(4);
  OptimizerOptions sharded;
  sharded.pool = &pool;
  const OracleBest want = exhaustive_scan(p, reqs, 512 * KiB);
  const auto serial = optimize_region(p, reqs, 512.0 * KiB);
  const auto got = optimize_region(p, reqs, 512.0 * KiB, sharded);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_pruned, serial.candidates_pruned);
  EXPECT_EQ(got.cost_evals, serial.cost_evals);
  EXPECT_EQ(got.cost_evals + got.cost_evals_saved,
            (got.candidates_evaluated - got.candidates_pruned) * 64u);
}

TEST(RegionCost, CoalescedScoreMatchesPlainLoop) {
  // The search reports its winner's memoized score: the very double
  // region_cost's plain loop gives those stripes, with and without
  // request sampling.
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(256 * KiB, 128, IoOp::kWrite);
  for (const std::size_t max_requests : {std::size_t{0}, std::size_t{32}}) {
    OptimizerOptions opts;
    opts.max_requests = max_requests;
    const auto got = optimize_region(p, reqs, 256.0 * KiB, opts);
    EXPECT_GT(got.cost_evals_saved, 0u);
    EXPECT_EQ(got.model_cost,
              region_cost(p, reqs, got.stripes, max_requests));
  }
}

constexpr Bytes kOracleStep = 16 * KiB;
constexpr double kOracleAvg = 208.0 * KiB;
constexpr Bytes kOracleR = 208 * KiB;  // avg rounded up to the step

TEST(OptimizerOracle, MixedOpsSizesAndSamplingMatchFullScan) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = mixed_requests(960, 41);
  OptimizerOptions opts;
  opts.step = kOracleStep;
  opts.max_requests = 240;  // stride 4
  OracleBest want;
  for_each_two_tier_pair(kOracleR, kOracleStep, [&](Bytes h, Bytes s) {
    want.offer(region_cost(p, reqs, Stripes{h, s}, opts.max_requests), {h, s},
               {});
  });
  const auto got = optimize_region(p, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_TRUE(got.members.empty());
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);

  // Every scored candidate looks up each of the 240 sampled requests once:
  // a kernel call on a class miss, a saved one on a hit.
  EXPECT_EQ(got.cost_evals + got.cost_evals_saved,
            (got.candidates_evaluated - got.candidates_pruned) * 240u);
}

TEST(OptimizerOracle, DistinctSizesMatchFullScan) {
  // One request per (op, size) class: the bound prices such small classes
  // exactly instead of by their offset minimum.
  const TieredCostParams p = calibrated_params();
  Rng rng(61);
  std::vector<FileRequest> reqs;
  for (Bytes i = 0; i < 48; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, Bytes{1} << 30),
                               100 * KiB + i * 4099});
  }
  OptimizerOptions opts;
  opts.step = kOracleStep;
  OracleBest want;
  for_each_two_tier_pair(kOracleR, kOracleStep, [&](Bytes h, Bytes s) {
    want.offer(region_cost(p, reqs, Stripes{h, s}), {h, s}, {});
  });
  const auto got = optimize_region(p, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);
}

TEST(OptimizerOracle, SserverShareBoundMatchesFilteredScan) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = mixed_requests(120, 43);
  OptimizerOptions opts;
  opts.step = kOracleStep;
  opts.max_sserver_share = 0.5;
  auto share = [&](Bytes h, Bytes s) {
    return 2.0 * static_cast<double>(s) /
           (6.0 * static_cast<double>(h) + 2.0 * static_cast<double>(s));
  };
  OracleBest want;
  for_each_two_tier_pair(kOracleR, kOracleStep, [&](Bytes h, Bytes s) {
    if (share(h, s) <= 0.5) {
      want.offer(region_cost(p, reqs, Stripes{h, s}), {h, s}, {});
    }
  });
  const auto got = optimize_region(p, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);
}

TEST(OptimizerOracle, HomogeneousSearchMatchesFullScan) {
  const TieredCostParams p = calibrated_params();
  const auto reqs = mixed_requests(120, 47);
  OptimizerOptions opts;
  opts.step = 4 * KiB;
  OracleBest want;
  for (Bytes v = opts.step; v <= kOracleR; v += opts.step) {
    want.offer(region_cost(p, reqs, Stripes{v, v}), {v, v}, {});
  }
  const auto got = optimize_region_homogeneous(p, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);
}

TEST(OptimizerOracle, HeterogeneousMemberChoicesMatchFullScan) {
  TieredCostParams p = calibrated_params();
  p.tiers[0].device_factors = {1.0, 1.0, 1.0, 1.0, 2.5, 2.5};  // choices {4, 6}
  p.tiers[1].device_factors = {1.0, 3.0};                      // choices {1, 2}
  const auto reqs = mixed_requests(160, 53);
  OptimizerOptions opts;
  opts.step = kOracleStep;
  opts.max_requests = 80;  // stride 2
  OracleBest want;
  for_each_two_tier_pair(kOracleR, kOracleStep, [&](Bytes h, Bytes s) {
    const std::vector<std::size_t> h_choices =
        h == 0 ? std::vector<std::size_t>{0} : std::vector<std::size_t>{4, 6};
    for (std::size_t hm : h_choices) {
      for (std::size_t sm : {std::size_t{1}, std::size_t{2}}) {
        want.offer(sampled_cost(p, reqs, {h, s}, {hm, sm}, 2), {h, s},
                   {hm, sm});
      }
    }
  });
  const auto got = optimize_region(p, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);
}

TEST(OptimizerOracle, SingleTierHalvesWithFactorsMatchPaperGrid) {
  // CARL's single-tier halves: one tier without servers (and without device
  // factors), the other aged {1, 4}.  The paper grid gives the empty tier
  // only stripe 0 and member count 0; the aged tier crosses every stripe
  // with its member choices {1, 2}.
  const auto reqs = mixed_requests(120, 67);
  OptimizerOptions opts;
  opts.step = kOracleStep;
  for (const std::size_t empty : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("empty tier " + std::to_string(empty));
    const std::size_t aged = 1 - empty;
    TieredCostParams p = empty == 0 ? calibrated_params(0, 2)
                                    : calibrated_params(2, 0);
    p.tiers[aged].device_factors = {1.0, 4.0};
    OracleBest want;
    for (Bytes v = kOracleStep; v <= kOracleR; v += kOracleStep) {
      for (std::size_t m : {std::size_t{1}, std::size_t{2}}) {
        Stripes stripes(2, 0);
        std::vector<std::size_t> members(2, 0);
        stripes[aged] = v;
        members[aged] = m;
        want.offer(sampled_cost(p, reqs, stripes, members, 1), stripes,
                   members);
      }
    }
    const auto got = optimize_region(p, reqs, kOracleAvg, opts);
    EXPECT_EQ(got.stripes, want.stripes);
    EXPECT_EQ(got.members, want.members);
    EXPECT_EQ(got.model_cost, want.cost);
    EXPECT_EQ(got.candidates_evaluated, want.candidates);
  }
}

TEST(OptimizerOracle, ThreeTierMonotoneMatchesFullScan) {
  TieredCostParams tp;
  tp.t = 1.0 / (117.0 * 1024 * 1024);
  tp.tiers = {TierSpec{4, storage::hdd_profile(), {}},
              TierSpec{2, storage::sata_ssd_profile(), {}},
              TierSpec{2, storage::pcie_ssd_profile(), {}}};
  tp.per_stripe_overhead = 20e-6;
  const auto reqs = mixed_requests(240, 59);
  OptimizerOptions opts;
  opts.step = 32 * KiB;
  const Bytes R = 224 * KiB;
  OracleBest want;
  Stripes st(3);
  for (st[0] = 0; st[0] <= R; st[0] += opts.step) {
    for (st[1] = st[0]; st[1] <= R; st[1] += opts.step) {
      for (st[2] = st[1]; st[2] <= R; st[2] += opts.step) {
        if (st[2] == 0) continue;
        want.offer(region_cost(tp, reqs, st), st, {});
      }
    }
  }
  const auto got = optimize_region(tp, reqs, kOracleAvg, opts);
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_TRUE(got.members.empty());
  EXPECT_EQ(got.model_cost, want.cost);
  EXPECT_EQ(got.candidates_evaluated, want.candidates);
  EXPECT_GT(got.candidates_pruned, 0u);
}

// ---------------------------------------------------------------------------
// A shared BoundTable hands back the very doubles the kernel computes, so a
// search with a cold table, and one with a table warmed by another region on
// the same grid, equal the table-less search in every output bit.
// ---------------------------------------------------------------------------

using Search = RegionStripes (*)(const TieredCostParams&,
                                 std::span<const FileRequest>, double,
                                 const OptimizerOptions&);

std::string hex(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

void expect_same_search(const RegionStripes& want, const RegionStripes& got) {
  EXPECT_EQ(got.stripes, want.stripes);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(hex(got.model_cost), hex(want.model_cost));
  EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated);
  EXPECT_EQ(got.candidates_pruned, want.candidates_pruned);
  EXPECT_EQ(got.cost_evals, want.cost_evals);
  EXPECT_EQ(got.cost_evals_saved, want.cost_evals_saved);
}

/// Cold and warm shared-table searches against the table-less one.  480
/// mixed requests put ~80 in each of six (op, size) classes, above twice any
/// grid here's cell count, so every class takes the minimum branch.  Only
/// tightened candidates read the table, and which those are does not depend
/// on what the table holds.
void expect_shared_table_is_transparent(const TieredCostParams& p,
                                        OptimizerOptions opts, Search search) {
  const auto region = mixed_requests(480, 71);
  const auto other = mixed_requests(480, 73);
  const RegionStripes want = search(p, region, kOracleAvg, opts);
  EXPECT_GT(want.candidates_pruned, 0u);

  BoundTable cold;
  opts.bounds = &cold;
  expect_same_search(want, search(p, region, kOracleAvg, opts));
  EXPECT_GT(cold.filled(), 0u);
  EXPECT_EQ(cold.filled(), cold.reads());  // one search: no reuse yet

  BoundTable warm;
  opts.bounds = &warm;
  search(p, other, kOracleAvg, opts);
  const std::uint64_t warmed = warm.filled();
  const std::uint64_t warm_reads = warm.reads();
  expect_same_search(want, search(p, region, kOracleAvg, opts));
  // The region reads what it read cold and fills at most that much more.
  EXPECT_EQ(warm.reads(), warm_reads + cold.reads());
  EXPECT_LE(warm.filled(), warmed + cold.filled());
  // Searched again, every bound comes from the table.
  const std::uint64_t filled = warm.filled();
  expect_same_search(want, search(p, region, kOracleAvg, opts));
  EXPECT_EQ(warm.filled(), filled);
  EXPECT_EQ(warm.reads(), warm_reads + 2 * cold.reads());
}

TEST(SharedBoundTable, HomogeneousTwoTier) {
  OptimizerOptions opts;
  opts.step = kOracleStep;
  expect_shared_table_is_transparent(calibrated_params(), opts,
                                     optimize_region);
}

TEST(SharedBoundTable, AgedHeterogeneousMembers) {
  TieredCostParams p = calibrated_params();
  p.tiers[0].device_factors = {1.0, 1.0, 1.0, 1.0, 2.5, 2.5};
  p.tiers[1].device_factors = {1.0, 3.0};
  OptimizerOptions opts;
  opts.step = kOracleStep;
  expect_shared_table_is_transparent(p, opts, optimize_region);
}

TEST(SharedBoundTable, ThreeTier) {
  TieredCostParams tp;
  tp.t = 1.0 / (117.0 * 1024 * 1024);
  tp.tiers = {TierSpec{4, storage::hdd_profile(), {}},
              TierSpec{2, storage::sata_ssd_profile(), {}},
              TierSpec{2, storage::pcie_ssd_profile(), {}}};
  tp.per_stripe_overhead = 20e-6;
  OptimizerOptions opts;
  opts.step = 32 * KiB;
  expect_shared_table_is_transparent(tp, opts, optimize_region);
}

TEST(SharedBoundTable, SserverShareBound) {
  OptimizerOptions opts;
  opts.step = kOracleStep;
  opts.max_sserver_share = 0.5;
  expect_shared_table_is_transparent(calibrated_params(), opts,
                                     optimize_region);
}

TEST(SharedBoundTable, HomogeneousStripeSearch) {
  OptimizerOptions opts;
  opts.step = 4 * KiB;
  expect_shared_table_is_transparent(calibrated_params(), opts,
                                     optimize_region_homogeneous);
}

TEST(SharedBoundTable, CalibrationsDifferingInOneFactorKeepTheirOwnBounds) {
  TieredCostParams fresh = calibrated_params();
  fresh.tiers[1].device_factors = {1.0, 3.0};
  TieredCostParams aged = fresh;
  aged.tiers[1].device_factors = {1.0, 3.5};
  const auto region = mixed_requests(480, 79);
  OptimizerOptions opts;
  opts.step = kOracleStep;
  const RegionStripes want_fresh = optimize_region(fresh, region, kOracleAvg, opts);
  const RegionStripes want_aged = optimize_region(aged, region, kOracleAvg, opts);
  ASSERT_NE(hex(want_fresh.model_cost), hex(want_aged.model_cost));

  BoundTable shared;
  opts.bounds = &shared;
  expect_same_search(want_fresh, optimize_region(fresh, region, kOracleAvg, opts));
  const std::uint64_t fresh_filled = shared.filled();
  expect_same_search(want_aged, optimize_region(aged, region, kOracleAvg, opts));
  // Same grid shape, but the second calibration filled rows of its own:
  // as many slots as it fills in a table of its own.
  BoundTable own;
  opts.bounds = &own;
  optimize_region(aged, region, kOracleAvg, opts);
  EXPECT_EQ(shared.filled(), fresh_filled + own.filled());
}

TEST(SharedBoundTable, IorGridTightensOnlyWhereTheScanReaches) {
  // The 1 MiB IOR region on the paper's 4 KiB grid: 32,897 candidates and
  // two (op, size) classes.  Window floors order the scan, so only the
  // candidates it reaches read an offset minimum from the table.
  const TieredCostParams p = calibrated_params();
  auto reqs = uniform_requests(1 * MiB, 128, IoOp::kRead);
  for (const FileRequest& w : uniform_requests(1 * MiB, 128, IoOp::kWrite, 5)) {
    reqs.push_back(w);
  }
  const RegionStripes want = optimize_region(p, reqs, 1.0 * MiB);
  ASSERT_EQ(want.candidates_evaluated, 32897u);

  BoundTable table;
  OptimizerOptions opts;
  opts.bounds = &table;
  expect_same_search(want, optimize_region(p, reqs, 1.0 * MiB, opts));
  EXPECT_GT(table.reads(), 0u);
  EXPECT_LT(table.reads(), 2 * 32897 / 4);
}

TEST(RegionCost, ZeroPeriodThrows) {
  // All-zero stripes, and stripes only on a tier with no servers.
  const TieredCostParams p = calibrated_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  EXPECT_THROW(region_cost(p, reqs, Stripes{0, 0}), std::invalid_argument);
  EXPECT_THROW(region_cost(calibrated_params(0, 2), reqs, Stripes{64 * KiB, 0}),
               std::invalid_argument);
}

TEST(RegionCost, SumsPerRequestCosts) {
  const TieredCostParams p = calibrated_params();
  std::vector<FileRequest> reqs = {
      FileRequest{IoOp::kRead, 0, 512 * KiB},
      FileRequest{IoOp::kWrite, 1 * MiB, 512 * KiB},
  };
  const Stripes hs{64 * KiB, 64 * KiB};
  const Seconds total = region_cost(p, reqs, hs);
  const Seconds expect = request_cost(p, IoOp::kRead, 0, 512 * KiB, hs) +
                         request_cost(p, IoOp::kWrite, 1 * MiB, 512 * KiB, hs);
  EXPECT_DOUBLE_EQ(total, expect);
}

}  // namespace
}  // namespace harl::core
