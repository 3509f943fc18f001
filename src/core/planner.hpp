// The HARL Analysis Phase, end to end (paper Fig. 3).
//
// Input: a trace from the application's first execution (Tracing Phase) and
// the calibrated cost-model parameters.  Output: a Plan — the region stripe
// table plus per-region diagnostics — which the Placing Phase turns into a
// pfs::RegionLayout.  Pipeline: sort by offset -> Algorithm 1 region
// division -> Algorithm 2 stripe determination per region -> RST assembly
// with adjacent-equal merging.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/region_divider.hpp"
#include "src/core/rst.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/storage/cache_tier.hpp"

namespace harl::core {

struct PlannerOptions {
  DividerOptions divider;
  OptimizerOptions optimizer;
  /// Optional region-level parallelism: when set, independent regions (and
  /// CARL's hdd-only/ssd-only pair per region) optimize concurrently on
  /// this pool.  Results are written back by region index, so the produced
  /// Plan is bit-identical to the serial path.  Each region's search is
  /// serial.
  ThreadPool* pool = nullptr;
};

/// Cache-tier planning knobs (HACache direction): analyze_cached may reserve
/// the fastest devices of the SSD tier as a chunk-granular read cache and
/// trades stripe width against the expected hit rate.  budget == 0 or
/// max_devices == 0 disables cache planning entirely (analyze_cached then
/// equals analyze, bit for bit).
struct CachePlannerOptions {
  Bytes budget = 0;             ///< total cache capacity in bytes
  Bytes chunk = MiB;            ///< cache chunk granularity
  std::size_t max_devices = 0;  ///< largest reservation the sweep considers
  storage::CachePolicy policy = storage::CachePolicy::kLru;

  bool enabled() const { return budget > 0 && max_devices > 0; }
};

/// The winning cache reservation of a cache-aware Analysis Phase.  The
/// Placing Phase withholds the first `devices` servers of `tier` from every
/// region (RegionLayout's reserved vector) and hands them to the runtime
/// pfs::CacheManager instead.
struct PlanCacheSpec {
  std::size_t tier = 1;     ///< tier whose fastest prefix is reserved
  std::size_t devices = 0;  ///< reserved device count (always > 0 when set)
  Bytes budget = 0;
  Bytes chunk = 0;
  storage::CachePolicy policy = storage::CachePolicy::kLru;
  double expected_hit_rate = 0.0;  ///< trace-wide read chunk hit-rate estimate
};

/// Per-region planning outcome (pre-merge).
struct PlannedRegion {
  Bytes offset = 0;
  Bytes end = 0;
  std::vector<Bytes> stripes;  ///< winning per-tier sizes ({h, s} for k = 2)
  /// Winning per-tier member counts (empty = full membership; the
  /// device-aware search may stripe over only a tier's fastest devices).
  std::vector<std::size_t> members;
  Seconds model_cost = 0.0;
  double avg_request = 0.0;
  std::size_t request_count = 0;
  std::size_t candidates_evaluated = 0;  ///< Algorithm 2 grid size
  std::size_t candidates_pruned = 0;     ///< grid candidates never scored
  std::uint64_t cost_evals = 0;          ///< cost-kernel calls made
  std::uint64_t cost_evals_saved = 0;    ///< calls avoided by coalescing
  /// Estimated read chunk hit rate under the planned cache reservation
  /// (0.0 for cache-less plans); see analyze_cached.
  double expected_hit_rate = 0.0;
};

struct Plan {
  RegionStripeTable rst;               ///< post-merge placement table
  std::vector<PlannedRegion> regions;  ///< pre-merge diagnostics
  /// Per-tier server counts the plan was computed for ({M, N} for two-tier);
  /// the Placing Phase validates these against the target cluster.
  std::vector<std::size_t> tier_counts;
  /// Per-tier device speed factors the plan was computed against (canonical
  /// ascending; an empty inner vector = homogeneous tier, an empty outer
  /// vector = fully homogeneous / pre-device-model plan).  The Placing
  /// Phase rejects installation on a cluster whose device table disagrees.
  std::vector<std::vector<double>> device_factors;
  /// Fingerprint of the calibration used (params_fingerprint); lets a loaded
  /// plan detect that it was computed against different parameters.
  std::uint64_t calibration_fingerprint = 0;
  /// Cache reservation chosen by analyze_cached; absent for cache-less plans
  /// (including cache-aware analyses where reserving never beat striping).
  std::optional<PlanCacheSpec> cache;
  double threshold_used = 1.0;
  int tuning_rounds = 0;
  std::size_t regions_before_merge = 0;
  std::size_t regions_after_merge = 0;

  /// Total model cost across regions (the objective Algorithm 2 minimized).
  Seconds total_model_cost() const;

  /// Aggregated Algorithm 2 effort across regions, for perf diagnostics.
  std::uint64_t total_cost_evals() const;
  std::uint64_t total_cost_evals_saved() const;
  std::uint64_t total_candidates_pruned() const;
};

/// Runs the Analysis Phase over `records` (any order; input already in
/// ByOffset order — e.g. TraceCollector::sorted_by_offset() — is used in
/// place, so multi-scheme experiments sort the trace once).
/// The calibration may have any number of tiers; the optimizer's grid
/// follows from it (stripe_optimizer.hpp).  Throws std::invalid_argument on
/// an empty trace.
Plan analyze(std::span<const trace::TraceRecord> records,
             const TieredCostParams& params,
             const PlannerOptions& options = {});

/// Cache-aware Analysis Phase: enumerates reserving the fastest r devices of
/// the SSD tier (tier 1) as a read cache, r = 0..cache.max_devices, as
/// first-class candidates against striping over them.  Per r the remaining
/// N - r SServers are re-optimized exactly as analyze() would (the region
/// division is trace-only, so it is shared across the sweep), and the
/// candidate's objective is the per-request model cost with each read costed
/// at its region's expected-hit-rate mix of home layout and cache tier
/// (expected_read_cost).  Per-region hit rates come from one deterministic
/// replay of the trace, in time order, through a storage::CacheTier over
/// logical file chunks — the same policy structure the runtime CacheManager
/// drives.  Ties go to the smaller r, so when caching cannot help the result
/// is bit-identical to analyze().  Requires a two-tier calibration.
Plan analyze_cached(std::span<const trace::TraceRecord> records,
                    const TieredCostParams& params,
                    const CachePlannerOptions& cache,
                    const PlannerOptions& options = {});

/// File-level ablation: one region spanning the whole trace (heterogeneity-
/// aware stripes but no region division).
Plan analyze_file_level(std::span<const trace::TraceRecord> records,
                        const TieredCostParams& params,
                        const PlannerOptions& options = {});

/// Segment-level ablation (scheme [10]): Algorithm 1 region division but
/// homogeneous (h == s) stripes per region.
Plan analyze_segment_level(std::span<const trace::TraceRecord> records,
                           const TieredCostParams& params,
                           const PlannerOptions& options = {});

/// Fixed-chunk ablation: the paper's rejected strawman (Section III-C) —
/// regions at fixed `chunk_size` boundaries instead of Algorithm 1, with
/// heterogeneity-aware stripes per chunk.
Plan analyze_fixed_regions(std::span<const trace::TraceRecord> records,
                           const TieredCostParams& params, Bytes chunk_size,
                           const PlannerOptions& options = {});

/// CARL baseline (the paper's reference [31], its closest prior work): the
/// same Algorithm-1 regions, but each region is placed *either* entirely on
/// SServers or entirely on HServers — never striped across both tiers.
/// Regions are moved to SServers greedily by model-cost savings per stored
/// byte until `ssd_capacity` is exhausted; stripe sizes within each tier are
/// optimized as usual.  HARL's advantage over CARL is exactly the ability to
/// split one region across heterogeneous tiers (paper Section II).
/// Requires a two-tier calibration.
Plan analyze_carl(std::span<const trace::TraceRecord> records,
                  const TieredCostParams& params, Bytes ssd_capacity,
                  const PlannerOptions& options = {});

}  // namespace harl::core
