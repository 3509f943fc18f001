#include "src/core/planner.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>

namespace harl::core {

namespace {

/// Returns a view of `records` in ByOffset order.  Pre-sorted input (the
/// normal case: TraceCollector::sorted_by_offset() and the harness both
/// hand over sorted traces) is used in place; otherwise a sorted copy is
/// materialized in `storage`.
std::span<const trace::TraceRecord> ensure_sorted(
    std::span<const trace::TraceRecord> records,
    std::vector<trace::TraceRecord>& storage) {
  if (std::is_sorted(records.begin(), records.end(), trace::ByOffset{})) {
    return records;
  }
  storage.assign(records.begin(), records.end());
  std::sort(storage.begin(), storage.end(), trace::ByOffset{});
  return storage;
}

std::vector<FileRequest> region_requests(
    std::span<const trace::TraceRecord> sorted, const DividedRegion& region) {
  std::vector<FileRequest> reqs;
  reqs.reserve(region.request_count());
  for (std::size_t i = region.first_request; i < region.last_request; ++i) {
    reqs.push_back(FileRequest{sorted[i].op, sorted[i].offset, sorted[i].size});
  }
  return reqs;
}

/// Per-tier device factors of a calibration, for Plan::device_factors; the
/// outer vector collapses to empty when every tier is homogeneous so
/// pre-device plans and homogeneous plans share one canonical form.
std::vector<std::vector<double>> plan_device_factors(
    const TieredCostParams& params) {
  bool any = false;
  for (const auto& t : params.tiers) {
    if (!t.device_factors.empty()) any = true;
  }
  if (!any) return {};
  std::vector<std::vector<double>> out;
  out.reserve(params.tiers.size());
  for (const auto& t : params.tiers) out.push_back(t.device_factors);
  return out;
}

PlannedRegion planned_from(const DividedRegion& region,
                           const RegionStripes& opt) {
  PlannedRegion planned;
  planned.offset = region.offset;
  planned.end = region.end;
  planned.stripes = opt.stripes;
  planned.members = opt.members;
  planned.model_cost = opt.model_cost;
  planned.avg_request = region.avg_request;
  planned.request_count = region.request_count();
  planned.candidates_evaluated = opt.candidates_evaluated;
  planned.candidates_pruned = opt.candidates_pruned;
  planned.cost_evals = opt.cost_evals;
  planned.cost_evals_saved = opt.cost_evals_saved;
  return planned;
}

/// Runs `fn(i)` for each region index: concurrently on options.pool when
/// regions can use it, serially otherwise.  Callers store results by index,
/// so either path yields identical output.
void for_each_region(std::size_t count, const PlannerOptions& options,
                     const std::function<void(std::size_t)>& fn) {
  if (options.pool != nullptr && count > 1) {
    options.pool->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

/// The plan fields that describe the calibration: per-tier server counts,
/// the device table and the fingerprint.
void stamp_calibration(Plan& plan, const TieredCostParams& params) {
  plan.tier_counts.clear();
  for (const auto& tier : params.tiers) plan.tier_counts.push_back(tier.count);
  plan.device_factors = plan_device_factors(params);
  plan.calibration_fingerprint = params_fingerprint(params);
}

/// Tiers 0 and 1 by name: the cache sweep and CARL are two-tier schemes.
void require_two_tiers(const TieredCostParams& params, const char* who) {
  if (params.tiers.size() != 2) {
    throw std::invalid_argument(std::string(who) +
                                " needs a two-tier calibration");
  }
}

Plan plan_from_division(std::span<const trace::TraceRecord> sorted,
                        const RegionDivision& division,
                        const TieredCostParams& params,
                        const PlannerOptions& options, bool homogeneous) {
  Plan plan;
  stamp_calibration(plan, params);
  plan.threshold_used = division.threshold_used;
  plan.tuning_rounds = division.tuning_rounds;

  const std::size_t count = division.regions.size();
  std::vector<RegionStripes> optimized(count);
  for_each_region(count, options, [&](std::size_t i) {
    const DividedRegion& region = division.regions[i];
    const auto reqs = region_requests(sorted, region);
    optimized[i] =
        homogeneous
            ? optimize_region_homogeneous(params, reqs, region.avg_request,
                                          options.optimizer)
            : optimize_region(params, reqs, region.avg_request,
                              options.optimizer);
  });

  // Deterministic assembly in region order, independent of which thread
  // optimized which region.
  plan.regions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan.regions.push_back(planned_from(division.regions[i], optimized[i]));
    plan.rst.add(division.regions[i].offset, optimized[i].stripes,
                 optimized[i].members);
  }

  plan.regions_before_merge = plan.rst.size();
  plan.rst.merge_adjacent();  // equal-stripe neighbours (Sec. III-E)
  plan.regions_after_merge = plan.rst.size();
  return plan;
}

}  // namespace

Seconds Plan::total_model_cost() const {
  return std::accumulate(regions.begin(), regions.end(), 0.0,
                         [](Seconds acc, const PlannedRegion& r) {
                           return acc + r.model_cost;
                         });
}

std::uint64_t Plan::total_cost_evals() const {
  return std::accumulate(regions.begin(), regions.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const PlannedRegion& r) {
                           return acc + r.cost_evals;
                         });
}

std::uint64_t Plan::total_cost_evals_saved() const {
  return std::accumulate(regions.begin(), regions.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const PlannedRegion& r) {
                           return acc + r.cost_evals_saved;
                         });
}

std::uint64_t Plan::total_candidates_pruned() const {
  return std::accumulate(regions.begin(), regions.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const PlannedRegion& r) {
                           return acc + r.candidates_pruned;
                         });
}

Plan analyze(std::span<const trace::TraceRecord> records,
             const TieredCostParams& params, const PlannerOptions& options) {
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> storage;
  const auto sorted = ensure_sorted(records, storage);
  const RegionDivision division = divide_regions(sorted, options.divider);
  return plan_from_division(sorted, division, params, options, false);
}

Plan analyze_cached(std::span<const trace::TraceRecord> records,
                    const TieredCostParams& params,
                    const CachePlannerOptions& cache,
                    const PlannerOptions& options) {
  require_two_tiers(params, "analyze_cached");
  const TierSpec& ssd = params.tiers[1];
  // Disabled cache planning (or no SSD tier to reserve from) degenerates to
  // the plain Analysis Phase, bit for bit.
  if (!cache.enabled() || ssd.count == 0) {
    return analyze(records, params, options);
  }
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> sorted_storage;
  const auto sorted = ensure_sorted(records, sorted_storage);
  // Region division depends only on the trace, so the whole r-sweep shares
  // one division — and one per-region hit-rate estimate.
  const RegionDivision division = divide_regions(sorted, options.divider);
  const std::size_t count = division.regions.size();

  // --- Per-region read hit-rate estimate: one deterministic replay of the
  // trace in time order through the same CacheTier policy structure the
  // runtime drives, keyed by logical file chunk.  The estimate depends on
  // the budget/chunk/policy, not on how many devices the budget is spread
  // over, so it is shared across every r candidate.
  std::vector<double> hit_rate(count, 0.0);
  std::vector<std::uint64_t> lookups(count, 0);
  std::vector<std::uint64_t> hits(count, 0);
  std::uint64_t total_lookups = 0;
  std::uint64_t total_hits = 0;
  {
    std::vector<std::size_t> order(sorted.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return sorted[a].t_start < sorted[b].t_start;
                     });
    storage::CacheTier::Config cfg;
    cfg.capacity = cache.budget;
    cfg.chunk = cache.chunk;
    cfg.policy = cache.policy;
    storage::CacheTier replay(cfg);
    std::vector<std::uint64_t> evicted;
    auto region_of = [&](Bytes offset) {
      auto it = std::upper_bound(
          division.regions.begin(), division.regions.end(), offset,
          [](Bytes off, const DividedRegion& reg) { return off < reg.offset; });
      return it == division.regions.begin()
                 ? std::size_t{0}
                 : static_cast<std::size_t>(
                       std::distance(division.regions.begin(), it)) -
                       1;
    };
    for (std::size_t idx : order) {
      const trace::TraceRecord& rec = sorted[idx];
      if (rec.size == 0) continue;
      const Bytes first = rec.offset / cache.chunk;
      const Bytes last = (rec.offset + rec.size - 1) / cache.chunk;
      if (rec.op == IoOp::kWrite) {
        for (Bytes c = first; c <= last; ++c) replay.invalidate(c);
        continue;
      }
      const std::size_t reg = region_of(rec.offset);
      for (Bytes c = first; c <= last; ++c) {
        ++lookups[reg];
        ++total_lookups;
        if (replay.lookup(c) == storage::CacheTier::State::kResident) {
          ++hits[reg];
          ++total_hits;
        } else {
          // Offline replay: fills land instantly (the classic stack-distance
          // idealization; the runtime charges them over real servers).
          evicted.clear();
          if (replay.admit(c, evicted)) replay.fill_complete(c);
        }
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      hit_rate[i] = lookups[i] > 0 ? static_cast<double>(hits[i]) /
                                         static_cast<double>(lookups[i])
                                   : 0.0;
    }
  }

  // --- The r-sweep: reserve the fastest r SServers as cache vs stripe over
  // them.  Every candidate's objective is computed the same way (per-request
  // model cost with the hit-rate mix on reads), so candidates are directly
  // comparable; ties go to the smaller r, making r = 0 the exact analyze()
  // plan whenever caching cannot help.
  //
  // Each candidate is priced twice: with the cache live (hit mix on reads,
  // hit + fill traffic on the reserved devices) and with the reserved
  // devices idle (same reduced striping, no cache traffic).  The idle walls
  // form the *reserve-and-idle baseline*: withholding devices from striping
  // sometimes lowers the floor by itself (the latency-driven optimizer can
  // pile every region onto one fast member whose NIC then saturates), and
  // that gain belongs to striping, not caching.  A reservation is kept only
  // when its cached wall beats the best idle wall of every candidate —
  // otherwise the plain analyze() plan stands.
  const std::size_t r_max = std::min(cache.max_devices, ssd.count - 1);
  // Distinct issuing ranks: the latency sum divided by this is the
  // pipeline-parallel completion proxy the bandwidth floor is compared to.
  double processes = 1.0;
  {
    std::vector<std::uint32_t> ranks;
    ranks.reserve(sorted.size());
    for (const auto& rec : sorted) ranks.push_back(rec.rank);
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    if (!ranks.empty()) processes = static_cast<double>(ranks.size());
  }
  // Prices one candidate layout under the shared objective.  Bottleneck-
  // bandwidth floor (the makespan bound): the latency sum prices each
  // request in isolation, which lets every region pile onto the same
  // fastest members for free.  The floor charges each server resource's
  // aggregate service time — disk: bytes x per-byte x mean member factor /
  // members; NIC: bytes x t / members (aging slows media, not NICs) — plus,
  // with the cache live, the reserved devices' hit and fill traffic, so
  // "reserve the fastest devices as cache" and "stripe over them" compete
  // under the same capacity story.  Tier byte shares use the steady-state
  // striping-period fractions (exact for whole-period traffic).  Fill
  // traffic (one read-around fill per modeled miss: a full chunk read on
  // the home layout, a full chunk write on the cache devices) is charged
  // for every live-cache candidate — including zero-hit-rate regions, where
  // the runtime still admits and fills every miss.
  struct CandidateEval {
    double wall = 0.0;
    std::vector<double> region_cost;
  };
  const auto evaluate = [&](const Plan& plan_r, const TieredCostParams& tiered,
                            std::size_t r, const CacheReadSpec& spec,
                            bool live_cache) {
    CandidateEval ev;
    ev.region_cost.assign(count, 0.0);
    double total = 0.0;
    double busy_cache = 0.0;
    double busy_cache_nic = 0.0;
    std::vector<double> busy(tiered.tiers.size(), 0.0);
    std::vector<double> busy_nic(tiered.tiers.size(), 0.0);
    const double cache_mean =
        live_cache ? storage::mean_device_factor(ssd.device_factors, r)
                   : 1.0;
    for (std::size_t i = 0; i < count; ++i) {
      const DividedRegion& region = division.regions[i];
      const PlannedRegion& planned = plan_r.regions[i];
      const double h = live_cache ? hit_rate[i] : 0.0;
      double cost = 0.0;
      double region_read = 0.0;
      double region_write = 0.0;
      for (std::size_t q = region.first_request; q < region.last_request; ++q) {
        const trace::TraceRecord& rec = sorted[q];
        if (rec.op == IoOp::kRead) {
          region_read += static_cast<double>(rec.size);
        } else {
          region_write += static_cast<double>(rec.size);
        }
        const Seconds home = request_cost(tiered, rec.op, rec.offset,
                                          rec.size, planned.stripes,
                                          planned.members);
        if (rec.op == IoOp::kRead && h > 0.0) {
          cost += expected_read_cost(
              home, cached_read_cost(tiered, spec, rec.offset, rec.size), h);
        } else {
          cost += home;
        }
      }
      ev.region_cost[i] = cost;
      total += cost;

      const double fill_bytes =
          live_cache ? static_cast<double>(lookups[i] - hits[i]) *
                           static_cast<double>(cache.chunk)
                     : 0.0;
      Bytes period = 0;
      for (std::size_t j = 0; j < tiered.tiers.size(); ++j) {
        const std::size_t use = planned.members.empty()
                                    ? tiered.tiers[j].count
                                    : planned.members[j];
        period += static_cast<Bytes>(use) * planned.stripes[j];
      }
      if (period == 0) continue;
      for (std::size_t j = 0; j < tiered.tiers.size(); ++j) {
        const std::size_t use = planned.members.empty()
                                    ? tiered.tiers[j].count
                                    : planned.members[j];
        if (use == 0 || planned.stripes[j] == 0) continue;
        const double share =
            static_cast<double>(use) * static_cast<double>(planned.stripes[j]) /
            static_cast<double>(period);
        const double tier_reads = share * ((1.0 - h) * region_read + fill_bytes);
        const double tier_writes = share * region_write;
        // Device time = per-sub-request startup (seek/positioning, the term
        // that dominates small random access on HDDs) + streaming transfer.
        // Sub-requests land at stripe granularity in steady state.
        const double stripe = static_cast<double>(planned.stripes[j]);
        const storage::OpProfile& rd = tiered.tiers[j].profile.op(IoOp::kRead);
        const storage::OpProfile& wr = tiered.tiers[j].profile.op(IoOp::kWrite);
        busy[j] += (tier_reads * rd.per_byte + tier_writes * wr.per_byte +
                    (tier_reads / stripe) * rd.startup_mean() +
                    (tier_writes / stripe) * wr.startup_mean()) *
                   storage::mean_device_factor(tiered.tiers[j].device_factors,
                                               use) /
                   static_cast<double>(use);
        busy_nic[j] +=
            (tier_reads + tier_writes) * tiered.t / static_cast<double>(use);
      }
      if (live_cache) {
        const double cache_bytes = h * region_read + fill_bytes;
        const double chunkf = static_cast<double>(cache.chunk);
        busy_cache += (h * region_read * ssd.profile.read.per_byte +
                       fill_bytes * ssd.profile.write.per_byte +
                       (h * region_read / chunkf) *
                           ssd.profile.read.startup_mean() +
                       (fill_bytes / chunkf) *
                           ssd.profile.write.startup_mean()) *
                      cache_mean / static_cast<double>(r);
        busy_cache_nic += cache_bytes * tiered.t / static_cast<double>(r);
      }
    }
    double busy_max = std::max(busy_cache, busy_cache_nic);
    for (const double b : busy) busy_max = std::max(busy_max, b);
    for (const double b : busy_nic) busy_max = std::max(busy_max, b);
    ev.wall = std::max(total / processes, busy_max);
    return ev;
  };

  Plan base_plan;           // the exact analyze() plan (r = 0)
  Plan best_plan;           // best live-cache candidate (r > 0)
  std::vector<double> best_region_cost;
  double best_idle_wall = 0.0;  // reserve-and-idle baseline over all r
  double best_wall = 0.0;
  std::size_t best_r = 0;
  for (std::size_t r = 0; r <= r_max; ++r) {
    TieredCostParams reduced = params;
    TierSpec& reduced_ssd = reduced.tiers[1];
    reduced_ssd.count = ssd.count - r;
    if (!reduced_ssd.device_factors.empty()) {
      // The reserved prefix is the canonical vector's fastest r members;
      // the remainder re-canonicalizes (it may collapse to homogeneous).
      reduced_ssd.device_factors.erase(
          reduced_ssd.device_factors.begin(),
          reduced_ssd.device_factors.begin() + static_cast<std::ptrdiff_t>(r));
      storage::canonicalize_device_factors(reduced_ssd.device_factors);
    }
    Plan plan_r = plan_from_division(sorted, division, reduced, options, false);

    CacheReadSpec spec;
    if (r > 0) {
      spec.devices = r;
      spec.chunk = cache.chunk;
      spec.profile = ssd.profile.read;
      spec.worst_factor = storage::worst_device_factor(ssd.device_factors, r);
    }
    const CandidateEval idle = evaluate(plan_r, reduced, r, spec, false);
    if (r == 0) {
      best_idle_wall = idle.wall;
      base_plan = std::move(plan_r);
      continue;
    }
    best_idle_wall = std::min(best_idle_wall, idle.wall);
    CandidateEval live = evaluate(plan_r, reduced, r, spec, true);
    if (best_r == 0 || live.wall < best_wall) {
      best_plan = std::move(plan_r);
      best_region_cost = std::move(live.region_cost);
      best_wall = live.wall;
      best_r = r;
    }
  }

  // No reservation pays for itself: every live-cache candidate loses to
  // striping alone (including "stripe over fewer devices and idle the
  // rest", whose gain r = 0 can realize without a cache).  Return the plain
  // analyze() plan untouched so cache-aware analysis of a cache-hostile
  // trace is bit-identical to the cache-less pipeline.
  if (best_r == 0 || !(best_wall < best_idle_wall)) return base_plan;

  Plan plan = std::move(best_plan);
  // The plan describes the *physical* cluster: full tier counts, full device
  // table, and the fingerprint of the calibration in force.  The reduced
  // view it was optimized under is implied by the cache reservation.
  stamp_calibration(plan, params);
  for (std::size_t i = 0; i < count; ++i) {
    plan.regions[i].expected_hit_rate = hit_rate[i];
    plan.regions[i].model_cost = best_region_cost[i];
  }
  PlanCacheSpec cache_spec;
  cache_spec.tier = 1;
  cache_spec.devices = best_r;
  cache_spec.budget = cache.budget;
  cache_spec.chunk = cache.chunk;
  cache_spec.policy = cache.policy;
  cache_spec.expected_hit_rate =
      total_lookups > 0
          ? static_cast<double>(total_hits) / static_cast<double>(total_lookups)
          : 0.0;
  plan.cache = cache_spec;
  return plan;
}

Plan analyze_file_level(std::span<const trace::TraceRecord> records,
                        const TieredCostParams& params,
                        const PlannerOptions& options) {
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> storage;
  const auto sorted = ensure_sorted(records, storage);

  // One region spanning everything: the heterogeneity-aware but
  // region-oblivious ablation.
  RegionDivision division;
  DividedRegion whole;
  whole.offset = 0;
  whole.first_request = 0;
  whole.last_request = sorted.size();
  Bytes max_end = 0;
  double sum = 0.0;
  for (const auto& r : sorted) {
    max_end = std::max(max_end, r.offset + r.size);
    sum += static_cast<double>(r.size);
  }
  whole.end = max_end;
  whole.avg_request = sum / static_cast<double>(sorted.size());
  division.regions.push_back(whole);
  return plan_from_division(sorted, division, params, options, false);
}

Plan analyze_segment_level(std::span<const trace::TraceRecord> records,
                           const TieredCostParams& params,
                           const PlannerOptions& options) {
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> storage;
  const auto sorted = ensure_sorted(records, storage);
  const RegionDivision division = divide_regions(sorted, options.divider);
  return plan_from_division(sorted, division, params, options, true);
}

Plan analyze_fixed_regions(std::span<const trace::TraceRecord> records,
                           const TieredCostParams& params, Bytes chunk_size,
                           const PlannerOptions& options) {
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> storage;
  const auto sorted = ensure_sorted(records, storage);
  const RegionDivision division = divide_regions_fixed(sorted, chunk_size);
  return plan_from_division(sorted, division, params, options, false);
}

Plan analyze_carl(std::span<const trace::TraceRecord> records,
                  const TieredCostParams& params, Bytes ssd_capacity,
                  const PlannerOptions& options) {
  require_two_tiers(params, "analyze_carl");
  if (records.empty()) throw std::invalid_argument("cannot analyze empty trace");
  std::vector<trace::TraceRecord> storage;
  const auto sorted = ensure_sorted(records, storage);
  const RegionDivision division = divide_regions(sorted, options.divider);

  // Per region: best single-tier placements and their model costs.
  struct CarlRegion {
    DividedRegion region;
    RegionStripes hdd_only;
    RegionStripes ssd_only;
    Bytes extent = 0;       ///< bytes stored if placed on SServers
    double density = 0.0;   ///< cost savings per stored byte
  };
  const std::size_t count = division.regions.size();
  std::vector<CarlRegion> carl(count);

  // HServer-only: force s = 0 by restricting the search to N = 0;
  // SServer-only: force h = 0 via M = 0.  The grid gives a tier without
  // servers only stripe 0; its device factors describe no member and go too.
  auto without_tier = [&](std::size_t tier) {
    TieredCostParams half = params;
    half.tiers[tier].count = 0;
    half.tiers[tier].device_factors.clear();
    return half;
  };
  const TieredCostParams hdd_params = without_tier(1);
  const TieredCostParams ssd_params = without_tier(0);

  // The two single-tier searches per region are independent of each other,
  // so the parallel grain is (region, tier): 2 * count tasks.
  auto optimize_half = [&](std::size_t task) {
    const std::size_t r = task / 2;
    const DividedRegion& region = division.regions[r];
    const auto reqs = region_requests(sorted, region);
    if (task % 2 == 0) {
      carl[r].hdd_only = optimize_region(hdd_params, reqs, region.avg_request,
                                         options.optimizer);
    } else {
      carl[r].ssd_only = optimize_region(ssd_params, reqs, region.avg_request,
                                         options.optimizer);
    }
  };
  if (options.pool != nullptr && count > 0) {
    options.pool->parallel_for(2 * count, optimize_half);
  } else {
    for (std::size_t task = 0; task < 2 * count; ++task) optimize_half(task);
  }

  for (std::size_t r = 0; r < count; ++r) {
    CarlRegion& c = carl[r];
    c.region = division.regions[r];
    c.extent = c.region.end - c.region.offset;
    c.density = c.extent > 0
                    ? (c.hdd_only.model_cost - c.ssd_only.model_cost) /
                          static_cast<double>(c.extent)
                    : 0.0;
  }

  // Greedy: highest savings density first, until the SSD budget is spent.
  std::vector<std::size_t> order(carl.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (carl[a].density != carl[b].density) {
      return carl[a].density > carl[b].density;
    }
    return a < b;
  });
  std::vector<bool> on_ssd(carl.size(), false);
  Bytes budget = ssd_capacity;
  for (std::size_t idx : order) {
    if (carl[idx].density <= 0.0) break;
    if (carl[idx].extent <= budget) {
      on_ssd[idx] = true;
      budget -= carl[idx].extent;
    }
  }

  Plan plan;
  stamp_calibration(plan, params);
  plan.threshold_used = division.threshold_used;
  plan.tuning_rounds = division.tuning_rounds;
  for (std::size_t i = 0; i < carl.size(); ++i) {
    const RegionStripes& choice = on_ssd[i] ? carl[i].ssd_only : carl[i].hdd_only;
    PlannedRegion planned;
    planned.offset = carl[i].region.offset;
    planned.end = carl[i].region.end;
    planned.stripes = choice.stripes;
    planned.members = choice.members;
    planned.model_cost = choice.model_cost;
    planned.avg_request = carl[i].region.avg_request;
    planned.request_count = carl[i].region.request_count();
    // Both single-tier searches count toward the region's analysis effort.
    planned.candidates_evaluated = carl[i].hdd_only.candidates_evaluated +
                                   carl[i].ssd_only.candidates_evaluated;
    planned.candidates_pruned = carl[i].hdd_only.candidates_pruned +
                                carl[i].ssd_only.candidates_pruned;
    planned.cost_evals =
        carl[i].hdd_only.cost_evals + carl[i].ssd_only.cost_evals;
    planned.cost_evals_saved = carl[i].hdd_only.cost_evals_saved +
                               carl[i].ssd_only.cost_evals_saved;
    plan.regions.push_back(planned);
    plan.rst.add(planned.offset, planned.stripes, planned.members);
  }
  plan.regions_before_merge = plan.rst.size();
  plan.rst.merge_adjacent();  // equal-stripe neighbours (Sec. III-E)
  plan.regions_after_merge = plan.rst.size();
  return plan;
}

}  // namespace harl::core
