#include "src/harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/tiered_cost_model.hpp"
#include "src/middleware/mpi_world.hpp"
#include "src/pfs/region_layout.hpp"
#include "src/sim/simulator.hpp"

namespace harl::harness {

namespace {

/// Builds the recorder's cost-model predictor for `layout`: the analytic
/// tiered request cost with the stripe vector of the region the request
/// falls in (requests spanning regions take the worst segment, matching the
/// "maximal cost of all sub-requests" reading).  Layout shapes without a
/// per-tier stripe interpretation get no predictor.  Each stripe vector's
/// core::FixedStripeCost is built once (a region's on its first request, so
/// a malformed region throws exactly when request_cost would have).
obs::Recorder::Predictor make_predictor(
    const std::shared_ptr<const pfs::Layout>& layout,
    core::TieredCostParams params) {
  struct State {
    core::TieredCostParams params;
    std::vector<std::optional<core::FixedStripeCost>> costs;
    std::vector<core::TierGeometry> scratch;
  };
  auto state = std::make_shared<State>();
  state->params = std::move(params);
  state->scratch.resize(state->params.tiers.size());
  if (auto rl = std::dynamic_pointer_cast<const pfs::RegionLayout>(layout)) {
    state->costs.resize(rl->region_count());
    return [rl, state](IoOp op, Bytes offset, Bytes size) -> Seconds {
      Seconds worst = 0.0;
      Bytes pos = offset;
      const Bytes end = offset + size;
      while (pos < end) {
        const std::size_t ri = rl->region_of(pos);
        const pfs::RegionSpec& spec = rl->region(ri);
        const Bytes seg_end = std::min(end, rl->region_end(ri));
        std::optional<core::FixedStripeCost>& cost = state->costs[ri];
        if (!cost) cost.emplace(state->params, spec.stripes, spec.members);
        worst = std::max(worst, (*cost)(op, pos - spec.offset, seg_end - pos,
                                        state->scratch));
        pos = seg_end;
      }
      return worst;
    };
  }
  if (auto vl =
          std::dynamic_pointer_cast<const pfs::VariedStripeLayout>(layout)) {
    // Per-tier stripe vector from the per-server stripes (layouts built by
    // make_fixed/make_two_tier/make_tiered_layout are uniform within a tier).
    std::vector<Bytes> stripes;
    stripes.reserve(state->params.tiers.size());
    std::size_t begin = 0;
    for (const core::TierSpec& tier : state->params.tiers) {
      stripes.push_back(begin < vl->stripes().size() ? vl->stripes()[begin]
                                                     : 0);
      begin += tier.count;
    }
    state->costs.emplace_back(std::in_place, state->params, std::move(stripes));
    return [state](IoOp op, Bytes offset, Bytes size) -> Seconds {
      return (*state->costs[0])(op, offset, size, state->scratch);
    };
  }
  return {};
}

/// Lands the Analysis Phase diagnostics already carried by the Plan in the
/// same registry as the measured run, so metrics-out= shows what Algorithm 2
/// spent (grid size, pruned candidates, cost-kernel calls, coalescing
/// savings, modeled cost) next to what the placement actually did.  Region
/// labels index the pre-merge regions — the grain the optimizer worked at.
void record_plan_metrics(obs::MetricsRegistry& metrics,
                         const core::Plan& plan) {
  using Kind = obs::MetricsRegistry::Kind;
  const auto requests =
      metrics.family("planner.region.requests", Kind::kCounter);
  const auto candidates =
      metrics.family("planner.region.candidates", Kind::kCounter);
  const auto pruned =
      metrics.family("planner.region.candidates_pruned", Kind::kCounter);
  const auto evals =
      metrics.family("planner.region.cost_evals", Kind::kCounter);
  const auto saved =
      metrics.family("planner.region.cost_evals_saved", Kind::kCounter);
  const auto model_cost =
      metrics.family("planner.region.model_cost_s", Kind::kGauge);
  for (std::size_t i = 0; i < plan.regions.size(); ++i) {
    const core::PlannedRegion& r = plan.regions[i];
    const auto labels = obs::LabelSet{}.region(static_cast<std::uint32_t>(i));
    metrics.add(requests, labels, static_cast<double>(r.request_count));
    metrics.add(candidates, labels,
                static_cast<double>(r.candidates_evaluated));
    metrics.add(pruned, labels, static_cast<double>(r.candidates_pruned));
    metrics.add(evals, labels, static_cast<double>(r.cost_evals));
    metrics.add(saved, labels, static_cast<double>(r.cost_evals_saved));
    metrics.set(model_cost, labels, r.model_cost);
  }
  const auto no_labels = obs::LabelSet{};
  metrics.set(metrics.family("planner.regions_before_merge", Kind::kGauge),
              no_labels, static_cast<double>(plan.regions_before_merge));
  metrics.set(metrics.family("planner.regions_after_merge", Kind::kGauge),
              no_labels, static_cast<double>(plan.regions_after_merge));
  metrics.set(metrics.family("planner.total_model_cost_s", Kind::kGauge),
              no_labels, plan.total_model_cost());
}

/// Lands the measured run's read-cache counters in the metrics registry
/// (cache.* families) so metrics-out= carries the hit/miss/fill/evict story
/// next to the server and planner metrics.  obs_report.py --check validates
/// the reconciliation invariants over exactly these families.
void record_cache_metrics(obs::MetricsRegistry& metrics,
                          const pfs::CacheManager::Stats& stats) {
  using Kind = obs::MetricsRegistry::Kind;
  const auto no_labels = obs::LabelSet{};
  const auto add = [&](const char* name, std::uint64_t value) {
    metrics.add(metrics.family(name, Kind::kCounter), no_labels,
                static_cast<double>(value));
  };
  add("cache.lookups", stats.tier.lookups);
  add("cache.hits", stats.tier.hits);
  add("cache.misses", stats.tier.misses);
  add("cache.admissions", stats.tier.admissions);
  add("cache.evictions", stats.tier.evictions);
  add("cache.invalidations", stats.tier.invalidations);
  add("cache.fills_completed", stats.tier.fills_completed);
  add("cache.fills_discarded", stats.tier.fills_discarded);
  add("cache.hit_bytes", stats.hit_read_bytes);
  add("cache.miss_bytes", stats.miss_read_bytes);
  add("cache.fill_bytes", stats.fill_bytes);
  metrics.set(metrics.family("cache.active_devices", Kind::kGauge), no_labels,
              static_cast<double>(stats.active_devices));
}

/// The one execution path: `bundle` on a fresh cluster under `layout`,
/// traced into `collector` when set, measurements added to `result`.  A
/// null `scheme` is the bare Tracing Phase; else `scheme`'s measured run,
/// with the cache and recorder `options` arm (the recorder prices requests
/// with `params`).
SchemeResult execute(const ExperimentOptions& options,
                     const core::TieredCostParams* params,
                     const WorkloadBundle& bundle,
                     std::shared_ptr<const pfs::Layout> layout,
                     const LayoutScheme* scheme,
                     trace::TraceCollector* collector, SchemeResult result) {
  // The observer must be in place before the cluster is built so components
  // register their tracks.
  sim::Simulator sim;
  if (scheme != nullptr && options.observe) {
    result.obs =
        std::make_shared<obs::Recorder>(options.recorder, options.telemetry);
    if (obs::HealthMonitor* health = result.obs->health()) {
      result.health = std::shared_ptr<obs::HealthMonitor>(result.obs, health);
    }
    sim.set_observer(result.obs.get());
  }
  // Devices the measured run's cache covers: the plan's reservation when the
  // Analysis Phase was cache-aware, the configured count for blind and
  // non-plan schemes (see ExperimentOptions::cache).
  std::size_t cache_devices = 0;
  if (scheme != nullptr && options.cache.enabled()) {
    if (result.plan && result.plan->cache) {
      cache_devices = result.plan->cache->devices;
    } else if (options.cache.blind || !scheme->produces_plan()) {
      cache_devices = options.cache.devices;
    }
  }
  pfs::Cluster cluster(sim, options.cluster);
  std::unique_ptr<pfs::CacheManager> cache_manager;
  if (cache_devices > 0) {
    pfs::CacheManager::Config cache_config;
    cache_config.budget = options.cache.budget;
    cache_config.chunk = options.cache.chunk;
    cache_config.devices = cache_devices;
    cache_config.policy = options.cache.policy;
    cache_config.blind = options.cache.blind;
    cache_manager = std::make_unique<pfs::CacheManager>(cluster, cache_config);
    for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
      cluster.client(i).set_cache(cache_manager.get());
    }
  }
  if (result.obs) {
    result.obs->set_predictor(make_predictor(layout, *params));
    if (result.plan) record_plan_metrics(result.obs->metrics(), *result.plan);
  }
  mw::MpiWorld world(cluster, bundle.processes);
  mw::ProgramRunner runner(world, bundle.name, std::move(layout), collector,
                           options.collective);

  for (const auto* programs : bundle.phases()) {
    if (programs->empty()) continue;
    const mw::RunResult r = runner.run(*programs);
    if (r.bytes_written > 0 && r.bytes_read == 0) {
      result.write.makespan += r.makespan;
      result.write.bytes += r.bytes_written;
    } else if (r.bytes_read > 0 && r.bytes_written == 0) {
      result.read.makespan += r.makespan;
      result.read.bytes += r.bytes_read;
    } else {
      // Mixed phase: attribute to both proportionally via totals only.
      result.write.bytes += r.bytes_written;
      result.read.bytes += r.bytes_read;
    }
    result.total.makespan += r.makespan;
    result.total.bytes += r.bytes_read + r.bytes_written;
  }

  if (result.health) result.health->finalize();

  if (cache_manager != nullptr) {
    result.cache = cache_manager->stats();
    if (result.obs) {
      record_cache_metrics(result.obs->metrics(), *result.cache);
    }
  }

  result.server_io_time.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    result.server_io_time.push_back(cluster.server_io_time(i));
  }
  result.sim_stats = sim.stats();
  return result;
}

}  // namespace

WorkloadBundle ior_bundle(const workloads::IorConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "ior.dat";
  bundle.processes = config.processes;

  workloads::IorConfig write_cfg = config;
  write_cfg.op = IoOp::kWrite;
  bundle.write_programs = workloads::make_ior_programs(write_cfg);

  // The read pass re-reads the same offsets (same seed -> same stream).
  workloads::IorConfig read_cfg = config;
  read_cfg.op = IoOp::kRead;
  bundle.read_programs = workloads::make_ior_programs(read_cfg);
  return bundle;
}

WorkloadBundle zipf_bundle(const workloads::ZipfConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "zipf.dat";
  bundle.processes = config.processes;
  bundle.write_programs = workloads::make_zipf_write_programs(config);
  bundle.read_programs = workloads::make_zipf_read_programs(config);
  return bundle;
}

WorkloadBundle multiregion_bundle(const workloads::MultiRegionConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "multiregion.dat";
  bundle.processes = config.processes;

  workloads::MultiRegionConfig write_cfg = config;
  write_cfg.op = IoOp::kWrite;
  bundle.write_programs = workloads::make_multiregion_programs(write_cfg);

  workloads::MultiRegionConfig read_cfg = config;
  read_cfg.op = IoOp::kRead;
  bundle.read_programs = workloads::make_multiregion_programs(read_cfg);
  return bundle;
}

WorkloadBundle btio_bundle(const workloads::BtioConfig& config) {
  WorkloadBundle bundle;
  bundle.name = "btio.out";
  bundle.processes = config.processes;
  bundle.mixed_programs = workloads::make_btio_programs(config);
  return bundle;
}

void for_indices(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

Experiment::Experiment(ExperimentOptions options)
    : options_(std::move(options)) {
  // The telemetry plane lives in the flight recorder.  Nobody asked that
  // recorder for a trace, which would otherwise grow with every event of the
  // run and never be written.
  if (options_.telemetry.enabled() && !options_.observe) {
    options_.observe = true;
    options_.recorder.trace = false;
  }
}

const core::TieredCostParams& Experiment::cost_params() {
  if (!cached_params_) {
    cached_params_ = calibrate(options_.cluster, options_.calibration);
  }
  return *cached_params_;
}

std::vector<trace::TraceRecord> Experiment::collect_trace(
    const WorkloadBundle& bundle) const {
  trace::TraceCollector collector;
  execute(options_, nullptr, bundle,
          pfs::make_fixed_layout(options_.cluster.num_servers(),
                                 options_.tracing_stripe),
          nullptr, &collector, {});
  return collector.sorted_by_offset();
}

SchemeResult Experiment::run(const WorkloadBundle& bundle,
                             const LayoutScheme& scheme) {
  return std::move(run_all(bundle, {scheme}).front());
}

SchemeResult Experiment::run_with_trace(
    const WorkloadBundle& bundle, const LayoutScheme& scheme,
    std::span<const trace::TraceRecord> trace_records,
    trace::TraceCollector* collector) {
  if (bundle.write_programs.empty() && bundle.read_programs.empty() &&
      bundle.mixed_programs.empty()) {
    throw std::invalid_argument("workload bundle has no programs");
  }
  if (options_.cluster.fail_server >= 0) {
    // Failure is modelled on the replicated path only, and a single-file
    // run places no replicas: a dead server would quietly keep serving.
    throw std::invalid_argument(
        "fail_server needs replicas: use a replicated run_population");
  }

  SchemeResult result;
  result.label = scheme.label();
  core::Plan plan;
  core::CachePlannerOptions cache_planner;
  if (options_.cache.enabled() && !options_.cache.blind) {
    cache_planner.budget = options_.cache.budget;
    cache_planner.chunk = options_.cache.chunk;
    cache_planner.max_devices = options_.cache.devices;
    cache_planner.policy = options_.cache.policy;
  }
  auto layout =
      build_layout(scheme, options_.cluster, trace_records, cost_params(),
                   options_.planner, &plan, cache_planner);
  result.layout_description = layout->describe();
  if (scheme.produces_plan()) {
    result.region_count = plan.rst.size();
    result.plan = std::move(plan);
  }
  return execute(options_, &cost_params(), bundle, std::move(layout), &scheme,
                 collector, std::move(result));
}

std::vector<SchemeResult> Experiment::run_all(
    const WorkloadBundle& bundle, const std::vector<LayoutScheme>& schemes) {
  // Calibrate before fanning out: run_with_trace only reads the cached
  // params once they exist, so pre-warming makes it safe to evaluate the
  // schemes concurrently (each on its own simulated cluster).
  if (!schemes.empty()) cost_params();
  std::vector<SchemeResult> results(schemes.size());
  // Trace the first execution once and share its sorted records with every
  // analysis scheme.  A cache-less fixed scheme at the tracing stripe *is*
  // that execution, so its measured run carries the collector.
  const bool analysis = std::any_of(schemes.begin(), schemes.end(),
                                    std::mem_fn(&LayoutScheme::needs_analysis));
  const std::size_t traced =
      analysis && !options_.cache.enabled()
          ? std::find(schemes.begin(), schemes.end(),
                      LayoutScheme::fixed(options_.tracing_stripe)) -
                schemes.begin()
          : schemes.size();
  std::vector<trace::TraceRecord> trace_records;
  if (traced < schemes.size()) {
    trace::TraceCollector collector;
    results[traced] = run_with_trace(bundle, schemes[traced], {}, &collector);
    trace_records = collector.sorted_by_offset();
  } else if (analysis) {
    trace_records = collect_trace(bundle);
  }
  for_indices(options_.pool, schemes.size(), [&](std::size_t i) {
    if (i != traced) {
      results[i] = run_with_trace(bundle, schemes[i], trace_records);
    }
  });
  return results;
}

}  // namespace harl::harness
