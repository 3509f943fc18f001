#include "src/harness/population.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/middleware/mpi_world.hpp"
#include "src/middleware/rebuild.hpp"
#include "src/pfs/replication.hpp"
#include "src/workloads/ior.hpp"
#include "src/workloads/multiregion.hpp"

namespace harl::harness {

namespace {

/// One file's phases flattened into a single program set: write pass, then
/// read pass, then mixed run, with a barrier between consecutive phases so
/// the in-file ordering matches sequential ProgramRunner::run calls while
/// other files' traffic interleaves freely.
std::vector<mw::RankProgram> combined_programs(const WorkloadBundle& bundle) {
  std::vector<mw::RankProgram> combined;
  for (const auto* phase : bundle.phases()) {
    if (phase->empty()) continue;
    if (combined.empty()) {
      combined = *phase;
      continue;
    }
    if (combined.size() != phase->size()) {
      throw std::invalid_argument("bundle phases disagree on rank count");
    }
    for (std::size_t r = 0; r < combined.size(); ++r) {
      combined[r].push_back(mw::IoAction::barrier());
      combined[r].insert(combined[r].end(), (*phase)[r].begin(),
                         (*phase)[r].end());
    }
  }
  if (combined.empty()) {
    throw std::invalid_argument("workload bundle has no programs");
  }
  return combined;
}

/// FNV-1a over whole words of the process count and every action of every
/// phase: files with equal programs hash equal, so twins are only compared
/// on a hash match.
std::uint64_t programs_hash(const WorkloadBundle& bundle) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(bundle.processes);
  for (const auto* phase : bundle.phases()) {
    mix(phase->size());
    for (const mw::RankProgram& program : *phase) {
      mix(program.size());
      for (const mw::IoAction& action : program) {
        mix(static_cast<std::uint64_t>(action.kind));
        mix(static_cast<std::uint64_t>(action.op));
        mix(std::bit_cast<std::uint64_t>(action.compute));
        for (const mw::Extent& e : action.extents) {
          mix(e.offset);
          mix(e.size);
        }
      }
    }
  }
  return h;
}

bool same_programs(const WorkloadBundle& a, const WorkloadBundle& b) {
  return a.processes == b.processes && a.write_programs == b.write_programs &&
         a.read_programs == b.read_programs &&
         a.mixed_programs == b.mixed_programs;
}

}  // namespace

std::vector<std::uint32_t> assign_tenants(std::size_t files,
                                          std::size_t tenants, double theta) {
  if (tenants == 0) throw std::invalid_argument("needs >= 1 tenant");
  std::vector<double> weight(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    weight[t] = 1.0 / std::pow(static_cast<double>(t + 1), theta);
  }
  std::vector<std::size_t> count(tenants, 0);
  std::vector<std::uint32_t> out;
  out.reserve(files);
  for (std::size_t f = 0; f < files; ++f) {
    std::size_t best = 0;
    double best_score = 0.0;
    for (std::size_t t = 0; t < tenants; ++t) {
      const double score = weight[t] / static_cast<double>(count[t] + 1);
      if (score > best_score) {
        best = t;
        best_score = score;
      }
    }
    ++count[best];
    out.push_back(static_cast<std::uint32_t>(best));
  }
  return out;
}

std::vector<PopulationFile> make_population(const PopulationSpec& spec) {
  if (spec.files == 0) throw std::invalid_argument("needs >= 1 file");
  if (spec.file_size == 0 || spec.request_size == 0) {
    throw std::invalid_argument("needs nonzero file and request sizes");
  }
  if (spec.tenants > spec.files) {
    throw std::invalid_argument("tenants must not exceed files");
  }
  const auto tenants =
      assign_tenants(spec.files, spec.tenants, spec.tenant_theta);
  // Under a steep skew D'Hondt gives every file to the hot tenants; a tenant
  // left with no file would still count as a tenant (an SLO slot, the
  // "T tenant(s)" header) with no traffic behind it.
  std::vector<std::size_t> owned(spec.tenants, 0);
  for (const std::uint32_t t : tenants) ++owned[t];
  const auto empty = std::find(owned.begin(), owned.end(), 0);
  if (empty != owned.end()) {
    std::ostringstream msg;
    msg << "tenant " << (empty - owned.begin()) << " of " << spec.tenants
        << " would own no file of " << spec.files << " at tenant_theta "
        << spec.tenant_theta
        << "; add files, lower the skew or use fewer tenants";
    throw std::invalid_argument(msg.str());
  }
  std::vector<PopulationFile> population;
  population.reserve(spec.files);
  for (std::size_t f = 0; f < spec.files; ++f) {
    PopulationFile file;
    file.id = static_cast<std::uint32_t>(f);
    file.tenant = tenants[f];
    file.name = "t";
    file.name += std::to_string(file.tenant);
    file.name += "/f";
    file.name += std::to_string(f);
    file.name += ".dat";
    file.size = spec.file_size;
    switch (f % 3) {
      case 0: {  // sequential IOR: each rank streams its segment
        workloads::IorConfig cfg;
        cfg.processes = spec.processes;
        cfg.file_size = spec.file_size;
        cfg.request_size = spec.request_size;
        cfg.random_offsets = false;
        cfg.seed = spec.seed + f;
        file.bundle = ior_bundle(cfg);
        break;
      }
      case 1: {  // random IOR: request-aligned random offsets
        workloads::IorConfig cfg;
        cfg.processes = spec.processes;
        cfg.file_size = spec.file_size;
        cfg.request_size = spec.request_size;
        cfg.random_offsets = true;
        cfg.seed = spec.seed + f;
        file.bundle = ior_bundle(cfg);
        break;
      }
      default: {  // multi-region: non-uniform request sizes per byte range
        workloads::MultiRegionConfig cfg;
        cfg.processes = spec.processes;
        cfg.regions = {
            {spec.file_size / 8,
             std::max<Bytes>(spec.request_size / 2, 4 * KiB)},
            {3 * spec.file_size / 8, spec.request_size},
            {spec.file_size / 2, 2 * spec.request_size},
        };
        cfg.seed = spec.seed + f;
        file.bundle = multiregion_bundle(cfg);
        Bytes total = 0;
        for (const auto& r : cfg.regions) total += r.size;
        file.size = total;
        break;
      }
    }
    file.bundle.name = file.name;
    population.push_back(std::move(file));
  }
  return population;
}

PopulationPlans plan_population(Experiment& experiment,
                                const std::vector<PopulationFile>& population,
                                const LayoutScheme& scheme) {
  const ExperimentOptions& options = experiment.options();
  const core::TieredCostParams& params = experiment.cost_params();
  const std::size_t nfiles = population.size();
  // One bound table for every file's search: files of one shape share their
  // candidate grids, so each offset minimum is computed once.
  core::BoundTable bounds;
  core::PlannerOptions planner = options.planner;
  planner.optimizer.bounds = &bounds;
  // A file whose programs equal an earlier file's is that file's twin: its
  // solo trace, and so its layout and plan, are its first twin's.
  std::vector<std::uint64_t> hashes(nfiles);
  std::vector<std::size_t> first_twin(nfiles);
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < nfiles; ++i) {
    hashes[i] = programs_hash(population[i].bundle);
    const auto twin =
        std::find_if(distinct.begin(), distinct.end(), [&](std::size_t j) {
          return hashes[j] == hashes[i] &&
                 same_programs(population[j].bundle, population[i].bundle);
        });
    first_twin[i] = twin == distinct.end() ? i : *twin;
    if (first_twin[i] == i) distinct.push_back(i);
  }
  PopulationPlans plans;
  plans.layouts.resize(nfiles);
  plans.plans.resize(nfiles);
  for_indices(options.pool, distinct.size(), [&](std::size_t k) {
    const std::size_t i = distinct[k];
    std::vector<trace::TraceRecord> records;
    if (scheme.needs_analysis()) {
      records = experiment.collect_trace(population[i].bundle);
    }
    core::Plan plan;
    plans.layouts[i] = build_layout(scheme, options.cluster, records, params,
                                    planner, &plan);
    if (scheme.produces_plan()) {
      plans.plans[i] = std::make_shared<const core::Plan>(std::move(plan));
    }
  });
  for (std::size_t i = 0; i < nfiles; ++i) {
    if (first_twin[i] == i) continue;
    plans.layouts[i] = plans.layouts[first_twin[i]];
    plans.plans[i] = plans.plans[first_twin[i]];
  }
  plans.traced_files = scheme.needs_analysis() ? distinct.size() : 0;
  plans.bounds_filled = bounds.filled();
  plans.bound_reads = bounds.reads();
  return plans;
}

PopulationResult run_population(Experiment& experiment,
                                const std::vector<PopulationFile>& population,
                                const LayoutScheme& scheme,
                                const PopulationRunOptions& popts) {
  if (population.empty()) throw std::invalid_argument("empty population");
  const ExperimentOptions& options = experiment.options();
  const std::size_t nfiles = population.size();
  for (std::size_t i = 0; i < nfiles; ++i) {
    if (population[i].id != i) {
      throw std::invalid_argument("population file ids must be 0..N-1");
    }
  }
  const std::size_t processes = population.front().bundle.processes;
  for (const auto& file : population) {
    if (file.bundle.processes != processes) {
      throw std::invalid_argument("population files disagree on ranks");
    }
  }
  if (options.cluster.fail_server >= 0 && !popts.replicate) {
    // Failure is modelled on the replicated path only: without a replica
    // the dead server would quietly keep serving.
    throw std::invalid_argument("fail_server needs replicated files");
  }
  const core::TieredCostParams& params = experiment.cost_params();

  // --- Phase A: per-file offline pipeline on private clusters -------------
  const PopulationPlans plans = plan_population(experiment, population, scheme);

  // Replica placement: cost-model tiers for plan schemes on fleets of two
  // tiers that both have servers, whole-cluster chained declustering
  // otherwise.
  std::vector<std::size_t> tier_counts;
  for (const auto& group : options.cluster.tiers) {
    tier_counts.push_back(group.count);
  }
  const std::size_t nservers = options.cluster.num_servers();
  const bool two_tiers = tier_counts.size() == 2 && tier_counts[0] > 0 &&
                         tier_counts[1] > 0;
  std::vector<std::unique_ptr<pfs::ReplicaMap>> replicas(nfiles);
  if (popts.replicate) {
    for (std::size_t i = 0; i < nfiles; ++i) {
      if (plans.plans[i] && two_tiers) {
        replicas[i] = std::make_unique<pfs::ReplicaMap>(pfs::ReplicaMap::tiered(
            tier_counts, mw::choose_replica_tiers(*plans.plans[i], params)));
      } else {
        replicas[i] = std::make_unique<pfs::ReplicaMap>(
            pfs::ReplicaMap::chained(nservers));
      }
    }
  }

  // --- Phase B: one shared measured cluster -------------------------------
  PopulationResult result;
  sim::Simulator sim;

  std::vector<std::uint32_t> tenant_of(nfiles);
  std::uint32_t max_tenant = 0;
  for (std::size_t i = 0; i < nfiles; ++i) {
    tenant_of[i] = population[i].tenant;
    max_tenant = std::max(max_tenant, population[i].tenant);
  }
  if (options.observe) {
    result.obs =
        std::make_shared<obs::Recorder>(options.recorder, options.telemetry);
    result.obs->set_tenant_of(tenant_of);
    if (obs::HealthMonitor* health = result.obs->health()) {
      result.health = std::shared_ptr<obs::HealthMonitor>(result.obs, health);
    }
    sim.set_observer(result.obs.get());
  }

  pfs::Cluster cluster(sim, options.cluster);

  // One shared read cache across the whole namespace, keyed by (file,
  // chunk): a hot tenant's working set competes with every other file's
  // under the configured policy.  Plans are cache-less here (per-file
  // reservations would conflict), so the cache always runs blind.
  std::unique_ptr<pfs::CacheManager> cache_manager;
  if (options.cache.enabled()) {
    pfs::CacheManager::Config cache_config;
    cache_config.budget = options.cache.budget;
    cache_config.chunk = options.cache.chunk;
    cache_config.devices = options.cache.devices;
    cache_config.policy = options.cache.policy;
    cache_config.blind = true;
    cache_manager = std::make_unique<pfs::CacheManager>(cluster, cache_config);
    for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
      cluster.client(i).set_cache(cache_manager.get());
    }
  }

  // Failure storm: degraded reads are the Client's job; the rebuild plane
  // re-materializes the failed server's share in the background.
  std::unique_ptr<mw::RebuildManager> rebuild;
  if (options.cluster.fail_server >= 0) {
    mw::RebuildManager::Options ro;
    ro.failed_server = static_cast<std::size_t>(options.cluster.fail_server);
    ro.start_at = options.cluster.fail_at;
    rebuild = std::make_unique<mw::RebuildManager>(cluster, ro);
    for (std::size_t i = 0; i < nfiles; ++i) {
      rebuild->add_file(plans.layouts[i], population[i].size,
                        replicas[i].get());
    }
    rebuild->arm();
  }

  mw::MpiWorld world(cluster, processes);
  std::vector<std::unique_ptr<mw::ProgramRunner>> runners(nfiles);
  std::vector<mw::ProgramRunner::Launch> launches(nfiles);
  for (std::size_t i = 0; i < nfiles; ++i) {
    mw::RunnerOptions runner_options;
    runner_options.collective = options.collective;
    runner_options.file = static_cast<std::uint32_t>(i);
    runner_options.replicas = replicas[i].get();
    runners[i] = std::make_unique<mw::ProgramRunner>(
        world, population[i].name, plans.layouts[i], nullptr, runner_options);
  }
  const Seconds t0 = sim.now();
  for (std::size_t i = 0; i < nfiles; ++i) {
    launches[i] = runners[i]->launch(combined_programs(population[i].bundle));
  }
  sim.run();

  // --- harvest ------------------------------------------------------------
  result.files.resize(nfiles);
  for (std::size_t i = 0; i < nfiles; ++i) {
    const mw::RunResult r = runners[i]->finish(launches[i]);
    PopulationFileResult& out = result.files[i];
    out.id = population[i].id;
    out.tenant = population[i].tenant;
    out.name = population[i].name;
    out.layout_description = plans.layouts[i]->describe();
    if (plans.plans[i]) out.region_count = plans.plans[i]->rst.size();
    out.total.bytes = r.bytes_read + r.bytes_written;
    out.total.makespan = r.completed_at - launches[i].start;
    result.total.bytes += out.total.bytes;
  }
  result.total.makespan = sim.now() - t0;

  for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
    result.degraded_reads += cluster.client(i).degraded_reads();
    result.replica_writes += cluster.client(i).replica_writes();
  }
  if (rebuild != nullptr) {
    result.rebuilt_bytes = rebuild->rebuilt_bytes();
    result.rebuild_chunks = rebuild->chunks();
    result.rebuild_interference = rebuild->interference();
    result.rebuild_finished_at = rebuild->finished_at();
    result.rebuild_done = rebuild->done();
    if (result.obs) result.obs->metrics().merge(rebuild->metrics());
  }
  if (result.health) {
    result.health->finalize();
    if (options.telemetry.slo > 0.0) {
      result.tenant_slo.reserve(max_tenant + 1);
      for (std::uint32_t t = 0; t <= max_tenant; ++t) {
        result.tenant_slo.push_back(result.health->tenant_slo_attainment(t));
      }
    }
  }
  if (cache_manager != nullptr) result.cache = cache_manager->stats();
  result.server_io_time.reserve(cluster.num_servers());
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    result.server_io_time.push_back(cluster.server_io_time(i));
  }
  result.sim_stats = sim.stats();
  return result;
}

}  // namespace harl::harness
