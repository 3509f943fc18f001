// Namespace populations: many files, many tenants, one shared cluster.
//
// The single-file Experiment reproduces the paper's evaluation shape — one
// logical file per run.  Real deployments serve a *namespace*: N files owned
// by T tenants whose traffic shares every server queue, NIC and cache slot.
// This module provides
//
//   * make_population(): a deterministic population generator — files are
//     assigned to tenants by a D'Hondt allocation over Zipf tenant weights
//     (tenant 0 is the hot tenant and owns proportionally more files), and
//     each file gets one of a rotating set of workload shapes (sequential
//     IOR, random IOR, multi-region) so per-file plans genuinely differ;
//
//   * run_population(): the measured namespace run — every distinct file's
//     offline pipeline (trace, analysis, plan) runs on a private cluster
//     first (a file with an earlier twin's programs reuses its plan), then
//     ALL files launch concurrently on ONE shared simulated cluster
//     (ProgramRunner::launch/finish), with per-file replica placement chosen
//     by the cost model, a shared read cache keyed by (file, chunk), and —
//     when the cluster config arms fail_server — degraded reads plus a
//     rebuild storm contending with the foreground traffic.
//
// Determinism: the generator is a pure function of its spec; the measured
// run inherits the simulator's guarantees, so every output is byte-identical
// across runs and pool widths.  A population of one file with no
// replication and no failure is the degenerate case: it moves the same bytes
// under the same layout string and region count as the single-file run.  It
// runs the file's phases as one launch joined by barriers, so it opens the
// file once; its makespan and per-server I/O time equal a single-file run of
// that barrier-joined program.  Experiment::run opens the file again for
// every phase, which makes its makespan one MPI open round longer
// (Population.DegenerateSingleFileMovesTheSameBytes checks all of this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/experiment.hpp"
#include "src/harness/scheme.hpp"
#include "src/obs/health.hpp"
#include "src/obs/recorder.hpp"
#include "src/pfs/cache_manager.hpp"

namespace harl::harness {

struct PopulationSpec {
  std::size_t files = 4;
  /// At most `files`, and every tenant must receive a file under
  /// `tenant_theta`; make_population throws otherwise.
  std::size_t tenants = 2;
  /// Zipf exponent over tenants: tenant t's weight is 1/(t+1)^theta, so the
  /// low-numbered tenants own more files (0 = uniform).
  double tenant_theta = 0.8;
  std::size_t processes = 8;     ///< ranks per file (shared MPI world size)
  Bytes file_size = 32 * MiB;    ///< logical size of every file
  Bytes request_size = 256 * KiB;
  std::uint64_t seed = 7;        ///< forked per file for random workloads
};

/// One file of the namespace, ready to run: id == its index in the
/// population vector (ids double as obs FileIds and label-dimension values).
struct PopulationFile {
  std::uint32_t id = 0;
  std::uint32_t tenant = 0;
  std::string name;   ///< logical file name, e.g. "t0/f2.dat"
  Bytes size = 0;     ///< logical file size
  WorkloadBundle bundle;
};

/// Deterministic proportional assignment of `files` files to `tenants`
/// tenants under Zipf(theta) tenant weights: each file goes to the tenant
/// maximizing weight / (files already assigned + 1) — the D'Hondt rule, so
/// the long-run share tracks the weights exactly.  theta = 0 is round-robin.
std::vector<std::uint32_t> assign_tenants(std::size_t files,
                                          std::size_t tenants, double theta);

std::vector<PopulationFile> make_population(const PopulationSpec& spec);

/// Phase A of run_population: every file's offline pipeline (trace on a
/// private cluster, analysis, layout), fanned out over the experiment's
/// pool.  All files' Algorithm 2 searches share one core::BoundTable, so an
/// offset minimum that recurs across files is computed once; plans and
/// layouts are bit-identical to planning each file alone.  A file whose
/// process count and write/read/mixed programs equal an earlier file's (its
/// twin; the name does not count, as the solo trace records fd 0) is not
/// traced or planned again: it shares the first twin's layout and plan.
struct PopulationPlans {
  std::vector<std::shared_ptr<const pfs::Layout>> layouts;
  /// Plan schemes only; twins share one plan, as they share one layout.
  std::vector<std::shared_ptr<const core::Plan>> plans;
  /// Files whose pipeline actually ran a Tracing Phase: the distinct ones
  /// under an analysis scheme, 0 under any other.
  std::size_t traced_files = 0;
  std::uint64_t bounds_filled = 0;  ///< offset minima the table computed
  /// Minimum-branch bound reads by all searches: what planning each file
  /// alone would have computed.
  std::uint64_t bound_reads = 0;
};

PopulationPlans plan_population(Experiment& experiment,
                                const std::vector<PopulationFile>& population,
                                const LayoutScheme& scheme);

struct PopulationRunOptions {
  /// Give every file per-region replicas (cost-model placement for plan
  /// schemes, whole-cluster chained declustering otherwise).  Required for
  /// failure runs: an unreplicated file cannot serve degraded reads, so
  /// run_population rejects fail_server without it.
  bool replicate = true;
};

struct PopulationFileResult {
  std::uint32_t id = 0;
  std::uint32_t tenant = 0;
  std::string name;
  std::string layout_description;
  std::size_t region_count = 1;
  /// This file's own bytes over its own completion span (launch to the
  /// instant its last rank finished) — files finishing early are not charged
  /// for the stragglers.
  PhaseStats total;
};

struct PopulationResult {
  std::vector<PopulationFileResult> files;
  /// Aggregate bytes over the whole shared run (launch to quiescence,
  /// including the rebuild drain).
  PhaseStats total;
  std::vector<Seconds> server_io_time;

  // --- failure/rebuild telemetry (failure runs only) ----------------------
  std::uint64_t degraded_reads = 0;   ///< foreground reads served by replicas
  std::uint64_t replica_writes = 0;   ///< foreground replica write legs
  Bytes rebuilt_bytes = 0;            ///< failed-server bytes re-materialized
  std::uint64_t rebuild_chunks = 0;
  Seconds rebuild_interference = 0.0;
  Seconds rebuild_finished_at = 0.0;
  bool rebuild_done = false;

  /// Per-tenant whole-request SLO attainment (telemetry runs with an SLO;
  /// indexed by tenant id).
  std::vector<double> tenant_slo;

  std::optional<pfs::CacheManager::Stats> cache;
  std::shared_ptr<obs::Recorder> obs;
  std::shared_ptr<obs::HealthMonitor> health;
  sim::Simulator::Stats sim_stats;
};

/// Runs `population` under `scheme` as one shared measured run (see the file
/// header).  The experiment supplies calibration, cluster config, observer
/// and cache options; population files must carry ids 0..N-1 in order and
/// agree on the process count.
PopulationResult run_population(Experiment& experiment,
                                const std::vector<PopulationFile>& population,
                                const LayoutScheme& scheme,
                                const PopulationRunOptions& options = {});

}  // namespace harl::harness
