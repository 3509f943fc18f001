// Experiment runner: (cluster config) x (workload) x (layout scheme)
// -> simulated throughput and per-server statistics.
//
// This is the machinery every bench binary and example shares.  A run of an
// analysis-based scheme reproduces the paper's full pipeline: a traced first
// execution on the default fixed layout (Tracing Phase; one simulated run
// when that layout is also measured, DESIGN.md §20), offline analysis with
// the calibrated cost model (Analysis Phase), then the measured run on the
// optimized layout placed through the middleware (Placing Phase).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/planner.hpp"
#include "src/harness/calibration.hpp"
#include "src/obs/health.hpp"
#include "src/obs/recorder.hpp"
#include "src/harness/scheme.hpp"
#include "src/middleware/program.hpp"
#include "src/pfs/cache_manager.hpp"
#include "src/middleware/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/workloads/btio.hpp"
#include "src/workloads/ior.hpp"
#include "src/workloads/multiregion.hpp"
#include "src/workloads/zipf.hpp"

namespace harl::harness {

/// A workload packaged as its measured phases.
struct WorkloadBundle {
  std::string name = "file";
  std::size_t processes = 16;
  std::vector<mw::RankProgram> write_programs;  ///< phase 1 (optional)
  std::vector<mw::RankProgram> read_programs;   ///< phase 2 (optional)
  std::vector<mw::RankProgram> mixed_programs;  ///< single mixed run (BTIO)

  /// The three phases in run order (some may be empty).
  std::array<const std::vector<mw::RankProgram>*, 3> phases() const {
    return {&write_programs, &read_programs, &mixed_programs};
  }
};

/// IOR: a write pass and a read pass over the same offsets.
WorkloadBundle ior_bundle(const workloads::IorConfig& config);

/// Four-region non-uniform IOR variant: write pass + read pass.
WorkloadBundle multiregion_bundle(const workloads::MultiRegionConfig& config);

/// Skewed re-read workload: sequential seeding write pass + Zipf-distributed
/// read phases over the whole file (the cache-tier stressor).
WorkloadBundle zipf_bundle(const workloads::ZipfConfig& config);

/// BTIO: one mixed run (interleaved compute, collective writes, read-back).
WorkloadBundle btio_bundle(const workloads::BtioConfig& config);

struct PhaseStats {
  Seconds makespan = 0.0;
  Bytes bytes = 0;

  double throughput() const {
    return makespan > 0.0 ? static_cast<double>(bytes) / makespan : 0.0;
  }
};

struct SchemeResult {
  std::string label;
  std::string layout_description;
  PhaseStats write;
  PhaseStats read;
  PhaseStats total;                     ///< all phases combined
  std::vector<Seconds> server_io_time;  ///< per server, all phases (Fig. 1a)
  std::size_t region_count = 1;
  std::optional<core::Plan> plan;       ///< plan-producing schemes only
  /// Read-cache counters of the measured run (cache-enabled runs only).
  std::optional<pfs::CacheManager::Stats> cache;
  /// Event-engine counters of the measured run (harl_sim stats=1).
  sim::Simulator::Stats sim_stats;
  /// Flight recorder of the measured run (ExperimentOptions::observe only):
  /// metrics registry, trace events, per-request T_X/T_S/T_T attribution.
  std::shared_ptr<obs::Recorder> obs;
  /// Telemetry plane of the measured run (ExperimentOptions::telemetry
  /// enabled): windowed per-server time series and the straggler/SLO
  /// health monitor, already finalized.  It is owned by `obs` (this pointer
  /// aliases it) and its health.* metrics live in `obs`'s registry.
  std::shared_ptr<obs::HealthMonitor> health;
};

struct ExperimentOptions {
  pfs::ClusterConfig cluster;
  core::PlannerOptions planner;
  CalibrationOptions calibration;
  /// Layout of the traced first execution (OrangeFS default 64K).
  Bytes tracing_stripe = 64 * KiB;
  mw::CollectiveOptions collective;
  /// Optional pool for evaluating independent schemes (run_all)
  /// concurrently — each on its own Simulator instance.
  /// Results are written by index, so the output is byte-identical to the
  /// serial order regardless of pool width.  May alias planner.pool: nested
  /// parallel_for on the same pool is deadlock-free (work-helping).
  ThreadPool* pool = nullptr;
  /// Attach a flight recorder to every measured run.  Each SchemeResult then
  /// carries its own obs::Recorder (one per scheme, so parallel
  /// run_all stays lock-free) with a cost-model predictor derived from the
  /// scheme's layout, feeding the per-region model-error histogram.
  bool observe = false;
  obs::Recorder::Options recorder;
  /// Heterogeneity-aware read cache (HACache direction).  budget > 0 and
  /// devices > 0 arm a pfs::CacheManager over the fastest SSD devices of the
  /// measured run.  Cache-aware mode (blind == false): the HARL schemes run
  /// core::analyze_cached, and the runtime cache uses exactly the plan's
  /// winning reservation — which may be *no* reservation, in which case the
  /// run is cache-less (the model said striping wins); non-HARL plan schemes
  /// stay cache-less too.  Blind mode (blind == true): the planner is left
  /// untouched and the cache runs over the configured devices while regions
  /// still stripe across them — the bolted-on ablation arm.  Non-plan
  /// schemes (fixed/random) also take the configured devices.
  struct CacheOptions {
    Bytes budget = 0;
    Bytes chunk = MiB;
    std::size_t devices = 0;
    storage::CachePolicy policy = storage::CachePolicy::kLru;
    bool blind = false;

    bool enabled() const { return budget > 0 && devices > 0; }
  };
  CacheOptions cache;
  /// Telemetry plane (DESIGN.md §15): interval > 0 (the window width) arms
  /// the obs::HealthMonitor, which owns the run's TimeSeries, inside the
  /// recorder of every measured run; slo > 0 adds SLO tracking.  Requires
  /// `observe`; the runner forces it on when telemetry is enabled, and a
  /// recorder forced on only to carry the telemetry plane records no trace
  /// events.
  using TelemetryOptions = obs::TelemetryOptions;
  TelemetryOptions telemetry;
};

/// Runs fn(i) for i in [0, n): on `pool` when set (and n > 1), else
/// inline.  Callers write output by index for deterministic results.
void for_indices(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

class Experiment {
 public:
  explicit Experiment(ExperimentOptions options);

  /// Runs one scheme against one workload (fresh simulated cluster per call;
  /// results are independent and reproducible).
  SchemeResult run(const WorkloadBundle& bundle, const LayoutScheme& scheme);

  /// Runs one scheme against a pre-collected first-execution trace (already
  /// in ByOffset order).  Lets callers trace once and evaluate many schemes
  /// without re-tracing or re-sorting; `trace_records` may be empty for
  /// schemes that need no analysis.  `collector`, when set, traces the run.
  SchemeResult run_with_trace(const WorkloadBundle& bundle,
                              const LayoutScheme& scheme,
                              std::span<const trace::TraceRecord> trace_records,
                              trace::TraceCollector* collector = nullptr);

  /// Runs several schemes against one workload, results in scheme order.
  /// Every analysis scheme shares one first-execution trace: the measured
  /// run of a `fixed(tracing_stripe)` scheme, traced, when there is one and
  /// no cache arm; else collect_trace().
  std::vector<SchemeResult> run_all(const WorkloadBundle& bundle,
                                    const std::vector<LayoutScheme>& schemes);

  /// The calibrated cost-model parameters (lazily computed, cached).
  const core::TieredCostParams& cost_params();

  const ExperimentOptions& options() const { return options_; }

  /// Tracing Phase: runs `bundle` once under the fixed tracing layout, with
  /// no recorder or cache, and returns its trace (fd 0 whatever the name)
  /// sorted by offset.  Reads only the options: concurrent calls are safe.
  std::vector<trace::TraceRecord> collect_trace(
      const WorkloadBundle& bundle) const;

 private:
  ExperimentOptions options_;
  std::optional<core::TieredCostParams> cached_params_;
};

}  // namespace harl::harness
