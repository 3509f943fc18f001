// Epoch-versioned adaptive layout manager (paper Section V future work:
// "explore on-line data layout and data migration methods").
//
// The offline HARL pipeline installs one plan and never looks back; this
// manager closes the loop at runtime.  It sits on the simulator's observer
// seat (implementing obs::Sink as a transparent forwarder over the normal
// flight recorder) so every completed foreground request is also fed to an
// OnlineAdvisor.  When a window's re-optimization clears the advisor's
// min_gain gate, the manager
//   1. stacks the new RST as the next epoch of the file's EpochedLayout
//      (requests keep resolving against the epoch owning their byte range),
//   2. registers the epoch's per-region physical files at the MDS
//      (RegionFileMap::for_epoch names), and
//   3. hands the recommendation's changed ranges to a MigrationEngine that
//      copies them region-read/region-write through the *real* simulated
//      data servers and network — chunked, bandwidth-throttled, and flipping
//      ownership chunk-by-chunk as each copy lands — so adaptation pays its
//      full modeled cost in competition with foreground traffic.
//
// Everything runs inside the one deterministic event loop: an adaptive run
// is bit-identical at any harness pool width, and all adaptive/migration
// counters live in the manager's own MetricsRegistry so they merge
// order-independently into the run's recorder.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/online_advisor.hpp"
#include "src/core/planner.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/epoch_layout.hpp"

namespace harl::mw {

struct AdaptiveOptions {
  /// Advisor tuning: window size, min_gain gate and planner options for the
  /// per-window re-optimization.
  core::OnlineAdvisor::Options advisor;
  /// Migration throttle (bytes of copied data per simulated second): the
  /// next chunk is issued no earlier than issue + chunk/bandwidth, so a
  /// chunk's pacing is max(copy time, chunk/bandwidth).
  double migrate_bandwidth = 256.0 * static_cast<double>(MiB);
  /// Bytes copied per migration round trip (read then write), clamped to
  /// ownership-run boundaries.
  Bytes migrate_chunk = 4 * MiB;
  /// Upper bound on stacked epochs (EpochedLayout's object partition allows
  /// kObjectsPerEpoch regions each); further recommendations are deferred.
  std::size_t max_epochs = 16;
  /// Per-tier cache-device reservation (Plan::cache of a cache-aware offline
  /// analysis): tier j's first reserved[j] servers are withheld from every
  /// epoch's region layout, and the advisor re-optimizes windows against the
  /// unreserved fleet so recommendations stay consistent with epoch 0.
  /// Empty = no reservation (the pre-cache behaviour, bit for bit).
  std::vector<std::size_t> reserved;
  /// Cache spec carried into latest_plan() so an artifact saved after an
  /// adaptive run resumes with the same reservation.
  std::optional<core::PlanCacheSpec> cache_spec;
  /// Mid-run data-server failure (rebuild-storm runs).  From simulated time
  /// `at` on, the advisor re-optimizes windows against cost parameters whose
  /// failed slot carries an effectively infinite device factor, so the
  /// device-aware member-prefix search prices the degraded server out of
  /// every new epoch — the same mechanism that routes around workload drift
  /// also routes around the failure.  The failed server must be the *last*
  /// slot of its tier (device factors are canonical ascending, so only the
  /// trailing slot can be excluded by a member prefix).
  struct FailSpec {
    std::size_t tier = 0;  ///< 0 = HServer tier, 1 = SServer tier
    Seconds at = 0.0;      ///< failure instant (simulated seconds)
  };
  std::optional<FailSpec> fail;
};

/// Background copier for one adopted recommendation.  Owns a private PFS
/// client that is *not* attach_observer'd: migration traffic still queues on
/// real server disks, NICs and the shared client-0 node link (that is the
/// interference), and per-server accounting sees it, but it produces no
/// request attribution — so it never feeds back into the advisor's window.
class MigrationEngine {
 public:
  MigrationEngine(pfs::Cluster& cluster,
                  std::shared_ptr<pfs::EpochedLayout> layout);

  /// Starts copying `ranges` (byte spans of the logical file) into `epoch`.
  /// `on_done(bytes_moved)` fires when the last chunk's ownership flips.
  /// Only one migration may be active at a time.
  void start(std::vector<std::pair<Bytes, Bytes>> ranges, std::uint32_t epoch,
             double bandwidth, Bytes chunk, std::function<void(Bytes)> on_done);

  bool active() const { return active_; }
  Bytes migrated_bytes() const { return migrated_bytes_; }
  std::uint64_t chunks_copied() const { return chunks_copied_; }
  /// Total simulated seconds migration chunks were in flight (read issue to
  /// ownership flip) — the window in which they contend with foreground I/O.
  Seconds interference() const { return interference_; }

  /// Per-chunk completion hook (target epoch, bytes, in-flight seconds, now);
  /// the manager uses it to stream per-epoch migration metrics.
  using ChunkHook =
      std::function<void(std::uint32_t, Bytes, Seconds, Seconds)>;
  void set_chunk_hook(ChunkHook hook) { chunk_hook_ = std::move(hook); }

 private:
  void next_chunk();

  sim::Simulator& sim_;
  pfs::Client client_;
  std::shared_ptr<pfs::EpochedLayout> layout_;

  std::vector<std::pair<Bytes, Bytes>> pending_;  ///< consumed back-to-front
  std::shared_ptr<const pfs::Layout> target_view_;
  std::uint32_t target_epoch_ = 0;
  double bandwidth_ = 0.0;
  Bytes chunk_ = 0;
  std::function<void(Bytes)> on_done_;
  ChunkHook chunk_hook_;

  bool active_ = false;
  Bytes batch_bytes_ = 0;
  Bytes migrated_bytes_ = 0;
  std::uint64_t chunks_copied_ = 0;
  Seconds interference_ = 0.0;
};

class AdaptiveLayoutManager final : public obs::Sink {
 public:
  /// Adaptive run counters (also exported as metric families).
  struct Summary {
    std::size_t epochs_installed = 0;  ///< beyond epoch 0
    std::size_t windows_analyzed = 0;
    std::size_t recommendations = 0;
    /// Recommendations that cleared min_gain but arrived while a migration
    /// was still draining (or the epoch budget was spent).
    std::size_t recommendations_deferred = 0;
    Bytes migrated_bytes = 0;
    std::uint64_t migration_chunks = 0;
    Seconds migration_interference = 0.0;
    std::uint64_t cost_evals = 0;
    std::uint64_t cost_evals_saved = 0;
  };

  /// `epoch0` is the offline plan's RST (what HarlDriver would install);
  /// `downstream` (optional, not owned) receives every Sink call unchanged.
  /// Construct *before* the Cluster and pass to Simulator::set_observer so
  /// components register through the manager.
  AdaptiveLayoutManager(core::TieredCostParams params,
                        core::RegionStripeTable epoch0, AdaptiveOptions options,
                        obs::Sink* downstream = nullptr);

  /// "Install epoch 0": builds the EpochedLayout over the cluster's tier
  /// shape, registers the logical file and epoch-0 physical region files at
  /// the MDS, and arms the migration engine.  Returns the live facade to run
  /// programs against (it resolves every request at issue time, so epoch
  /// swaps take effect mid-run).
  std::shared_ptr<const pfs::Layout> install(pfs::Cluster& cluster,
                                             const std::string& logical_name);

  // --- obs::Sink: forward everything, feed the advisor on completions ------
  std::uint32_t track(std::string_view name, obs::TrackKind kind,
                      std::uint32_t entity) override;
  std::uint32_t register_server(std::uint32_t server, std::uint32_t tier,
                                std::string_view name, bool is_ssd) override;
  std::uint32_t register_client(std::uint32_t client) override;
  void resource_event(std::uint32_t track, Seconds arrival, Seconds start,
                      Seconds finish) override;
  void server_access(std::uint32_t server, IoOp op, std::uint32_t region,
                     Bytes bytes, Bytes pieces, Seconds now) override;
  std::uint32_t begin_request(std::uint32_t client, IoOp op, Bytes offset,
                              Bytes size, Seconds now,
                              std::uint32_t file = obs::kNoId) override;
  std::uint32_t begin_sub(std::uint32_t request, std::uint32_t server,
                          std::uint32_t region, Bytes bytes,
                          Seconds now) override;
  void sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                   Seconds startup, Seconds service) override;
  void sub_net_done(std::uint32_t sub, Seconds now) override;
  void end_request(std::uint32_t request, Seconds now) override;
  void adaptive_event(AdaptiveEvent event, std::uint32_t epoch, Bytes bytes,
                      Seconds now) override;
  void cache_event(Bytes hit_bytes, Bytes miss_bytes, Seconds now) override;

  // --- results -------------------------------------------------------------

  Summary summary() const;
  const pfs::EpochedLayout* layout() const { return epoched_.get(); }

  /// The latest epoch as a Plan (RST + tier shape + calibration
  /// fingerprint), suitable for HarlDriver::save_plan — a restart from the
  /// artifact resumes from where adaptation left off.
  core::Plan latest_plan() const;

  /// Adaptive/migration metric families (adaptive.*, migration.*).  Counters
  /// only, so merging into a recorder's registry is order-independent; call
  /// after the run, e.g. recorder.metrics().merge(manager.metrics()).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Epoch-adoption hook, fired (with the new epoch id) right after a
  /// recommendation is installed and its migration armed.  The experiment
  /// runner points it at pfs::CacheManager::on_epoch so the read cache drops
  /// its stale directory and re-splits its budget at every epoch boundary.
  using EpochHook = std::function<void(std::uint32_t)>;
  void set_epoch_hook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  /// Namespace scoping: only requests tagged with this FileId feed the
  /// advisor (others pass through untouched), so each file's epochs adapt to
  /// its own traffic.  obs::kNoId (the default) accepts everything — the
  /// legacy single-file behaviour.
  void set_file_filter(std::uint32_t file) { file_filter_ = file; }

  /// True once the failure instant has passed and the advisor was rebuilt
  /// against the degraded fleet (FailSpec set only).
  bool degraded_active() const { return degraded_applied_; }

 private:
  void feed(std::uint32_t client, IoOp op, Bytes offset, Bytes size,
            Seconds issue, Seconds now);
  void handle(const core::OnlineAdvisor::Recommendation& rec, Seconds now);

  core::TieredCostParams params_;
  AdaptiveOptions options_;
  obs::Sink* downstream_;
  core::OnlineAdvisor advisor_;

  pfs::Cluster* cluster_ = nullptr;
  std::string logical_name_;
  std::vector<std::size_t> tier_counts_;
  std::shared_ptr<pfs::EpochedLayout> epoched_;
  std::unique_ptr<MigrationEngine> migration_;

  /// Foreground request slots: the manager issues its own ids so it can
  /// reconstruct a TraceRecord at end_request; `down` is the downstream id.
  struct PendingReq {
    std::uint32_t down = obs::kNoId;
    IoOp op = IoOp::kRead;
    Bytes offset = 0;
    Bytes size = 0;
    Seconds issue = 0.0;
    std::uint32_t client = 0;
    std::uint32_t file = obs::kNoId;
  };
  std::vector<PendingReq> reqs_;
  std::vector<std::uint32_t> req_free_;

  EpochHook epoch_hook_;
  std::uint32_t file_filter_ = obs::kNoId;
  bool degraded_applied_ = false;
  /// Advisor counter totals carried across the degraded-advisor swap.
  std::size_t windows_offset_ = 0;
  std::uint64_t evals_offset_ = 0;
  std::uint64_t evals_saved_offset_ = 0;
  std::uint64_t last_cost_evals_ = 0;
  std::uint64_t last_cost_evals_saved_ = 0;
  std::size_t epochs_installed_ = 0;
  std::size_t recommendations_ = 0;
  std::size_t deferred_ = 0;

  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::FamilyId m_epochs_;
  obs::MetricsRegistry::FamilyId m_windows_;
  obs::MetricsRegistry::FamilyId m_recs_;
  obs::MetricsRegistry::FamilyId m_deferred_;
  obs::MetricsRegistry::FamilyId m_evals_;
  obs::MetricsRegistry::FamilyId m_evals_saved_;
  obs::MetricsRegistry::FamilyId m_migrated_;
  obs::MetricsRegistry::FamilyId m_chunks_;
  obs::MetricsRegistry::FamilyId m_interference_;
  obs::MetricsRegistry::FamilyId m_degraded_;
};

}  // namespace harl::mw
